//! Ascending byte positions into an edited text, split at the last edit.
//!
//! An incremental caller keeps tables of positions into its document: the
//! line starts, the recorded probe frontiers of some tokens. An edit moves
//! every position after it, so a flat table pays for the document's length
//! on every keystroke. A [`SplitVec`] stores the entries before its split
//! as absolute positions and the entries after it as distances from the
//! end of the text, which an edit before them leaves as they are. An edit
//! moves the split to itself, rewriting only the entries it crosses,
//! replaces the entries inside its range, and records the new text length.
//! Consecutive edits near each other then cost what lies between them,
//! not what lies after them.

/// An entry of a [`SplitVec`]: a value anchored at a byte position of the
/// text, possibly carrying further positions.
pub trait Anchored: Copy {
    /// The position the entries are ordered by, as stored: absolute before
    /// the split, the distance from the end of the text after it.
    fn anchor(&self) -> usize;

    /// The entry with each position `p` in it replaced by `len - p`: the
    /// conversion between the absolute and the end-relative form, both
    /// ways (a sentinel such as `usize::MAX` may map to itself).
    fn mirror(self, len: usize) -> Self;

    /// The entry as the absolute part stores it right after `prev`: the
    /// place to fill in fields derived from the entries before it, such as
    /// a running maximum. Such fields are kept current before the split
    /// only.
    fn link(self, _prev: Option<&Self>) -> Self {
        self
    }
}

/// A line start, or any bare position.
impl Anchored for usize {
    fn anchor(&self) -> usize {
        *self
    }

    fn mirror(self, len: usize) -> usize {
        len - self
    }
}

/// Entries ascending by position, absolute before a movable split and
/// relative to the end of the text after it.
#[derive(Debug, Clone)]
pub struct SplitVec<T> {
    /// Entries before the split, absolute, ascending.
    head: Vec<T>,
    /// Entries after the split, end-relative, the one nearest the split
    /// last (so that the split moves by pushes and pops at both ends).
    tail: Vec<T>,
    /// Length of the text the positions point into.
    text_len: usize,
}

impl<T: Anchored> SplitVec<T> {
    /// `entries` (absolute, ascending) of a text `text_len` bytes long,
    /// with the split after the last.
    pub fn new(entries: Vec<T>, text_len: usize) -> SplitVec<T> {
        let mut head = entries;
        for i in 0..head.len() {
            head[i] = head[i].link(i.checked_sub(1).map(|j| &head[j]));
        }
        SplitVec {
            head,
            tail: Vec::new(),
            text_len,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail.is_empty()
    }

    /// Length of the text the positions point into.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// The entries before the split, absolute and linked.
    pub fn head(&self) -> &[T] {
        &self.head
    }

    /// Entry `i` in absolute form (fields [`Anchored::link`] derives are
    /// current before the split only).
    pub fn get(&self, i: usize) -> Option<T> {
        match i.checked_sub(self.head.len()) {
            None => Some(self.head[i]),
            Some(j) => {
                let k = self.tail.len().checked_sub(j + 1)?;
                Some(self.tail[k].mirror(self.text_len))
            }
        }
    }

    /// Every entry in order, in absolute form and linked.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let mut prev = self.head.last().copied();
        self.head
            .iter()
            .copied()
            .chain(self.tail.iter().rev().map(move |e| {
                let e = e.mirror(self.text_len).link(prev.as_ref());
                prev = Some(e);
                e
            }))
    }

    /// How many entries have an absolute position satisfying `pred`, which
    /// must hold for a prefix of them (a binary search on each side).
    pub fn count_while(&self, pred: impl Fn(usize) -> bool) -> usize {
        let h = self.head.partition_point(|e| pred(e.anchor()));
        if h < self.head.len() {
            return h;
        }
        // The tail is stored nearest-the-split last, so the entries that
        // satisfy `pred` are a suffix of it.
        let k = self
            .tail
            .partition_point(|e| !pred(self.text_len - e.anchor()));
        h + self.tail.len() - k
    }

    /// Move the split so that exactly the entries whose absolute position
    /// satisfies `pred` (a prefix of them) lie before it. Returns how many
    /// entries crossed the split, each rewritten once.
    pub fn move_split(&mut self, pred: impl Fn(usize) -> bool) -> usize {
        let mut moved = 0;
        while let Some(&e) = self.head.last() {
            if pred(e.anchor()) {
                break;
            }
            self.head.pop();
            self.tail.push(e.mirror(self.text_len));
            moved += 1;
        }
        if moved > 0 {
            return moved;
        }
        while let Some(&e) = self.tail.last() {
            let e = e.mirror(self.text_len);
            if !pred(e.anchor()) {
                break;
            }
            self.tail.pop();
            let e = e.link(self.head.last());
            self.head.push(e);
            moved += 1;
        }
        moved
    }

    /// Remove the entries right after the split whose absolute position
    /// satisfies `pred` (a prefix of them). Returns how many.
    pub fn remove_after_split(&mut self, pred: impl Fn(usize) -> bool) -> usize {
        let mut removed = 0;
        while let Some(&e) = self.tail.last() {
            if !pred(self.text_len - e.anchor()) {
                break;
            }
            self.tail.pop();
            removed += 1;
        }
        removed
    }

    /// Record a new text length after an edit at the split: the entries
    /// after it keep their distance from the end, so they move with it.
    pub fn set_text_len(&mut self, text_len: usize) {
        self.text_len = text_len;
    }

    /// Append an entry in absolute form at the split. It must lie after
    /// every entry before the split and before every entry after it.
    pub fn push(&mut self, e: T) {
        let e = e.link(self.head.last());
        self.head.push(e);
    }

    /// Whether the entries are strictly ascending and within the text, and
    /// every entry before the split is linked to the one before it.
    pub fn is_consistent(&self) -> bool
    where
        T: PartialEq,
    {
        let linked = self
            .head
            .iter()
            .enumerate()
            .all(|(i, &e)| e == e.link(i.checked_sub(1).map(|j| &self.head[j])));
        let ascending = self
            .iter()
            .zip(self.iter().skip(1))
            .all(|(a, b)| a.anchor() < b.anchor());
        linked && ascending && self.iter().all(|e| e.anchor() <= self.text_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A position with the running maximum of a second one, the shape of
    /// the probe cache.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Reach {
        at: usize,
        to: usize,
        max: usize,
    }

    impl Anchored for Reach {
        fn anchor(&self) -> usize {
            self.at
        }
        fn mirror(self, len: usize) -> Reach {
            Reach {
                at: len - self.at,
                to: len - self.to,
                max: self.max,
            }
        }
        fn link(self, prev: Option<&Reach>) -> Reach {
            Reach {
                max: prev.map_or(self.to, |p| p.max.max(self.to)),
                ..self
            }
        }
    }

    #[test]
    fn moving_the_split_keeps_every_entry() {
        let starts = vec![0, 4, 9, 10, 30];
        let mut v = SplitVec::new(starts.clone(), 40);
        for at in [12, 0, 40, 5, 9, 10, 3] {
            v.move_split(|s| s <= at);
            assert_eq!(
                v.head().len(),
                starts.iter().filter(|&&s| s <= at).count(),
                "split {at}"
            );
            assert_eq!(v.iter().collect::<Vec<_>>(), starts, "split {at}");
            assert_eq!(v.count_while(|s| s < 10), 3);
            assert_eq!(
                (0..5).map(|i| v.get(i).unwrap()).collect::<Vec<_>>(),
                starts
            );
            assert_eq!(v.get(5), None);
            assert!(v.is_consistent());
        }
    }

    #[test]
    fn an_edit_at_the_split_moves_only_the_entries_it_crosses() {
        // Text of 40 bytes; replace 8..12 by 7 bytes (+3): the entries at 9
        // and 10 go, one new entry at 11 comes, 30 becomes 33.
        let mut v = SplitVec::new(vec![0, 4, 9, 10, 30], 40);
        assert_eq!(v.move_split(|s| s <= 8), 3);
        assert_eq!(v.remove_after_split(|s| s <= 12), 2);
        v.set_text_len(43);
        v.push(11);
        assert_eq!(v.iter().collect::<Vec<_>>(), [0, 4, 11, 33]);
        assert!(v.is_consistent());
    }

    #[test]
    fn linked_fields_follow_the_split() {
        let e = |at, to| Reach { at, to, max: 0 };
        let mut v = SplitVec::new(vec![e(1, 9), e(3, 4), e(5, 12), e(7, 8)], 20);
        let maxes = |v: &SplitVec<Reach>| v.iter().map(|r| r.max).collect::<Vec<_>>();
        assert_eq!(maxes(&v), [9, 9, 12, 12]);
        v.move_split(|at| at < 2);
        assert_eq!(maxes(&v), [9, 9, 12, 12]);
        v.move_split(|at| at < 6);
        assert_eq!(
            v.head().iter().map(|r| r.max).collect::<Vec<_>>(),
            [9, 9, 12]
        );
        assert!(v.is_consistent());
    }
}
