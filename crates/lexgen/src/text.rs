//! Two-sided views of a text.
//!
//! An editor keeps a document in a gap buffer: the text before the gap at
//! the front of one allocation, the text after it at the back. A
//! [`TextView`] reads such a text as its two pieces, without joining
//! them; a plain `&str` is the view whose second piece is empty. Each
//! piece is a `&str`, so the split always falls on a char boundary, and a
//! reader that only asks for ranges on one side of the split (tokens, when
//! the split sits on a scan boundary) gets borrowed `&str`s back.

/// A text read as two pieces, `head` then `tail`.
#[derive(Debug, Clone, Copy)]
pub struct TextView<'a> {
    head: &'a str,
    tail: &'a str,
}

impl<'a> TextView<'a> {
    /// The text `head` followed by `tail`.
    pub fn new(head: &'a str, tail: &'a str) -> TextView<'a> {
        TextView { head, tail }
    }

    /// Length of the whole text in bytes.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail.is_empty()
    }

    /// The piece before the split.
    pub fn head(&self) -> &'a str {
        self.head
    }

    /// The piece after the split.
    pub fn tail(&self) -> &'a str {
        self.tail
    }

    /// Bytes `lo..hi`, which must not straddle the split.
    ///
    /// # Panics
    /// If the range straddles the split or is out of bounds.
    #[inline]
    pub fn slice(&self, lo: usize, hi: usize) -> &'a str {
        let h = self.head.len();
        if hi <= h {
            &self.head[lo..hi]
        } else {
            assert!(lo >= h, "range {lo}..{hi} straddles the split at {h}");
            &self.tail[lo - h..hi - h]
        }
    }

    /// The text from byte `from` to the end, in one piece: `from` lies at
    /// or after the split, or the second piece is empty.
    ///
    /// # Panics
    /// If the suffix would straddle the split.
    pub fn suffix(&self, from: usize) -> &'a str {
        let h = self.head.len();
        if from >= h {
            &self.tail[from - h..]
        } else {
            assert!(
                self.tail.is_empty(),
                "suffix from {from} straddles the split at {h}"
            );
            &self.head[from..]
        }
    }

    /// The char that starts at byte `at`, if `at` is before the end.
    pub fn char_at(&self, at: usize) -> Option<char> {
        let h = self.head.len();
        if at < h {
            self.head[at..].chars().next()
        } else {
            self.tail.get(at - h..)?.chars().next()
        }
    }

    /// How many chars start in bytes `lo..hi` (clamped to the text).
    pub fn chars_in(&self, lo: usize, hi: usize) -> usize {
        let h = self.head.len();
        let hi = hi.min(self.len());
        let starts = |b: &[u8]| b.iter().filter(|&&b| b & 0xC0 != 0x80).count();
        let mut n = 0;
        if lo < h {
            n += starts(&self.head.as_bytes()[lo..hi.min(h)]);
        }
        if hi > h {
            n += starts(&self.tail.as_bytes()[lo.max(h) - h..hi - h]);
        }
        n
    }
}

impl<'a> From<&'a str> for TextView<'a> {
    fn from(text: &'a str) -> TextView<'a> {
        TextView {
            head: text,
            tail: "",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_split_reads_like_the_joined_text() {
        let text = "SELECT é\nFROM 中文 -- 🦀\n";
        for at in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            let v = TextView::new(&text[..at], &text[at..]);
            assert_eq!(v.len(), text.len());
            for lo in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert_eq!(
                    v.char_at(lo),
                    text[lo..].chars().next(),
                    "split {at}, at {lo}"
                );
                for hi in (lo..=text.len()).filter(|&i| text.is_char_boundary(i)) {
                    assert_eq!(
                        v.chars_in(lo, hi),
                        text[lo..hi].chars().count(),
                        "split {at}, {lo}..{hi}"
                    );
                    if hi <= at || lo >= at {
                        assert_eq!(v.slice(lo, hi), &text[lo..hi], "split {at}, {lo}..{hi}");
                    }
                }
                if lo >= at {
                    assert_eq!(v.suffix(lo), &text[lo..]);
                }
            }
        }
        assert_eq!(TextView::from(text).suffix(3), &text[3..]);
    }

    #[test]
    #[should_panic(expected = "straddles the split")]
    fn a_range_across_the_split_panics() {
        TextView::new("SELECT", " a").slice(4, 7);
    }
}
