//! The maintained document's text, in a gap buffer.
//!
//! [`GapText`] keeps the text before its gap at the front of one buffer
//! and the text after it at the back. An edit moves the gap to itself,
//! which moves only the bytes between the old gap and the edit, writes the
//! replacement, and parks the gap where the caller asks: the edit's relex
//! restart, a scan boundary, so no token spans the gap and every reader
//! takes a token's text from one side (see [`TextView`]).

use sqlweave_lexgen::TextView;

/// Bytes the buffer keeps spare when it (re)allocates for a text of
/// `len` bytes: a constant share of the text, so growth stays amortized.
fn spare(len: usize) -> usize {
    (len / 16).max(4096)
}

/// A text with a movable gap. The bytes before the gap and the bytes
/// after it are each valid UTF-8: the gap only ever stops at a char
/// boundary of the text, and only whole strings are written into it.
#[derive(Default)]
pub(crate) struct GapText {
    /// Text before the gap, the gap, then the text after it. The gap's
    /// bytes are unspecified.
    buf: Vec<u8>,
    /// Start of the gap: the length of the text before it.
    gap: usize,
    /// End of the gap: where the text after it begins in `buf`.
    gap_end: usize,
}

impl GapText {
    /// Replace the contents with `text`, the gap closed (at the end).
    pub(crate) fn set(&mut self, text: &str) {
        let size = text.len() + spare(text.len());
        if !(text.len()..=2 * size).contains(&self.buf.len()) {
            // `vec!` of zeros leaves the spare pages untouched until the
            // gap reaches them.
            self.buf = vec![0; size];
        }
        self.buf[..text.len()].copy_from_slice(text.as_bytes());
        self.gap = text.len();
        self.gap_end = self.buf.len();
    }

    /// Length of the text in bytes.
    pub(crate) fn len(&self) -> usize {
        self.gap + (self.buf.len() - self.gap_end)
    }

    /// Where the gap sits: the length of the text before it (debug and
    /// test builds, which check where edits park it).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn gap(&self) -> usize {
        self.gap
    }

    /// The text before the gap.
    fn head(&self) -> &str {
        // SAFETY: `buf[..gap]` is valid UTF-8. Only this module writes
        // `buf`, `gap` and `gap_end`, and each write keeps both sides whole
        // strings: `set` and `replace` copy in a `&str`, `grow` copies the
        // two sides as they are, `move_gap` asserts that its target is a
        // char boundary before it moves bytes across the gap, and
        // `replace` asserts the same of the position where it cuts the
        // text before the gap.
        unsafe { std::str::from_utf8_unchecked(&self.buf[..self.gap]) }
    }

    /// The text after the gap.
    fn tail(&self) -> &str {
        // SAFETY: `buf[gap_end..]` is valid UTF-8, for the reasons given
        // in `head`.
        unsafe { std::str::from_utf8_unchecked(&self.buf[self.gap_end..]) }
    }

    /// The text as its two sides.
    pub(crate) fn view(&self) -> TextView<'_> {
        TextView::new(self.head(), self.tail())
    }

    /// Whether byte `at` of the text (at most its length) is a char
    /// boundary.
    pub(crate) fn is_char_boundary(&self, at: usize) -> bool {
        if at < self.gap {
            self.head().is_char_boundary(at)
        } else {
            self.tail().is_char_boundary(at - self.gap)
        }
    }

    /// Move the gap to byte `to` of the text, moving the bytes between.
    ///
    /// # Panics
    /// If `to` is past the end of the text or not a char boundary.
    fn move_gap(&mut self, to: usize) {
        assert!(
            to <= self.len() && self.is_char_boundary(to),
            "the gap stops at char boundaries"
        );
        let n = to.abs_diff(self.gap);
        if to < self.gap {
            self.buf.copy_within(to..self.gap, self.gap_end - n);
            self.gap_end -= n;
        } else {
            self.buf
                .copy_within(self.gap_end..self.gap_end + n, self.gap);
            self.gap_end += n;
        }
        self.gap = to;
        crate::tree::count_text_moves(n);
    }

    /// Close the gap (move it to the end) and return the whole text.
    pub(crate) fn as_str(&mut self) -> &str {
        self.move_gap(self.len());
        self.head()
    }

    /// Replace bytes `start..old_end` of the text with `rep` and park the
    /// gap at `park`, at or before `start`. Moves the bytes between the
    /// gap and `old_end`, then those between `park` and `start`, and
    /// writes `rep` once.
    ///
    /// # Panics
    /// If a position is out of order, past the end of the text or not a
    /// char boundary.
    pub(crate) fn replace(&mut self, start: usize, old_end: usize, rep: &str, park: usize) {
        assert!(
            park <= start && start <= old_end,
            "replace {start}..{old_end}, park at {park}"
        );
        self.move_gap(old_end);
        assert!(
            self.head().is_char_boundary(start),
            "edits start at char boundaries"
        );
        // The replaced bytes join the gap, and `rep` is written at the
        // front of the text after it.
        self.gap = start;
        if self.gap_end - self.gap < rep.len() {
            self.grow(rep.len());
        }
        self.gap_end -= rep.len();
        self.buf[self.gap_end..self.gap_end + rep.len()].copy_from_slice(rep.as_bytes());
        crate::tree::count_text_moves(rep.len());
        self.move_gap(park);
    }

    /// Reallocate with room for `extra` more bytes plus the spare share.
    fn grow(&mut self, extra: usize) {
        let len = self.len() + extra;
        let mut buf = vec![0; len + spare(len)];
        let tail = self.buf.len() - self.gap_end;
        let new_end = buf.len() - tail;
        buf[..self.gap].copy_from_slice(&self.buf[..self.gap]);
        buf[new_end..].copy_from_slice(&self.buf[self.gap_end..]);
        self.buf = buf;
        self.gap_end = new_end;
    }

    /// Whether both sides are valid UTF-8, checked byte by byte (debug
    /// and test builds): the invariant `head` and `tail` rely on.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn sides_are_utf8(&self) -> bool {
        std::str::from_utf8(&self.buf[..self.gap]).is_ok()
            && std::str::from_utf8(&self.buf[self.gap_end..]).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_and_gap_moves_keep_the_text() {
        let mut t = GapText::default();
        let mut want = String::from("SELECT é FROM t;\nSELECT 中文 FROM u");
        t.set(&want);
        assert_eq!(t.gap(), want.len());
        for (start, old_end, rep, park) in [
            (7, 9, "x", 0),
            (0, 0, "-- 🦀\n", 0),
            (20, 24, "", 12),
            (3, 3, "", 3),
            (7, 31, "abc", 1),
        ] {
            t.replace(start, old_end, rep, park);
            want.replace_range(start..old_end, rep);
            assert_eq!(t.gap(), park);
            let v = t.view();
            assert_eq!(format!("{}{}", v.head(), v.tail()), want);
            assert!(t.sides_are_utf8());
        }
        assert_eq!(t.as_str(), want);
    }

    #[test]
    fn a_long_insertion_grows_the_buffer() {
        let mut t = GapText::default();
        t.set("ab");
        let long = "x".repeat(10_000);
        t.replace(1, 1, &long, 1);
        assert_eq!(t.as_str(), format!("a{long}b"));
    }

    #[test]
    #[should_panic(expected = "char boundaries")]
    fn the_gap_never_splits_a_char() {
        let mut t = GapText::default();
        t.set("é");
        t.move_gap(1);
    }
}
