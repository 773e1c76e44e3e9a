//! Precomputed line-start table for O(log n) line/column lookups.
//!
//! [`crate::scanner::line_col`] rescans the input from byte 0 on every
//! call, which is fine for the strict single-error path but becomes
//! O(n·errors) once multi-error recovery reports many diagnostics against
//! the same source. [`LineIndex`] precomputes the byte offset of every
//! line start in one pass; each lookup is then a binary search plus a
//! column count bounded by the length of one line. Both the lexer and the
//! parser error paths share this type.

use crate::split_vec::SplitVec;
use crate::text::TextView;

/// Byte offsets of every line start in a source string, in ascending
/// order. The first start is always `0`; each `\n` at byte `i` contributes
/// a start at `i + 1`.
///
/// The starts are kept in a [`SplitVec`]: absolute up to the last
/// [`LineIndex::apply_edit`], relative to the end of the text after it,
/// so an edit rewrites only the starts inside its range and those between
/// it and the previous edit. An index built by [`LineIndex::new`] has its
/// split at the end and reads like a flat table.
#[derive(Debug, Clone)]
pub struct LineIndex {
    starts: SplitVec<usize>,
}

impl LineIndex {
    /// Build the index in one pass over the input.
    pub fn new(input: &str) -> Self {
        let mut starts = Vec::with_capacity(16);
        starts.push(0);
        for (i, b) in input.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex {
            starts: SplitVec::new(starts, input.len()),
        }
    }

    /// Number of lines (a trailing `\n` opens a final empty line).
    pub fn line_count(&self) -> usize {
        self.starts.len()
    }

    /// Byte offset where 1-based `line` starts, if in range.
    pub fn line_start(&self, line: usize) -> Option<usize> {
        self.starts.get(line.checked_sub(1)?)
    }

    /// Every line start, in order.
    pub fn line_starts(&self) -> impl Iterator<Item = usize> + '_ {
        self.starts.iter()
    }

    /// The 1-based line number containing byte offset `at` (offsets at or
    /// past the end of input resolve to the last line). The line-number
    /// half of [`LineIndex::line_col`] without the column count, so it
    /// never touches the text — O(log lines).
    pub fn line_of(&self, at: usize) -> usize {
        self.starts.count_while(|s| s <= at)
    }

    /// Incrementally update the index for an edit replacing the byte range
    /// `start..old_end` with `replacement`: line starts at or before
    /// `start` are kept, starts inside the replaced window are dropped in
    /// favor of the replacement's own newlines, and starts after the
    /// window move with the end of the text. Equivalent to rebuilding with
    /// [`LineIndex::new`] on the edited text, but O(lines between this
    /// edit and the previous one + lines in the window + newlines in the
    /// replacement), whatever the length of the text after the edit.
    /// Returns that count: the line starts written or removed.
    pub fn apply_edit(&mut self, start: usize, old_end: usize, replacement: &str) -> usize {
        debug_assert!(start <= old_end && old_end <= self.starts.text_len());
        let mut written = self.starts.move_split(|s| s <= start);
        written += self.starts.remove_after_split(|s| s <= old_end);
        self.starts
            .set_text_len(self.starts.text_len() - (old_end - start) + replacement.len());
        for (i, b) in replacement.bytes().enumerate() {
            if b == b'\n' {
                self.starts.push(start + i + 1);
                written += 1;
            }
        }
        written
    }

    /// Compute the 1-based line/column of byte offset `at`, identical to
    /// the naive [`crate::scanner::line_col`] scan: the line is found by
    /// binary search over the line starts, the column counts *characters*
    /// from the line start up to (not including) `at`. Offsets at or past
    /// the end of input resolve to the last line. `input` is the indexed
    /// text, a `&str` or a two-sided [`TextView`].
    pub fn line_col<'t>(&self, input: impl Into<TextView<'t>>, at: usize) -> (usize, usize) {
        let line = self.line_of(at);
        let start = self.line_start(line).expect("the first line starts at 0");
        (line, input.into().chars_in(start, at) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original byte-0 rescan, kept as the differential oracle.
    fn naive(input: &str, at: usize) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, c) in input.char_indices() {
            if i >= at {
                break;
            }
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }

    #[test]
    fn agrees_with_naive_scan_at_every_offset() {
        for input in [
            "",
            "a",
            "\n",
            "abc\ndef\nghi",
            "trailing newline\n",
            "\n\n\n",
            "SELECT é FROM t\nWHERE 中文 = '🦀'\n",
            "one\r\ntwo\r\nthree",
        ] {
            let index = LineIndex::new(input);
            // Every byte offset, plus a few past the end, read through the
            // plain text and through a view split at every char boundary.
            for at in 0..=input.len() + 3 {
                assert_eq!(
                    index.line_col(input, at),
                    naive(input, at),
                    "input {input:?} at {at}"
                );
                for split in (0..=input.len()).filter(|&i| input.is_char_boundary(i)) {
                    let view = TextView::new(&input[..split], &input[split..]);
                    assert_eq!(
                        index.line_col(view, at),
                        naive(input, at),
                        "input {input:?} split at {split}, at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn line_starts_and_counts() {
        let index = LineIndex::new("ab\ncd\n");
        assert_eq!(index.line_count(), 3);
        assert_eq!(index.line_start(1), Some(0));
        assert_eq!(index.line_start(2), Some(3));
        assert_eq!(index.line_start(3), Some(6));
        assert_eq!(index.line_start(4), None);
        assert_eq!(index.line_start(0), None);
    }

    /// Largest char boundary of `text` at or below `at`.
    fn floor_boundary(text: &str, mut at: usize) -> usize {
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Sequences of edits leave the index equal to a rebuild of the
        /// edited text after every step, wherever the previous edits left
        /// the split: line starts, line numbers and columns alike.
        #[test]
        fn apply_edit_matches_rebuild(
            base in prop::sample::select(vec![
                "",
                "a",
                "abc\ndef\nghi",
                "one\ntwo\nthree\nfour\n",
                "\n\n\n",
                "no newlines at all",
                "é\n中文\n🦀",
            ]),
            edits in prop::collection::vec(
                (
                    0usize..64,
                    0usize..8,
                    prop::sample::select(vec![
                        "", "x", "\n", "a\nb", "\n\n", "tail\n", "é", "中\n文", "🦀\n",
                    ]),
                ),
                1..12,
            ),
        ) {
            let mut text = base.to_string();
            let mut index = LineIndex::new(&text);
            for (step, (at, cut, rep)) in edits.into_iter().enumerate() {
                let start = floor_boundary(&text, at % (text.len() + 1));
                let end = floor_boundary(&text, (start + cut).min(text.len()));
                index.apply_edit(start, end, rep);
                text.replace_range(start..end, rep);
                let fresh = LineIndex::new(&text);
                let ctx = format!("{base:?} step {step}: {start}..{end} -> {rep:?}, now {text:?}");
                prop_assert_eq!(
                    index.line_starts().collect::<Vec<_>>(),
                    fresh.line_starts().collect::<Vec<_>>(),
                    "line starts: {}", ctx
                );
                prop_assert_eq!(index.line_count(), fresh.line_count(), "{}", ctx);
                for at in 0..=text.len() + 1 {
                    prop_assert_eq!(
                        index.line_col(text.as_str(), at),
                        fresh.line_col(text.as_str(), at),
                        "at {}: {}", at, ctx
                    );
                }
            }
        }
    }

    #[test]
    fn line_of_matches_line_col() {
        let input = "abc\ndef\n\nghi";
        let index = LineIndex::new(input);
        for at in 0..=input.len() + 2 {
            assert_eq!(index.line_of(at), index.line_col(input, at).0, "at {at}");
        }
    }

    #[test]
    fn multibyte_columns_count_characters_not_bytes() {
        let input = "SELECT é FROM t";
        let index = LineIndex::new(input);
        // `é` starts at byte 7 but is the 8th character.
        assert_eq!(index.line_col(input, 7), (1, 8));
    }
}
