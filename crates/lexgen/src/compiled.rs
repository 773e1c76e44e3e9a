//! Dense byte-oriented lowering of the minimized DFA — the lexing hot path.
//!
//! The interval DFA ([`crate::dfa::Dfa`]) is exact but pays a binary search
//! over `(char, char)` intervals for every input character. This module
//! compiles it once, at scanner-build time, into the classic table-driven
//! form:
//!
//! * a 256-entry **byte → equivalence class** map (two bytes share a class
//!   iff every DFA state moves them to the same successor),
//! * a flattened `states × classes` next-state table (`Vec<u32>`, one
//!   bounds-checked index per input byte, [`DEAD`] = reject),
//! * packed **accept/skip metadata** per state (`u32`: the winning rule tag
//!   with [`SKIP_FLAG`] folded in, [`NO_ACCEPT`] = not accepting).
//!
//! Only ASCII bytes are classified: SQL keywords, operators and pattern
//! alphabets are ASCII, so ≥ 99 % of realistic input takes the dense path.
//! Bytes ≥ 0x80 map to the reject class and the scanner instead decodes the
//! full UTF-8 scalar and steps the *interval* DFA for that one character
//! ([`crate::dfa::Dfa::step`]); both automata share state numbering, so the
//! walk continues seamlessly in either direction. Unicode identifiers and
//! string-literal contents therefore stay byte-for-byte identical to the
//! interval walker — proven by the differential suites, not assumed.

use crate::dfa::Dfa;

/// Next-state sentinel: no transition (the implicit dead state).
pub const DEAD: u32 = u32::MAX;

/// Accept-metadata sentinel: the state accepts nothing.
pub const NO_ACCEPT: u32 = u32::MAX;

/// Accept-metadata flag: the winning rule is a skip rule (whitespace,
/// comments) and the match is dropped instead of emitted.
pub const SKIP_FLAG: u32 = 1 << 31;

/// Mask extracting the rule tag from accept metadata.
pub const TAG_MASK: u32 = SKIP_FLAG - 1;

/// A fixed-capacity packed bitset (one bit per token rule); the compact
/// replacement for the scanner's former `Vec<bool>` skip table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An all-clear set of `len` bits.
    pub fn new(len: usize) -> BitSet {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Read bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 != 0
    }
}

impl FromIterator<bool> for BitSet {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> BitSet {
        let mut set = BitSet::new(0);
        for (i, b) in iter.into_iter().enumerate() {
            set.len = i + 1;
            if set.words.len() * 64 < set.len {
                set.words.push(0);
            }
            if b {
                set.insert(i);
            }
        }
        set
    }
}

/// The compiled byte-class form of a minimized DFA. Build once with
/// [`CompiledDfa::compile`]; shares state numbering with the source DFA.
#[derive(Debug, Clone)]
pub struct CompiledDfa {
    /// Byte → equivalence class. Class 0 is the reject class (no ASCII
    /// transition anywhere; also where all bytes ≥ 0x80 land — the scanner
    /// routes those through the interval DFA instead).
    class_of: [u8; 256],
    /// Number of classes (reject class included).
    n_classes: usize,
    /// Flattened `states × n_classes` next-state table; [`DEAD`] = reject.
    table: Vec<u32>,
    /// Per-state packed accept metadata: [`NO_ACCEPT`], or the winning rule
    /// tag with [`SKIP_FLAG`] folded in for skip rules.
    accept: Vec<u32>,
}

impl CompiledDfa {
    /// Lower `dfa` into dense tables. `skip` marks skip-rule tags so their
    /// flag can be packed into the per-state accept metadata.
    pub fn compile(dfa: &Dfa, skip: &BitSet) -> CompiledDfa {
        let n_states = dfa.states.len();

        // Column signature per ASCII byte: the successor of every state.
        // Two bytes with identical columns are one equivalence class; the
        // all-DEAD column is class 0. (At most 129 classes, so `u8` ids.)
        let mut class_of = [0u8; 256];
        let mut columns: Vec<Vec<u32>> = vec![vec![DEAD; n_states]];
        for b in 0u8..0x80 {
            let Some(interval) = dfa.classify(b as char) else {
                continue; // stays in the reject class
            };
            let column: Vec<u32> = dfa
                .states
                .iter()
                .map(|s| s.trans[interval].unwrap_or(DEAD))
                .collect();
            let class = columns
                .iter()
                .position(|c| *c == column)
                .unwrap_or_else(|| {
                    columns.push(column);
                    columns.len() - 1
                });
            class_of[b as usize] = class as u8;
        }

        let n_classes = columns.len();
        let mut table = vec![DEAD; n_states * n_classes];
        for (class, column) in columns.iter().enumerate() {
            for (state, &next) in column.iter().enumerate() {
                table[state * n_classes + class] = next;
            }
        }

        let accept = dfa
            .states
            .iter()
            .map(|s| match s.accept {
                None => NO_ACCEPT,
                Some(tag) => {
                    debug_assert!((tag as u32) < TAG_MASK);
                    let flag = if skip.contains(tag) { SKIP_FLAG } else { 0 };
                    tag as u32 | flag
                }
            })
            .collect();

        CompiledDfa { class_of, n_classes, table, accept }
    }

    /// Step on an ASCII byte: one class lookup, one table index.
    #[inline]
    pub fn step_ascii(&self, state: u32, byte: u8) -> u32 {
        debug_assert!(byte < 0x80);
        let class = self.class_of[byte as usize] as usize;
        self.table[state as usize * self.n_classes + class]
    }

    /// [`CompiledDfa::step_ascii`] without bounds checks, for the
    /// vectorized core's inner loop.
    ///
    /// # Safety
    /// `state` must be a live state of this automaton (every non-[`DEAD`]
    /// table entry is, and the scan loop never steps from [`DEAD`]);
    /// `byte` must be < 0x80.
    #[inline]
    pub(crate) unsafe fn step_ascii_unchecked(&self, state: u32, byte: u8) -> u32 {
        debug_assert!(byte < 0x80);
        debug_assert!((state as usize) < self.accept.len());
        let class = *self.class_of.get_unchecked(byte as usize) as usize;
        *self.table.get_unchecked(state as usize * self.n_classes + class)
    }

    /// [`CompiledDfa::accept_meta`] without bounds checks.
    ///
    /// # Safety
    /// `state` must be a live state of this automaton.
    #[inline]
    pub(crate) unsafe fn accept_meta_unchecked(&self, state: u32) -> u32 {
        debug_assert!((state as usize) < self.accept.len());
        *self.accept.get_unchecked(state as usize)
    }

    /// Packed accept metadata of `state` ([`NO_ACCEPT`] when rejecting).
    #[inline]
    pub fn accept_meta(&self, state: u32) -> u32 {
        self.accept[state as usize]
    }

    /// Byte-equivalence class of `byte`. Two bytes share a class iff every
    /// state moves them to the same successor, so class equality is a
    /// machine-checkable proof that two bytes are interchangeable
    /// everywhere — the property the vectorized path's keyword soundness
    /// gate relies on for case-insensitivity.
    #[inline]
    pub fn byte_class(&self, byte: u8) -> u8 {
        self.class_of[byte as usize]
    }

    /// Number of byte equivalence classes, reject class included — the
    /// width of the dispatch table and the size metric reported by
    /// `sqlweave dialects`.
    pub fn byte_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of states (same as the source DFA).
    pub fn states(&self) -> usize {
        self.accept.len()
    }

    /// Total table bytes (next-state entries + accept metadata), the
    /// footprint trade-off of compilation.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.class_of)
            + self.table.len() * std::mem::size_of::<u32>()
            + self.accept.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;
    use crate::regex::parse;

    fn compiled_of(patterns: &[&str], skip_tags: &[usize]) -> (Dfa, CompiledDfa) {
        let mut nfa = Nfa::new();
        for (i, p) in patterns.iter().enumerate() {
            nfa.add_pattern(&parse(p).unwrap(), i);
        }
        nfa.finish();
        let dfa = crate::minimize::minimize(&Dfa::from_nfa(&nfa));
        let mut skip = BitSet::new(patterns.len());
        for &t in skip_tags {
            skip.insert(t);
        }
        let compiled = CompiledDfa::compile(&dfa, &skip);
        (dfa, compiled)
    }

    /// Reference longest-match via the compiled tables only (ASCII input).
    fn simulate_ascii(c: &CompiledDfa, input: &str) -> Option<(usize, usize)> {
        let mut state = 0u32;
        let mut best = None;
        for (i, &b) in input.as_bytes().iter().enumerate() {
            let next = c.step_ascii(state, b);
            if next == DEAD {
                break;
            }
            state = next;
            let meta = c.accept_meta(state);
            if meta != NO_ACCEPT {
                best = Some((i + 1, (meta & TAG_MASK) as usize));
            }
        }
        best
    }

    #[test]
    fn agrees_with_interval_dfa_on_ascii() {
        let patterns = ["select", "[a-z_][a-z0-9_]*", "[0-9]+", "<=|<>|<", "'([^'])*'"];
        let (dfa, compiled) = compiled_of(&patterns, &[]);
        for input in [
            "select", "selects", "sel", "x1_y", "042", "<", "<=", "<>", "'ab c'", "''", "9z",
            "", "#",
        ] {
            assert_eq!(simulate_ascii(&compiled, input), dfa.simulate(input), "on {input:?}");
        }
    }

    #[test]
    fn byte_classes_collapse_equivalent_bytes() {
        // Inside [a-z]+ every lowercase letter behaves identically: one
        // class for a-z, the reject class for everything else.
        let (_, compiled) = compiled_of(&["[a-z]+"], &[]);
        assert_eq!(compiled.byte_classes(), 2);
        let a = compiled.class_of[b'a' as usize];
        assert_eq!(compiled.class_of[b'q' as usize], a);
        assert_eq!(compiled.class_of[b'z' as usize], a);
        assert_eq!(compiled.class_of[b'0' as usize], 0);
        assert_eq!(compiled.class_of[0xC3], 0, "non-ASCII stays in the reject class");
    }

    #[test]
    fn skip_flag_packed_into_accept_metadata() {
        let (dfa, compiled) = compiled_of(&["[a-z]+", "[ ]+"], &[1]);
        let (_, tag) = dfa.simulate("   ").unwrap();
        assert_eq!(tag, 1);
        let (len, _) = simulate_ascii(&compiled, "   ").unwrap();
        assert_eq!(len, 3);
        // walk to the accepting state and check the packed flag
        let mut state = 0u32;
        state = compiled.step_ascii(state, b' ');
        let meta = compiled.accept_meta(state);
        assert_eq!(meta & SKIP_FLAG, SKIP_FLAG);
        assert_eq!(meta & TAG_MASK, 1);
        // the identifier rule is not skip-flagged
        let mut state = 0u32;
        state = compiled.step_ascii(state, b'x');
        assert_eq!(compiled.accept_meta(state), 0);
    }

    #[test]
    fn reject_class_is_dead_everywhere() {
        let (dfa, compiled) = compiled_of(&["[a-z]+"], &[]);
        for state in 0..dfa.len() as u32 {
            assert_eq!(compiled.step_ascii(state, b'!'), DEAD);
        }
    }

    #[test]
    fn bitset_roundtrip() {
        let bits = [true, false, false, true, true];
        let set: BitSet = bits.iter().copied().collect();
        assert_eq!(set.len(), 5);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(set.contains(i), b, "bit {i}");
        }
        let mut wide = BitSet::new(130);
        wide.insert(0);
        wide.insert(64);
        wide.insert(129);
        assert!(wide.contains(0) && wide.contains(64) && wide.contains(129));
        assert!(!wide.contains(63) && !wide.contains(65) && !wide.contains(128));
    }

    #[test]
    fn table_bytes_accounts_for_density() {
        let (dfa, compiled) = compiled_of(&["[a-z]+", "[0-9]+"], &[]);
        assert_eq!(compiled.states(), dfa.len());
        assert!(compiled.table_bytes() >= 256 + dfa.len() * 4);
    }
}
