//! Maximal-munch scanning with a compiled DFA.
//!
//! Four equivalent scanning substrates share one token contract:
//!
//! * [`Scanner::scan`] / [`Scanner::scan_into`] — the hot path: the
//!   vectorized run-skipper of [`crate::vector`] (chunked SWAR/SIMD
//!   classification of self-loop runs plus the generated keyword hash),
//!   falling back to the compiled tables at run boundaries and to the
//!   interval DFA for multi-byte UTF-8 scalars.
//! * [`Scanner::scan_compiled`] — the per-byte compiled byte-class walk
//!   (the previous hot path), preserved both as a differential oracle and
//!   as the scalar leg of the vectorization ablation.
//! * [`Scanner::scan_reference`] — the original per-character interval
//!   walker (binary search per `char`), preserved as a differential oracle
//!   alongside the even slower [`Scanner::scan_naive`].

use crate::compiled::{self, BitSet, CompiledDfa};
use crate::dfa::Dfa;
use crate::line_index::LineIndex;
use crate::vector::{SimdLevel, VectorTables};
use std::fmt;

/// Index of a token rule inside the [`crate::TokenSet`] that built the
/// scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenKind(pub u32);

impl TokenKind {
    /// The dense rule index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One scanned token. Text is referenced by byte span into the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Which rule matched.
    pub kind: TokenKind,
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

impl Token {
    /// The matched lexeme.
    pub fn text<'a>(&self, input: &'a str) -> &'a str {
        &input[self.start..self.end]
    }
}

/// Lexical error: no rule matches at `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in characters).
    pub column: usize,
    /// The offending character, if any (None at end of input).
    pub found: Option<char>,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.found {
            Some(c) => write!(
                f,
                "lexical error at line {}, column {}: unexpected character {c:?}",
                self.line, self.column
            ),
            None => write!(
                f,
                "lexical error at line {}, column {}: unexpected end of input",
                self.line, self.column
            ),
        }
    }
}

impl std::error::Error for LexError {}

/// Compute 1-based line/column of a byte offset.
///
/// Convenience wrapper that builds a throwaway [`LineIndex`]; callers
/// reporting many positions against the same source should build one
/// index and call [`LineIndex::line_col`] directly.
pub fn line_col(input: &str, at: usize) -> (usize, usize) {
    LineIndex::new(input).line_col(input, at)
}

/// A compiled scanner: minimized DFA, its dense byte-class lowering, and
/// rule metadata (interned names, packed skip bitset).
#[derive(Debug, Clone)]
pub struct Scanner {
    pub(crate) dfa: Dfa,
    pub(crate) compiled: CompiledDfa,
    pub(crate) vector: VectorTables,
    pub(crate) names: Box<[Box<str>]>,
    pub(crate) skip: BitSet,
    /// Per-rule probe-overhang bound in characters
    /// ([`crate::dfa::Dfa::probe_overhang_by_tag`], computed once at
    /// build); `None` entries mark rules whose matches can look ahead
    /// unboundedly and need exact recorded probe frontiers instead.
    pub(crate) overhang_by_tag: Box<[Option<usize>]>,
}

impl Scanner {
    /// Rule name for a token kind.
    pub fn name(&self, kind: TokenKind) -> &str {
        &self.names[kind.index()]
    }

    /// Kind for a rule name, if present.
    pub fn kind_of(&self, name: &str) -> Option<TokenKind> {
        self.names
            .iter()
            .position(|n| &**n == name)
            .map(|i| TokenKind(i as u32))
    }

    /// `true` if `kind` is a skip rule (its matches are dropped).
    pub fn is_skip(&self, kind: TokenKind) -> bool {
        self.skip.contains(kind.index())
    }

    /// Number of rules (including skip rules).
    pub fn rule_count(&self) -> usize {
        self.names.len()
    }

    /// Number of DFA states (size metric for Experiment B3).
    pub fn dfa_states(&self) -> usize {
        self.dfa.len()
    }

    /// Number of byte equivalence classes in the compiled dispatch tables
    /// (size metric for Experiment B6 and `sqlweave dialects`).
    pub fn byte_classes(&self) -> usize {
        self.compiled.byte_classes()
    }

    /// The compiled byte-class tables (for ablation benches and tooling).
    pub fn compiled(&self) -> &CompiledDfa {
        &self.compiled
    }

    /// The minimized interval DFA the compiled tables were lowered from
    /// (the UTF-8 fallback substrate; exposed so ablation benches can
    /// re-run the lowering in isolation).
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// The chunked-classification level the vectorized path selected at
    /// build time (runtime-detected; pinned to SWAR under `no-simd`).
    pub fn simd_level(&self) -> SimdLevel {
        self.vector.level
    }

    /// Which vectorized strategy the build-time soundness gate chose:
    /// `"keyword-hash"` (keyword-free automaton + generated hash) or
    /// `"run-only"` (run-skipping over the full compiled DFA).
    pub fn vector_strategy(&self) -> &'static str {
        self.vector.strategy()
    }

    /// Number of keywords in the generated perfect-hash (0 when the
    /// soundness gate fell back to run-only mode).
    pub fn keywords_hashed(&self) -> usize {
        self.vector.keywords_hashed()
    }

    /// Scan the whole input, dropping skip-rule matches.
    pub fn scan(&self, input: &str) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        self.scan_into(input, &mut out)?;
        Ok(out)
    }

    /// Scan the whole input, appending tokens to a caller-owned vector so
    /// batch drivers can recycle the allocation across statements. The
    /// vector is *not* cleared first.
    ///
    /// This is the hot path: the vectorized run-skipper of
    /// [`crate::vector`] — chunked SWAR/SIMD classification of DFA
    /// self-loop runs, per-byte table stepping only at run boundaries, and
    /// keyword recognition through the generated per-dialect hash. Bytes
    /// ≥ 0x80 stop every run, decode the full UTF-8 scalar, and step the
    /// interval DFA for that character, so multi-byte content — Unicode
    /// string literals, exotic whitespace — behaves exactly like the
    /// reference walker.
    pub fn scan_into(&self, input: &str, out: &mut Vec<Token>) -> Result<(), LexError> {
        match self.scan_core(input, 0, out) {
            Ok(()) => Ok(()),
            Err(pos) => {
                let (line, column) = line_col(input, pos);
                Err(LexError {
                    at: pos,
                    line,
                    column,
                    found: input[pos..].chars().next(),
                })
            }
        }
    }

    /// [`Scanner::scan`] with the chunked classifier pinned to `level`
    /// (for the vectorization ablation and the differential suites).
    /// Returns `None` if `level` is not available on this machine.
    pub fn scan_with_simd(
        &self,
        level: SimdLevel,
        input: &str,
    ) -> Option<Result<Vec<Token>, LexError>> {
        if !level.available() {
            return None;
        }
        let mut out = Vec::new();
        let res = match self.vector.scan_core(&self.dfa, &self.compiled, input, 0, &mut out, level)
        {
            Ok(()) => Ok(out),
            Err(pos) => {
                let (line, column) = line_col(input, pos);
                Err(LexError {
                    at: pos,
                    line,
                    column,
                    found: input[pos..].chars().next(),
                })
            }
        };
        Some(res)
    }

    /// Scan the whole input, collecting *every* lexical error instead of
    /// stopping at the first: on a stuck position the offending character
    /// is recorded and skipped, and scanning resumes at the next
    /// character. Tokens for the recognizable stretches are appended to
    /// `out` in source order; the returned errors are likewise ordered by
    /// byte offset. Error fields are built exactly as in
    /// [`Scanner::scan_into`], so the first error of a resilient scan is
    /// byte-identical to the strict error.
    pub fn scan_resilient_into(&self, input: &str, out: &mut Vec<Token>) -> Vec<LexError> {
        let mut errors = Vec::new();
        let mut index: Option<LineIndex> = None;
        let mut pos = 0usize;
        loop {
            match self.scan_core(input, pos, out) {
                Ok(()) => break,
                Err(at) => {
                    let index = index.get_or_insert_with(|| LineIndex::new(input));
                    let (line, column) = index.line_col(input, at);
                    let found = input[at..].chars().next();
                    errors.push(LexError { at, line, column, found });
                    match found {
                        Some(c) => pos = at + c.len_utf8(),
                        None => break,
                    }
                }
            }
        }
        errors
    }

    /// The maximal-munch core shared by the strict and resilient entry
    /// points: the vectorized run-skipping loop, scanning from byte
    /// `start` to the end of input, appending non-skip tokens, returning
    /// `Err(pos)` with the byte offset of the first position where no rule
    /// matches.
    fn scan_core(&self, input: &str, start: usize, out: &mut Vec<Token>) -> Result<(), usize> {
        self.vector
            .scan_core(&self.dfa, &self.compiled, input, start, out, self.vector.level)
    }

    /// Scan with the per-byte compiled byte-class walk — the pre-vector
    /// hot path, preserved as a differential oracle and as the scalar leg
    /// of the vectorization ablation (Experiment B9). Produces identical
    /// output to [`Scanner::scan`].
    pub fn scan_compiled(&self, input: &str) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        self.scan_compiled_into(input, &mut out)?;
        Ok(out)
    }

    /// [`Scanner::scan_compiled`] into a caller-owned vector (not cleared
    /// first), so ablation benches compare equal-allocation paths.
    pub fn scan_compiled_into(&self, input: &str, out: &mut Vec<Token>) -> Result<(), LexError> {
        match self.scan_core_compiled(input, 0, out) {
            Ok(()) => Ok(()),
            Err(pos) => {
                let (line, column) = line_col(input, pos);
                Err(LexError {
                    at: pos,
                    line,
                    column,
                    found: input[pos..].chars().next(),
                })
            }
        }
    }

    /// The per-byte table-driven maximal-munch loop (the PR-4 hot path):
    /// one bounds-checked table index per ASCII byte.
    fn scan_core_compiled(
        &self,
        input: &str,
        start: usize,
        out: &mut Vec<Token>,
    ) -> Result<(), usize> {
        let bytes = input.as_bytes();
        let compiled = &self.compiled;
        let mut pos = start;
        while pos < bytes.len() {
            let mut state = 0u32;
            let mut i = pos;
            // (end, packed accept metadata) of the longest match so far
            let mut best: Option<(usize, u32)> = None;
            while i < bytes.len() {
                let b = bytes[i];
                let next = if b < 0x80 {
                    i += 1;
                    compiled.step_ascii(state, b)
                } else {
                    // Multi-byte scalar: `i` is a char boundary because the
                    // scan advances by whole characters.
                    let c = input[i..].chars().next().expect("non-empty suffix");
                    i += c.len_utf8();
                    match self.dfa.step(state, c) {
                        Some(next) => next,
                        None => compiled::DEAD,
                    }
                };
                if next == compiled::DEAD {
                    break;
                }
                state = next;
                let meta = compiled.accept_meta(state);
                if meta != compiled::NO_ACCEPT {
                    best = Some((i, meta));
                }
            }
            match best {
                Some((end, meta)) => {
                    debug_assert!(end > pos, "zero-length token match would not progress");
                    if meta & compiled::SKIP_FLAG == 0 {
                        out.push(Token {
                            kind: TokenKind(meta & compiled::TAG_MASK),
                            start: pos,
                            end,
                        });
                    }
                    pos = end;
                }
                None => return Err(pos),
            }
        }
        Ok(())
    }

    /// Scan with the per-character interval walker — the pre-compilation
    /// hot path, preserved as a differential oracle (and as the `interval`
    /// leg of the scanner-compilation ablation, Experiment B6). Produces
    /// identical output to [`Scanner::scan`].
    pub fn scan_reference(&self, input: &str) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        self.scan_reference_into(input, &mut out)?;
        Ok(out)
    }

    /// [`Scanner::scan_reference`] into a caller-owned vector (not cleared
    /// first), so ablation benches compare equal-allocation paths.
    pub fn scan_reference_into(
        &self,
        input: &str,
        out: &mut Vec<Token>,
    ) -> Result<(), LexError> {
        let mut pos = 0usize;
        while pos < input.len() {
            let rest = &input[pos..];
            match self.dfa.simulate(rest) {
                Some((len, tag)) => {
                    debug_assert!(len > 0, "zero-length token match would not progress");
                    if !self.skip.contains(tag) {
                        out.push(Token {
                            kind: TokenKind(tag as u32),
                            start: pos,
                            end: pos + len,
                        });
                    }
                    pos += len;
                }
                None => {
                    let (line, column) = line_col(input, pos);
                    return Err(LexError {
                        at: pos,
                        line,
                        column,
                        found: rest.chars().next(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Reference implementation scanning with per-rule NFA simulation; used
    /// as the naive-scanner ablation baseline (Experiment B5) and in
    /// differential tests. Produces identical output to [`Scanner::scan`].
    pub fn scan_naive(
        &self,
        input: &str,
        nfas: &[crate::nfa::Nfa],
    ) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < input.len() {
            let rest = &input[pos..];
            // Try every rule; longest match wins, ties by rule order.
            let mut best: Option<(usize, usize)> = None;
            for (tag, nfa) in nfas.iter().enumerate() {
                if let Some((len, _)) = nfa.simulate(rest) {
                    match best {
                        Some((blen, _)) if blen >= len => {}
                        _ => best = Some((len, tag)),
                    }
                }
            }
            match best {
                Some((len, tag)) => {
                    if !self.skip.contains(tag) {
                        out.push(Token {
                            kind: TokenKind(tag as u32),
                            start: pos,
                            end: pos + len,
                        });
                    }
                    pos += len;
                }
                None => {
                    let (line, column) = line_col(input, pos);
                    return Err(LexError {
                        at: pos,
                        line,
                        column,
                        found: rest.chars().next(),
                    });
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenset::TokenSet;

    fn sql_scanner() -> Scanner {
        let mut ts = TokenSet::new();
        ts.keyword("SELECT").unwrap();
        ts.keyword("FROM").unwrap();
        ts.keyword("WHERE").unwrap();
        ts.punct("COMMA", ",").unwrap();
        ts.punct("EQ", "=").unwrap();
        ts.punct("LPAREN", "(").unwrap();
        ts.punct("RPAREN", ")").unwrap();
        ts.pattern("IDENT", "[A-Za-z_][A-Za-z0-9_]*").unwrap();
        ts.pattern("NUMBER", "[0-9]+(\\.[0-9]+)?").unwrap();
        ts.pattern("STRING", "'([^'])*'").unwrap();
        ts.skip("WS", "[ \\t\\r\\n]+").unwrap();
        ts.skip("LINE_COMMENT", "--[^\\n]*").unwrap();
        ts.build().unwrap()
    }

    fn kinds(s: &Scanner, input: &str) -> Vec<String> {
        s.scan(input)
            .unwrap()
            .iter()
            .map(|t| s.name(t.kind).to_string())
            .collect()
    }

    #[test]
    fn basic_statement() {
        let s = sql_scanner();
        assert_eq!(
            kinds(&s, "SELECT a, b FROM t WHERE a = 1"),
            [
                "SELECT", "IDENT", "COMMA", "IDENT", "FROM", "IDENT", "WHERE", "IDENT", "EQ",
                "NUMBER"
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        let s = sql_scanner();
        assert_eq!(kinds(&s, "select From WHERE"), ["SELECT", "FROM", "WHERE"]);
    }

    #[test]
    fn keyword_prefix_is_identifier() {
        let s = sql_scanner();
        assert_eq!(kinds(&s, "selection fromage"), ["IDENT", "IDENT"]);
    }

    #[test]
    fn spans_and_text() {
        let s = sql_scanner();
        let input = "SELECT name FROM users";
        let toks = s.scan(input).unwrap();
        assert_eq!(toks[1].text(input), "name");
        assert_eq!(toks[3].text(input), "users");
        assert_eq!(toks[0].start, 0);
        assert_eq!(toks[0].end, 6);
    }

    #[test]
    fn comments_and_whitespace_skipped() {
        let s = sql_scanner();
        assert_eq!(
            kinds(&s, "SELECT a -- trailing comment\nFROM t"),
            ["SELECT", "IDENT", "FROM", "IDENT"]
        );
    }

    #[test]
    fn string_literals() {
        let s = sql_scanner();
        let input = "WHERE name = 'O Brien'";
        let toks = s.scan(input).unwrap();
        assert_eq!(s.name(toks[3].kind), "STRING");
        assert_eq!(toks[3].text(input), "'O Brien'");
    }

    #[test]
    fn numbers_with_decimals() {
        let s = sql_scanner();
        let input = "3.14 42";
        let toks = s.scan(input).unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].text(input), "3.14");
        assert_eq!(toks[1].text(input), "42");
    }

    #[test]
    fn lex_error_position() {
        let s = sql_scanner();
        let err = s.scan("SELECT a\nFROM #").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 6);
        assert_eq!(err.found, Some('#'));
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        let s = sql_scanner();
        assert_eq!(s.scan("").unwrap(), vec![]);
        assert_eq!(s.scan("   \n\t ").unwrap(), vec![]);
    }

    #[test]
    fn kind_lookup_roundtrip() {
        let s = sql_scanner();
        let k = s.kind_of("IDENT").unwrap();
        assert_eq!(s.name(k), "IDENT");
        assert!(s.kind_of("NOPE").is_none());
        assert!(s.is_skip(s.kind_of("WS").unwrap()));
        assert!(!s.is_skip(k));
    }

    #[test]
    fn compiled_tables_report_sizes() {
        let s = sql_scanner();
        assert!(s.byte_classes() > 2, "SQL token set has several byte classes");
        assert!(s.byte_classes() <= 129);
        assert_eq!(s.compiled().states(), s.dfa_states());
    }

    #[test]
    fn compiled_agrees_with_reference_walker() {
        let s = sql_scanner();
        for input in [
            "SELECT a, b FROM t WHERE a = 1",
            "select From WHERE",
            "3.14 42 'str' -- c\nx",
            "",
            "   \t\n",
            "ident_42='x'",
        ] {
            assert_eq!(s.scan(input), s.scan_reference(input), "on {input:?}");
        }
    }

    #[test]
    fn utf8_string_contents_take_the_fallback_path() {
        // `'([^'])*'` covers every non-quote scalar, so multi-byte content
        // exercises the interval fallback mid-token.
        let s = sql_scanner();
        let input = "WHERE name = 'héllo wörld — 中文 🦀'";
        let toks = s.scan(input).unwrap();
        assert_eq!(s.name(toks[3].kind), "STRING");
        assert_eq!(toks[3].text(input), "'héllo wörld — 中文 🦀'");
        assert_eq!(s.scan(input), s.scan_reference(input));
    }

    #[test]
    fn resilient_scan_collects_every_error_and_all_tokens() {
        let s = sql_scanner();
        let input = "SELECT # a\nFROM ~ t ?";
        let mut toks = Vec::new();
        let errors = s.scan_resilient_into(input, &mut toks);
        let kinds: Vec<&str> = toks.iter().map(|t| s.name(t.kind)).collect();
        assert_eq!(kinds, ["SELECT", "IDENT", "FROM", "IDENT"]);
        assert_eq!(errors.len(), 3);
        assert_eq!(
            errors.iter().map(|e| e.found).collect::<Vec<_>>(),
            [Some('#'), Some('~'), Some('?')]
        );
        assert_eq!((errors[1].line, errors[1].column), (2, 6));
        // First error is byte-identical to the strict scan's error.
        assert_eq!(errors[0], s.scan(input).unwrap_err());
    }

    #[test]
    fn resilient_scan_matches_strict_scan_on_clean_input() {
        let s = sql_scanner();
        for input in ["SELECT a, b FROM t WHERE a = 1", "", "  \n"] {
            let mut toks = Vec::new();
            assert!(s.scan_resilient_into(input, &mut toks).is_empty());
            assert_eq!(toks, s.scan(input).unwrap(), "on {input:?}");
        }
    }

    #[test]
    fn resilient_scan_skips_multibyte_garbage_without_splitting_chars() {
        let s = sql_scanner();
        let mut toks = Vec::new();
        let errors = s.scan_resilient_into("a é b 中 c", &mut toks);
        let kinds: Vec<&str> = toks.iter().map(|t| s.name(t.kind)).collect();
        assert_eq!(kinds, ["IDENT", "IDENT", "IDENT"]);
        assert_eq!(
            errors.iter().map(|e| e.found).collect::<Vec<_>>(),
            [Some('é'), Some('中')]
        );
    }

    #[test]
    fn utf8_lex_errors_identical_to_reference() {
        let s = sql_scanner();
        for input in ["SELECT é FROM t", "λx", "a\n€", "'unterminated ü"] {
            let fast = s.scan(input).unwrap_err();
            let reference = s.scan_reference(input).unwrap_err();
            assert_eq!(fast, reference, "on {input:?}");
            assert_eq!(fast.to_string(), reference.to_string());
        }
        let err = s.scan("SELECT é FROM t").unwrap_err();
        assert_eq!(err.found, Some('é'));
        assert_eq!(err.column, 8);
    }
}
