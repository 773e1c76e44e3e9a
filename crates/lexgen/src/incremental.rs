//! Damage-region relexing for incremental editing.
//!
//! An edit replaces one byte range of a document. Because maximal-munch
//! scanning is suffix-pure — the scan from any byte position depends only
//! on the text from that position on — the token stream after an edit can
//! be repaired locally: restart the scanner at a boundary provably
//! unaffected by the edit, scan forward over the changed region, and stop
//! as soon as the scan lands on an old token boundary past the edit (from
//! there the old suffix text is byte-identical, so the old tokens are
//! exactly what a full rescan would produce, modulo a span shift).
//!
//! The delicate part is the *restart* position. A munch can examine bytes
//! past the end of the token it emits (scanning `12.x` accepts `12` but
//! examines `.` and `x` while hoping for a fraction), so a token wholly
//! before the edit may still have *observed* edited bytes and would match
//! differently on the new text.
//! [`crate::dfa::Dfa::probe_overhang_by_tag`] bounds that lookahead per
//! rule: a token whose end is at least its rule's bound before the edit
//! cannot have observed it. Rules whose bound is `None` — typically
//! quoted strings with doubled-quote escapes, where the closing quote's
//! accept state re-enters the unbounded string body — get no static
//! bound at all; their tokens instead carry *exact* probe frontiers,
//! recorded at scan time and maintained across edits, and so do failed
//! munches (lexical errors), which have no accepting state to anchor any
//! bound. Both exact-frontier sets are supplied by the caller from
//! previous scans.
//!
//! The relex runs in two steps. [`Scanner::relex_restart`] finds the
//! restart from old positions alone, so a caller can run it before it
//! touches its text, and park its text's gap (see
//! [`crate::text::TextView`]) there: no token spans a scan boundary, and
//! [`Scanner::relex_from`] then scans one contiguous suffix of the edited
//! text.

use crate::compiled;
use crate::line_index::LineIndex;
use crate::scanner::{LexError, Scanner, Token, TokenKind};
use crate::split_vec::{Anchored, SplitVec};
use crate::text::TextView;

/// Random access to the previous scan's token stream, spans in old-text
/// byte coordinates.
///
/// [`Scanner::relex_restart`] and [`Scanner::relex_from`] are generic over
/// this so incremental callers that keep token spans in a rebased
/// representation (true span = stored span plus a per-chunk base offset,
/// so a suffix shift after an edit is O(#chunks) instead of O(#tokens))
/// can answer the relex's span queries on demand: the relex only reads
/// O(log n) tokens through binary searches plus the damaged window itself,
/// so no caller needs to materialize absolute spans for the whole stream
/// first.
pub trait TokenSource {
    /// Number of tokens in the stream.
    fn len(&self) -> usize;
    /// The `i`-th token with its absolute old-text span (`i < len()`).
    fn get(&self, i: usize) -> Token;
    /// Whether the stream has no tokens.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TokenSource for [Token] {
    fn len(&self) -> usize {
        <[Token]>::len(self)
    }
    fn get(&self, i: usize) -> Token {
        self[i]
    }
}

impl TokenSource for Vec<Token> {
    fn len(&self) -> usize {
        <[Token]>::len(self)
    }
    fn get(&self, i: usize) -> Token {
        self[i]
    }
}

/// `slice::partition_point` over a [`TokenSource`]: first index where
/// `pred` is false, assuming `pred` is monotone over the stream.
fn partition<S: TokenSource + ?Sized>(src: &S, mut pred: impl FnMut(Token) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, src.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(src.get(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Whether some token in `src` starts exactly at `at` (binary search).
fn starts_at<S: TokenSource + ?Sized>(src: &S, at: usize) -> bool {
    let i = partition(src, |t| t.start < at);
    i < src.len() && src.get(i).start == at
}

/// One maximal-munch step taken in isolation: the match (if any), and the
/// exclusive *probe frontier* — one past the furthest byte the automaton
/// examined while looking for a longer match. `usize::MAX` means the
/// munch ran into end of input, i.e. it observed "no more bytes", which an
/// append would invalidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawStep {
    /// End byte of the longest match; `None` if no rule matched here.
    pub end: Option<usize>,
    /// Kind of the match; `None` for skip-rule matches (and failures).
    pub kind: Option<TokenKind>,
    /// Exclusive probe frontier (`usize::MAX` = observed end of input).
    pub probe: usize,
}

/// The recorded probe frontier of one probe-unbounded token, as a
/// [`ProbeCache`] stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Start of the token.
    pub at: usize,
    /// Exclusive probe frontier of its munch (`usize::MAX` = observed end
    /// of input).
    pub frontier: usize,
    /// Largest frontier of this entry and every entry before it; kept
    /// before the cache's split, where the restart search reads it.
    reach: usize,
}

impl Probe {
    /// The frontier `frontier` of the token starting at `at`.
    pub fn new(at: usize, frontier: usize) -> Probe {
        Probe {
            at,
            frontier,
            reach: frontier,
        }
    }
}

impl Anchored for Probe {
    fn anchor(&self) -> usize {
        self.at
    }

    fn mirror(self, len: usize) -> Probe {
        Probe {
            at: len - self.at,
            frontier: if self.frontier == usize::MAX {
                usize::MAX
            } else {
                len - self.frontier
            },
            reach: self.reach,
        }
    }

    fn link(self, prev: Option<&Probe>) -> Probe {
        Probe {
            reach: prev.map_or(self.frontier, |p| p.reach.max(self.frontier)),
            ..self
        }
    }
}

/// The probe frontiers of a document's probe-unbounded tokens, ascending
/// by token start: the cache [`Scanner::token_probes`] builds and
/// [`Scanner::relex_restart`] reads. Stored split at the last edit, so an
/// edit shifts none of the entries after it, with a running maximum of the
/// frontiers before the split, so the restart search is a binary search.
pub type ProbeCache = SplitVec<Probe>;

impl ProbeCache {
    /// Apply `relex` to the cache: the entries before its restart stay,
    /// those of the rescanned window are replaced by
    /// [`Relex::tok_probes`], and those past its resync point stay as they
    /// are stored, after the split, where they move with the end of the
    /// text. `new_text_len` is the length of the edited text.
    pub fn splice(&mut self, relex: &Relex, new_text_len: usize) {
        self.move_split(|at| at < relex.start_byte);
        match relex.resync_old {
            Some(q) => self.remove_after_split(|at| at < q),
            None => self.remove_after_split(|_| true),
        };
        self.set_text_len(new_text_len);
        for &(at, frontier) in &relex.tok_probes {
            self.push(Probe::new(at, frontier));
        }
    }
}

/// The result of [`Scanner::relex_from`]: a splice of the old token stream.
///
/// Old tokens `old_lo..old_hi` are replaced by `tokens` (spans already in
/// new-text coordinates); old tokens before `old_lo` are untouched, old
/// tokens from `old_hi` on are reproduced by shifting their spans by the
/// edit's length delta. Lexical errors in `start_byte..resync_new` are
/// likewise replaced by `errors`.
#[derive(Debug, Clone)]
pub struct Relex {
    /// First old token index replaced.
    pub old_lo: usize,
    /// One past the last old token index replaced.
    pub old_hi: usize,
    /// Replacement tokens, spans in the edited text.
    pub tokens: Vec<Token>,
    /// Lexical errors inside the relexed window, in order, with line and
    /// column already resolved against the edited text.
    pub errors: Vec<LexError>,
    /// Probe frontier of each entry of `errors` (same order), for future
    /// restart decisions.
    pub err_probes: Vec<usize>,
    /// `(token_start, frontier)` of every token the relexed window
    /// produced whose kind is probe-unbounded, ascending, in new-text
    /// coordinates — collected *before* the common-prefix trim, so the
    /// pairs cover the whole rescanned window `start_byte..resync_new`
    /// even when the leading tokens were dropped from `tokens`. Callers
    /// maintaining a probe cache splice these over their old entries in
    /// that range.
    pub tok_probes: Vec<(usize, usize)>,
    /// Byte where relexing began (old and new text agree before this).
    pub start_byte: usize,
    /// Old-text byte where the scan rejoined the old stream; `None` if it
    /// scanned to end of input instead (then `old_hi == old token count`).
    pub resync_old: Option<usize>,
    /// New-text byte of the same boundary (`resync_old` + length delta).
    pub resync_new: Option<usize>,
}

impl Scanner {
    /// Take one maximal-munch step at `pos`, reporting the probe frontier
    /// alongside the match. Mirrors the compiled per-byte walk of
    /// [`Scanner::scan_compiled`] exactly (same tables, same UTF-8
    /// fallback), so a sequence of `step_raw` calls reproduces a full scan
    /// step for step.
    pub fn step_raw(&self, input: &str, pos: usize) -> RawStep {
        let bytes = input.as_bytes();
        let compiled = &self.compiled;
        let mut state = 0u32;
        let mut i = pos;
        let mut best: Option<(usize, u32)> = None;
        let mut probe = usize::MAX; // overwritten unless we run off the end
        while i < bytes.len() {
            let b = bytes[i];
            let next = if b < 0x80 {
                i += 1;
                compiled.step_ascii(state, b)
            } else {
                let c = input[i..].chars().next().expect("non-empty suffix");
                i += c.len_utf8();
                match self.dfa.step(state, c) {
                    Some(next) => next,
                    None => compiled::DEAD,
                }
            };
            if next == compiled::DEAD {
                probe = i;
                break;
            }
            state = next;
            let meta = compiled.accept_meta(state);
            if meta != compiled::NO_ACCEPT {
                best = Some((i, meta));
            }
        }
        match best {
            Some((end, meta)) => RawStep {
                end: Some(end),
                kind: (meta & compiled::SKIP_FLAG == 0)
                    .then_some(TokenKind(meta & compiled::TAG_MASK)),
                probe,
            },
            None => RawStep { end: None, kind: None, probe },
        }
    }

    /// Upper bound, in bytes, of [`crate::dfa::Dfa::probe_overhang`]
    /// (characters are at most 4 bytes).
    pub fn probe_overhang_bytes(&self) -> Option<usize> {
        self.dfa.probe_overhang().map(|chars| chars * 4)
    }

    /// Upper bound, in bytes, on the probe overhang of every *bounded*
    /// rule ([`crate::dfa::Dfa::probe_overhang_by_tag`]; characters are
    /// at most 4 bytes). Unbounded non-skip rules are excluded — their
    /// matches carry exact recorded frontiers instead — but an unbounded
    /// *skip* rule returns `None`: skip matches leave no token behind to
    /// carry a frontier, so no finite restart bound exists and relexing
    /// falls back to byte 0.
    pub fn bounded_overhang_bytes(&self) -> Option<usize> {
        let mut max = 1usize;
        for (tag, oh) in self.overhang_by_tag.iter().enumerate() {
            match oh {
                Some(chars) => max = max.max(chars * 4),
                None if self.skip.contains(tag) => return None,
                None => {}
            }
        }
        Some(max)
    }

    /// `true` if a match of `kind` can examine input unboundedly far past
    /// its own end (e.g. an unterminated-string prefix re-entering the
    /// string body), so its restart safety needs an exact recorded probe
    /// frontier rather than the static per-rule bound.
    pub fn kind_probe_unbounded(&self, kind: TokenKind) -> bool {
        self.overhang_by_tag
            .get(kind.index())
            .is_some_and(|oh| oh.is_none())
    }

    /// Exact probe frontiers, via [`Scanner::step_raw`], of every token
    /// in `toks` (scanned from `text`) whose kind is probe-unbounded — the
    /// per-document cache an incremental caller passes to
    /// [`Scanner::relex_restart`] on later edits and maintains from
    /// [`Relex::tok_probes`].
    pub fn token_probes(&self, text: &str, toks: &[Token]) -> ProbeCache {
        let probes = toks
            .iter()
            .filter(|t| self.kind_probe_unbounded(t.kind))
            .map(|t| Probe::new(t.start, self.step_raw(text, t.start).probe))
            .collect();
        ProbeCache::new(probes, text.len())
    }

    /// Where the relex of an edit starting at old-text byte `edit_start`
    /// restarts: the latest old scan boundary before the edit where every
    /// earlier match and failure provably never examined an edited byte.
    ///
    /// Reads old positions only, never text: `old_toks` is the previous
    /// full token stream, `old_errors` the previous lexical errors as
    /// `(position, probe)` pairs in ascending position order, and
    /// `old_tok_probes` the part before the split of the document's
    /// [`ProbeCache`], which must hold every entry that starts before
    /// `edit_start`. Its leftmost frontier that reaches the edit is found
    /// by a binary search over the running maximum of the frontiers.
    pub fn relex_restart<S: TokenSource + ?Sized>(
        &self,
        old_toks: &S,
        old_errors: &[(usize, usize)],
        old_tok_probes: &[Probe],
        edit_start: usize,
    ) -> usize {
        // A bounded-rule match ending more than `bm` bytes before the
        // edit died before reaching it; token ends are ascending, so the
        // candidate prefix is a partition. Restart at the end of the last
        // such token: the gap after it (skip runs, error skips) gets
        // rescanned, every earlier skip munch ends no later and is
        // covered by the same bound (skip rules are all bounded whenever
        // `bm` is `Some`), and the two exact-frontier passes below handle
        // the munches the static bound cannot: unbounded-rule matches
        // and failed munches.
        let mut start_byte = match self.bounded_overhang_bytes() {
            Some(bm) => {
                let safe = partition(old_toks, |t| t.end.saturating_add(bm) <= edit_start);
                if safe == 0 { 0 } else { old_toks.get(safe - 1).end }
            }
            None => 0,
        };
        // Matches of probe-unbounded rules carry exact recorded
        // frontiers; the first (leftmost) one that observed an edited
        // byte caps the restart, and rescanning every later one keeps
        // the cache splice sound. It is the first entry whose running
        // maximum passes the edit, and it matters only below the current
        // restart.
        let first = old_tok_probes.partition_point(|p| p.reach <= edit_start);
        if let Some(p) = old_tok_probes.get(first) {
            if p.at < start_byte {
                start_byte = p.at;
            }
        }
        // Failed munches have no accept to anchor the overhang bound; use
        // their recorded probe frontiers exactly.
        for &(at, probe) in old_errors {
            if at < start_byte && probe > edit_start {
                start_byte = at;
            }
        }
        start_byte
    }

    /// Relex the damage region of an edit that replaced old-text bytes
    /// `edit_start..edit_old_end` (the replacement now occupies new-text
    /// bytes `edit_start..edit_new_end`), from `start_byte`, the
    /// [`Scanner::relex_restart`] of the edit.
    ///
    /// `new_text` is the edited text; the scan reads it from `start_byte`
    /// on as one piece, so its split lies at or before `start_byte`, or
    /// its second piece is empty (a plain `&str`).
    /// `new_lines` must already be its line index. `old_toks` and
    /// `old_errors` are as for [`Scanner::relex_restart`]: the restart and
    /// resync logic compares old *positions*, never old bytes, so a
    /// caller may edit its text in place before calling. The scan stops at
    /// the first old scan boundary at or past the edit (token start, error
    /// position, or end of input).
    #[allow(clippy::too_many_arguments)]
    pub fn relex_from<S: TokenSource + ?Sized>(
        &self,
        start_byte: usize,
        new_text: TextView<'_>,
        new_lines: &LineIndex,
        old_toks: &S,
        old_errors: &[(usize, usize)],
        edit_start: usize,
        edit_old_end: usize,
        edit_new_end: usize,
    ) -> Relex {
        debug_assert!(start_byte <= edit_start && edit_start <= edit_old_end);
        debug_assert!(edit_start <= edit_new_end && edit_new_end <= new_text.len());
        // The scan reads one piece: byte `p` of the text is byte
        // `p - start_byte` of `suffix`.
        let suffix = new_text.suffix(start_byte);
        let munch = |pos: usize| {
            let s = self.step_raw(suffix, pos - start_byte);
            RawStep {
                end: s.end.map(|e| e + start_byte),
                probe: s.probe.saturating_add(start_byte),
                ..s
            }
        };
        let old_lo = partition(old_toks, |t| t.start < start_byte);

        let delta = edit_new_end as isize - edit_old_end as isize;
        let mut tokens = Vec::new();
        let mut errors = Vec::new();
        let mut err_probes = Vec::new();
        let mut tok_probes = Vec::new();
        let mut pos = start_byte;
        let mut resync_old = None;
        while pos < new_text.len() {
            if pos >= edit_new_end {
                // Fresh scan boundary past the edit: if the corresponding
                // old byte was also a scan boundary, the identical suffix
                // text reproduces the old stream from here on.
                let old_pos = (pos as isize - delta) as usize;
                let at_token = starts_at(old_toks, old_pos);
                let at_error =
                    old_errors.binary_search_by_key(&old_pos, |&(at, _)| at).is_ok();
                if at_token || at_error {
                    resync_old = Some(old_pos);
                    break;
                }
            }
            let step = munch(pos);
            match step.end {
                Some(end) => {
                    if let Some(kind) = step.kind {
                        tokens.push(Token { kind, start: pos, end });
                        if self.kind_probe_unbounded(kind) {
                            tok_probes.push((pos, step.probe));
                        }
                    }
                    pos = end;
                }
                None => {
                    let found = new_text.char_at(pos);
                    let (line, column) = new_lines.line_col(new_text, pos);
                    errors.push(LexError { at: pos, line, column, found });
                    err_probes.push(step.probe);
                    match found {
                        Some(c) => pos += c.len_utf8(),
                        None => break,
                    }
                }
            }
        }
        let old_hi = match resync_old {
            Some(q) => partition(old_toks, |t| t.start < q),
            None => old_toks.len(),
        };

        // Trim the re-produced common prefix (tokens strictly before the
        // edit match the old stream byte for byte) so callers see the
        // minimal damaged token range. Only spans ending at or before the
        // edit are comparable — an equal-span token overlapping the edit
        // may have different text.
        let mut keep = 0usize;
        let mut lo = old_lo;
        while keep < tokens.len()
            && lo < old_hi
            && tokens[keep] == old_toks.get(lo)
            && tokens[keep].end <= edit_start
        {
            keep += 1;
            lo += 1;
        }
        tokens.drain(..keep);

        Relex {
            old_lo: lo,
            old_hi,
            tokens,
            errors,
            err_probes,
            tok_probes,
            start_byte,
            resync_old,
            resync_new: resync_old.map(|q| (q as isize + delta) as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenset::TokenSet;
    use proptest::prelude::*;

    fn sql_scanner() -> Scanner {
        let mut ts = TokenSet::new();
        ts.keyword("SELECT").unwrap();
        ts.keyword("FROM").unwrap();
        ts.punct("SEMI", ";").unwrap();
        ts.punct("COMMA", ",").unwrap();
        ts.pattern("IDENT", "[A-Za-z_][A-Za-z0-9_]*").unwrap();
        ts.pattern("NUMBER", "[0-9]+(\\.[0-9]+)?([eE][+\\-]?[0-9]+)?").unwrap();
        ts.pattern("STRING", "'([^']|'')*'").unwrap();
        ts.skip("WS", "[ \\t\\r\\n]+").unwrap();
        ts.skip("LINE_COMMENT", "--[^\\n]*").unwrap();
        ts.build().unwrap()
    }

    /// Both relex steps, over a new text in one piece.
    #[allow(clippy::too_many_arguments)]
    fn relex<S: TokenSource + ?Sized>(
        s: &Scanner,
        new_text: &str,
        new_lines: &LineIndex,
        old_toks: &S,
        old_errors: &[(usize, usize)],
        old_tok_probes: &[Probe],
        edit: (usize, usize, usize),
    ) -> Relex {
        let (start, old_end, new_end) = edit;
        let restart = s.relex_restart(old_toks, old_errors, old_tok_probes, start);
        s.relex_from(
            restart,
            new_text.into(),
            new_lines,
            old_toks,
            old_errors,
            start,
            old_end,
            new_end,
        )
    }

    /// Apply `relex` and reassemble the full token stream + errors, for
    /// comparison against a from-scratch resilient scan.
    fn incremental_scan(
        s: &Scanner,
        old_text: &str,
        edit: (usize, usize, &str),
    ) -> (Vec<Token>, Vec<usize>) {
        let (start, old_end, rep) = edit;
        let mut new_text = String::new();
        new_text.push_str(&old_text[..start]);
        new_text.push_str(rep);
        new_text.push_str(&old_text[old_end..]);

        let mut old_toks = Vec::new();
        let old_errs = s.scan_resilient_into(old_text, &mut old_toks);
        let old_err_probes: Vec<(usize, usize)> = old_errs
            .iter()
            .map(|e| (e.at, s.step_raw(old_text, e.at).probe))
            .collect();
        let old_tok_probes = s.token_probes(old_text, &old_toks);

        let new_lines = LineIndex::new(&new_text);
        let delta = (start + rep.len()) as isize - old_end as isize;
        let r = relex(
            s,
            &new_text,
            &new_lines,
            &old_toks,
            &old_err_probes,
            old_tok_probes.head(),
            (start, old_end, start + rep.len()),
        );

        let mut toks: Vec<Token> = old_toks[..r.old_lo].to_vec();
        toks.extend_from_slice(&r.tokens);
        for t in &old_toks[r.old_hi..] {
            toks.push(Token {
                kind: t.kind,
                start: (t.start as isize + delta) as usize,
                end: (t.end as isize + delta) as usize,
            });
        }
        let mut errs: Vec<usize> = old_err_probes
            .iter()
            .filter(|&&(at, _)| at < r.start_byte)
            .map(|&(at, _)| at)
            .collect();
        errs.extend(r.errors.iter().map(|e| e.at));
        if let Some(q) = r.resync_old {
            errs.extend(
                old_err_probes
                    .iter()
                    .filter(|&&(at, _)| at >= q)
                    .map(|&(at, _)| (at as isize + delta) as usize),
            );
        }
        (toks, errs)
    }

    fn assert_edit_matches_full(s: &Scanner, old_text: &str, edit: (usize, usize, &str)) {
        let (start, old_end, rep) = edit;
        let mut new_text = String::new();
        new_text.push_str(&old_text[..start]);
        new_text.push_str(rep);
        new_text.push_str(&old_text[old_end..]);
        let mut full = Vec::new();
        let full_errs = s.scan_resilient_into(&new_text, &mut full);
        let (inc, inc_errs) = incremental_scan(s, old_text, edit);
        assert_eq!(inc, full, "edit {edit:?} on {old_text:?}");
        assert_eq!(
            inc_errs,
            full_errs.iter().map(|e| e.at).collect::<Vec<_>>(),
            "errors after edit {edit:?} on {old_text:?}"
        );
    }

    #[test]
    fn single_token_edits_resync_quickly() {
        let s = sql_scanner();
        let text = "SELECT alpha, beta FROM t1; SELECT gamma FROM t2";
        for (start, old_end, rep) in [
            (7, 12, "omega"),      // replace an identifier
            (7, 7, "x"),           // grow an identifier at its start
            (12, 12, "_tail"),     // grow an identifier at its end
            (26, 27, ""),          // delete the semicolon
            (26, 26, ";;"),        // insert more separators
            (0, 6, "FROM"),        // replace the leading keyword
            (48, 48, " WHERE"),    // append at EOF (lexical error: none)
            (0, 48, ""),           // delete everything
            (20, 24, ""),          // delete `FROM` (merges surrounding ws)
        ] {
            assert_edit_matches_full(&s, text, (start, old_end, rep));
        }
    }

    #[test]
    fn edits_that_merge_or_split_tokens() {
        let s = sql_scanner();
        // Deleting the space merges `alpha beta` into one identifier.
        assert_edit_matches_full(&s, "alpha beta", (5, 6, ""));
        // Inserting a space splits one identifier.
        assert_edit_matches_full(&s, "alphabeta", (5, 5, " "));
        // Editing `12.5` into `12x5`: the number's lookahead probed the
        // dot, the restart must back over it.
        assert_edit_matches_full(&s, "12.5 rest", (3, 4, "x"));
        assert_edit_matches_full(&s, "12.5 rest", (2, 3, ""));
        // `1e` exponent lookahead: `12e+` probes two past the mantissa.
        assert_edit_matches_full(&s, "12 e5", (2, 3, ""));
    }

    #[test]
    fn edits_inside_strings_and_comments() {
        let s = sql_scanner();
        let text = "SELECT 'a string' FROM t -- trailing\nSELECT b FROM u";
        for edit in [
            (9, 15, "редактор"), // replace string contents (multi-byte)
            (8, 8, "''"),        // escaped quote inside the string
            (16, 17, ""),        // delete the closing quote (unterminated)
            (30, 30, "mid"),     // edit inside the line comment
            (36, 37, " "),       // delete the newline ending the comment
        ] {
            assert_edit_matches_full(&s, text, edit);
        }
        // Closing a previously unterminated string rewrites the suffix.
        assert_edit_matches_full(&s, "SELECT 'open FROM t", (13, 13, "' "));
    }

    #[test]
    fn edits_around_lexical_errors() {
        let s = sql_scanner();
        let text = "SELECT # a FROM ? t";
        for edit in [
            (7, 8, "#?"),   // grow the garbage
            (7, 8, "x"),    // fix the first error
            (16, 17, ""),   // delete the second error
            (0, 0, "? "),   // new leading error
            (19, 19, " ~"), // new trailing error
        ] {
            assert_edit_matches_full(&s, text, edit);
        }
    }

    #[test]
    fn randomized_edits_match_full_rescan() {
        let s = sql_scanner();
        // Deterministic xorshift so failures reproduce.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound.max(1) as u64) as usize
        };
        let base = "SELECT a1, b2 FROM t; SELECT 'x''y' FROM u -- c\nSELECT 12.5e3 FROM v;";
        let pieces = ["", "x", ";", "'", " ", "SELECT", "12.", "--", "\n", "#", "''", "e5"];
        let mut text = base.to_string();
        for round in 0..300 {
            let mut start = next(text.len() + 1);
            while !text.is_char_boundary(start) {
                start -= 1;
            }
            let mut end = (start + next(8)).min(text.len());
            while !text.is_char_boundary(end) {
                end -= 1;
            }
            let end = end.max(start);
            let rep = pieces[next(pieces.len())];
            assert_edit_matches_full(&s, &text, (start, end, rep));
            let mut edited = String::new();
            edited.push_str(&text[..start]);
            edited.push_str(rep);
            edited.push_str(&text[end..]);
            text = edited;
            if text.len() > 400 || text.is_empty() {
                text = base.to_string();
            }
            let _ = round;
        }
    }

    #[test]
    fn unbounded_string_rule_keeps_restart_local() {
        let s = sql_scanner();
        // The doubled-quote escape makes STRING probe-unbounded (the
        // closing quote's accept state re-enters the string body on a
        // further `'`), poisoning the whole-automaton bound — but the
        // per-rule analysis keeps every other rule bounded, so the
        // scanner still has a finite restart bound plus exact frontiers
        // for the string tokens alone.
        let string = s.kind_of("STRING").unwrap();
        assert!(s.kind_probe_unbounded(string));
        assert!(!s.kind_probe_unbounded(s.kind_of("IDENT").unwrap()));
        assert_eq!(s.probe_overhang_bytes(), None);
        let bm = s.bounded_overhang_bytes().expect("every skip rule is bounded");

        let old = "SELECT 'a''b' FROM t; SELECT gamma FROM u";
        let mut old_toks = Vec::new();
        assert!(s.scan_resilient_into(old, &mut old_toks).is_empty());
        let probes = s.token_probes(old, &old_toks);
        assert_eq!(probes.len(), 1, "one string literal, one exact frontier");

        // Replace the trailing identifier: the string's recorded
        // frontier (the space killing its munch) never reached the
        // edit, so the restart stays within the static bound of the
        // edit instead of backing up to byte 0.
        let edit = old.len() - 1;
        let mut new = old.to_string();
        new.replace_range(edit.., "v");
        let new_lines = LineIndex::new(&new);
        let r = relex(
            &s,
            &new,
            &new_lines,
            &old_toks,
            &[],
            probes.head(),
            (edit, old.len(), old.len()),
        );
        assert!(
            r.start_byte + bm >= edit,
            "restart {} not local to edit at {edit}",
            r.start_byte
        );
        assert!(r.start_byte > 13, "restart {} backed over the string", r.start_byte);
        assert!(r.tok_probes.is_empty(), "no string inside the rescanned window");
    }

    /// A token stream stored with stale spans plus one compensating base
    /// offset — the chunked-span shape an incremental caller keeps —
    /// exercising the generic [`TokenSource`] access path of `relex`.
    struct Rebased {
        toks: Vec<Token>,
        base: isize,
    }
    impl TokenSource for Rebased {
        fn len(&self) -> usize {
            self.toks.len()
        }
        fn get(&self, i: usize) -> Token {
            let t = self.toks[i];
            Token {
                kind: t.kind,
                start: (t.start as isize + self.base) as usize,
                end: (t.end as isize + self.base) as usize,
            }
        }
    }

    #[test]
    fn relex_through_a_rebased_token_source_matches_flat() {
        let s = sql_scanner();
        let old = "SELECT alpha, beta FROM t1; SELECT gamma FROM t2";
        let mut old_toks = Vec::new();
        assert!(s.scan_resilient_into(old, &mut old_toks).is_empty());
        let rebased = Rebased {
            toks: old_toks
                .iter()
                .map(|t| Token { kind: t.kind, start: t.start + 7, end: t.end + 7 })
                .collect(),
            base: -7,
        };
        for (start, old_end, rep) in [(7, 12, "omega"), (26, 27, ""), (48, 48, " x")] {
            let mut new = String::new();
            new.push_str(&old[..start]);
            new.push_str(rep);
            new.push_str(&old[old_end..]);
            let lines = LineIndex::new(&new);
            let new_end = start + rep.len();
            let edit = (start, old_end, new_end);
            let flat = relex(&s, &new, &lines, &old_toks, &[], &[], edit);
            let reb = relex(&s, &new, &lines, &rebased, &[], &[], edit);
            assert_eq!(flat.old_lo, reb.old_lo, "edit {start}..{old_end}");
            assert_eq!(flat.old_hi, reb.old_hi, "edit {start}..{old_end}");
            assert_eq!(flat.tokens, reb.tokens, "edit {start}..{old_end}");
            assert_eq!(flat.start_byte, reb.start_byte, "edit {start}..{old_end}");
            assert_eq!(flat.resync_old, reb.resync_old, "edit {start}..{old_end}");
        }
    }

    /// The restart search as a linear walk over the probe cache's
    /// `(start, frontier)` pairs: the differential oracle of
    /// [`Scanner::relex_restart`]'s binary search.
    fn restart_linear(
        s: &Scanner,
        old_toks: &[Token],
        old_errors: &[(usize, usize)],
        old_tok_probes: &[(usize, usize)],
        edit_start: usize,
    ) -> usize {
        let mut start_byte = match s.bounded_overhang_bytes() {
            Some(bm) => {
                let safe = old_toks.partition_point(|t| t.end.saturating_add(bm) <= edit_start);
                if safe == 0 {
                    0
                } else {
                    old_toks[safe - 1].end
                }
            }
            None => 0,
        };
        for &(at, probe) in old_tok_probes {
            if at >= start_byte {
                break;
            }
            if probe > edit_start {
                start_byte = at;
                break;
            }
        }
        for &(at, probe) in old_errors {
            if at < start_byte && probe > edit_start {
                start_byte = at;
            }
        }
        start_byte
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Edit sequences over string-heavy text: at every edit the binary
        /// search over the maintained probe cache restarts at exactly the
        /// byte the linear walk picks, and after every edit the cache,
        /// maintained by [`ProbeCache::splice`] wherever the split was
        /// left, equals a cache rebuilt from a fresh scan.
        #[test]
        fn restart_search_matches_the_linear_walk(
            pieces in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 1..24),
            edits in prop::collection::vec(
                (0usize..400, 0usize..6, prop::sample::select(PIECES.to_vec())),
                1..10,
            ),
        ) {
            let s = sql_scanner();
            let mut text: String = pieces.concat();
            let mut toks = Vec::new();
            let errs = s.scan_resilient_into(&text, &mut toks);
            let mut err_probes: Vec<(usize, usize)> =
                errs.iter().map(|e| (e.at, s.step_raw(&text, e.at).probe)).collect();
            let mut cache = s.token_probes(&text, &toks);
            for (step, (at, cut, rep)) in edits.into_iter().enumerate() {
                let mut start = at % (text.len() + 1);
                while !text.is_char_boundary(start) {
                    start -= 1;
                }
                let mut end = (start + cut).min(text.len());
                while !text.is_char_boundary(end) {
                    end -= 1;
                }
                let ctx = format!("step {step}: {start}..{end} := {rep:?} on {text:?}");
                cache.move_split(|p| p < start);
                let restart = s.relex_restart(&toks, &err_probes, cache.head(), start);
                let pairs: Vec<(usize, usize)> = cache.iter().map(|p| (p.at, p.frontier)).collect();
                prop_assert_eq!(
                    restart,
                    restart_linear(&s, &toks, &err_probes, &pairs, start),
                    "restart byte: {}", ctx
                );

                text.replace_range(start..end, rep);
                let lines = LineIndex::new(&text);
                let new_end = start + rep.len();
                let r = s.relex_from(
                    restart, text.as_str().into(), &lines, &toks, &err_probes, start, end, new_end,
                );
                cache.splice(&r, text.len());
                toks.clear();
                let errs = s.scan_resilient_into(&text, &mut toks);
                err_probes = errs.iter().map(|e| (e.at, s.step_raw(&text, e.at).probe)).collect();
                prop_assert!(cache.is_consistent(), "cache out of order: {}", ctx);
                prop_assert_eq!(
                    cache.iter().collect::<Vec<_>>(),
                    s.token_probes(&text, &toks).iter().collect::<Vec<_>>(),
                    "probe cache: {}", ctx
                );
            }
        }
    }

    /// Text pieces for the restart proptest: string literals (closed,
    /// escaped, unterminated), numbers with lookahead, comments, errors.
    const PIECES: &[&str] = &[
        "'a'", "'x''y'", "'", "''", " ", "\n", "SELECT ", "a1", ", ", ";", "12.5", "e3", "-- c\n",
        "#", "'open ", "FROM t ", "é",
    ];

    #[test]
    fn step_raw_probe_marks_eof_observation() {
        let s = sql_scanner();
        // An identifier running to end of input observed EOF.
        assert_eq!(s.step_raw("abc", 0).probe, usize::MAX);
        // One followed by a dead byte did not.
        let step = s.step_raw("abc;x", 0);
        assert_eq!(step.end, Some(3));
        assert_eq!(step.probe, 4);
    }
}
