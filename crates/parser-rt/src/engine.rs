//! The parse engine: FIRST-pruned backtracking recursive descent over the
//! EBNF IR, with compiled LL(k) dispatch tables at the decisions static
//! lookahead analysis resolves.
//!
//! The engine runs on a *compiled* grammar form built once at
//! [`Parser::new`]: token kinds are interned to dense ids (the scanner's
//! rule indices), FIRST sets become bitsets, nonterminal references become
//! vector indices, and every LL(1) conflict that `analyze_lookahead`
//! resolves with k ≤ 3 tokens becomes a sorted dispatch table consulted
//! before speculating. The hot path performs no string comparisons and no
//! hashing.
//!
//! The engine does not construct tree nodes at all: it appends [`Event`]s
//! to a flat buffer (see [`crate::events`]), and abandoning a speculative
//! alternative is a single buffer truncation. Failed `(production,
//! position)` probes are memoized in a bitmap (`FailureMemo`), so the
//! Group/Opt/Star re-entry pattern — where an enclosing alternative
//! re-probes the same nonterminal at the same position — fails in O(1)
//! instead of re-deriving (and re-discarding) the whole subtree.
//! Successful parses are materialized into a [`crate::tree::SyntaxTree`] by
//! [`crate::session::ParseSession`]; [`Parser::parse`] keeps the seed
//! [`CstNode`] API as a thin conversion on top.

use crate::cst::CstNode;
use crate::errors::ParseError;
use crate::events::{Event, ERROR_NODE};
use crate::session::{ParseSession, SessionBuffers};
use sqlweave_grammar::analysis::{analyze, AnalysisError, GrammarAnalysis, EOF};
use sqlweave_grammar::ir::{Grammar, Term};
use sqlweave_grammar::lookahead::{analyze_lookahead, recovery_sync_set, Outcome, K_MAX};
use sqlweave_lexgen::tokenset::{TokenSet, TokenSetError};
use sqlweave_lexgen::{LineIndex, Scanner, TextView, Token};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Mutex;

/// Errors building a [`Parser`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Grammar analysis failed (undefined symbols).
    Analysis(AnalysisError),
    /// Token-set compilation failed.
    Tokens(TokenSetError),
    /// The grammar references tokens absent from the token set.
    MissingTokens(Vec<String>),
    /// The grammar is left-recursive (fatal for LL parsing).
    LeftRecursive(Vec<Vec<String>>),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Analysis(e) => write!(f, "{e}"),
            BuildError::Tokens(e) => write!(f, "{e}"),
            BuildError::MissingTokens(v) => {
                write!(f, "grammar references tokens not in the token set: {}", v.join(", "))
            }
            BuildError::LeftRecursive(cycles) => {
                write!(f, "grammar is left-recursive: ")?;
                for (i, c) in cycles.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{}", c.join(" -> "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Static size metrics of a built parser (Experiment B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParserStats {
    /// Productions in the (EBNF) grammar.
    pub productions: usize,
    /// Alternatives across all productions.
    pub alternatives: usize,
    /// Productions after flattening.
    pub flat_productions: usize,
    /// Populated LL(1) table cells.
    pub table_cells: usize,
    /// LL(1) conflicts of the flattened grammar (the engine resolves each
    /// by a dispatch table where LL(k ≤ 3) lookahead separates the
    /// alternatives, and by ordered backtracking elsewhere).
    pub conflicts: usize,
    /// Token rules in the scanner.
    pub token_rules: usize,
    /// States in the minimized lexer DFA.
    pub dfa_states: usize,
    /// Byte equivalence classes in the compiled scanner dispatch tables.
    pub byte_classes: usize,
}

/// Dynamic counters accumulated by the engine across one session's
/// parses (dispatch-table hits, speculative probes, backtracks and
/// recoveries; Experiment B5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Dispatch-table consultations that selected an alternative directly.
    pub decision_hits: u64,
    /// Speculative alternative/body probes attempted.
    pub alt_attempts: u64,
    /// Probes abandoned by event-buffer truncation.
    pub backtracks: u64,
    /// Panic-mode recoveries performed (one per reported syntax error).
    pub recoveries: u64,
    /// Tokens skipped into error nodes during panic-mode recovery.
    pub skipped_tokens: u64,
}

// ---------------------------------------------------------------- bitsets

/// Dense bitset over interned token ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct TokBits {
    words: Box<[u64]>,
}

impl TokBits {
    pub(crate) fn new(n_tokens: usize) -> TokBits {
        TokBits {
            words: vec![0u64; n_tokens.div_ceil(64)].into_boxed_slice(),
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, id: u32) {
        self.words[(id / 64) as usize] |= 1 << (id % 64);
    }

    #[inline]
    pub(crate) fn contains(&self, id: u32) -> bool {
        (self.words[(id / 64) as usize] >> (id % 64)) & 1 == 1
    }

    fn union_with(&mut self, other: &TokBits) {
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    fn iter_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if (w >> b) & 1 == 1 {
                    Some(wi as u32 * 64 + b)
                } else {
                    None
                }
            })
        })
    }
}

// ------------------------------------------------------- compiled grammars

/// "No compiled decision at this point" sentinel for the `decision`
/// indices below.
pub(crate) const NO_DECISION: u32 = u32::MAX;

/// Compiled EBNF term. Decision indices point into [`Parser::decisions`]
/// when static lookahead analysis resolved the LL(1) conflict at the
/// corresponding flattened decision point.
pub(crate) enum CTerm {
    Tok(u32),
    Nt(u32),
    Opt { body: Vec<CTerm>, first: TokBits, decision: u32 },
    Star { body: Vec<CTerm>, first: TokBits, decision: u32 },
    Plus { body: Vec<CTerm>, first: TokBits, decision: u32 },
    Group { alts: Vec<CGroupAlt>, decision: u32 },
}

pub(crate) struct CGroupAlt {
    pub(crate) seq: Vec<CTerm>,
    pub(crate) first: TokBits,
    pub(crate) nullable: bool,
}

pub(crate) struct CAlt {
    pub(crate) seq: Vec<CTerm>,
    pub(crate) first: TokBits,
    pub(crate) nullable: bool,
    pub(crate) label: Option<String>,
}

pub(crate) struct CProd {
    pub(crate) name: String,
    pub(crate) alts: Vec<CAlt>,
    pub(crate) decision: u32,
}

/// One compiled LL(k) dispatch table (a resolved [`Outcome::Resolved`]
/// decision re-keyed to scanner token ids). `entries` holds packed
/// lookahead words (same `len << 48 | t0 << 32 | t1 << 16 | t2` layout as
/// `grammar::lookahead`, ids remapped) sorted for binary search; a word
/// shorter than `k` matches only when the input ends right after it, which
/// the packing encodes for free because the runtime packs exactly
/// `min(k, remaining)` tokens.
pub(crate) struct RtDecision {
    k: u8,
    /// The LL(1) conflict tokens — dispatch is consulted only when the
    /// current lookahead is one of these (elsewhere FIRST pruning already
    /// decides deterministically).
    conflict_first: TokBits,
    /// `true` if end-of-input itself is a conflicted lookahead.
    conflict_eof: bool,
    entries: Box<[(u64, u16)]>,
}

/// Append token id `t` to packed runtime word `w` (mirrors
/// `grammar::lookahead`'s layout; lengths stay ≤ [`K_MAX`]).
#[inline]
fn rt_w_push(w: u64, t: u16) -> u64 {
    let l = (w >> 48) as usize;
    debug_assert!(l < K_MAX);
    (((l + 1) as u64) << 48) | (w & 0x0000_FFFF_FFFF_FFFF) | ((t as u64) << (32 - 16 * l))
}

/// A ready-to-use parser for one composed grammar.
pub struct Parser {
    grammar: Grammar,
    analysis: GrammarAnalysis,
    pub(crate) scanner: Scanner,
    pub(crate) n_tokens: usize,
    pub(crate) cprods: Vec<CProd>,
    pub(crate) cstart: u32,
    decisions: Vec<RtDecision>,
    /// Statement-level synchronization tokens for panic-mode recovery
    /// (derived from FOLLOW of the start skeleton; EOF is implicit).
    sync_bits: TokBits,
    /// FOLLOW bitset per compiled production (recovery stop set).
    cfollow: Vec<TokBits>,
    /// Recycled [`SessionBuffers`] backing the [`Parser::parse`] and
    /// [`Parser::parse_resilient`] conveniences, so repeated one-shot
    /// calls reach the session path's zero-allocation steady state
    /// instead of rebuilding every buffer per statement.
    session_pool: Mutex<Vec<SessionBuffers>>,
}

impl fmt::Debug for Parser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Parser")
            .field("grammar", &self.grammar.name())
            .finish_non_exhaustive()
    }
}

impl Parser {
    /// Build a parser from a closed grammar and its token set.
    pub fn new(grammar: Grammar, tokens: &TokenSet) -> Result<Parser, BuildError> {
        let missing: Vec<String> = grammar
            .referenced_tokens()
            .into_iter()
            .filter(|t| tokens.get(t).is_none())
            .map(str::to_string)
            .collect();
        if !missing.is_empty() {
            return Err(BuildError::MissingTokens(missing));
        }
        let analysis = analyze(&grammar).map_err(BuildError::Analysis)?;
        if !analysis.left_recursion.is_empty() {
            return Err(BuildError::LeftRecursive(analysis.left_recursion.clone()));
        }
        let scanner = tokens.build().map_err(BuildError::Tokens)?;
        let n_tokens = scanner.rule_count();

        // Static LL(k) lookahead analysis: every conflict the analysis
        // resolves becomes a compiled dispatch table the engine consults
        // before speculating.
        let mut decisions: Vec<RtDecision> = Vec::new();
        let mut decision_of: HashMap<String, u32> = HashMap::new();
        if !analysis.conflicts.is_empty() {
            let la = analyze_lookahead(&analysis, K_MAX);
            for d in &la.decisions {
                let Outcome::Resolved { k, entries } = &d.outcome else {
                    continue;
                };
                let mut conflict_first = TokBits::new(n_tokens);
                let mut conflict_eof = false;
                for t in &d.conflict_tokens {
                    if t == EOF {
                        conflict_eof = true;
                    } else {
                        conflict_first.insert(scanner.kind_of(t).expect("token checked").0);
                    }
                }
                let mut packed: Vec<(u64, u16)> = entries
                    .iter()
                    .map(|e| {
                        let mut w = 0u64;
                        for t in &e.word {
                            w = rt_w_push(w, scanner.kind_of(t).expect("token checked").0 as u16);
                        }
                        (w, e.alt as u16)
                    })
                    .collect();
                packed.sort_unstable();
                decision_of.insert(d.production.clone(), decisions.len() as u32);
                decisions.push(RtDecision {
                    k: *k as u8,
                    conflict_first,
                    conflict_eof,
                    entries: packed.into_boxed_slice(),
                });
            }
        }

        let compiler = Compiler {
            analysis: &analysis,
            scanner: &scanner,
            n_tokens,
            decision_of: &decision_of,
        };
        let (cprods, cstart) = compiler.compile_ebnf(&grammar);

        // Panic-mode recovery sets: the statement-level sync tokens from
        // the start skeleton's FOLLOW machinery, plus a FOLLOW bitset per
        // compiled production (per-production stop points).
        let sync_bits = compiler.bits_of(&recovery_sync_set(&analysis));
        let empty = BTreeSet::new();
        let cfollow = cprods
            .iter()
            .map(|p| compiler.bits_of(analysis.follow.get(&p.name).unwrap_or(&empty)))
            .collect();

        Ok(Parser {
            grammar,
            analysis,
            scanner,
            n_tokens,
            cprods,
            cstart,
            decisions,
            sync_bits,
            cfollow,
            session_pool: Mutex::new(Vec::new()),
        })
    }

    /// `true` if token kind `kind` is a statement-level synchronization
    /// point for panic-mode recovery (e.g. `SEMI` in the script skeleton).
    pub(crate) fn is_sync_token(&self, kind: u32) -> bool {
        self.sync_bits.contains(kind)
    }

    /// FOLLOW bitset of a compiled production, used as the per-production
    /// stop set during panic-mode token skipping.
    pub(crate) fn follow_bits(&self, prod: u32) -> Option<&TokBits> {
        self.cfollow.get(prod as usize)
    }

    /// Number of LL(1) conflicts the static lookahead analysis resolved
    /// into compiled dispatch tables.
    pub fn decision_tables(&self) -> usize {
        self.decisions.len()
    }

    /// `true` when the engine will consult dispatch tables.
    pub(crate) fn tables_active(&self) -> bool {
        !self.decisions.is_empty()
    }

    /// The (EBNF) grammar this parser accepts.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Analysis results (FIRST/FOLLOW, table, conflicts).
    pub fn analysis(&self) -> &GrammarAnalysis {
        &self.analysis
    }

    /// The compiled scanner.
    pub fn scanner(&self) -> &Scanner {
        &self.scanner
    }

    /// Size metrics.
    pub fn stats(&self) -> ParserStats {
        ParserStats {
            productions: self.grammar.productions().len(),
            alternatives: self.grammar.alternative_count(),
            flat_productions: self.analysis.flat.productions().len(),
            table_cells: self.analysis.table_cells(),
            conflicts: self.analysis.conflicts.len(),
            token_rules: self.scanner.rule_count(),
            dfa_states: self.scanner.dfa_states(),
            byte_classes: self.scanner.byte_classes(),
        }
    }

    /// Parse `input` to a CST, or produce the farthest-failure error.
    ///
    /// This is the seed API, kept as a thin conversion: the parse runs on
    /// the event core (a [`ParseSession`] drawn from the parser's internal
    /// buffer pool, so repeated calls allocate like a recycled session)
    /// and the resulting [`crate::tree::SyntaxTree`] is materialized into
    /// owning [`CstNode`]s. Callers that can hold the borrow should still
    /// prefer [`Parser::session`] + [`ParseSession::parse_tree`] — it
    /// skips the owning conversion entirely.
    pub fn parse(&self, input: &str) -> Result<CstNode, ParseError> {
        let mut session = self.pooled_session();
        let result = match session.parse_tree(input) {
            Ok(tree) => Ok(tree.to_cst()),
            Err(e) => Err(e),
        };
        self.recycle_session(session);
        result
    }

    /// Parse `input` with panic-mode error recovery: instead of stopping
    /// at the first error, every committed failure is recorded as a
    /// diagnostic, the offending tokens are folded into an `error` node,
    /// and parsing resumes at the next synchronization point. Always
    /// produces a tree covering every scanned token, plus the diagnostics
    /// in source order (empty for well-formed input, where the tree is
    /// identical to [`Parser::parse`]).
    ///
    /// Like [`Parser::parse`] this is a thin convenience over a pooled
    /// session; batch callers should hold a [`Parser::session`] and use
    /// [`ParseSession::parse_resilient`] directly.
    pub fn parse_resilient(&self, input: &str) -> (CstNode, Vec<ParseError>) {
        let mut session = self.pooled_session();
        let result = {
            let outcome = session.parse_resilient(input);
            (outcome.tree.to_cst(), outcome.errors)
        };
        self.recycle_session(session);
        result
    }

    /// Take a session backed by pooled buffers (or fresh ones when the
    /// pool is empty). Pair with [`Parser::recycle_session`].
    fn pooled_session(&self) -> ParseSession<'_> {
        let pooled = self
            .session_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop();
        match pooled {
            Some(b) => ParseSession::from_buffers(self, b),
            None => self.session(),
        }
    }

    /// Return a pooled session's buffers. The pool is capped at the
    /// number of threads that can plausibly call [`Parser::parse`]
    /// concurrently on one shared parser; beyond that, dropping the
    /// buffers is cheaper than growing an unbounded free list.
    fn recycle_session(&self, session: ParseSession<'_>) {
        let mut pool = self
            .session_pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if pool.len() < 16 {
            pool.push(session.into_buffers());
        }
    }

    /// A reusable parse session holding the event buffer, token vector,
    /// memo bitmap, and tree arena, recycled across parses.
    pub fn session(&self) -> ParseSession<'_> {
        ParseSession::new(self)
    }

    /// Resolve a compiled production id (as found in [`Event::Open`]) to
    /// its production name.
    pub(crate) fn prod_name(&self, prod: u32) -> &str {
        if prod == ERROR_NODE {
            return "error";
        }
        &self.cprods[prod as usize].name
    }

    /// Resolve a compiled `(production, alternative)` pair to the
    /// alternative's label.
    pub(crate) fn alt_label(&self, prod: u32, alt: u32) -> Option<&str> {
        if prod == ERROR_NODE {
            return None;
        }
        self.cprods[prod as usize].alts[alt as usize]
            .label
            .as_deref()
    }

    pub(crate) fn error_from(
        &self,
        input: &str,
        toks: &[Token],
        notes: &Notes,
    ) -> ParseError {
        self.error_from_with(input.into(), toks, notes, &LineIndex::new(input))
    }

    /// [`Parser::error_from`] against a caller-held [`LineIndex`], so
    /// multi-error resilient parses pay for the line table once instead of
    /// rescanning the input per diagnostic. The input is read through a
    /// two-sided view (a maintained document's gap buffer), which no token
    /// straddles.
    pub(crate) fn error_from_with(
        &self,
        input: TextView<'_>,
        toks: &[Token],
        notes: &Notes,
        index: &LineIndex,
    ) -> ParseError {
        let (at, found) = match toks.get(notes.farthest) {
            Some(t) => (
                t.start,
                Some((
                    self.scanner.name(t.kind).to_string(),
                    input.slice(t.start, t.end).to_string(),
                )),
            ),
            None => (input.len(), None),
        };
        let (line, column) = index.line_col(input, at);
        let mut expected: BTreeSet<String> = notes
            .expected
            .iter_ids()
            .map(|id| {
                self.scanner
                    .name(sqlweave_lexgen::TokenKind(id))
                    .to_string()
            })
            .collect();
        if notes.expected_eof {
            expected.insert(EOF.to_string());
        }
        ParseError {
            at,
            line,
            column,
            expected,
            found,
            lexical: None,
        }
    }

    // ---------- the event-emitting engine ----------

    /// Run the engine over an already-scanned token stream, appending the
    /// parse to `ctx.events`. Returns the position after the start
    /// production on success (the caller checks it consumed all input).
    pub(crate) fn run_events(&self, ctx: &mut EvCtx<'_>) -> Result<usize, ()> {
        self.ev_bt_nt(ctx, self.cstart, 0)
    }

    /// Consult the compiled dispatch table `di` at `pos`. Returns the
    /// selected alternative on a hit. Entries are keyed on exactly
    /// `min(k, remaining)` packed tokens, so short (end-of-input) words
    /// match only when the input really ends there.
    #[inline]
    fn try_dispatch(&self, ctx: &mut EvCtx<'_>, di: u32, pos: usize) -> Option<usize> {
        // SAFETY: `di` is a compiled decision index — every caller guards
        // `di != NO_DECISION`, and the compiler only stores indices it
        // just pushed into `decisions`. Skipping the bounds check removes
        // one indirection from every conflicted-decision consult.
        debug_assert!((di as usize) < self.decisions.len());
        let d = unsafe { self.decisions.get_unchecked(di as usize) };
        match ctx.kind_ids.get(pos) {
            Some(&k0) if d.conflict_first.contains(k0) => {}
            None if d.conflict_eof => {}
            _ => return None,
        }
        let depth = (d.k as usize).min(ctx.kind_ids.len() - pos);
        let mut w = 0u64;
        for &t in &ctx.kind_ids[pos..pos + depth] {
            w = rt_w_push(w, t as u16);
        }
        match d.entries.binary_search_by_key(&w, |e| e.0) {
            Ok(i) => {
                ctx.counters.decision_hits += 1;
                Some(d.entries[i].1 as usize)
            }
            Err(_) => None,
        }
    }

    fn ev_bt_nt(&self, ctx: &mut EvCtx<'_>, prod: u32, pos: usize) -> Result<usize, ()> {
        // Track which production owns the failure frontier (`Notes`
        // snapshots the innermost production on every frontier advance) so
        // panic-mode recovery can skip to that production's FOLLOW set.
        let saved = ctx.notes.cur_prod;
        ctx.notes.cur_prod = prod;
        let result = self.ev_bt_nt_inner(ctx, prod, pos);
        ctx.notes.cur_prod = saved;
        result
    }

    fn ev_bt_nt_inner(&self, ctx: &mut EvCtx<'_>, prod: u32, pos: usize) -> Result<usize, ()> {
        // The engine is a deterministic function of (production, position),
        // so a failed probe can never succeed on re-entry — fail in O(1).
        if ctx.memo.failed(prod, pos) {
            return Err(());
        }
        let cprod = &self.cprods[prod as usize];
        if ctx.use_tables && cprod.decision != NO_DECISION {
            if let Some(ai) = self.try_dispatch(ctx, cprod.decision, pos) {
                let alt = &cprod.alts[ai];
                let mark = ctx.events.len();
                ctx.events.push(Event::Open { prod, alt: ai as u32 });
                ctx.counters.alt_attempts += 1;
                match self.ev_bt_seq(ctx, &alt.seq, pos) {
                    Ok(next) => {
                        ctx.events.push(Event::Close);
                        return Ok(next);
                    }
                    Err(()) => {
                        ctx.counters.backtracks += 1;
                        ctx.events.truncate(mark);
                        // The dispatched alternative failed on deeper
                        // context; fall back to the full ordered loop
                        // (outcome-identical to the seed engine).
                    }
                }
            }
        }
        let la = ctx.kind_ids.get(pos).copied();
        for (ai, alt) in cprod.alts.iter().enumerate() {
            if !alt.nullable {
                match la {
                    Some(k) if alt.first.contains(k) => {}
                    _ => {
                        ctx.notes.note_set(pos, &alt.first);
                        continue;
                    }
                }
            }
            let mark = ctx.events.len();
            ctx.events.push(Event::Open { prod, alt: ai as u32 });
            ctx.counters.alt_attempts += 1;
            match self.ev_bt_seq(ctx, &alt.seq, pos) {
                Ok(next) => {
                    ctx.events.push(Event::Close);
                    return Ok(next);
                }
                Err(()) => {
                    ctx.counters.backtracks += 1;
                    ctx.events.truncate(mark);
                }
            }
        }
        ctx.memo.record(prod, pos);
        Err(())
    }

    fn ev_bt_seq(&self, ctx: &mut EvCtx<'_>, seq: &[CTerm], mut pos: usize) -> Result<usize, ()> {
        for term in seq {
            pos = self.ev_bt_term(ctx, term, pos)?;
        }
        Ok(pos)
    }

    /// Greedy repetition shared by `Star` and the tail of `Plus`.
    fn ev_bt_repeat(
        &self,
        ctx: &mut EvCtx<'_>,
        body: &[CTerm],
        first: &TokBits,
        decision: u32,
        mut pos: usize,
    ) -> usize {
        loop {
            match ctx.kind_ids.get(pos) {
                Some(&k) if first.contains(k) => {
                    // Alternative 1 of the lowered `body star | ε` is the
                    // exit: a dispatch hit proves the body probe is doomed.
                    if ctx.use_tables
                        && decision != NO_DECISION
                        && self.try_dispatch(ctx, decision, pos) == Some(1)
                    {
                        break;
                    }
                    let mark = ctx.events.len();
                    ctx.counters.alt_attempts += 1;
                    match self.ev_bt_seq(ctx, body, pos) {
                        Ok(next) if next > pos => pos = next,
                        _ => {
                            ctx.counters.backtracks += 1;
                            ctx.events.truncate(mark);
                            break;
                        }
                    }
                }
                _ => {
                    ctx.notes.note_set(pos, first);
                    break;
                }
            }
        }
        pos
    }

    fn ev_bt_term(&self, ctx: &mut EvCtx<'_>, term: &CTerm, pos: usize) -> Result<usize, ()> {
        match term {
            CTerm::Tok(kind) => match ctx.kind_ids.get(pos) {
                Some(k) if k == kind => {
                    ctx.events.push(Event::Token { index: pos as u32 });
                    Ok(pos + 1)
                }
                _ => {
                    ctx.notes.note_id(pos, *kind);
                    Err(())
                }
            },
            CTerm::Nt(n) => self.ev_bt_nt(ctx, *n, pos),
            CTerm::Opt { body, first, decision } => {
                if matches!(ctx.kind_ids.get(pos), Some(&k) if first.contains(k)) {
                    // Alternative 1 of the lowered `body | ε` is the skip:
                    // a dispatch hit proves the body probe is doomed.
                    if ctx.use_tables
                        && *decision != NO_DECISION
                        && self.try_dispatch(ctx, *decision, pos) == Some(1)
                    {
                        return Ok(pos);
                    }
                    let mark = ctx.events.len();
                    ctx.counters.alt_attempts += 1;
                    match self.ev_bt_seq(ctx, body, pos) {
                        Ok(next) => return Ok(next),
                        Err(()) => {
                            ctx.counters.backtracks += 1;
                            ctx.events.truncate(mark);
                        }
                    }
                } else {
                    // Not taken: still informative for error messages.
                    ctx.notes.note_set(pos, first);
                }
                Ok(pos)
            }
            CTerm::Star { body, first, decision } => {
                Ok(self.ev_bt_repeat(ctx, body, first, *decision, pos))
            }
            CTerm::Plus { body, first, decision } => {
                let next = self.ev_bt_seq(ctx, body, pos)?;
                Ok(self.ev_bt_repeat(ctx, body, first, *decision, next))
            }
            CTerm::Group { alts, decision } => {
                if ctx.use_tables && *decision != NO_DECISION {
                    if let Some(ai) = self.try_dispatch(ctx, *decision, pos) {
                        let alt = &alts[ai];
                        let mark = ctx.events.len();
                        ctx.counters.alt_attempts += 1;
                        match self.ev_bt_seq(ctx, &alt.seq, pos) {
                            Ok(next) => return Ok(next),
                            Err(()) => {
                                ctx.counters.backtracks += 1;
                                ctx.events.truncate(mark);
                            }
                        }
                    }
                }
                let la = ctx.kind_ids.get(pos).copied();
                for alt in alts {
                    if !alt.nullable {
                        match la {
                            Some(k) if alt.first.contains(k) => {}
                            _ => {
                                ctx.notes.note_set(pos, &alt.first);
                                continue;
                            }
                        }
                    }
                    let mark = ctx.events.len();
                    ctx.counters.alt_attempts += 1;
                    match self.ev_bt_seq(ctx, &alt.seq, pos) {
                        Ok(next) => return Ok(next),
                        Err(()) => {
                            ctx.counters.backtracks += 1;
                            ctx.events.truncate(mark);
                        }
                    }
                }
                Err(())
            }
        }
    }
}

// ---------------------------------------------------------------- compiler

struct Compiler<'a> {
    analysis: &'a GrammarAnalysis,
    scanner: &'a Scanner,
    n_tokens: usize,
    /// Flat-production name → index into [`Parser::decisions`].
    decision_of: &'a HashMap<String, u32>,
}

impl Compiler<'_> {
    fn tok_id(&self, name: &str) -> u32 {
        self.scanner
            .kind_of(name)
            .expect("token presence checked before compilation")
            .0
    }

    fn bits_of(&self, names: &BTreeSet<String>) -> TokBits {
        let mut bits = TokBits::new(self.n_tokens);
        for n in names {
            if n != EOF {
                bits.insert(self.tok_id(n));
            }
        }
        bits
    }

    fn first_bits(&self, seq: &[Term]) -> (TokBits, bool) {
        let (names, nullable) = self.analysis.first_of_seq(seq);
        (self.bits_of(&names), nullable)
    }

    /// Decision index for the synthetic production the Lowerer named
    /// `{owner}__{kind}{n}` (see `grammar::lower`); the compiler walks
    /// terms in the same order and replays the same counter.
    fn decision_at(&self, owner: &str, kind: &str, n: usize) -> u32 {
        self.decision_of
            .get(&format!("{owner}__{kind}{n}"))
            .copied()
            .unwrap_or(NO_DECISION)
    }

    fn compile_ebnf(&self, grammar: &Grammar) -> (Vec<CProd>, u32) {
        let index: HashMap<&str, u32> = grammar
            .productions()
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i as u32))
            .collect();
        // Mirrors the Lowerer's synthetic-name counter: global across the
        // grammar, bumped after a term's body has been processed.
        let mut counter = 0usize;
        let mut prods = Vec::with_capacity(grammar.productions().len());
        for p in grammar.productions() {
            let mut alts = Vec::with_capacity(p.alternatives.len());
            for alt in &p.alternatives {
                let (first, nullable) = self.first_bits(&alt.seq);
                alts.push(CAlt {
                    seq: self.compile_seq(&p.name, &alt.seq, &index, &mut counter),
                    first,
                    nullable,
                    label: alt.label.clone(),
                });
            }
            prods.push(CProd {
                name: p.name.clone(),
                alts,
                decision: self
                    .decision_of
                    .get(p.name.as_str())
                    .copied()
                    .unwrap_or(NO_DECISION),
            });
        }
        (prods, index[grammar.start()])
    }

    fn compile_seq(
        &self,
        owner: &str,
        seq: &[Term],
        index: &HashMap<&str, u32>,
        counter: &mut usize,
    ) -> Vec<CTerm> {
        seq.iter()
            .map(|term| match term {
                Term::Token(t) => CTerm::Tok(self.tok_id(t)),
                Term::NonTerminal(n) => CTerm::Nt(index[n.as_str()]),
                Term::Optional(body) => {
                    let first = self.first_bits(body).0;
                    let body = self.compile_seq(owner, body, index, counter);
                    *counter += 1;
                    CTerm::Opt {
                        first,
                        body,
                        decision: self.decision_at(owner, "opt", *counter),
                    }
                }
                Term::Star(body) => {
                    let first = self.first_bits(body).0;
                    let body = self.compile_seq(owner, body, index, counter);
                    *counter += 1;
                    CTerm::Star {
                        first,
                        body,
                        decision: self.decision_at(owner, "star", *counter),
                    }
                }
                Term::Plus(body) => {
                    let first = self.first_bits(body).0;
                    let body = self.compile_seq(owner, body, index, counter);
                    *counter += 1;
                    // `x+` lowers to `x x*`, so the Plus tail shares the
                    // star-kind synthetic.
                    CTerm::Plus {
                        first,
                        body,
                        decision: self.decision_at(owner, "star", *counter),
                    }
                }
                Term::Group(alts) => {
                    let calts: Vec<CGroupAlt> = alts
                        .iter()
                        .map(|a| {
                            let (first, nullable) = self.first_bits(a);
                            CGroupAlt {
                                seq: self.compile_seq(owner, a, index, counter),
                                first,
                                nullable,
                            }
                        })
                        .collect();
                    // Single-alternative groups are spliced by the
                    // Lowerer: no synthetic production, no counter bump.
                    let decision = if calts.len() > 1 {
                        *counter += 1;
                        self.decision_at(owner, "grp", *counter)
                    } else {
                        NO_DECISION
                    };
                    CTerm::Group { alts: calts, decision }
                }
            })
            .collect()
    }
}

// --------------------------------------------------- failure-frontier notes

/// Farthest-failure tracking shared by the event engine and the seed
/// reference engine: the error message reports the deepest position reached and
/// the union of token sets that would have allowed progress there.
pub(crate) struct Notes {
    pub(crate) farthest: usize,
    expected: TokBits,
    expected_eof: bool,
    /// The production currently being expanded (engine-maintained;
    /// [`NO_PROD`] outside any expansion).
    pub(crate) cur_prod: u32,
    /// The production that owned the frontier when it last advanced —
    /// panic-mode recovery skips to this production's FOLLOW set.
    pub(crate) at_prod: u32,
}

/// "No production" sentinel for [`Notes::cur_prod`]/[`Notes::at_prod`].
pub(crate) const NO_PROD: u32 = u32::MAX;

impl Notes {
    pub(crate) fn new(n_tokens: usize) -> Notes {
        Notes {
            farthest: 0,
            expected: TokBits::new(n_tokens),
            expected_eof: false,
            cur_prod: NO_PROD,
            at_prod: NO_PROD,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.farthest = 0;
        self.expected.clear();
        self.expected_eof = false;
        self.cur_prod = NO_PROD;
        self.at_prod = NO_PROD;
    }

    /// Advance the frontier to `pos`, clearing stale expectations. Returns
    /// `false` when `pos` is strictly behind the frontier — such notes can
    /// never appear in the reported error, so callers skip all recording
    /// work (the error-path cost fix: untaken `Opt`/`Star` arms and pruned
    /// alternatives behind the frontier no longer touch the bitset).
    #[inline]
    fn advance(&mut self, pos: usize) -> bool {
        if pos < self.farthest {
            return false;
        }
        if pos > self.farthest {
            self.farthest = pos;
            self.expected.clear();
            self.expected_eof = false;
        }
        self.at_prod = self.cur_prod;
        true
    }

    #[inline]
    pub(crate) fn note_id(&mut self, pos: usize, expected: u32) {
        if self.advance(pos) {
            self.expected.insert(expected);
        }
    }

    #[inline]
    pub(crate) fn note_set(&mut self, pos: usize, expected: &TokBits) {
        if self.advance(pos) {
            self.expected.union_with(expected);
        }
    }

    pub(crate) fn note_eof(&mut self, pos: usize) {
        if self.advance(pos) {
            self.expected_eof = true;
        }
    }
}

// --------------------------------------------------------- failure memoing

/// Bitmap over `(production, position)` recording *failed* backtracking
/// probes. Sound because `ev_bt_nt` is a deterministic function of its
/// `(production, position)` arguments: once a probe fails, every re-probe
/// (the Group/Opt/Star re-entry pattern) fails identically.
#[derive(Default)]
pub(crate) struct FailureMemo {
    words: Vec<u64>,
    positions: usize,
    hits: u64,
}

impl FailureMemo {
    /// Size (and zero) the bitmap for a parse over `positions` token
    /// positions and `prods` productions, recycling the allocation.
    pub(crate) fn reset(&mut self, prods: usize, positions: usize) {
        self.positions = positions;
        let need = (prods * positions).div_ceil(64);
        self.words.clear();
        self.words.resize(need, 0);
    }

    #[inline]
    fn bit(&self, prod: u32, pos: usize) -> usize {
        prod as usize * self.positions + pos
    }

    #[inline]
    pub(crate) fn failed(&mut self, prod: u32, pos: usize) -> bool {
        let b = self.bit(prod, pos);
        let hit = (self.words[b / 64] >> (b % 64)) & 1 == 1;
        if hit {
            self.hits += 1;
        }
        hit
    }

    #[inline]
    pub(crate) fn record(&mut self, prod: u32, pos: usize) {
        let b = self.bit(prod, pos);
        self.words[b / 64] |= 1 << (b % 64);
    }

    /// Cumulative memo hits (probes answered without re-derivation).
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }
}

/// Borrowed engine context: token kinds in, events + failure notes +
/// dynamic counters out.
pub(crate) struct EvCtx<'a> {
    pub(crate) kind_ids: &'a [u32],
    pub(crate) events: &'a mut Vec<Event>,
    pub(crate) memo: &'a mut FailureMemo,
    pub(crate) notes: &'a mut Notes,
    pub(crate) counters: &'a mut RunCounters,
    /// Consult compiled LL(k) dispatch tables before speculating. The
    /// session disables this on its diagnostics rerun so error messages
    /// stay byte-identical to the seed engine.
    pub(crate) use_tables: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlweave_grammar::dsl::{parse_grammar, parse_tokens};

    fn select_parser() -> Parser {
        let g = parse_grammar(
            r#"
            grammar q;
            start query;
            query : SELECT quant? select_list FROM IDENT where_clause? #select ;
            quant : DISTINCT #distinct | ALL #all ;
            select_list : IDENT (COMMA IDENT)* #columns | STAR #star ;
            where_clause : WHERE IDENT EQ value ;
            value : IDENT | NUMBER ;
            "#,
        )
        .unwrap();
        let t = parse_tokens(
            r#"
            tokens q;
            SELECT = kw; FROM = kw; WHERE = kw; DISTINCT = kw; ALL = kw;
            COMMA = ","; STAR = "*"; EQ = "=";
            IDENT = /[a-z][a-z0-9_]*/;
            NUMBER = /[0-9]+/;
            WS = skip /[ \t\r\n]+/;
            "#,
        )
        .unwrap();
        Parser::new(g, &t).unwrap()
    }

    #[test]
    fn backtracking_accepts_and_shapes() {
        let p = select_parser();
        let cst = p.parse("SELECT a, b FROM t WHERE a = 1").unwrap();
        assert_eq!(cst.name(), "query");
        assert_eq!(cst.label(), Some("select"));
        let sl = cst.child("select_list").unwrap();
        assert_eq!(sl.label(), Some("columns"));
        assert_eq!(sl.children_named("IDENT").count(), 2);
        assert!(cst.child("where_clause").is_some());
    }

    #[test]
    fn rejects_with_expected_set() {
        let p = select_parser();
        let err = p.parse("SELECT a b FROM t").unwrap_err();
        assert_eq!(err.found.as_ref().unwrap().1, "b");
        assert!(
            err.expected.contains("FROM") && err.expected.contains("COMMA"),
            "expected: {:?}",
            err.expected
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let p = select_parser();
        let err = p.parse("SELECT a FROM t t2").unwrap_err();
        assert_eq!(err.found.as_ref().unwrap().1, "t2");
    }

    #[test]
    fn eof_error() {
        let p = select_parser();
        let err = p.parse("SELECT a FROM").unwrap_err();
        assert!(err.found.is_none());
        assert!(err.expected.contains("IDENT"));
    }

    #[test]
    fn lexical_error_propagated() {
        let p = select_parser();
        let err = p.parse("SELECT a FROM t WHERE a = #").unwrap_err();
        assert!(err.lexical.is_some());
    }

    #[test]
    fn missing_token_detected_at_build() {
        let g = parse_grammar("grammar g; a : GHOST ;").unwrap();
        let t = parse_tokens("tokens t; X = kw;").unwrap();
        assert!(matches!(
            Parser::new(g, &t),
            Err(BuildError::MissingTokens(v)) if v == ["GHOST"]
        ));
    }

    #[test]
    fn left_recursion_detected_at_build() {
        let g = parse_grammar("grammar g; a : a X | X ;").unwrap();
        let t = parse_tokens("tokens t; X = kw;").unwrap();
        assert!(matches!(Parser::new(g, &t), Err(BuildError::LeftRecursive(_))));
    }

    #[test]
    fn undefined_nonterminal_detected_at_build() {
        let g = parse_grammar("grammar g; a : missing ;").unwrap();
        let t = parse_tokens("tokens t; X = kw;").unwrap();
        assert!(matches!(Parser::new(g, &t), Err(BuildError::Analysis(_))));
    }

    #[test]
    fn backtracking_resolves_non_ll1_alternatives() {
        // Common prefix: LL(1) conflict, but ordered backtracking succeeds.
        let g = parse_grammar("grammar g; a : X Y #xy | X Z #xz ;").unwrap();
        let t = parse_tokens("tokens t; X = kw; Y = kw; Z = kw; WS = skip / +/;").unwrap();
        let p = Parser::new(g, &t).unwrap();
        assert_eq!(p.parse("X Y").unwrap().label(), Some("xy"));
        assert_eq!(p.parse("X Z").unwrap().label(), Some("xz"));
        assert_eq!(p.stats().conflicts, 1);
    }

    #[test]
    fn optional_fallback_backtracks() {
        // b? followed by IDENT where b also starts with IDENT: greedy take
        // of b? must fall back when the suffix then fails.
        let g = parse_grammar("grammar g; a : b? IDENT ; b : IDENT IDENT ;").unwrap();
        let t =
            parse_tokens("tokens t; IDENT = /[a-z]+/; WS = skip / +/;").unwrap();
        let p = Parser::new(g, &t).unwrap();
        // one ident: optional not taken
        assert!(p.parse("x").is_ok());
        // three idents: optional taken
        assert!(p.parse("x y z").is_ok());
    }

    #[test]
    fn stats_reported() {
        let p = select_parser();
        let s = p.stats();
        assert_eq!(s.productions, 5);
        assert!(s.flat_productions > s.productions);
        assert!(s.table_cells > 0);
        assert!(s.dfa_states > 5);
        assert_eq!(s.token_rules, 11);
    }

    #[test]
    fn empty_input_rejected_when_not_nullable() {
        let p = select_parser();
        let err = p.parse("").unwrap_err();
        assert!(err.expected.contains("SELECT"));
    }

    #[test]
    fn star_of_nullable_body_rejected_at_build() {
        // (b)* with nullable b is ill-formed for LL parsing (the lowered
        // right-recursion is left-recursive through the nullable prefix);
        // it must be rejected at build time rather than spin at parse time.
        let g = parse_grammar("grammar g; a : (b)* X ; b : Y | ;").unwrap();
        let t = parse_tokens("tokens t; X = kw; Y = kw; WS = skip / +/;").unwrap();
        assert!(matches!(Parser::new(g, &t), Err(BuildError::LeftRecursive(_))));
    }

    #[test]
    fn star_of_non_nullable_body_loops_fine() {
        let g = parse_grammar("grammar g; a : (b)* X ; b : Y ;").unwrap();
        let t = parse_tokens("tokens t; X = kw; Y = kw; WS = skip / +/;").unwrap();
        let p = Parser::new(g, &t).unwrap();
        assert!(p.parse("X").is_ok());
        assert!(p.parse("Y Y X").is_ok());
    }

    #[test]
    fn tokbits_basics() {
        let mut b = TokBits::new(130);
        b.insert(0);
        b.insert(64);
        b.insert(129);
        assert!(b.contains(0) && b.contains(64) && b.contains(129));
        assert!(!b.contains(1) && !b.contains(128));
        let ids: Vec<u32> = b.iter_ids().collect();
        assert_eq!(ids, [0, 64, 129]);
        let mut c = TokBits::new(130);
        c.insert(5);
        c.union_with(&b);
        assert!(c.contains(5) && c.contains(129));
        c.clear();
        assert_eq!(c.iter_ids().count(), 0);
    }

    #[test]
    fn notes_skip_positions_behind_the_frontier() {
        let mut notes = Notes::new(130);
        let mut set = TokBits::new(130);
        set.insert(7);
        notes.note_id(3, 1);
        assert_eq!(notes.farthest, 3);
        // Behind the frontier: recorded nothing, frontier unchanged.
        notes.note_set(1, &set);
        notes.note_id(0, 9);
        notes.note_eof(2);
        assert_eq!(notes.farthest, 3);
        assert_eq!(notes.expected.iter_ids().collect::<Vec<_>>(), [1]);
        assert!(!notes.expected_eof);
        // Ties union; advances clear.
        notes.note_set(3, &set);
        assert_eq!(notes.expected.iter_ids().collect::<Vec<_>>(), [1, 7]);
        notes.note_id(5, 2);
        assert_eq!(notes.expected.iter_ids().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn failure_memo_records_and_replays() {
        let mut memo = FailureMemo::default();
        memo.reset(4, 10);
        assert!(!memo.failed(2, 3));
        memo.record(2, 3);
        assert!(memo.failed(2, 3));
        assert!(!memo.failed(2, 4));
        assert!(!memo.failed(3, 3));
        assert_eq!(memo.hits(), 1);
        // reset clears the map but keeps the hit counter cumulative
        memo.reset(4, 10);
        assert!(!memo.failed(2, 3));
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn dispatch_resolves_common_prefix_without_backtracking() {
        // `a : X Y | X Z` conflicts on X at k=1 but is LL(2); the compiled
        // dispatch table must select the right alternative directly.
        let g = parse_grammar("grammar g; a : X Y #xy | X Z #xz ;").unwrap();
        let t = parse_tokens("tokens t; X = kw; Y = kw; Z = kw; WS = skip / +/;").unwrap();
        let p = Parser::new(g, &t).unwrap();
        assert_eq!(p.decision_tables(), 1);
        let mut s = p.session();
        assert_eq!(s.parse_tree("X Z").unwrap().to_cst().label(), Some("xz"));
        let counters = s.counters();
        assert!(counters.decision_hits >= 1, "counters: {counters:?}");
        assert_eq!(counters.backtracks, 0, "counters: {counters:?}");
        assert_eq!(s.parse_tree("X Y").unwrap().to_cst().label(), Some("xy"));
        assert_eq!(s.counters().backtracks, 0);
    }

    #[test]
    fn dispatch_skips_doomed_star_probe() {
        // `stmt (SEMI stmt)* SEMI?` — at the trailing SEMI the star's
        // continue-probe is doomed; the k=2 table proves the exit arm.
        let g = parse_grammar(
            "grammar g; start script; script : stmt (SEMI stmt)* SEMI? ; stmt : A ;",
        )
        .unwrap();
        let t = parse_tokens("tokens t; A = kw; SEMI = \";\"; WS = skip / +/;").unwrap();
        let p = Parser::new(g, &t).unwrap();
        assert!(p.decision_tables() >= 1);
        let mut s = p.session();
        assert!(s.parse_tree("A ; A ;").is_ok());
        let counters = s.counters();
        assert_eq!(counters.backtracks, 0, "counters: {counters:?}");
        assert!(counters.decision_hits >= 1, "counters: {counters:?}");
    }

    #[test]
    fn dispatch_errors_match_seed_errors() {
        let g = parse_grammar("grammar g; a : X Y #xy | X Z #xz ;").unwrap();
        let t = parse_tokens("tokens t; X = kw; Y = kw; Z = kw; WS = skip / +/;").unwrap();
        let p = Parser::new(g, &t).unwrap();
        for bad in ["X", "X X", "Y", "X Y Z", ""] {
            let with = p.parse(bad).unwrap_err();
            let without = p.parse_reference(bad).unwrap_err();
            assert_eq!(with, without, "diverged on {bad:?}");
        }
    }

    #[test]
    fn memoized_probes_hit_on_group_reentry() {
        // `a : b X | b Y ;` — the second alternative re-probes `b` at the
        // same position after the first fails on the trailing token.
        let g = parse_grammar("grammar g; a : b X | b Y ; b : Z Z ;").unwrap();
        let t = parse_tokens("tokens t; X = kw; Y = kw; Z = kw; WS = skip / +/;").unwrap();
        let p = Parser::new(g, &t).unwrap();
        assert!(p.parse("Z Z Y").is_ok());
        // and a failing probe is memoized: `b` fails at position 0 once,
        // the second alternative's probe must answer from the memo.
        let mut s = p.session();
        assert!(s.parse_tree("Z X").is_err());
        assert!(s.memo_hits() >= 1, "expected memo hits, got {}", s.memo_hits());
    }
}
