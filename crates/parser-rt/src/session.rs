//! Reusable parse sessions.
//!
//! [`ParseSession`] owns every buffer a parse needs — the token vector,
//! interned kind ids, the event buffer, the failure-memo bitmap, and the
//! tree arena — and recycles all of them across parses. After the first
//! few statements of a workload the buffers reach their high-water mark
//! and parsing allocates nothing, which is the property the grammar-
//! coverage/fuzzing workloads (millions of small statements) need.
//! Lexing runs on the scanner's compiled byte-class tables
//! (`sqlweave_lexgen::compiled`) through
//! [`sqlweave_lexgen::Scanner::scan_into`].
//!
//! A batch of statements is one session driven over the batch:
//! [`ParseSession::parse_tree`] or [`ParseSession::parse_resilient`] per
//! statement. A [`Parser`] is shareable by reference across threads, so
//! each thread can hold a session of its own.

use crate::engine::{EvCtx, FailureMemo, Notes, Parser, RunCounters, NO_PROD};
use crate::errors::ParseError;
use crate::events::{split_elements, ElemKind, Event, TopElem, ERROR_NODE};
use crate::tree::{Arena, SyntaxTree, TreeBuilder};
use sqlweave_lexgen::{LexError, LineIndex, Token, TokenSource};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A reusable parsing workspace bound to one [`Parser`].
pub struct ParseSession<'p> {
    parser: &'p Parser,
    toks: Vec<Token>,
    kind_ids: Vec<u32>,
    events: Vec<Event>,
    /// Accumulated output stream of a resilient parse: spliced chunks of
    /// successful strict attempts plus error nodes, wrapped in one root.
    revents: Vec<Event>,
    memo: FailureMemo,
    notes: Notes,
    counters: RunCounters,
    /// Arena of the last standalone `parse_tree` / `parse_resilient` tree.
    tree: Arena,
    builder: TreeBuilder,
    /// Incrementally maintained document, when one is open
    /// ([`ParseSession::open_document`] / [`ParseSession::apply_edit`]).
    inc: Option<Box<IncDoc>>,
}

/// How local the last [`ParseSession::apply_edit`] repair was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditStats {
    /// Tokens produced by the damage-region relex.
    pub relexed_tokens: usize,
    /// Tokens covered by the reparsed window (`0` for a token-preserving
    /// edit — whitespace/comment-internal — which skips the parser
    /// entirely).
    pub reparsed_tokens: usize,
    /// Total tokens in the document after the edit.
    pub total_tokens: usize,
    /// Bytes between the relex restart point and the point where the new
    /// token stream resynchronized with the old one (the resync distance).
    pub resync_bytes: usize,
    /// The repair gave up and reparsed the whole document (pathological
    /// stream shape, or the damage window grew to cover everything).
    pub full_reparse: bool,
}

/// One top-level element of the maintained document — a parsed statement
/// subtree, a recovery error node, or a bare separator token. Its subtree
/// lives in its own [`Arena`] (`IncDoc::arenas`, same index) with
/// chunk-local node ids and *chunk-relative* token indices, built once when
/// the chunk is created, so an edit keeps every chunk outside its reparse
/// window as it is (no per-node token-index rebase) and a tree read builds
/// nothing. The span base offset turns the O(total tokens) suffix span
/// shift of an edit into an O(#chunks) base update; absolute spans are
/// only folded in when the tree is read.
struct Chunk {
    kind: ElemKind,
    /// Number of tokens this chunk covers.
    n_toks: usize,
    /// Span rebase: a covered token's true span = the span stored in the
    /// document token buffer + `base`.
    base: isize,
}

/// Persistent state of an incrementally maintained document: the text and
/// every derived artifact [`ParseSession::apply_edit`] repairs in place
/// instead of recomputing — line index, token stream, lexical diagnostics
/// (with the probe frontier of each failed munch, needed to place future
/// relex restarts), syntax diagnostics, and the per-statement chunks of
/// the whole document with their tree arenas.
struct IncDoc {
    /// Document text, spliced in place by each edit (the relex never
    /// needs pre-edit bytes, only pre-edit token positions).
    text: String,
    lines: LineIndex,
    /// Document token stream + interned kind ids. Swapped into the
    /// session's `toks`/`kind_ids` slots while incremental work runs, so
    /// the strict engine and the recovery driver read them unchanged.
    toks: Vec<Token>,
    kind_ids: Vec<u32>,
    lex: Vec<LexError>,
    lex_probes: Vec<usize>,
    /// Exact probe frontiers of the document's probe-unbounded tokens
    /// (ascending `(token_start, frontier)` pairs): the only tokens whose
    /// maximal munch can look past the static per-rule overhang bound, so
    /// the relex restart consults these recorded frontiers instead of
    /// backing up to byte 0 whenever such a rule (typically a quoted
    /// string with doubled-quote escapes) exists in the dialect.
    tok_probes: Vec<(usize, usize)>,
    /// Syntax diagnostics for the whole document, ascending by byte
    /// offset. Shared with [`EditOutcome::errors`] by reference count so a
    /// document full of diagnostics (a large script with many broken
    /// statements) is delivered per edit without cloning; each edit
    /// repairs it in place through [`Arc::make_mut`], which is free once
    /// the previous outcome is dropped.
    syn: Arc<Vec<ParseError>>,
    /// The document's top-level elements in order, partitioning the token
    /// stream.
    chunks: Vec<Chunk>,
    /// The tree arena of each chunk (same length as `chunks`): the
    /// document tree is its root wrapper over these, so an edit rebuilds
    /// only the arenas of the chunks it reparses.
    arenas: Vec<Arena>,
    /// First absolute token index of each chunk (prefix sums of `n_toks`;
    /// same length as `chunks`, first entry 0). Repaired in place by each
    /// chunk splice; rebuilt from scratch only on a full reparse.
    chunk_tok_lo: Vec<usize>,
    /// How many chunks cover zero tokens. Token-less top-level nodes break
    /// the edit window arithmetic, so each edit checks this count (kept
    /// current across splices) instead of rescanning every chunk.
    n_empty_chunks: usize,
    /// Root wrapper (`prod`, `alt`) the chunks assemble under.
    root: (u32, u32),
    last_edit: EditStats,
}

impl IncDoc {
    fn empty() -> IncDoc {
        IncDoc {
            text: String::new(),
            lines: LineIndex::new(""),
            toks: Vec::new(),
            kind_ids: Vec::new(),
            lex: Vec::new(),
            lex_probes: Vec::new(),
            tok_probes: Vec::new(),
            syn: Arc::new(Vec::new()),
            chunks: Vec::new(),
            arenas: Vec::new(),
            chunk_tok_lo: Vec::new(),
            n_empty_chunks: 0,
            root: (ERROR_NODE, 0),
            last_edit: EditStats {
                relexed_tokens: 0,
                reparsed_tokens: 0,
                total_tokens: 0,
                resync_bytes: 0,
                full_reparse: true,
            },
        }
    }

    /// Recompute the per-chunk first-token prefix sums.
    fn rebuild_chunk_tok_lo(&mut self) {
        self.chunk_tok_lo.clear();
        let mut lo = 0usize;
        for c in &self.chunks {
            self.chunk_tok_lo.push(lo);
            lo += c.n_toks;
        }
    }
}

/// [`TokenSource`] view of a chunked document token stream: spans stored
/// in the flat buffer are folded with the owning chunk's base offset on
/// access, so the relex sees true (absolute) spans without the suffix
/// ever being rewritten.
struct ChunkedTokens<'a> {
    toks: &'a [Token],
    chunks: &'a [Chunk],
    chunk_tok_lo: &'a [usize],
}

impl TokenSource for ChunkedTokens<'_> {
    fn len(&self) -> usize {
        self.toks.len()
    }

    fn get(&self, i: usize) -> Token {
        // Last chunk whose first token index is ≤ i (zero-token chunks
        // share their successor's `lo` and are correctly skipped).
        let c = self.chunk_tok_lo.partition_point(|&lo| lo <= i) - 1;
        let t = self.toks[i];
        let b = self.chunks[c].base;
        Token {
            kind: t.kind,
            start: (t.start as isize + b) as usize,
            end: (t.end as isize + b) as usize,
        }
    }
}

/// Turn one [`TopElem`] of a drive's output stream into a [`Chunk`] and
/// its arena: token indices rebased from absolute to chunk-relative, span
/// base 0 (a fresh drive's spans are absolute).
fn chunk_of_elem(b: &mut TreeBuilder, revents: &[Event], e: &TopElem) -> (Chunk, Arena) {
    let arena = Arena::from_events(b, &revents[e.ev_lo..e.ev_hi], e.tok_lo as u32);
    (
        Chunk {
            kind: e.kind,
            n_toks: e.tok_hi - e.tok_lo,
            base: 0,
        },
        arena,
    )
}

/// Materialize absolute new-text spans for the window tokens `from..to`
/// (post-splice indices) in place: fresh relexed tokens
/// (`fresh_lo..fresh_hi`) already carry absolute spans; prefix tokens fold
/// in their old chunk's base; suffix tokens fold in their old chunk's base
/// plus the edit's byte delta (their chunks have not been rebased yet —
/// this runs before the chunk splice).
#[allow(clippy::too_many_arguments)]
fn normalize_spans(
    toks: &mut [Token],
    chunks: &[Chunk],
    chunk_tok_lo: &[usize],
    from: usize,
    to: usize,
    fresh_lo: usize,
    fresh_hi: usize,
    tok_delta: isize,
    delta: isize,
) {
    for (i, tok) in toks.iter_mut().enumerate().take(to).skip(from) {
        if (fresh_lo..fresh_hi).contains(&i) {
            continue;
        }
        let (old_i, extra) = if i < fresh_lo {
            (i, 0)
        } else {
            ((i as isize - tok_delta) as usize, delta)
        };
        let c = chunk_tok_lo.partition_point(|&lo| lo <= old_i) - 1;
        let b = chunks[c].base + extra;
        if b != 0 {
            tok.start = (tok.start as isize + b) as usize;
            tok.end = (tok.end as isize + b) as usize;
        }
    }
}

/// What a window-bounded resilient drive reported back.
struct DriveResult {
    /// Root production observed on the first spliced chunk (`None` if the
    /// window produced only error nodes).
    root: Option<(u32, u32)>,
    /// The drive needed tokens past the window end: a strict attempt's
    /// failure frontier reached it, or recovery was still inside an error
    /// node when it ran out of window. Only possible when the window end
    /// is short of the document end; the caller must widen and re-run.
    needs_widening: bool,
}

/// The result of a resilient parse: a tree covering every scanned token
/// (skipped stretches folded into `error` nodes) plus every diagnostic in
/// source order. Well-formed input yields an empty `errors` and a tree
/// identical to the strict parse.
pub struct ParseOutcome<'s> {
    /// Full-coverage syntax tree (borrowing the session's buffers).
    pub tree: SyntaxTree<'s>,
    /// Lexical and syntax diagnostics, sorted by byte offset.
    pub errors: Vec<ParseError>,
}

/// Why an incremental-document operation could not run. Returned by the
/// fallible `try_*` incremental API ([`ParseSession::try_apply_edit`] and
/// friends); the panicking counterparts render the same messages. A
/// failed call never corrupts the session: the document (if any) stays
/// open and editable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// No document is open ([`ParseSession::open_document`] first).
    NoDocument,
    /// The edit range is inverted or reaches past the end of the document.
    OutOfBounds {
        /// The offending byte range.
        range: Range<usize>,
        /// Document length in bytes.
        len: usize,
    },
    /// A range endpoint falls inside a multi-byte `char`.
    NotCharBoundary {
        /// The offending byte range.
        range: Range<usize>,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::NoDocument => {
                write!(f, "no document open (call open_document first)")
            }
            EditError::OutOfBounds { range, len } => {
                write!(f, "edit range {range:?} out of bounds for a document of {len} bytes")
            }
            EditError::NotCharBoundary { range } => {
                write!(f, "edit range {range:?} must fall on char boundaries")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// Deferred tree handle of an [`EditOutcome`]: holds the session borrow
/// and only assembles the document tree when [`LazyTree::get`] is called.
/// Dropping it without calling `get` keeps the edit O(damage window +
/// #chunks) — the sub-millisecond keystroke path.
pub struct LazyTree<'s, 'p> {
    session: &'s mut ParseSession<'p>,
}

impl LazyTree<'_, '_> {
    /// The document tree. A read builds no nodes: each statement's arena
    /// was built when the statement was last parsed (by `open_document`,
    /// or by the edit whose reparse window covered it), and the tree is a
    /// root wrapper over those arenas. The first call after an edit folds
    /// the pending chunk span bases into absolute token spans, which costs
    /// one pass over the tokens after the edit; calls without an
    /// intervening edit fold nothing.
    pub fn get(&mut self) -> SyntaxTree<'_> {
        self.session.materialize_document()
    }
}

/// What [`ParseSession::apply_edit`] and [`ParseSession::open_document`]
/// return: diagnostics and edit statistics immediately, with the tree
/// behind a lazy handle that assembles it on first access. Callers that
/// only surface diagnostics per keystroke never pay for tree
/// construction.
pub struct EditOutcome<'s, 'p> {
    /// Lexical and syntax diagnostics for the whole edited document,
    /// sorted by byte offset — identical to what a from-scratch
    /// [`ParseSession::parse_resilient`] of the document text reports.
    ///
    /// Shared with the session's maintained document state: when the
    /// document has no lexical errors (the common case) this is a
    /// reference-counted handle to the in-place-repaired diagnostic list,
    /// so delivery is O(1) regardless of how many diagnostics the
    /// document carries. Holding it across the next edit forces that edit
    /// to copy-on-write; drop it first to keep edits allocation-free.
    pub errors: Arc<Vec<ParseError>>,
    /// Locality measurements of this edit.
    pub stats: EditStats,
    /// Lazy handle to the full-coverage document tree.
    pub tree: LazyTree<'s, 'p>,
}

/// Convert a lexical error into the [`ParseError`] shape the strict path
/// produces (shared by `parse_tree` and `parse_resilient` so messages
/// stay byte-identical between the two).
fn lex_to_parse(e: &LexError) -> ParseError {
    ParseError {
        at: e.at,
        line: e.line,
        column: e.column,
        expected: BTreeSet::new(),
        found: e.found.map(|c| ("CHAR".to_string(), c.to_string())),
        lexical: Some(e.to_string()),
    }
}

/// Repair the syntax diagnostics past an edit's damage boundary in place:
/// positions shift by the byte delta, and line/column are patched without
/// rescanning any text. A diagnostic whose pre-edit position was at or
/// past `old_line_end` (the first pre-edit line start after the edited
/// range) sits on a line the edit never touched: its column survives
/// verbatim and its line moves by exactly `line_delta`, two integer adds.
/// Only the few diagnostics still on the edit's own last line pay a full
/// line/column recomputation. This keeps each edit independent of how
/// many diagnostics the document carries beyond one pass of integer
/// arithmetic, even when a large document holds thousands of them.
fn repair_suffix_diags(
    syn: &mut [ParseError],
    text: &str,
    lines: &LineIndex,
    delta: isize,
    line_delta: isize,
    old_line_end: usize,
) {
    for e in syn {
        let old_at = e.at;
        e.at = (old_at as isize + delta) as usize;
        if old_at >= old_line_end {
            e.line = (e.line as isize + line_delta) as usize;
        } else {
            let (line, column) = lines.line_col(text, e.at);
            e.line = line;
            e.column = column;
        }
    }
}

/// Replace the lexical diagnostics covered by a relex: errors before the
/// restart point survive unchanged (the restart rule guarantees their
/// probe frontiers never reached the edit), the relexed window's are
/// fresh, and errors past the resync boundary shift — position and probe
/// frontier both — by the edit's byte delta (line/column recomputed
/// against the repaired line index).
fn splice_lex_diags(doc: &mut IncDoc, relex: &sqlweave_lexgen::Relex, delta: isize) {
    let mut lex = Vec::with_capacity(relex.errors.len());
    let mut probes = Vec::with_capacity(relex.err_probes.len());
    for (e, &p) in doc.lex.iter().zip(&doc.lex_probes) {
        if e.at < relex.start_byte {
            lex.push(e.clone());
            probes.push(p);
        }
    }
    lex.extend(relex.errors.iter().cloned());
    probes.extend_from_slice(&relex.err_probes);
    if let Some(q) = relex.resync_old {
        for (e, &p) in doc.lex.iter().zip(&doc.lex_probes) {
            if e.at >= q {
                let at = (e.at as isize + delta) as usize;
                let (line, column) = doc.lines.line_col(&doc.text, at);
                lex.push(LexError { at, line, column, found: e.found });
                probes.push(if p == usize::MAX { p } else { (p as isize + delta) as usize });
            }
        }
    }
    doc.lex = lex;
    doc.lex_probes = probes;
}

/// Replace the unbounded-token probe cache covered by a relex, mirroring
/// [`splice_lex_diags`]: entries before the restart survive verbatim (the
/// restart rule guarantees their frontiers never reached the edit), the
/// rescanned window's come fresh from the relex (already in new-text
/// coordinates), and entries past the resync boundary shift — token start
/// and frontier both — by the edit's byte delta, with the `usize::MAX`
/// EOF-observation sentinel preserved.
fn splice_tok_probes(doc: &mut IncDoc, relex: &sqlweave_lexgen::Relex, delta: isize) {
    if doc.tok_probes.is_empty() && relex.tok_probes.is_empty() {
        return;
    }
    let mut probes = Vec::with_capacity(doc.tok_probes.len() + relex.tok_probes.len());
    probes.extend(
        doc.tok_probes
            .iter()
            .copied()
            .take_while(|&(at, _)| at < relex.start_byte),
    );
    probes.extend_from_slice(&relex.tok_probes);
    if let Some(q) = relex.resync_old {
        probes.extend(
            doc.tok_probes
                .iter()
                .filter(|&&(at, _)| at >= q)
                .map(|&(at, p)| {
                    let p = if p == usize::MAX { p } else { (p as isize + delta) as usize };
                    ((at as isize + delta) as usize, p)
                }),
        );
    }
    doc.tok_probes = probes;
}

/// Pick the window's first element: walk left to a `Clean` element (error
/// nodes couple to the statement they arose in; a bare separator is not a
/// valid parse start), make sure the element *before* the window is not an
/// error node (the drive could need to coalesce into it), and take one
/// more clean statement of margin. No part of the recovery driver is
/// known to need that margin, but dropping it would shrink every reparse
/// window, and with it the exact window counts the keystroke gate and the
/// benchmark report, so it waits for a measured change of its own.
fn widen_left(chunks: &[Chunk], mut e: usize) -> usize {
    let mut margin = 1;
    loop {
        while e > 0 && chunks[e].kind != ElemKind::Clean {
            e -= 1;
        }
        if e > 0 && chunks[e - 1].kind == ElemKind::Err {
            e -= 1;
            continue;
        }
        if margin > 0 && e > 0 {
            margin -= 1;
            e -= 1;
            continue;
        }
        break;
    }
    e
}

/// Pick the window's end (exclusive element index), starting from the
/// first candidate: absorb error nodes unconditionally (error clusters
/// coalesce and merge diagnostics across element boundaries) plus one
/// clean statement of margin, and stop *before* the next clean statement
/// or bare separator — the window then ends where a statement ends, so
/// its end of input falls on a statement boundary.
fn widen_right(chunks: &[Chunk], mut e: usize) -> usize {
    let mut margin = 1;
    while e < chunks.len() {
        match chunks[e].kind {
            ElemKind::Err => e += 1,
            ElemKind::Tok | ElemKind::Clean => {
                if margin == 0 {
                    break;
                }
                if chunks[e].kind == ElemKind::Clean {
                    margin -= 1;
                }
                e += 1;
            }
        }
    }
    e
}

/// Splice one successful strict chunk (a single balanced `Open … Close`
/// tree over a token *slice*) into the resilient output stream: the
/// chunk's root wrapper is stripped (the final assembly re-wraps
/// everything in one root) and token indices are rebased from
/// slice-relative to absolute.
fn splice_chunk(
    revents: &mut Vec<Event>,
    chunk: &[Event],
    offset: usize,
    root: &mut Option<(u32, u32)>,
) {
    debug_assert!(chunk.len() >= 2, "a successful parse opens and closes a root");
    if root.is_none() {
        if let Event::Open { prod, alt } = chunk[0] {
            *root = Some((prod, alt));
        }
    }
    for ev in &chunk[1..chunk.len() - 1] {
        revents.push(match *ev {
            Event::Token { index } => Event::Token {
                index: index + offset as u32,
            },
            other => other,
        });
    }
}

/// The parser-independent buffers of a [`ParseSession`], detached from the
/// parser borrow so [`Parser::parse`]-style conveniences can recycle them
/// through the parser's internal pool instead of reallocating every call.
/// Only meaningful for the parser that produced them (the failure-memo and
/// expectation bitsets are sized to its token universe), which the
/// per-parser pool guarantees.
pub(crate) struct SessionBuffers {
    toks: Vec<Token>,
    kind_ids: Vec<u32>,
    events: Vec<Event>,
    revents: Vec<Event>,
    memo: FailureMemo,
    notes: Notes,
    counters: RunCounters,
    tree: Arena,
    builder: TreeBuilder,
}

impl<'p> ParseSession<'p> {
    /// Create an empty session (buffers grow on first use).
    pub fn new(parser: &'p Parser) -> ParseSession<'p> {
        ParseSession {
            parser,
            toks: Vec::new(),
            kind_ids: Vec::new(),
            events: Vec::new(),
            revents: Vec::new(),
            memo: FailureMemo::default(),
            notes: Notes::new(parser.n_tokens),
            counters: RunCounters::default(),
            tree: Arena::default(),
            builder: TreeBuilder::default(),
            inc: None,
        }
    }

    /// Rehydrate a session from pooled buffers (capacity preserved).
    pub(crate) fn from_buffers(parser: &'p Parser, b: SessionBuffers) -> ParseSession<'p> {
        ParseSession {
            parser,
            toks: b.toks,
            kind_ids: b.kind_ids,
            events: b.events,
            revents: b.revents,
            memo: b.memo,
            notes: b.notes,
            counters: b.counters,
            tree: b.tree,
            builder: b.builder,
            inc: None,
        }
    }

    /// Detach the buffers for pooling (capacity preserved).
    pub(crate) fn into_buffers(self) -> SessionBuffers {
        SessionBuffers {
            toks: self.toks,
            kind_ids: self.kind_ids,
            events: self.events,
            revents: self.revents,
            memo: self.memo,
            notes: self.notes,
            counters: self.counters,
            tree: self.tree,
            builder: self.builder,
        }
    }

    /// The parser this session drives.
    pub fn parser(&self) -> &'p Parser {
        self.parser
    }

    /// Cumulative failure-memo hits across all parses of this session
    /// (each hit is a whole nonterminal re-derivation skipped).
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits()
    }

    /// Cumulative engine counters (dispatch hits, speculative probes,
    /// truncations, recoveries) across all parses of this session.
    pub fn counters(&self) -> RunCounters {
        self.counters
    }

    /// Parse one statement into a [`SyntaxTree`] view borrowing this
    /// session's buffers (so the next `parse_tree` call recycles them —
    /// convert with [`SyntaxTree::to_cst`] to keep a tree).
    pub fn parse_tree<'s>(&'s mut self, input: &'s str) -> Result<SyntaxTree<'s>, ParseError> {
        let parser = self.parser;
        self.toks.clear();
        self.kind_ids.clear();
        parser
            .scanner
            .scan_into(input, &mut self.toks)
            .map_err(|e| lex_to_parse(&e))?;
        self.kind_ids.extend(self.toks.iter().map(|t| t.kind.0));
        let n = self.toks.len();
        match self.run_strict(0, n) {
            Ok(next) if next == n => {
                // The start production's expansion is the root; the rest
                // is the tree's one chunk.
                let (root, inner) = match &self.events[..] {
                    [Event::Open { prod, alt }, inner @ .., Event::Close] => ((*prod, *alt), inner),
                    _ => unreachable!("a successful parse opens and closes a root"),
                };
                self.tree.build(&mut self.builder, inner, 0);
                Ok(SyntaxTree::new(
                    parser,
                    input,
                    &self.toks,
                    root,
                    std::slice::from_ref(&self.tree),
                    &[0],
                ))
            }
            Ok(next) => {
                self.notes.note_eof(next);
                Err(parser.error_from(input, &self.toks, &self.notes))
            }
            Err(()) => Err(parser.error_from(input, &self.toks, &self.notes)),
        }
    }

    /// One strict engine attempt over the token slice `lo..hi`, into this
    /// session's `events` buffer (cleared first). Notes, memo, and the
    /// diagnostics rerun all behave exactly as the strict path always has;
    /// positions inside `notes` are relative to `lo`.
    fn run_strict(&mut self, lo: usize, hi: usize) -> Result<usize, ()> {
        let parser = self.parser;
        let n = hi - lo;
        self.events.clear();
        self.notes.reset();
        self.memo.reset(parser.cprods.len(), n + 1);
        let use_tables = parser.tables_active();
        let mut result = parser.run_events(&mut EvCtx {
            kind_ids: &self.kind_ids[lo..hi],
            events: &mut self.events,
            memo: &mut self.memo,
            notes: &mut self.notes,
            counters: &mut self.counters,
            use_tables,
        });
        if use_tables && !matches!(result, Ok(next) if next == n) {
            // A dispatch hit skips probes whose failure notes feed the
            // error message, so any failing outcome (hard error or
            // trailing input) is re-derived with tables disabled: the
            // accept/reject outcome is provably identical, and the
            // diagnostics become byte-identical to the seed engine.
            self.events.clear();
            self.notes.reset();
            self.memo.reset(parser.cprods.len(), n + 1);
            result = parser.run_events(&mut EvCtx {
                kind_ids: &self.kind_ids[lo..hi],
                events: &mut self.events,
                memo: &mut self.memo,
                notes: &mut self.notes,
                counters: &mut self.counters,
                use_tables: false,
            });
        }
        result
    }

    /// The panic-mode recovery driver over the token window `lo..hi` of a
    /// `doc_end`-token stream, appending spliced chunks and error nodes to
    /// `self.revents` and diagnostics to `errors`. A full parse passes
    /// `lo = 0, hi = doc_end`; the incremental reparser passes a damage
    /// window, for which the drive additionally watches for evidence that
    /// the window is too small to parse in isolation (a failure frontier
    /// or an unfinished error node at the window end while more of the
    /// document follows) and reports `needs_widening` with `errors` and
    /// the recovery counters rolled back — the caller re-drives a wider
    /// window (`self.revents` is the caller's to clear).
    fn drive_resilient(
        &mut self,
        input: &str,
        index: &LineIndex,
        lo: usize,
        hi: usize,
        doc_end: usize,
        errors: &mut Vec<ParseError>,
    ) -> DriveResult {
        let parser = self.parser;
        let counters_mark = self.counters;
        let errors_mark = errors.len();

        // Root production observed on the first spliced chunk; error-only
        // drives report `None` and the caller falls back to an `error`
        // root.
        let mut root: Option<(u32, u32)> = None;
        let mut pos = lo;
        // Where the previous panic skip resumed, and whether it resumed by
        // consuming a statement-level sync token. A resumed attempt that
        // fails with zero progress after a *non-statement* resume is a
        // cascade of the same underlying error: its diagnostic is merged
        // (suppressed) and the error node extended instead.
        let mut prev_resume: Option<usize> = None;
        let mut prev_was_sync = false;
        let mut last_is_error = false;
        let mut fuel = 2 * (hi - lo) + 4;

        if lo == hi {
            match self.run_strict(lo, hi) {
                Ok(_) => splice_chunk(&mut self.revents, &self.events, lo, &mut root),
                Err(()) => {
                    errors.push(parser.error_from_with(input, &[], &self.notes, index));
                    self.counters.recoveries += 1;
                }
            }
        }
        while pos < hi {
            if fuel == 0 {
                // Unreachable in practice (every iteration advances), but
                // the hard bound makes termination unconditional: dump the
                // remainder into one error node and stop.
                self.emit_error_node(pos, hi, &mut last_is_error);
                break;
            }
            fuel -= 1;
            let remaining = hi - pos;
            let result = self.run_strict(pos, hi);
            if let Ok(next) = result {
                if next == remaining {
                    splice_chunk(&mut self.revents, &self.events, pos, &mut root);
                    last_is_error = false;
                    break;
                }
                self.notes.note_eof(next);
            }
            let fail_abs = pos + self.notes.farthest.min(remaining);
            if fail_abs == hi && hi < doc_end {
                // The failure frontier reached the window end: where this
                // attempt really fails (and where recovery should resume)
                // depends on tokens past `hi`.
                self.counters = counters_mark;
                errors.truncate(errors_mark);
                return DriveResult { root, needs_widening: true };
            }
            // Committed failure: capture the diagnostic (and the failure
            // frontier) before any retry clobbers the notes.
            let diag = parser.error_from_with(input, &self.toks[pos..], &self.notes, index);
            let fail_prod = self.notes.at_prod;

            // How far did this attempt commit? The script skeleton accepts
            // a statement prefix directly (`Ok(next)` short of the input):
            // splice it and recover from its end.
            let good = match result {
                Ok(next) if next > 0 => {
                    splice_chunk(&mut self.revents, &self.events, pos, &mut root);
                    last_is_error = false;
                    pos + next
                }
                _ => pos,
            };

            let is_merge = good == pos && prev_resume == Some(pos) && !prev_was_sync;
            if !is_merge {
                errors.push(diag);
                self.counters.recoveries += 1;
            }

            // Panic: skip tokens until a statement-level sync token (taken
            // into the error node — the separator belongs to the broken
            // statement) or a token in FOLLOW of the production that owned
            // the failure (left in place for the resumed parse).
            let follow = (fail_prod != NO_PROD)
                .then(|| parser.follow_bits(fail_prod))
                .flatten();
            let mut resume = hi;
            let mut was_sync = false;
            for i in good.max(fail_abs)..hi {
                let k = self.kind_ids[i];
                if parser.is_sync_token(k) {
                    resume = i + 1;
                    was_sync = true;
                    break;
                }
                if follow.is_some_and(|f| f.contains(k)) {
                    resume = i;
                    break;
                }
            }
            if resume == pos {
                // A FOLLOW stop at the failure position itself would spin;
                // force progress by sacrificing one token.
                resume = pos + 1;
            }
            if resume > good {
                self.emit_error_node(good, resume, &mut last_is_error);
            }
            prev_resume = Some(resume);
            prev_was_sync = was_sync;
            pos = resume;
        }

        if last_is_error && hi < doc_end {
            // The drive ended inside an error node touching the window
            // end; a full parse might extend the node (or resume
            // differently) using tokens past `hi`.
            self.counters = counters_mark;
            errors.truncate(errors_mark);
            return DriveResult { root, needs_widening: true };
        }
        DriveResult { root, needs_widening: false }
    }

    /// Parse with panic-mode error recovery (see
    /// [`Parser::parse_resilient`] for the contract). The driver:
    ///
    /// 1. lexes resiliently (bad characters become lexical diagnostics,
    ///    scanning continues);
    /// 2. repeatedly runs the strict engine on the remaining tokens;
    ///    a full parse splices in and finishes, a partial/failed parse
    ///    records one diagnostic, splices whatever prefix committed, and
    ///    *panics*: tokens are skipped until a synchronization token
    ///    (statement level, consumed into the error node) or a token in
    ///    FOLLOW of the failing production (left for the resumed parse);
    /// 3. skipped stretches become `error` nodes, so every scanned token
    ///    appears in the final tree exactly once.
    ///
    /// A fuel bound (each iteration strictly advances, and fuel is
    /// 2·tokens + 4) guarantees termination on any input.
    pub fn parse_resilient<'s>(&'s mut self, input: &'s str) -> ParseOutcome<'s> {
        let parser = self.parser;
        self.toks.clear();
        self.kind_ids.clear();
        self.revents.clear();
        let index = LineIndex::new(input);
        let mut errors: Vec<ParseError> = parser
            .scanner
            .scan_resilient_into(input, &mut self.toks)
            .iter()
            .map(lex_to_parse)
            .collect();
        self.kind_ids.extend(self.toks.iter().map(|t| t.kind.0));
        let n = self.toks.len();

        let drive = self.drive_resilient(input, &index, 0, n, n, &mut errors);
        debug_assert!(!drive.needs_widening, "a full-document drive never widens");

        // Final assembly: the accumulated children are the tree's one
        // chunk, under a single root — the first successfully spliced
        // chunk's production, or an `error` root when nothing ever parsed.
        let root = drive.root.unwrap_or((ERROR_NODE, 0));
        errors.sort_by_key(|e| e.at);
        self.tree.build(&mut self.builder, &self.revents, 0);
        ParseOutcome {
            tree: SyntaxTree::new(
                parser,
                input,
                &self.toks,
                root,
                std::slice::from_ref(&self.tree),
                &[0],
            ),
            errors,
        }
    }

    // ---------- incremental editing ----------

    /// Open `text` as an incrementally maintained document: parse it
    /// resiliently, keep every derived artifact (tokens, line index,
    /// diagnostics, statement chunks with their tree arenas), and return
    /// the outcome — diagnostics eagerly, the tree behind a lazy handle.
    /// Subsequent [`ParseSession::apply_edit`] calls repair those
    /// artifacts in place. Reopening replaces the previous document
    /// (buffers are recycled).
    pub fn open_document(&mut self, text: &str) -> EditOutcome<'_, 'p> {
        let mut doc = self.inc.take().unwrap_or_else(|| Box::new(IncDoc::empty()));
        doc.text.clear();
        doc.text.push_str(text);
        self.swap_doc_buffers(&mut doc);
        self.reparse_document(&mut doc);
        self.swap_doc_buffers(&mut doc);
        self.inc = Some(doc);
        self.lazy_outcome()
    }

    /// The text of the open document, or [`EditError::NoDocument`].
    pub fn try_document(&self) -> Result<&str, EditError> {
        self.inc.as_ref().map(|d| d.text.as_str()).ok_or(EditError::NoDocument)
    }

    /// The text of the open document.
    ///
    /// # Panics
    /// If no document is open.
    pub fn document(&self) -> &str {
        self.try_document().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Measurements of the last edit ([`ParseSession::open_document`]
    /// counts as a full reparse), or [`EditError::NoDocument`].
    pub fn try_edit_stats(&self) -> Result<EditStats, EditError> {
        self.inc.as_ref().map(|d| d.last_edit).ok_or(EditError::NoDocument)
    }

    /// Measurements of the last edit ([`ParseSession::open_document`]
    /// counts as a full reparse).
    ///
    /// # Panics
    /// If no document is open.
    pub fn edit_stats(&self) -> EditStats {
        self.try_edit_stats().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ParseSession::apply_edit`]: a rejected edit returns a
    /// structured [`EditError`] instead of panicking, and leaves the
    /// document exactly as it was (still open, still editable).
    pub fn try_apply_edit(
        &mut self,
        range: Range<usize>,
        replacement: &str,
    ) -> Result<EditOutcome<'_, 'p>, EditError> {
        let Some(mut doc) = self.inc.take() else {
            return Err(EditError::NoDocument);
        };
        if range.start > range.end || range.end > doc.text.len() {
            let len = doc.text.len();
            self.inc = Some(doc);
            return Err(EditError::OutOfBounds { range, len });
        }
        if !doc.text.is_char_boundary(range.start) || !doc.text.is_char_boundary(range.end) {
            self.inc = Some(doc);
            return Err(EditError::NotCharBoundary { range });
        }
        self.swap_doc_buffers(&mut doc);
        self.apply_edit_inner(&mut doc, range.start, range.end, replacement);
        self.swap_doc_buffers(&mut doc);
        self.inc = Some(doc);
        Ok(self.lazy_outcome())
    }

    /// Replace byte range `range` of the open document with `replacement`
    /// and return the outcome for the edited text — byte-identical (tree
    /// and diagnostics) to a from-scratch [`ParseSession::parse_resilient`]
    /// of the edited text, but repaired locally:
    ///
    /// 1. **damage relex** — [`sqlweave_lexgen::Scanner::relex`] restarts
    ///    the scanner at the last token boundary that provably never
    ///    observed an edited byte and stops at the first old scan boundary
    ///    past the edit, splicing the token buffer (the line index shifts
    ///    incrementally too);
    /// 2. **localized reparse** — the damaged token range is mapped to the
    ///    smallest enclosing run of top-level statement chunks (plus one
    ///    clean statement of margin on each side, with adjacent error
    ///    nodes absorbed), only that window is re-driven through
    ///    panic-mode recovery, and the untouched prefix/suffix chunks are
    ///    kept verbatim with their arenas (chunk-relative token indices;
    ///    suffix span bases shift by the byte delta) — widening and
    ///    retrying if the drive proves the window too small;
    /// 3. **diagnostic rebase** — diagnostics outside the window shift
    ///    position; only the window's are recomputed.
    ///
    /// Token-preserving edits (inside whitespace or a comment) skip the
    /// parser entirely and only rebase spans.
    ///
    /// The returned [`EditOutcome`] carries diagnostics and stats
    /// eagerly; the tree is assembled only when [`LazyTree::get`] is
    /// called.
    ///
    /// # Panics
    /// If no document is open, or `range` is out of bounds or not on
    /// `char` boundaries ([`ParseSession::try_apply_edit`] reports the
    /// same conditions as values).
    pub fn apply_edit(&mut self, range: Range<usize>, replacement: &str) -> EditOutcome<'_, 'p> {
        self.try_apply_edit(range, replacement).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Assemble the lazy outcome for the current document state:
    /// diagnostics merged in the same lexical-first source order
    /// `parse_resilient` produces, stats, and the deferred tree handle.
    ///
    /// With no lexical errors the syntax list — maintained sorted by every
    /// edit — IS that merge, so the outcome shares it by reference count
    /// instead of cloning: delivery cost is independent of how many
    /// diagnostics the document carries. Only a document with lexical
    /// errors pays an O(#diagnostics) merge per outcome.
    fn lazy_outcome(&mut self) -> EditOutcome<'_, 'p> {
        let doc = self.inc.as_ref().expect("document was just stored");
        debug_assert!(
            doc.syn.windows(2).all(|w| w[0].at <= w[1].at),
            "maintained syntax diagnostics drifted out of order"
        );
        let errors = if doc.lex.is_empty() {
            Arc::clone(&doc.syn)
        } else {
            let mut merged: Vec<ParseError> = doc.lex.iter().map(lex_to_parse).collect();
            merged.extend(doc.syn.iter().cloned());
            merged.sort_by_key(|e| e.at);
            Arc::new(merged)
        };
        let stats = doc.last_edit;
        EditOutcome { errors, stats, tree: LazyTree { session: self } }
    }

    /// Trade the session's token buffers with the document's: incremental
    /// work keeps the document stream in the session slots the strict
    /// engine and the recovery driver read, without copying.
    fn swap_doc_buffers(&mut self, doc: &mut IncDoc) {
        std::mem::swap(&mut self.toks, &mut doc.toks);
        std::mem::swap(&mut self.kind_ids, &mut doc.kind_ids);
    }

    /// Parse the document text from scratch into `doc` (the full-reparse
    /// path of `open_document`, and the fallback for edits the local
    /// repair cannot handle). Expects the document buffers swapped in.
    fn reparse_document(&mut self, doc: &mut IncDoc) {
        let parser = self.parser;
        self.toks.clear();
        self.kind_ids.clear();
        self.revents.clear();
        doc.lines = LineIndex::new(&doc.text);
        doc.lex = parser.scanner.scan_resilient_into(&doc.text, &mut self.toks);
        doc.lex_probes = doc
            .lex
            .iter()
            .map(|e| parser.scanner.step_raw(&doc.text, e.at).probe)
            .collect();
        doc.tok_probes = parser.scanner.token_probes(&doc.text, &self.toks);
        self.kind_ids.extend(self.toks.iter().map(|t| t.kind.0));
        let n = self.toks.len();
        let syn = Arc::make_mut(&mut doc.syn);
        syn.clear();
        let drive = self.drive_resilient(&doc.text, &doc.lines, 0, n, n, syn);
        doc.root = drive.root.unwrap_or((ERROR_NODE, 0));
        doc.chunks.clear();
        doc.arenas.clear();
        match split_elements(&self.revents, 0) {
            Some(elems) => {
                for e in &elems {
                    let (chunk, arena) = chunk_of_elem(&mut self.builder, &self.revents, e);
                    doc.chunks.push(chunk);
                    doc.arenas.push(arena);
                }
            }
            None => {
                // Unreachable for a drive's own output, but degrade to one
                // opaque chunk instead of panicking: its arena holds every
                // top-level element, and the next edit's window fallback
                // handles it.
                doc.chunks.push(Chunk {
                    kind: ElemKind::Err,
                    n_toks: n,
                    base: 0,
                });
                doc.arenas
                    .push(Arena::from_events(&mut self.builder, &self.revents, 0));
            }
        }
        doc.rebuild_chunk_tok_lo();
        doc.n_empty_chunks = doc.chunks.iter().filter(|c| c.n_toks == 0).count();
        doc.last_edit = EditStats {
            relexed_tokens: n,
            reparsed_tokens: n,
            total_tokens: n,
            resync_bytes: doc.text.len(),
            full_reparse: true,
        };
    }

    /// Read the maintained document's tree: fold every pending chunk span
    /// base into absolute token spans, and return the root wrapper over
    /// the chunk arenas, which every edit already keeps current.
    fn materialize_document(&mut self) -> SyntaxTree<'_> {
        let parser = self.parser;
        let doc = self.inc.as_deref_mut().expect("no document open");
        for (c, chunk) in doc.chunks.iter_mut().enumerate() {
            if chunk.base != 0 {
                let lo = doc.chunk_tok_lo[c];
                for t in &mut doc.toks[lo..lo + chunk.n_toks] {
                    t.start = (t.start as isize + chunk.base) as usize;
                    t.end = (t.end as isize + chunk.base) as usize;
                }
                chunk.base = 0;
            }
        }
        SyntaxTree::new(
            parser,
            &doc.text,
            &doc.toks,
            doc.root,
            &doc.arenas,
            &doc.chunk_tok_lo,
        )
    }

    /// The current document state as an eager [`ParseOutcome`] (tree
    /// assembled immediately), or [`EditError::NoDocument`]. Handy for
    /// oracles and tests that snapshot the document between edits.
    pub fn try_document_outcome(&mut self) -> Result<ParseOutcome<'_>, EditError> {
        let doc = self.inc.as_ref().ok_or(EditError::NoDocument)?;
        let mut errors: Vec<ParseError> = doc.lex.iter().map(lex_to_parse).collect();
        errors.extend(doc.syn.iter().cloned());
        errors.sort_by_key(|e| e.at);
        Ok(ParseOutcome { tree: self.materialize_document(), errors })
    }

    /// The edit pipeline (document buffers swapped in): text splice, line
    /// index repair, damage relex, token/diagnostic splice, and — when the
    /// token stream actually changed — the windowed reparse.
    fn apply_edit_inner(&mut self, doc: &mut IncDoc, start: usize, old_end: usize, rep: &str) {
        let parser = self.parser;
        let new_end = start + rep.len();
        let delta = new_end as isize - old_end as isize;

        // In-place text splice: the relex only ever consults old token
        // *positions* (through the rebased [`ChunkedTokens`] view), never
        // old bytes, so no pre-edit copy of the document is kept — a
        // same-length replacement touches only the replaced bytes.
        let old_text_len = doc.text.len();
        doc.text.replace_range(start..old_end, rep);

        // Line geometry of the edit, captured against the pre-edit index:
        // every line start at or past `old_line_end` survives the edit
        // (shifted by `delta`), so a diagnostic there keeps its column and
        // moves exactly `line_delta` lines — the suffix repair below is
        // two integer adds per diagnostic instead of a line/column
        // recomputation that rescans its line.
        let old_line_end = doc
            .lines
            .line_start(doc.lines.line_of(old_end) + 1)
            .unwrap_or(usize::MAX);
        let line_delta = rep.bytes().filter(|&b| b == b'\n').count() as isize
            - (doc.lines.line_of(old_end) - doc.lines.line_of(start)) as isize;

        doc.lines.apply_edit(start, old_end, rep);
        let old_err_pairs: Vec<(usize, usize)> = doc
            .lex
            .iter()
            .zip(&doc.lex_probes)
            .map(|(e, &p)| (e.at, p))
            .collect();
        let relex = parser.scanner.relex(
            old_text_len,
            &doc.text,
            &doc.lines,
            &ChunkedTokens {
                toks: &self.toks,
                chunks: &doc.chunks,
                chunk_tok_lo: &doc.chunk_tok_lo,
            },
            &old_err_pairs,
            &doc.tok_probes,
            start,
            old_end,
            new_end,
        );
        let n_old = self.toks.len();
        let tok_delta = (relex.old_lo + relex.tokens.len()) as isize - relex.old_hi as isize;
        let n_new = (n_old as isize + tok_delta) as usize;
        let resync_bytes = match relex.resync_new {
            Some(q) => q - relex.start_byte,
            None => doc.text.len() - relex.start_byte,
        };
        let stats = EditStats {
            relexed_tokens: relex.tokens.len(),
            reparsed_tokens: 0,
            total_tokens: n_new,
            resync_bytes,
            full_reparse: false,
        };

        if relex.old_lo == relex.old_hi && relex.tokens.is_empty() {
            // Token-preserving edit (whitespace / comment interior / a
            // lexical-error-only change): no token splice at all — shift
            // the boundary chunk's tail spans in place, rebase every later
            // chunk by the byte delta, and keep every chunk arena.
            splice_lex_diags(doc, &relex, delta);
            splice_tok_probes(doc, &relex, delta);
            if delta != 0 {
                let first = relex.old_lo; // first token whose span shifts
                if first < n_old {
                    let c = doc.chunk_tok_lo.partition_point(|&lo| lo <= first) - 1;
                    let c_end = doc.chunk_tok_lo[c] + doc.chunks[c].n_toks;
                    for t in &mut self.toks[first..c_end] {
                        t.start = (t.start as isize + delta) as usize;
                        t.end = (t.end as isize + delta) as usize;
                    }
                    for chunk in &mut doc.chunks[c + 1..] {
                        chunk.base += delta;
                    }
                }
            }
            // Diagnostics at or past the edit end keep their identity but
            // may move (and, even for a same-length splice, a changed
            // character count or newline count shifts columns and lines —
            // so this runs regardless of `delta`).
            let syn = Arc::make_mut(&mut doc.syn);
            let lo = syn.partition_point(|e| e.at < old_end);
            repair_suffix_diags(
                &mut syn[lo..],
                &doc.text,
                &doc.lines,
                delta,
                line_delta,
                old_line_end,
            );
            doc.last_edit = stats;
            return;
        }

        // Window planning works in *old* token indices against the old
        // chunk structure, so it runs before the token splice.
        if n_old == 0 || doc.chunks.is_empty() || doc.n_empty_chunks > 0 {
            // No previous structure to splice around (or token-less
            // top-level nodes, which break the window arithmetic).
            return self.edit_fallback(doc);
        }
        // Damaged old-token range, padded by one token on the left (an
        // inserted token can re-shape the statement it lands after).
        let (a, b) = (relex.old_lo, relex.old_hi);
        let cover_lo = a.saturating_sub(1).min(n_old - 1);
        let cover_hi = (b.max(a + 1)).min(n_old) - 1; // last covered token
        let elem_of =
            |t: usize| -> usize { doc.chunk_tok_lo.partition_point(|&lo| lo <= t) - 1 };
        let e_lo = widen_left(&doc.chunks, elem_of(cover_lo));
        let mut e_hi = widen_right(&doc.chunks, elem_of(cover_hi) + 1);

        // Old-text byte of the window start (true span = stored + base),
        // for splitting the diagnostic list; computed before the token
        // splice while old indices are valid.
        let win_start_byte = {
            let t = doc.chunk_tok_lo[e_lo];
            (self.toks[t].start as isize + doc.chunks[e_lo].base) as usize
        };

        // Token splice. Suffix spans are NOT shifted here (that is the
        // point of the chunk bases); window spans are normalized lazily
        // below, exactly as far as the window grows.
        self.toks
            .splice(relex.old_lo..relex.old_hi, relex.tokens.iter().copied());
        self.kind_ids
            .splice(relex.old_lo..relex.old_hi, relex.tokens.iter().map(|t| t.kind.0));
        splice_lex_diags(doc, &relex, delta);
        splice_tok_probes(doc, &relex, delta);

        // Drive the window, widening while the drive proves it too small
        // (worst case the window reaches EOF, where widening is
        // impossible and the drive must settle). Before each attempt the
        // window's tokens get absolute new-text spans (the engines and
        // diagnostics only ever read spans inside the window).
        let wlo = doc.chunk_tok_lo[e_lo];
        let fresh_lo = relex.old_lo;
        let fresh_hi = relex.old_lo + relex.tokens.len();
        let mut norm_hi = wlo;
        let mut win_syn: Vec<ParseError> = Vec::new();
        let drive = loop {
            let whi_old = if e_hi == doc.chunks.len() { n_old } else { doc.chunk_tok_lo[e_hi] };
            let whi = (whi_old as isize + tok_delta) as usize;
            if whi <= wlo && !(wlo == 0 && whi == n_new) {
                // An empty window mid-document (mass deletion) must not
                // run an empty-input parse; only the whole-document-empty
                // case legitimately does.
                e_hi = widen_right(&doc.chunks, e_hi + 1);
                continue;
            }
            if whi > norm_hi {
                normalize_spans(
                    &mut self.toks,
                    &doc.chunks,
                    &doc.chunk_tok_lo,
                    norm_hi,
                    whi,
                    fresh_lo,
                    fresh_hi,
                    tok_delta,
                    delta,
                );
                norm_hi = whi;
            }
            self.revents.clear();
            win_syn.clear();
            let drive = self.drive_resilient(&doc.text, &doc.lines, wlo, whi, n_new, &mut win_syn);
            if drive.needs_widening {
                e_hi = widen_right(&doc.chunks, e_hi + 1);
                continue;
            }
            break drive;
        };
        let win_end_byte_old = if e_hi == doc.chunks.len() {
            usize::MAX
        } else {
            // The suffix boundary token sits just past the normalized
            // window, so its stored span is still old-text relative to its
            // chunk: old byte = stored + the chunk's (un-rebased) base.
            let t_new = (doc.chunk_tok_lo[e_hi] as isize + tok_delta) as usize;
            (self.toks[t_new].start as isize + doc.chunks[e_hi].base) as usize
        };
        let whi_old = if e_hi == doc.chunks.len() { n_old } else { doc.chunk_tok_lo[e_hi] };
        let reparsed_tokens = ((whi_old as isize + tok_delta) as usize) - wlo;

        // Root wrapper: the first chunk's production. Unchanged while any
        // prefix element came from a chunk; otherwise the window's first
        // chunk. A window that parsed nothing while chunks survive in the
        // suffix would need the suffix chunk's (stripped) root — punt to a
        // full reparse rather than guess.
        let prefix_has_chunk = doc.chunks[..e_lo].iter().any(|c| c.kind != ElemKind::Err);
        let root = if prefix_has_chunk {
            doc.root
        } else if let Some(r) = drive.root {
            r
        } else if doc.chunks[e_hi..].iter().any(|c| c.kind != ElemKind::Err) {
            return self.edit_fallback(doc);
        } else {
            (ERROR_NODE, 0)
        };

        // Chunk splice: prefix and suffix chunks and their arenas survive
        // verbatim (token indices are chunk-relative), the suffix absorbs
        // the byte delta into its span bases, and the window's drive
        // output is split into fresh chunks with fresh arenas.
        let Some(new_elems) = split_elements(&self.revents, wlo) else {
            return self.edit_fallback(doc);
        };
        let (new_chunks, new_arenas): (Vec<Chunk>, Vec<Arena>) = new_elems
            .iter()
            .map(|e| chunk_of_elem(&mut self.builder, &self.revents, e))
            .unzip();
        if delta != 0 {
            for chunk in &mut doc.chunks[e_hi..] {
                chunk.base += delta;
            }
        }
        let n_new_chunks = new_chunks.len();
        doc.n_empty_chunks += new_chunks.iter().filter(|c| c.n_toks == 0).count();
        doc.n_empty_chunks -=
            doc.chunks[e_lo..e_hi].iter().filter(|c| c.n_toks == 0).count();
        doc.chunks.splice(e_lo..e_hi, new_chunks);
        doc.arenas.splice(e_lo..e_hi, new_arenas);
        // `chunk_tok_lo` is repaired in place instead of recomputed: the
        // window's entries are re-summed from its (unchanged) first token
        // index, and the suffix shifts by the token delta — O(window +
        // #chunks·[delta ≠ 0]) instead of O(#chunks) every edit.
        let mut lo = wlo;
        doc.chunk_tok_lo.splice(
            e_lo..e_hi,
            doc.chunks[e_lo..e_lo + n_new_chunks].iter().map(|c| {
                let v = lo;
                lo += c.n_toks;
                v
            }),
        );
        if tok_delta != 0 {
            for v in &mut doc.chunk_tok_lo[e_lo + n_new_chunks..] {
                *v = (*v as isize + tok_delta) as usize;
            }
        }
        #[cfg(debug_assertions)]
        {
            let mut check = Vec::with_capacity(doc.chunks.len());
            let mut acc = 0usize;
            for c in &doc.chunks {
                check.push(acc);
                acc += c.n_toks;
            }
            debug_assert_eq!(check, doc.chunk_tok_lo, "incremental chunk_tok_lo repair drifted");
            debug_assert_eq!(
                doc.n_empty_chunks,
                doc.chunks.iter().filter(|c| c.n_toks == 0).count(),
                "incremental empty-chunk count drifted"
            );
        }
        doc.root = root;

        // Diagnostic splice, the same three-way split in byte coordinates
        // but in place: prefix diagnostics are never touched, the window's
        // old diagnostics are replaced by the drive's fresh ones, and the
        // suffix is repaired by integer arithmetic (no clones, no line
        // rescans) — the boundaries come from a binary search over the
        // sorted list.
        let syn = Arc::make_mut(&mut doc.syn);
        let syn_lo = syn.partition_point(|e| e.at < win_start_byte);
        let syn_hi = syn.partition_point(|e| e.at < win_end_byte_old);
        repair_suffix_diags(
            &mut syn[syn_hi..],
            &doc.text,
            &doc.lines,
            delta,
            line_delta,
            old_line_end,
        );
        syn.splice(syn_lo..syn_hi, win_syn.drain(..));

        doc.last_edit = EditStats { reparsed_tokens, ..stats };
    }

    /// Local repair was not possible: reparse the (already edited)
    /// document text from scratch.
    fn edit_fallback(&mut self, doc: &mut IncDoc) {
        self.reparse_document(doc);
    }

    /// Fold the tokens `lo..hi` into an `error` node at the end of the
    /// resilient stream. Adjacent error nodes coalesce: if the stream
    /// already ends with one, its `Close` is popped and the new tokens
    /// extend it, keeping one node (and one contiguous span) per skipped
    /// stretch.
    fn emit_error_node(&mut self, lo: usize, hi: usize, last_is_error: &mut bool) {
        if *last_is_error {
            debug_assert_eq!(self.revents.last(), Some(&Event::Close));
            self.revents.pop();
        } else {
            self.revents.push(Event::Open {
                prod: ERROR_NODE,
                alt: 0,
            });
        }
        for i in lo..hi {
            self.revents.push(Event::Token { index: i as u32 });
        }
        self.revents.push(Event::Close);
        self.counters.skipped_tokens += (hi - lo) as u64;
        *last_is_error = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlweave_grammar::dsl::{parse_grammar, parse_tokens};

    fn parser() -> Parser {
        let g = parse_grammar(
            r#"
            grammar q;
            start query;
            query : SELECT select_list FROM IDENT where_clause? #select ;
            select_list : IDENT (COMMA IDENT)* #columns | STAR #star ;
            where_clause : WHERE IDENT EQ IDENT ;
            "#,
        )
        .unwrap();
        let t = parse_tokens(
            r#"
            tokens q;
            SELECT = kw; FROM = kw; WHERE = kw;
            COMMA = ","; STAR = "*"; EQ = "=";
            IDENT = /[a-z][a-z0-9_]*/;
            WS = skip /[ \t\r\n]+/;
            "#,
        )
        .unwrap();
        Parser::new(g, &t).unwrap()
    }

    #[test]
    fn session_recycles_across_statements() {
        let p = parser();
        let mut s = p.session();
        for input in ["SELECT a FROM t", "SELECT * FROM u", "SELECT a, b FROM t WHERE a = b"] {
            let tree = s.parse_tree(input).unwrap();
            assert_eq!(tree.root().name(), "query");
            assert_eq!(tree.to_cst(), p.parse_reference(input).unwrap());
        }
        // errors don't poison the session
        assert!(s.parse_tree("SELECT FROM t").is_err());
        assert!(s.parse_tree("SELECT a FROM t").is_ok());
    }

    #[test]
    fn utf8_literals_parse_identically_to_reference() {
        // String contents route multi-byte scalars through the scanner's
        // interval fallback; the CST must match the seed engine exactly.
        let g = parse_grammar("grammar s; start q; q : SELECT STRING FROM IDENT ;").unwrap();
        let t = parse_tokens(
            r#"
            tokens s;
            SELECT = kw; FROM = kw;
            IDENT = /[a-z][a-z0-9_]*/;
            STRING = /'([^'])*'/;
            WS = skip /[ \t\r\n]+/;
            "#,
        )
        .unwrap();
        let p = Parser::new(g, &t).unwrap();
        let mut s = p.session();
        let input = "SELECT 'héllo — 中文 🦀' FROM t";
        let tree = s.parse_tree(input).unwrap();
        assert_eq!(tree.to_cst(), p.parse_reference(input).unwrap());
        // lexical errors stay byte-identical too
        let fast = s.parse_tree("SELECT é FROM t").unwrap_err();
        let seed = p.parse_reference("SELECT é FROM t").unwrap_err();
        assert_eq!(fast.to_string(), seed.to_string());
    }

    /// A statement-script grammar (the shape every composed dialect
    /// shares), for recovery tests: sync set = {SEMI, $}.
    fn script_parser() -> Parser {
        let g = parse_grammar(
            r#"
            grammar s;
            start script;
            script : query (SEMI query)* SEMI? ;
            query : SELECT select_list FROM IDENT where_clause? #select ;
            select_list : IDENT (COMMA IDENT)* #columns | STAR #star ;
            where_clause : WHERE IDENT EQ IDENT ;
            "#,
        )
        .unwrap();
        let t = parse_tokens(
            r#"
            tokens s;
            SELECT = kw; FROM = kw; WHERE = kw;
            COMMA = ","; STAR = "*"; EQ = "="; SEMI = ";";
            IDENT = /[a-z][a-z0-9_]*/;
            WS = skip /[ \t\r\n]+/;
            "#,
        )
        .unwrap();
        Parser::new(g, &t).unwrap()
    }

    /// Count how many times each token index appears in the tree.
    fn token_coverage(tree: &SyntaxTree<'_>) -> Vec<usize> {
        fn walk(node: crate::tree::SyntaxNode<'_, '_>, seen: &mut Vec<usize>) {
            for el in node.children() {
                match el {
                    crate::tree::SyntaxElement::Token(t) => seen[t.index()] += 1,
                    crate::tree::SyntaxElement::Node(n) => walk(n, seen),
                }
            }
        }
        let mut seen = vec![0usize; tree.tokens().len()];
        walk(tree.root(), &mut seen);
        seen
    }

    #[test]
    fn resilient_parse_matches_strict_on_clean_input() {
        let p = script_parser();
        let mut s = p.session();
        for input in [
            "SELECT a FROM t",
            "SELECT a FROM t; SELECT * FROM u",
            "SELECT a, b FROM t WHERE a = b; SELECT c FROM v",
            "SELECT a FROM t; SELECT c FROM v;",
        ] {
            let strict = p.parse(input).unwrap();
            let outcome = s.parse_resilient(input);
            assert!(outcome.errors.is_empty(), "{input:?}");
            assert_eq!(outcome.tree.to_cst(), strict, "{input:?}");
        }
    }

    #[test]
    fn resilient_parse_recovers_one_error_per_bad_statement() {
        let input = "SELECT a FROM t; SELECT FROM u; SELECT b FROM v; WHERE; SELECT c FROM w";
        let p = script_parser();
        let mut s = p.session();
        let outcome = s.parse_resilient(input);
        assert_eq!(outcome.errors.len(), 2, "{:?}", outcome.errors);
        // Errors are ordered and point into the bad statements.
        assert!(outcome.errors[0].at < outcome.errors[1].at);
        // Every scanned token appears exactly once in the tree.
        assert!(token_coverage(&outcome.tree).iter().all(|&c| c == 1));
        // The good statements really parsed (error nodes are named
        // "error"; the rest keep their productions).
        let names: Vec<&str> = outcome
            .tree
            .root()
            .children()
            .filter_map(|e| e.as_node().map(|n| n.name()))
            .collect();
        assert_eq!(
            names.iter().filter(|n| **n == "error").count(),
            2,
            "{names:?}"
        );
        assert_eq!(
            names.iter().filter(|n| **n == "query").count(),
            3,
            "{names:?}"
        );
    }

    #[test]
    fn resilient_first_error_matches_strict_error() {
        let p = script_parser();
        let mut s = p.session();
        for input in [
            "SELECT FROM t",
            "SELECT a FROM t; SELECT FROM u",
            "SELECT a FROM t WHERE",
            "",
        ] {
            let strict = p.parse(input).unwrap_err();
            let outcome = s.parse_resilient(input);
            assert!(!outcome.errors.is_empty(), "{input:?}");
            assert_eq!(
                outcome.errors[0].to_string(),
                strict.to_string(),
                "{input:?}"
            );
        }
    }

    #[test]
    fn resilient_parse_collects_lexical_and_syntax_errors() {
        let p = script_parser();
        let mut s = p.session();
        // The `?` is a lexical error; skipping it leaves statement 1
        // well-formed, so statement 2 contributes the only syntax error.
        let input = "SELECT a ? FROM t; SELECT FROM u";
        let outcome = s.parse_resilient(input);
        assert_eq!(outcome.errors.len(), 2, "{:?}", outcome.errors);
        assert!(outcome.errors[0].lexical.is_some());
        assert!(outcome.errors[1].lexical.is_none());
        // The lexical error is byte-identical to the strict path's.
        assert_eq!(
            outcome.errors[0].to_string(),
            p.parse(input).unwrap_err().to_string()
        );
    }

    #[test]
    fn resilient_parse_survives_garbage_and_covers_all_tokens() {
        let p = script_parser();
        let mut s = p.session();
        for input in [
            "; ; ;",
            "FROM FROM FROM",
            "SELECT",
            "= = ; = =",
            "SELECT a FROM", // truncated
        ] {
            let outcome = s.parse_resilient(input);
            assert!(!outcome.errors.is_empty(), "{input:?}");
            assert!(
                token_coverage(&outcome.tree).iter().all(|&c| c == 1),
                "{input:?}"
            );
        }
    }

    #[test]
    fn resilient_parses_count_recoveries_and_skipped_tokens() {
        let p = script_parser();
        let mut s = p.session();
        let outcome = s.parse_resilient("SELECT a FROM t; SELECT FROM u; SELECT b FROM v");
        assert_eq!(outcome.errors.len(), 1);
        let counters = s.counters();
        assert_eq!(counters.recoveries, 1);
        assert!(counters.skipped_tokens >= 2, "{counters:?}");
    }

    // ---------- incremental editing ----------

    /// Snapshot an outcome into owned data so two sessions can be compared.
    fn snapshot(outcome: &ParseOutcome<'_>) -> (crate::cst::CstNode, Vec<String>) {
        (
            outcome.tree.to_cst(),
            outcome.errors.iter().map(|e| e.to_string()).collect(),
        )
    }

    /// Assert the incrementally maintained document equals a from-scratch
    /// resilient parse of the same text: identical CST, identical rendered
    /// diagnostics, and full token coverage.
    fn assert_incremental_identity(s: &mut ParseSession<'_>, oracle: &mut ParseSession<'_>, ctx: &str) {
        let text = s.document().to_string();
        let inc = {
            let o = s.try_document_outcome().expect("document open");
            assert!(
                token_coverage(&o.tree).iter().all(|&c| c == 1),
                "token coverage broken {ctx}"
            );
            snapshot(&o)
        };
        let full = snapshot(&oracle.parse_resilient(&text));
        assert_eq!(inc.1, full.1, "diagnostics diverged {ctx}\ntext: {text:?}");
        assert_eq!(inc.0, full.0, "tree diverged {ctx}\ntext: {text:?}");
    }

    #[test]
    fn open_document_matches_parse_resilient() {
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        for text in [
            "SELECT a FROM t; SELECT * FROM u",
            "SELECT FROM t; SELECT b FROM v",
            "",
            "; ; ;",
        ] {
            let inc = {
                let mut o = s.open_document(text);
                let errs: Vec<String> = o.errors.iter().map(|e| e.to_string()).collect();
                assert!(o.stats.full_reparse);
                (o.tree.get().to_cst(), errs)
            };
            assert!(s.edit_stats().full_reparse);
            let full = snapshot(&oracle.parse_resilient(text));
            assert_eq!(inc, full, "{text:?}");
        }
    }

    #[test]
    fn try_api_reports_structured_errors_and_preserves_the_document() {
        let p = script_parser();
        let mut s = p.session();
        assert_eq!(s.try_document().unwrap_err(), EditError::NoDocument);
        assert_eq!(s.try_edit_stats().unwrap_err(), EditError::NoDocument);
        assert!(matches!(s.try_apply_edit(0..0, "x"), Err(EditError::NoDocument)));
        assert!(matches!(s.try_document_outcome(), Err(EditError::NoDocument)));

        s.open_document("SELECT a FROM t");
        let err = s.try_apply_edit(4..99, "x").map(|_| ()).unwrap_err();
        assert_eq!(err, EditError::OutOfBounds { range: 4..99, len: 15 });
        assert_eq!(
            err.to_string(),
            "edit range 4..99 out of bounds for a document of 15 bytes"
        );
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = s.try_apply_edit(9..4, "x").map(|_| ()).unwrap_err();
        assert!(matches!(inverted, EditError::OutOfBounds { .. }));
        // a failed edit leaves the document open, intact, and editable
        assert_eq!(s.document(), "SELECT a FROM t");
        let o = s.try_apply_edit(7..8, "zz").expect("in-bounds edit");
        assert!(o.errors.is_empty());
        assert_eq!(s.document(), "SELECT zz FROM t");
    }

    #[test]
    fn non_char_boundary_edits_are_rejected_not_panicking() {
        let p = script_parser();
        let mut s = p.session();
        s.open_document("SELECT a FROM t; SELECT é FROM u");
        let at = s.document().find('é').unwrap();
        let err = s.try_apply_edit(at + 1..at + 2, "x").map(|_| ()).unwrap_err();
        assert_eq!(err, EditError::NotCharBoundary { range: at + 1..at + 2 });
        assert!(err.to_string().contains("char boundaries"));
        // document still editable afterwards
        let mut oracle = p.session();
        s.apply_edit(at..at + 2, "ok");
        assert_incremental_identity(&mut s, &mut oracle, "after rejected edit");
    }

    #[test]
    fn lazy_outcome_defers_and_caches_tree_materialization() {
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        s.open_document("SELECT a FROM t; SELECT FROM u; SELECT b FROM v");
        // Several keystrokes reading only diagnostics — the tree is
        // never materialized in between.
        let at = s.document().find("FROM u").unwrap();
        let o = s.apply_edit(at..at, "x ");
        assert_eq!(o.errors.len(), 0);
        let end = s.document().len();
        let o = s.apply_edit(end..end, "; SELECT");
        assert_eq!(o.errors.len(), 1);
        // The next read still matches a full reparse, and so does a
        // second read with no edit between.
        assert_incremental_identity(&mut s, &mut oracle, "lazy catch-up");
        assert_incremental_identity(&mut s, &mut oracle, "cached reread");
        // Per-edit diagnostics equal the from-scratch diagnostics of
        // the edited text at every step.
        let at = s.document().find("x FROM u").unwrap();
        let errs: Vec<String> = s
            .apply_edit(at..at + 1, "")
            .errors
            .iter()
            .map(|e| e.to_string())
            .collect();
        let text = s.document().to_string();
        let full: Vec<String> = oracle
            .parse_resilient(&text)
            .errors
            .iter()
            .map(|e| e.to_string())
            .collect();
        assert_eq!(errs, full, "eager diagnostics");
    }

    #[test]
    fn standalone_parses_between_edits_invalidate_the_cached_tree() {
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        s.open_document("SELECT a FROM t; SELECT b FROM u");
        assert_incremental_identity(&mut s, &mut oracle, "before standalone parse");
        // A standalone parse builds into the session's own arena; the
        // document's chunk arenas must come through untouched.
        let _ = s.parse_resilient("SELECT * FROM other");
        assert_incremental_identity(&mut s, &mut oracle, "after parse_resilient");
        let _ = s.parse_tree("SELECT c FROM w");
        assert_incremental_identity(&mut s, &mut oracle, "after parse_tree");
    }

    /// The read-locality gate: the document tree is a root wrapper over
    /// per-statement arenas, so an edit builds the arenas of the chunks
    /// its window reparsed and a read builds none at all.
    #[test]
    fn tree_reads_build_only_the_chunks_an_edit_reparsed() {
        use crate::tree::nodes_built;
        use std::collections::HashSet;
        // Nodes of the document arenas built since `before` was taken (an
        // arena's node buffer outlives moves, and a new one is allocated
        // while every old one is still alive).
        fn fresh_nodes(s: &ParseSession<'_>, before: &HashSet<usize>) -> usize {
            let doc = s.inc.as_deref().expect("document open");
            doc.arenas
                .iter()
                .filter(|a| !before.contains(&a.addr()))
                .map(Arena::len)
                .sum()
        }
        fn addrs(s: &ParseSession<'_>) -> HashSet<usize> {
            s.inc
                .as_deref()
                .expect("document open")
                .arenas
                .iter()
                .map(Arena::addr)
                .collect()
        }
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        let stmts: Vec<String> = (0..48).map(|i| format!("SELECT c{i} FROM t{i}")).collect();
        s.open_document(&stmts.join("; "));
        let doc_rules = s
            .try_document_outcome()
            .expect("document open")
            .tree
            .rule_count();

        // a single-identifier edit, read twice
        let before = addrs(&s);
        let at = s.document().find("c20").expect("statement 20");
        let n0 = nodes_built();
        let (edit_and_read, reread) = {
            let mut o = s.apply_edit(at..at + 3, "zz");
            let _ = o.tree.get();
            let n1 = nodes_built();
            let _ = o.tree.get();
            (n1 - n0, nodes_built() - n1)
        };
        let window = fresh_nodes(&s, &before);
        assert!(
            edit_and_read <= window,
            "built {edit_and_read}, window {window}"
        );
        assert!(
            window > 0 && window * 8 < doc_rules,
            "window {window} of {doc_rules}"
        );
        assert_eq!(reread, 0, "second read");

        // a whitespace-only edit keeps every arena
        let at = s.document().find("; SELECT c30").expect("statement 30") + 1;
        let n0 = nodes_built();
        let st = {
            let mut o = s.apply_edit(at..at, "  ");
            let _ = o.tree.get();
            o.stats
        };
        assert_eq!(st.relexed_tokens, 0, "{st:?}");
        assert_eq!(nodes_built() - n0, 0, "read after a whitespace edit");

        // a standalone parse does not touch the document's arenas
        let _ = s.parse_tree("SELECT a FROM t");
        let n0 = nodes_built();
        let _ = s.try_document_outcome().expect("document open");
        assert_eq!(nodes_built() - n0, 0, "read after parse_tree");
        assert_incremental_identity(&mut s, &mut oracle, "after reads");
    }

    #[test]
    fn whitespace_edit_skips_the_parser() {
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        s.open_document("SELECT a FROM t;  SELECT b FROM u");
        // widen the gap between the statements: tokens are preserved
        s.apply_edit(16..18, "    \n");
        let st = s.edit_stats();
        assert!(!st.full_reparse);
        assert_eq!(st.reparsed_tokens, 0, "{st:?}");
        assert_eq!(st.relexed_tokens, 0, "{st:?}");
        assert_incremental_identity(&mut s, &mut oracle, "whitespace edit");
    }

    #[test]
    fn single_token_edit_reparses_a_window_not_the_document() {
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        let stmts: Vec<String> = (0..40).map(|i| format!("SELECT c{i} FROM t{i}")).collect();
        let text = stmts.join("; ");
        s.open_document(&text);
        let total = s.edit_stats().total_tokens;
        // rename a column in the middle statement
        let at = text.find("c20").unwrap();
        s.apply_edit(at..at + 3, "zz");
        let st = s.edit_stats();
        assert!(!st.full_reparse, "{st:?}");
        assert!(st.reparsed_tokens < total / 4, "{st:?}");
        assert!(st.relexed_tokens <= 2, "{st:?}");
        assert_incremental_identity(&mut s, &mut oracle, "mid-document rename");
    }

    #[test]
    fn edits_in_and_around_error_regions_stay_identical() {
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        s.open_document("SELECT a FROM t; SELECT FROM u; SELECT b FROM v");
        // repair the broken middle statement
        let at = s.document().find("FROM u").unwrap();
        s.apply_edit(at..at, "x ");
        assert_incremental_identity(&mut s, &mut oracle, "repair");
        // break it again, differently
        let at = s.document().find("x FROM u").unwrap();
        s.apply_edit(at..at + 1, "WHERE");
        assert_incremental_identity(&mut s, &mut oracle, "re-break");
    }

    #[test]
    fn structural_edits_at_statement_boundaries_stay_identical() {
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        s.open_document("SELECT a FROM t; SELECT b FROM u; SELECT c FROM v");
        // delete a separator: two statements merge (and break)
        let semi = s.document().find(';').unwrap();
        s.apply_edit(semi..semi + 1, "");
        assert_incremental_identity(&mut s, &mut oracle, "merge");
        // re-split
        let at = s.document().find(" SELECT b").unwrap();
        s.apply_edit(at..at, ";");
        assert_incremental_identity(&mut s, &mut oracle, "split");
        // delete a span crossing a statement boundary
        let lo = s.document().find("FROM u").unwrap();
        let hi = s.document().find("c FROM v").unwrap();
        s.apply_edit(lo..hi, "");
        assert_incremental_identity(&mut s, &mut oracle, "cross-cut");
        // edits at the very ends
        let end = s.document().len();
        s.apply_edit(end..end, "; SELECT z FROM w");
        assert_incremental_identity(&mut s, &mut oracle, "append");
        s.apply_edit(0..0, "SELECT q FROM r; ");
        assert_incremental_identity(&mut s, &mut oracle, "prepend");
        // delete everything
        let end = s.document().len();
        s.apply_edit(0..end, "");
        assert_incremental_identity(&mut s, &mut oracle, "clear");
    }

    #[test]
    fn lexical_errors_rebase_across_edits() {
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        s.open_document("SELECT a ? FROM t; SELECT b FROM u");
        // edit after the lexical error: its diagnostic must not move
        let at = s.document().find('b').unwrap();
        s.apply_edit(at..at + 1, "bbb");
        assert_incremental_identity(&mut s, &mut oracle, "edit after lex error");
        // edit before it: the diagnostic must shift
        s.apply_edit(0..0, "  ");
        assert_incremental_identity(&mut s, &mut oracle, "edit before lex error");
        // introduce a second lexical error, then remove the first
        let end = s.document().len();
        s.apply_edit(end..end, " ?");
        assert_incremental_identity(&mut s, &mut oracle, "append lex error");
        let at = s.document().find('?').unwrap();
        s.apply_edit(at..at + 1, "");
        assert_incremental_identity(&mut s, &mut oracle, "remove first lex error");
    }

    /// Deterministic xorshift64* generator for the edit-script fuzz below.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    #[test]
    fn random_edit_scripts_match_full_reparse() {
        const SNIPPETS: &[&str] = &[
            "",
            " ",
            ";",
            "; ",
            "SELECT",
            "FROM",
            "x",
            "zz9",
            ", y",
            " WHERE a = b",
            "SELECT a FROM t",
            "?",
            "*",
            "é",
        ];
        let p = script_parser();
        let mut s = p.session();
        let mut oracle = p.session();
        let mut rng = XorShift(0x5eed_0001);
        s.open_document("SELECT a FROM t; SELECT b, c FROM u WHERE b = c; SELECT * FROM v");
        for step in 0..120 {
            let text = s.document();
            let len = text.len();
            let mut lo = rng.below(len + 1);
            let mut hi = (lo + rng.below(9).pow(2)).min(len);
            while !text.is_char_boundary(lo) {
                lo -= 1;
            }
            while !text.is_char_boundary(hi) {
                hi -= 1;
            }
            if hi < lo {
                std::mem::swap(&mut lo, &mut hi);
            }
            let rep = SNIPPETS[rng.below(SNIPPETS.len())];
            s.apply_edit(lo..hi, rep);
            assert_incremental_identity(
                &mut s,
                &mut oracle,
                &format!("step {step}: {lo}..{hi} := {rep:?}"),
            );
        }
    }
}
