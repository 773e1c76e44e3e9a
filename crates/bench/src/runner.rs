//! JSON benchmark runner behind `sqlweave bench`.
//!
//! Measures corpus throughput (statements/sec and tokens/sec) for every
//! requested dialect × engine mode across the four parse APIs, so the
//! allocation ablation of Experiment B4 is reproducible from one command:
//!
//! * `seed_cst` — [`Parser::parse_reference`], the pre-event engines that
//!   build a [`sqlweave_parser_rt::CstNode`] per grammar symbol (baseline,
//!   `speedup_vs_seed` = 1.0 by construction).
//! * `event_cst` — [`Parser::parse`]: event stream → arena tree → owned
//!   CST conversion. What drop-in callers of the seed API get today.
//! * `event_tree` — a recycled [`sqlweave_parser_rt::ParseSession`]
//!   borrowing the arena-backed tree; the intended hot-path API.
//! * `batch` — [`Parser::parse_many`] over the whole corpus per iteration.
//!
//! Each pair additionally reports the backtracking engine's dynamic
//! counters from one instrumented session pass — LL(k) decision-table
//! hits, speculative-probe truncations, failure-memo hits — and the
//! derived backtrack rate (truncations per alternative attempt), which is
//! the headline number of the lookahead ablation (Experiment B5).
//!
//! The backtracking row of each dialect also carries a **lex-stage
//! section** (Experiments B6/B9): tokens/sec and MB/sec of the four
//! scanner substrates — `vector` (chunked run-skipping classification +
//! keyword perfect-hash, the production path), `compiled` (per-byte
//! byte-class dispatch tables), `interval` (the preserved per-character
//! interval walker), and `naive` (per-rule NFA simulation) — plus the
//! dialect's byte-class count. The scanner is engine-independent, so the
//! LL(1) row leaves the section empty rather than duplicating it.
//!
//! The curated corpus is a *coverage* workload (a few hundred bytes per
//! dialect), so the document can additionally carry a top-level
//! **`corpus_lex` section**: the same scanner ablation over a
//! multi-mebibyte script manufactured by [`crate::corpus::generate_script_mb`]
//! from the dialect's own grammar weights. This is the steady-state
//! throughput number (`sqlweave bench --corpus-mb N`); the array is empty
//! when the knob is not given.
//!
//! Each pair also carries a **recovery section** (Experiment B7): the
//! resilient parser ([`sqlweave_parser_rt::ParseSession::parse_resilient`])
//! over the error-density corpus ([`crate::faulty_corpus`]) — scripts/sec,
//! total diagnostics reported — plus `clean_overhead`, the resilient/strict
//! time ratio on the *clean* accepted corpus (what recovery bookkeeping
//! costs when nothing goes wrong).
//!
//! Each pair finally carries a **sema section** (Experiment B8): the
//! statements/sec of the full parse → CST → name-resolution pipeline
//! ([`sqlweave_sema::analyze_script`] with the dialect's
//! [`sqlweave_sema::ResolverCaps`]) over the same accepted corpus, plus
//! `overhead_vs_parse` — the sema-path/`event_tree` time ratio, i.e. what
//! semantic analysis (including the owned-CST conversion it needs) costs
//! on top of parsing alone — and the deterministic count of column-lineage
//! edges the corpus produces.
//!
//! Finally, the document can carry a top-level **`incremental` section**
//! (Experiment B11, `sqlweave bench --edits N`): keystroke latency of
//! [`sqlweave_parser_rt::ParseSession::apply_edit`] — single-token edits
//! at random positions of a multi-mebibyte generated script through one
//! incremental session — reporting p50/p99 apply latency (the lazy
//! keystroke path), the median cost of materializing the tree afterwards
//! (`materialize_us_p50`), the median from-scratch reparse time of the
//! same document, their ratio (the headline incremental speedup), and
//! relex-resync / reparse-window size statistics.
//!
//! Output is a JSON document (schema `sqlweave-bench-parser/v8`; v7
//! lacked the incremental section's `materialize_us_p50` split, v6
//! the `incremental` section and the sema row's token-interning
//! columns, v5 the `vector` scanner row and the `corpus_lex` section, v4
//! the sema section, v3 the recovery section, v2 the lex stage,
//! v1 the dynamic counters), built with the same hand-rolled emitter
//! conventions as
//! `sqlweave-lint` and round-tripped through
//! [`sqlweave_lint::json::parse`] before being returned, so a malformed
//! report fails loudly instead of landing in CI artifacts.

use crate::{composed, corpus, faulty_corpus, parser};
use sqlweave_dialects::Dialect;
use sqlweave_lexgen::Token;
use sqlweave_lint::json::{self, Value};
use sqlweave_parser_rt::engine::{EngineMode, Parser};
use std::time::Instant;

/// Stable name for an engine mode in reports.
pub fn engine_name(mode: EngineMode) -> &'static str {
    match mode {
        EngineMode::Backtracking => "backtracking",
        EngineMode::Ll1Table => "ll1_table",
    }
}

/// Throughput of one parse API on one dialect × engine corpus.
#[derive(Debug, Clone)]
pub struct ApiMeasurement {
    /// API identifier: `seed_cst`, `event_cst`, `event_tree`, or `batch`.
    pub api: &'static str,
    /// Whole parsed statements per second.
    pub statements_per_sec: f64,
    /// Tokens per second (same runs, token-weighted).
    pub tokens_per_sec: f64,
    /// Ratio of this API's statements/sec to `seed_cst`'s.
    pub speedup_vs_seed: f64,
}

/// Throughput of one scanner substrate on one dialect's corpus.
#[derive(Debug, Clone)]
pub struct LexMeasurement {
    /// Scanner identifier: `vector`, `compiled`, `interval`, or `naive`.
    pub scanner: &'static str,
    /// Emitted + skipped lexing throughput in tokens per second
    /// (token-weighted over the whole corpus).
    pub tokens_per_sec: f64,
    /// Input bytes consumed per second, in MB (1e6 bytes).
    pub mbytes_per_sec: f64,
    /// Ratio of this scanner's tokens/sec to `interval`'s (the
    /// pre-compilation hot path; 1.0 for `interval` by construction).
    pub speedup_vs_interval: f64,
}

/// Error-recovery measurements for one dialect × engine pair (B7).
#[derive(Debug, Clone)]
pub struct RecoveryMeasurement {
    /// Scripts in the error-density corpus ([`crate::faulty_corpus`]).
    pub scripts: usize,
    /// Total diagnostics reported across those scripts. Deterministic for
    /// a given dialect × engine (the corpus and the recovery algorithm
    /// are both deterministic).
    pub errors: usize,
    /// Faulty scripts resiliently parsed per second.
    pub scripts_per_sec: f64,
    /// Resilient/strict time ratio on the clean accepted corpus — what
    /// the recovery bookkeeping costs when the input has no errors
    /// (1.0 = free; measured against the `event_tree` API).
    pub clean_overhead: f64,
}

/// Semantic-analysis measurements for one dialect × engine pair (B8).
#[derive(Debug, Clone)]
pub struct SemaMeasurement {
    /// Corpus statements per second through the full parse + resolve
    /// pipeline (session parse → owned CST → name resolution + lineage).
    pub statements_per_sec: f64,
    /// Sema-path/`event_tree` time ratio on identical successful work —
    /// what resolution (and the CST conversion it requires) costs on top
    /// of parsing alone (1.0 = free).
    pub overhead_vs_parse: f64,
    /// Column-lineage edges the corpus produces. Deterministic for a
    /// given dialect (the corpus and the resolver are both deterministic).
    pub column_edges: usize,
    /// Total bytes of token text across the corpus trees (what an owning
    /// per-token representation would copy).
    pub lexeme_bytes: usize,
    /// Bytes after interning through one shared
    /// [`sqlweave_parser_rt::TokenInterner`] — distinct lexemes only.
    pub interned_bytes: usize,
    /// `lexeme_bytes / interned_bytes`: the dedupe factor token-text
    /// interning buys on this corpus (≥ 1.0).
    pub intern_ratio: f64,
}

/// All measurements for one dialect × engine pair.
#[derive(Debug, Clone)]
pub struct PairReport {
    /// Dialect name (e.g. `core`).
    pub dialect: &'static str,
    /// Engine name (e.g. `backtracking`).
    pub engine: &'static str,
    /// Corpus statements measured (those this engine accepts).
    pub statements: usize,
    /// Total tokens across those statements.
    pub tokens: usize,
    /// Total bytes across the dialect's *whole* corpus (the lex-stage
    /// workload; lexing is engine-independent so it is not filtered by
    /// engine acceptance).
    pub bytes: usize,
    /// Byte equivalence classes in the compiled scanner tables.
    pub byte_classes: usize,
    /// LL(k) dispatch-table hits over one session pass of the corpus
    /// (backtracking engine only; 0 for the LL(1) table engine).
    pub decision_table_hits: u64,
    /// Speculative probes undone (event-buffer truncations) in that pass.
    pub backtracks: u64,
    /// Failure-memo hits in that pass.
    pub failure_memo_hits: u64,
    /// `backtracks / alternative attempts` — the fraction of speculative
    /// probes that were undone. 0.0 when the engine never speculates.
    pub backtrack_rate: f64,
    /// Per-API throughput, `seed_cst` first.
    pub apis: Vec<ApiMeasurement>,
    /// Lex-stage scanner ablation (`interval` first). Populated on each
    /// dialect's backtracking row only — the scanner does not vary by
    /// engine — and empty everywhere else.
    pub lex: Vec<LexMeasurement>,
    /// Error-recovery measurements over the faulty corpus (B7).
    pub recovery: RecoveryMeasurement,
    /// Semantic-analysis throughput over the accepted corpus (B8).
    pub sema: SemaMeasurement,
}

/// Benchmark the lex stage of one dialect: scan the whole corpus with each
/// scanner substrate. Returns `(corpus_bytes, measurements)` with
/// `interval` first so its rate anchors the speedup column.
///
/// The vector, compiled, and interval scanners lex into one recycled
/// buffer (the allocation profile of the session/batch paths); the naive
/// scanner has no buffered entry point and allocates per scan, which is
/// part of what makes it the naive baseline. Naive NFA simulation is
/// orders of magnitude slower, so it runs `iters / 8` passes (at least
/// one) — rates are normalized per pass, so the column stays comparable.
pub fn bench_lex_stage(dialect: Dialect, iters: usize) -> (usize, Vec<LexMeasurement>) {
    let p = parser(dialect, EngineMode::Backtracking);
    let stmts = corpus(dialect);
    let bytes: usize = stmts.iter().map(|s| s.len()).sum();
    let mut buf: Vec<Token> = Vec::new();
    let tokens: usize = stmts
        .iter()
        .map(|s| {
            buf.clear();
            p.scanner().scan_into(s, &mut buf).expect("corpus statement lexes");
            buf.len()
        })
        .sum();

    // Lexing is ~10× faster than parsing; scale iterations up so the
    // timed region stays well above timer resolution at small `iters`.
    let lex_iters = iters.saturating_mul(8);
    let naive_iters = (iters / 8).max(1);

    let interval_secs = time(lex_iters, || {
        for s in &stmts {
            buf.clear();
            p.scanner().scan_reference_into(s, &mut buf).expect("corpus statement lexes");
            std::hint::black_box(buf.len());
        }
    });
    let compiled_secs = time(lex_iters, || {
        for s in &stmts {
            buf.clear();
            p.scanner().scan_compiled_into(s, &mut buf).expect("corpus statement lexes");
            std::hint::black_box(buf.len());
        }
    });
    let vector_secs = time(lex_iters, || {
        for s in &stmts {
            buf.clear();
            p.scanner().scan_into(s, &mut buf).expect("corpus statement lexes");
            std::hint::black_box(buf.len());
        }
    });
    let nfas = composed(dialect)
        .tokens
        .build_rule_nfas()
        .unwrap_or_else(|e| panic!("rule NFAs {}: {e}", dialect.name()));
    let naive_secs = time(naive_iters, || {
        for s in &stmts {
            let toks = p.scanner().scan_naive(s, &nfas).expect("corpus statement lexes");
            std::hint::black_box(toks.len());
        }
    });

    let rate = |scanner: &'static str, its: usize, secs: f64, base_tps: Option<f64>| {
        let secs = secs.max(1e-9);
        let tps = (its * tokens) as f64 / secs;
        LexMeasurement {
            scanner,
            tokens_per_sec: tps,
            mbytes_per_sec: (its * bytes) as f64 / secs / 1e6,
            speedup_vs_interval: base_tps.map_or(1.0, |b| tps / b.max(1e-9)),
        }
    };
    let interval = rate("interval", lex_iters, interval_secs, None);
    let base = interval.tokens_per_sec;
    let measurements = vec![
        interval,
        rate("compiled", lex_iters, compiled_secs, Some(base)),
        rate("vector", lex_iters, vector_secs, Some(base)),
        rate("naive", naive_iters, naive_secs, Some(base)),
    ];
    (bytes, measurements)
}

/// Lex-stage ablation of one dialect over a generated multi-mebibyte
/// corpus — schema v6's top-level `corpus_lex` section.
#[derive(Debug, Clone)]
pub struct CorpusLexReport {
    /// Dialect name (e.g. `full`).
    pub dialect: &'static str,
    /// Requested corpus size in MiB (`--corpus-mb`).
    pub mebibytes: usize,
    /// Actual generated script size in bytes (≥ `mebibytes * 2^20`).
    pub bytes: usize,
    /// Tokens the scanner emits over the script.
    pub tokens: usize,
    /// SIMD classification level the vector scanner selected at runtime
    /// (`swar`, `ssse3`, or `neon`).
    pub simd_level: &'static str,
    /// Per-substrate throughput, `interval` first (the speedup anchor),
    /// then `compiled` and `vector`. The naive NFA scanner is omitted: at
    /// ~1/500 of interval speed it would turn a one-second sweep into a
    /// ten-minute one without adding information B6 doesn't already carry.
    pub scanners: Vec<LexMeasurement>,
}

/// Scan a [`crate::corpus::generate_script_mb`] script of `mebibytes` MiB
/// with the vector, compiled, and interval substrates, best-of-`reps`
/// passes each (best-of suppresses scheduler noise, which dominates
/// multi-megabyte single-pass timings far more than warmup does).
pub fn bench_lex_corpus(dialect: Dialect, mebibytes: usize, reps: usize) -> CorpusLexReport {
    let p = parser(dialect, EngineMode::Backtracking);
    let script = crate::corpus::generate_script_mb(dialect, mebibytes);
    let bytes = script.len();
    let mut buf: Vec<Token> = Vec::new();
    p.scanner().scan_into(&script, &mut buf).expect("generated corpus lexes");
    let tokens = buf.len();

    let mut best = |f: &dyn Fn(&mut Vec<Token>)| {
        let mut secs = f64::INFINITY;
        for _ in 0..reps.max(1) {
            buf.clear();
            let start = Instant::now();
            f(&mut buf);
            secs = secs.min(start.elapsed().as_secs_f64());
            std::hint::black_box(buf.len());
        }
        secs
    };
    let interval_secs = best(&|out| {
        p.scanner().scan_reference_into(&script, out).expect("generated corpus lexes")
    });
    let compiled_secs = best(&|out| {
        p.scanner().scan_compiled_into(&script, out).expect("generated corpus lexes")
    });
    let vector_secs = best(&|out| {
        p.scanner().scan_into(&script, out).expect("generated corpus lexes")
    });

    let rate = |scanner: &'static str, secs: f64, base_tps: Option<f64>| {
        let secs = secs.max(1e-9);
        let tps = tokens as f64 / secs;
        LexMeasurement {
            scanner,
            tokens_per_sec: tps,
            mbytes_per_sec: bytes as f64 / secs / 1e6,
            speedup_vs_interval: base_tps.map_or(1.0, |b| tps / b.max(1e-9)),
        }
    };
    let interval = rate("interval", interval_secs, None);
    let base = interval.tokens_per_sec;
    CorpusLexReport {
        dialect: dialect.name(),
        mebibytes,
        bytes,
        tokens,
        simd_level: p.scanner().simd_level().name(),
        scanners: vec![
            interval,
            rate("compiled", compiled_secs, Some(base)),
            rate("vector", vector_secs, Some(base)),
        ],
    }
}

/// Keystroke-latency measurements of one dialect's incremental session —
/// schema v8's top-level `incremental` section (Experiment B11), with the
/// lazy keystroke path and the deferred tree materialization timed
/// separately.
#[derive(Debug, Clone)]
pub struct IncrementalReport {
    /// Dialect name (e.g. `full`).
    pub dialect: &'static str,
    /// Engine the incremental session drives (`backtracking` or
    /// `ll1_table`) — the keystroke target holds per dialect × engine
    /// pair, so v8 reports both.
    pub engine: &'static str,
    /// Generated script size in bytes.
    pub bytes: usize,
    /// Tokens in the opened document.
    pub tokens: usize,
    /// Single-token edits applied.
    pub edits: usize,
    /// Median `apply_edit` latency in microseconds (the lazy keystroke
    /// path: relex + windowed reparse + diagnostics, no tree build).
    pub apply_edit_us_p50: f64,
    /// 99th-percentile `apply_edit` latency in microseconds.
    pub apply_edit_us_p99: f64,
    /// Median latency of materializing the tree after an edit
    /// (`LazyTree::get`), in microseconds — the cost deferred off the
    /// keystroke path.
    pub materialize_us_p50: f64,
    /// Median from-scratch `parse_resilient` latency on the same document,
    /// in microseconds.
    pub full_reparse_us_p50: f64,
    /// `full_reparse_us_p50 / apply_edit_us_p50` — the headline incremental
    /// speedup.
    pub speedup_p50: f64,
    /// Median relex resynchronization distance in bytes (how far past the
    /// edit the scanner had to look before the old token stream resumed).
    pub resync_bytes_p50: usize,
    /// Largest resynchronization distance observed.
    pub resync_bytes_max: usize,
    /// Median tokens re-driven through the parser per edit (the reparse
    /// window, vs `tokens` for a full reparse).
    pub reparsed_tokens_p50: usize,
    /// Edits that fell back to a whole-document reparse.
    pub full_reparse_fallbacks: usize,
}

/// Deterministic xorshift64* for reproducible edit positions.
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

/// Nearest-rank index for percentile `p` over `n` sorted samples:
/// `⌈p·n⌉ − 1`, clamped to the valid range. For n=1 every percentile is
/// the single sample; for n=2 the median is the lower sample and p99 the
/// upper; p=1.0 is always the maximum.
fn percentile_index(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn percentile_f64(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[percentile_index(sorted.len(), p)]
}

fn percentile_usize(sorted: &[usize], p: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    sorted[percentile_index(sorted.len(), p)]
}

/// Measure keystroke latency: open a `mebibytes`-MiB generated script as
/// an incremental document under `mode`'s engine and apply `edits`
/// single-character identifier edits at deterministic random positions,
/// timing each [`sqlweave_parser_rt::ParseSession::apply_edit`] against
/// the median from-scratch `parse_resilient` of the same document.
pub fn bench_incremental(
    dialect: Dialect,
    mode: EngineMode,
    mebibytes: usize,
    edits: usize,
) -> IncrementalReport {
    bench_incremental_bytes(dialect, mode, mebibytes * 1024 * 1024, edits)
}

/// [`bench_incremental`] with a byte-precise corpus size (used by the unit
/// tests, which cannot afford a multi-MiB debug-mode parse).
///
/// Runs on a dedicated 256 MiB-stack thread: the engines parse a clean
/// multi-MiB script as one recursive descent over the whole statement
/// list, and the predictive engine's frames overflow a default 8 MiB
/// stack around ~25k statements. Only the two whole-document parses
/// (opening the session, the from-scratch baseline) need the headroom —
/// the keystroke path under measurement re-drives windows of a few dozen
/// tokens.
pub fn bench_incremental_bytes(
    dialect: Dialect,
    mode: EngineMode,
    target_bytes: usize,
    edits: usize,
) -> IncrementalReport {
    std::thread::Builder::new()
        .name(format!("bench-incremental-{}", dialect.name()))
        .stack_size(256 << 20)
        .spawn(move || bench_incremental_on_thread(dialect, mode, target_bytes, edits))
        .expect("spawn incremental bench thread")
        .join()
        .expect("incremental bench thread panicked")
}

fn bench_incremental_on_thread(
    dialect: Dialect,
    mode: EngineMode,
    target_bytes: usize,
    edits: usize,
) -> IncrementalReport {
    let p = parser(dialect, mode);
    let script = crate::corpus::generate_script(dialect, 0xED17, target_bytes);
    let mut session = p.session();
    session.open_document(&script);
    let tokens = session.edit_stats().total_tokens;

    // Full-reparse baseline: best 2-of-3 median on a separate session so
    // the incremental document is untouched.
    let mut full = p.session();
    let mut full_us: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let outcome = full.parse_resilient(&script);
            std::hint::black_box(outcome.errors.len());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    full_us.sort_by(f64::total_cmp);
    let full_reparse_us_p50 = percentile_f64(&full_us, 0.5);

    // Single-token edits: replace one lowercase identifier character with
    // another, keeping the document clean and its length stable.
    let mut rng = XorShift(0x1c00_0000_0000_0001_u64 ^ script.len() as u64);
    let mut apply_us: Vec<f64> = Vec::with_capacity(edits);
    let mut mat_us: Vec<f64> = Vec::with_capacity(edits);
    let mut resyncs: Vec<usize> = Vec::with_capacity(edits);
    let mut windows: Vec<usize> = Vec::with_capacity(edits);
    let mut full_reparse_fallbacks = 0usize;
    for _ in 0..edits {
        let text = session.document();
        let bytes = text.as_bytes();
        let pos = (0..10_000)
            .map(|_| rng.below(bytes.len()))
            .find(|&q| bytes[q].is_ascii_lowercase())
            .expect("generated script contains identifier characters");
        let rep = if bytes[pos] == b'x' { "y" } else { "x" };
        // The keystroke path: relex + windowed reparse + diagnostics.
        let start = Instant::now();
        let mut outcome = session.apply_edit(pos..pos + 1, rep);
        std::hint::black_box(outcome.errors.len());
        apply_us.push(start.elapsed().as_secs_f64() * 1e6);
        // The deferred half: materialize the tree through the lazy handle.
        let start = Instant::now();
        std::hint::black_box(outcome.tree.get().node_count());
        mat_us.push(start.elapsed().as_secs_f64() * 1e6);
        let st = outcome.stats;
        resyncs.push(st.resync_bytes);
        windows.push(st.reparsed_tokens);
        full_reparse_fallbacks += st.full_reparse as usize;
    }
    apply_us.sort_by(f64::total_cmp);
    mat_us.sort_by(f64::total_cmp);
    resyncs.sort_unstable();
    windows.sort_unstable();

    let apply_edit_us_p50 = percentile_f64(&apply_us, 0.5);
    IncrementalReport {
        dialect: dialect.name(),
        engine: engine_name(mode),
        bytes: script.len(),
        tokens,
        edits,
        apply_edit_us_p50,
        apply_edit_us_p99: percentile_f64(&apply_us, 0.99),
        materialize_us_p50: percentile_f64(&mat_us, 0.5),
        full_reparse_us_p50,
        speedup_p50: full_reparse_us_p50 / apply_edit_us_p50.max(1e-9),
        resync_bytes_p50: percentile_usize(&resyncs, 0.5),
        resync_bytes_max: resyncs.last().copied().unwrap_or(0),
        reparsed_tokens_p50: percentile_usize(&windows, 0.5),
        full_reparse_fallbacks,
    }
}

fn time<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    // One untimed warmup pass populates lazily initialized state (parser
    // caches, allocator arenas) so the first timed iteration is not an
    // outlier at small `iters`.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64()
}

fn measure(
    api: &'static str,
    iters: usize,
    statements: usize,
    tokens: usize,
    secs: f64,
    seed_sps: Option<f64>,
) -> ApiMeasurement {
    let secs = secs.max(1e-9);
    let sps = (iters * statements) as f64 / secs;
    ApiMeasurement {
        api,
        statements_per_sec: sps,
        tokens_per_sec: (iters * tokens) as f64 / secs,
        speedup_vs_seed: seed_sps.map_or(1.0, |s| sps / s.max(1e-9)),
    }
}

/// Benchmark one dialect × engine pair over its accepted corpus.
///
/// Statements the engine rejects (the LL(1) engine cannot parse every
/// corpus entry of the larger dialects) are excluded up front so every API
/// measures identical successful work.
///
/// `lookahead` sets an explicit runtime lookahead limit (Experiment B5's
/// k-ablation knob) on an unshared parser, so the cached one keeps its
/// default configuration; `k < 2` disables dispatch tables entirely,
/// reproducing the seed backtracking behavior.
pub fn bench_pair(
    dialect: Dialect,
    mode: EngineMode,
    iters: usize,
    lookahead: Option<usize>,
) -> PairReport {
    let Some(k) = lookahead else {
        return bench_parser(parser(dialect, mode), dialect, mode, iters);
    };
    let p = dialect
        .parser_with_mode(mode)
        .unwrap_or_else(|e| panic!("parser {}: {e}", dialect.name()))
        .with_lookahead_k(k);
    bench_parser(&p, dialect, mode, iters)
}

fn bench_parser(p: &Parser, dialect: Dialect, mode: EngineMode, iters: usize) -> PairReport {
    let stmts: Vec<&'static str> = corpus(dialect)
        .into_iter()
        .filter(|s| p.parse_reference(s).is_ok())
        .collect();
    let tokens: usize = stmts
        .iter()
        .map(|s| {
            let mut v: Vec<Token> = Vec::new();
            p.scanner().scan_into(s, &mut v).expect("accepted statement lexes");
            v.len()
        })
        .sum();

    let seed_secs = time(iters, || {
        for s in &stmts {
            let _ = std::hint::black_box(p.parse_reference(s));
        }
    });
    let event_cst_secs = time(iters, || {
        for s in &stmts {
            let _ = std::hint::black_box(p.parse(s));
        }
    });
    let mut session = p.session();
    let event_tree_secs = time(iters, || {
        for s in &stmts {
            let tree = session.parse_tree(s).expect("accepted statement parses");
            std::hint::black_box(tree.node_count());
        }
    });
    let batch_secs = time(iters, || {
        let _ = std::hint::black_box(p.parse_many(&stmts));
    });

    // Recovery (B7): resilient parsing over the clean corpus (overhead
    // baseline against `event_tree` above, which did identical successful
    // work strictly) and over the error-density corpus.
    let faulty = faulty_corpus(dialect);
    let mut rsession = p.session();
    let resilient_clean_secs = time(iters, || {
        for s in &stmts {
            let outcome = rsession.parse_resilient(s);
            std::hint::black_box(outcome.errors.len());
        }
    });
    let faulty_secs = time(iters, || {
        for s in &faulty {
            let outcome = rsession.parse_resilient(s);
            std::hint::black_box(outcome.errors.len());
        }
    });
    let recovery_errors: usize = faulty.iter().map(|s| rsession.parse_resilient(s).errors.len()).sum();
    let recovery = RecoveryMeasurement {
        scripts: faulty.len(),
        errors: recovery_errors,
        scripts_per_sec: (iters * faulty.len()) as f64 / faulty_secs.max(1e-9),
        clean_overhead: resilient_clean_secs.max(1e-9) / event_tree_secs.max(1e-9),
    };

    // Sema (B8): the full parse → CST → resolve pipeline over the same
    // accepted statements, so `overhead_vs_parse` against `event_tree`
    // compares identical successful parses.
    let caps = sqlweave_sema::ResolverCaps::for_dialect(dialect);
    let mut sema_session = p.session();
    let sema_secs = time(iters, || {
        for s in &stmts {
            let tree = sema_session.parse_tree(s).expect("accepted statement parses");
            let a = sqlweave_sema::analyze_script(s, &tree.to_cst(), &caps, None);
            std::hint::black_box(a.statements.len());
        }
    });
    let column_edges: usize = stmts
        .iter()
        .map(|s| {
            let tree = sema_session.parse_tree(s).expect("accepted statement parses");
            let a = sqlweave_sema::analyze_script(s, &tree.to_cst(), &caps, None);
            a.statements.iter().map(|st| st.columns.len()).sum::<usize>()
        })
        .sum();
    // Token-text interning over the same trees: how much lexeme storage a
    // shared per-corpus interner deduplicates away.
    let mut interner = sqlweave_parser_rt::TokenInterner::new();
    let mut lexeme_bytes = 0usize;
    for s in &stmts {
        let tree = sema_session.parse_tree(s).expect("accepted statement parses");
        let syms = tree.intern_tokens(&mut interner);
        lexeme_bytes += syms.iter().map(|&y| interner.resolve(y).len()).sum::<usize>();
    }
    let sema = SemaMeasurement {
        statements_per_sec: (iters * stmts.len()) as f64 / sema_secs.max(1e-9),
        overhead_vs_parse: sema_secs.max(1e-9) / event_tree_secs.max(1e-9),
        column_edges,
        lexeme_bytes,
        interned_bytes: interner.bytes(),
        intern_ratio: lexeme_bytes as f64 / interner.bytes().max(1) as f64,
    };

    // One untimed instrumented pass for the dynamic engine counters; the
    // rate is a ratio, so it does not depend on `iters`.
    let mut counted = p.session();
    for s in &stmts {
        counted.parse_tree(s).expect("accepted statement parses");
    }
    let cstats = counted.stats();
    let backtrack_rate = if cstats.alt_attempts > 0 {
        cstats.backtracks as f64 / cstats.alt_attempts as f64
    } else {
        0.0
    };

    let seed = measure("seed_cst", iters, stmts.len(), tokens, seed_secs, None);
    let seed_sps = seed.statements_per_sec;
    let apis = vec![
        seed,
        measure("event_cst", iters, stmts.len(), tokens, event_cst_secs, Some(seed_sps)),
        measure("event_tree", iters, stmts.len(), tokens, event_tree_secs, Some(seed_sps)),
        measure("batch", iters, stmts.len(), tokens, batch_secs, Some(seed_sps)),
    ];
    // Lex-stage ablation on the backtracking row only (the scanner does
    // not vary by engine, so duplicating it would double bench time for
    // identical numbers).
    let (bytes, lex) = if mode == EngineMode::Backtracking {
        bench_lex_stage(dialect, iters)
    } else {
        (corpus(dialect).iter().map(|s| s.len()).sum(), Vec::new())
    };
    PairReport {
        dialect: dialect.name(),
        engine: engine_name(mode),
        statements: stmts.len(),
        tokens,
        bytes,
        byte_classes: p.scanner().byte_classes(),
        decision_table_hits: cstats.decision_table_hits,
        backtracks: cstats.backtracks,
        failure_memo_hits: cstats.failure_memo_hits,
        backtrack_rate,
        apis,
        lex,
        recovery,
        sema,
    }
}

fn fmt_f64(x: f64) -> String {
    // Two decimals is plenty for throughput ratios; full float printing
    // would make the checked-in report churn on every rerun.
    format!("{x:.2}")
}

/// Serialize lexer measurements shared by the per-pair `lex` arrays and
/// the top-level `corpus_lex` section.
fn lex_json(l: &LexMeasurement) -> String {
    // Four decimals on the ratio: the naive scanner runs at ~1/500 of
    // the interval walker, which two decimals would round to a
    // meaningless 0.00.
    format!(
        "{{\"scanner\":\"{}\",\"tokens_per_sec\":{},\"mbytes_per_sec\":{},\"speedup_vs_interval\":{:.4}}}",
        json::escape(l.scanner),
        fmt_f64(l.tokens_per_sec),
        fmt_f64(l.mbytes_per_sec),
        l.speedup_vs_interval
    )
}

/// Serialize reports as the `sqlweave-bench-parser/v8` JSON document, with
/// the generated-corpus lex sweep and the incremental keystroke-latency
/// sweep (both sections are emitted as empty arrays when their knobs were
/// not given — the shape is stable either way).
pub fn to_json_full(
    iters: usize,
    reports: &[PairReport],
    corpus: &[CorpusLexReport],
    incremental: &[IncrementalReport],
) -> String {
    let results: Vec<String> = reports
        .iter()
        .map(|r| {
            let apis: Vec<String> = r
                .apis
                .iter()
                .map(|a| {
                    format!(
                        "{{\"api\":\"{}\",\"statements_per_sec\":{},\"tokens_per_sec\":{},\"speedup_vs_seed\":{}}}",
                        json::escape(a.api),
                        fmt_f64(a.statements_per_sec),
                        fmt_f64(a.tokens_per_sec),
                        fmt_f64(a.speedup_vs_seed)
                    )
                })
                .collect();
            let lex: Vec<String> = r.lex.iter().map(lex_json).collect();
            let recovery = format!(
                "{{\"scripts\":{},\"errors\":{},\"scripts_per_sec\":{},\"clean_overhead\":{:.4}}}",
                r.recovery.scripts,
                r.recovery.errors,
                fmt_f64(r.recovery.scripts_per_sec),
                r.recovery.clean_overhead
            );
            let sema = format!(
                "{{\"statements_per_sec\":{},\"overhead_vs_parse\":{:.4},\"column_edges\":{},\
                 \"lexeme_bytes\":{},\"interned_bytes\":{},\"intern_ratio\":{:.4}}}",
                fmt_f64(r.sema.statements_per_sec),
                r.sema.overhead_vs_parse,
                r.sema.column_edges,
                r.sema.lexeme_bytes,
                r.sema.interned_bytes,
                r.sema.intern_ratio
            );
            format!(
                "{{\"dialect\":\"{}\",\"engine\":\"{}\",\"statements\":{},\"tokens\":{},\
                 \"bytes\":{},\"byte_classes\":{},\
                 \"decision_table_hits\":{},\"backtracks\":{},\"failure_memo_hits\":{},\
                 \"backtrack_rate\":{:.4},\"apis\":[{}],\"lex\":[{}],\"recovery\":{},\"sema\":{}}}",
                json::escape(r.dialect),
                json::escape(r.engine),
                r.statements,
                r.tokens,
                r.bytes,
                r.byte_classes,
                r.decision_table_hits,
                r.backtracks,
                r.failure_memo_hits,
                r.backtrack_rate,
                apis.join(","),
                lex.join(","),
                recovery,
                sema
            )
        })
        .collect();
    let corpus_lex: Vec<String> = corpus
        .iter()
        .map(|c| {
            let scanners: Vec<String> = c.scanners.iter().map(lex_json).collect();
            format!(
                "{{\"dialect\":\"{}\",\"mebibytes\":{},\"bytes\":{},\"tokens\":{},\
                 \"simd_level\":\"{}\",\"scanners\":[{}]}}",
                json::escape(c.dialect),
                c.mebibytes,
                c.bytes,
                c.tokens,
                json::escape(c.simd_level),
                scanners.join(",")
            )
        })
        .collect();
    let incremental: Vec<String> = incremental
        .iter()
        .map(|i| {
            format!(
                "{{\"dialect\":\"{}\",\"engine\":\"{}\",\"bytes\":{},\"tokens\":{},\"edits\":{},\
                 \"apply_edit_us_p50\":{},\"apply_edit_us_p99\":{},\"materialize_us_p50\":{},\
                 \"full_reparse_us_p50\":{},\
                 \"speedup_p50\":{},\"resync_bytes_p50\":{},\"resync_bytes_max\":{},\
                 \"reparsed_tokens_p50\":{},\"full_reparse_fallbacks\":{}}}",
                json::escape(i.dialect),
                json::escape(i.engine),
                i.bytes,
                i.tokens,
                i.edits,
                fmt_f64(i.apply_edit_us_p50),
                fmt_f64(i.apply_edit_us_p99),
                fmt_f64(i.materialize_us_p50),
                fmt_f64(i.full_reparse_us_p50),
                fmt_f64(i.speedup_p50),
                i.resync_bytes_p50,
                i.resync_bytes_max,
                i.reparsed_tokens_p50,
                i.full_reparse_fallbacks
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"sqlweave-bench-parser/v8\",\"iters\":{},\"results\":[{}],\"corpus_lex\":[{}],\"incremental\":[{}]}}",
        iters,
        results.join(","),
        corpus_lex.join(","),
        incremental.join(",")
    )
}

/// Best-of passes per substrate in the generated-corpus sweep.
const CORPUS_REPS: usize = 5;

/// Corpus size of the incremental keystroke sweep when `--corpus-mb` was
/// not given: the acceptance workload is the 4 MiB generated script.
const INCREMENTAL_DEFAULT_MB: usize = 4;

/// Run the full sweep and return validated JSON: every requested dialect
/// × engine pair, with an optional runtime lookahead cap applied to every
/// pair (the LL(1) table engine ignores it; see [`bench_pair`]). When
/// `corpus_mb > 0`, every requested dialect is additionally scanned over a
/// `corpus_mb`-MiB generated script (`corpus_lex` section, best of
/// [`CORPUS_REPS`] passes per substrate); when `edits > 0`, every
/// requested dialect gets `edits` single-token edits applied through a
/// recycled incremental session over the same-size script
/// ([`INCREMENTAL_DEFAULT_MB`] MiB when `corpus_mb` is 0).
///
/// Panics if the emitted document fails to round-trip through the JSON
/// parser or violates the schema — a bench artifact that cannot be read
/// back is worse than no artifact.
pub fn run_full(
    dialects: &[Dialect],
    iters: usize,
    lookahead: Option<usize>,
    corpus_mb: usize,
    edits: usize,
) -> String {
    let mut reports = Vec::new();
    for &d in dialects {
        for mode in [EngineMode::Backtracking, EngineMode::Ll1Table] {
            reports.push(bench_pair(d, mode, iters, lookahead));
        }
    }
    let corpus: Vec<CorpusLexReport> = if corpus_mb > 0 {
        dialects.iter().map(|&d| bench_lex_corpus(d, corpus_mb, CORPUS_REPS)).collect()
    } else {
        Vec::new()
    };
    let incremental: Vec<IncrementalReport> = if edits > 0 {
        let mb = if corpus_mb > 0 { corpus_mb } else { INCREMENTAL_DEFAULT_MB };
        dialects
            .iter()
            .flat_map(|&d| {
                [EngineMode::Backtracking, EngineMode::Ll1Table]
                    .map(|mode| bench_incremental(d, mode, mb, edits))
            })
            .collect()
    } else {
        Vec::new()
    };
    let doc = to_json_full(iters, &reports, &corpus, &incremental);
    validate(&doc).unwrap_or_else(|e| panic!("bench runner emitted invalid JSON: {e}"));
    doc
}

/// Check a bench document against schema `sqlweave-bench-parser/v8`.
///
/// Used both by [`run_full`] before returning and by the CI smoke step to gate
/// on the artifact it just produced.
pub fn validate(doc: &str) -> Result<(), String> {
    let v: Value = json::parse(doc).map_err(|e| e.to_string())?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != "sqlweave-bench-parser/v8" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    v.get("iters").and_then(Value::as_num).ok_or("missing \"iters\"")?;
    let results = v
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("missing \"results\"")?;
    if results.is_empty() {
        return Err("empty \"results\"".to_string());
    }
    for r in results {
        for key in ["dialect", "engine"] {
            r.get(key).and_then(Value::as_str).ok_or(format!("result missing {key:?}"))?;
        }
        for key in [
            "statements",
            "tokens",
            "bytes",
            "byte_classes",
            "decision_table_hits",
            "backtracks",
            "failure_memo_hits",
        ] {
            r.get(key).and_then(Value::as_num).ok_or(format!("result missing {key:?}"))?;
        }
        let rate = r
            .get("backtrack_rate")
            .and_then(Value::as_num)
            .ok_or("result missing \"backtrack_rate\"")?;
        if !rate.is_finite() || rate < 0.0 {
            return Err("result has non-finite \"backtrack_rate\"".to_string());
        }
        let apis = r
            .get("apis")
            .and_then(Value::as_arr)
            .ok_or("result missing \"apis\"")?;
        if apis.iter().all(|a| a.get("api").and_then(Value::as_str) != Some("seed_cst")) {
            return Err("result lacks the seed_cst baseline".to_string());
        }
        for a in apis {
            a.get("api").and_then(Value::as_str).ok_or("api entry missing \"api\"")?;
            for key in ["statements_per_sec", "tokens_per_sec", "speedup_vs_seed"] {
                let n = a
                    .get(key)
                    .and_then(Value::as_num)
                    .ok_or(format!("api entry missing {key:?}"))?;
                if !n.is_finite() || n < 0.0 {
                    return Err(format!("api entry has non-finite {key:?}"));
                }
            }
        }
        // The lex section is empty on engine rows that don't carry it,
        // but when present it must include the production scanner and its
        // speedup anchor.
        let lex = r
            .get("lex")
            .and_then(Value::as_arr)
            .ok_or("result missing \"lex\"")?;
        if !lex.is_empty() {
            // v6: the production `vector` scanner must be present
            // alongside its compiled fallback and the interval anchor.
            for name in ["vector", "compiled", "interval"] {
                if lex.iter().all(|l| l.get("scanner").and_then(Value::as_str) != Some(name)) {
                    return Err(format!("lex section lacks the {name:?} scanner"));
                }
            }
        }
        for l in lex {
            l.get("scanner").and_then(Value::as_str).ok_or("lex entry missing \"scanner\"")?;
            for key in ["tokens_per_sec", "mbytes_per_sec", "speedup_vs_interval"] {
                let n = l
                    .get(key)
                    .and_then(Value::as_num)
                    .ok_or(format!("lex entry missing {key:?}"))?;
                if !n.is_finite() || n < 0.0 {
                    return Err(format!("lex entry has non-finite {key:?}"));
                }
            }
        }
        // v4: every row carries the recovery section.
        let recovery = r.get("recovery").ok_or("result missing \"recovery\"")?;
        for key in ["scripts", "errors", "scripts_per_sec", "clean_overhead"] {
            let n = recovery
                .get(key)
                .and_then(Value::as_num)
                .ok_or(format!("recovery section missing {key:?}"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!("recovery section has non-finite {key:?}"));
            }
        }
        // v5: every row carries the sema section (v7 adds the token-text
        // interning columns).
        let sema = r.get("sema").ok_or("result missing \"sema\"")?;
        for key in [
            "statements_per_sec",
            "overhead_vs_parse",
            "column_edges",
            "lexeme_bytes",
            "interned_bytes",
            "intern_ratio",
        ] {
            let n = sema
                .get(key)
                .and_then(Value::as_num)
                .ok_or(format!("sema section missing {key:?}"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!("sema section has non-finite {key:?}"));
            }
        }
    }
    // v6: the top-level corpus_lex section is always present (empty when
    // `--corpus-mb` was not given); non-empty entries carry the full
    // vector/compiled/interval ablation.
    let corpus_lex = v
        .get("corpus_lex")
        .and_then(Value::as_arr)
        .ok_or("missing \"corpus_lex\"")?;
    for c in corpus_lex {
        c.get("dialect").and_then(Value::as_str).ok_or("corpus_lex entry missing \"dialect\"")?;
        c.get("simd_level").and_then(Value::as_str).ok_or("corpus_lex entry missing \"simd_level\"")?;
        for key in ["mebibytes", "bytes", "tokens"] {
            c.get(key).and_then(Value::as_num).ok_or(format!("corpus_lex entry missing {key:?}"))?;
        }
        let scanners = c
            .get("scanners")
            .and_then(Value::as_arr)
            .ok_or("corpus_lex entry missing \"scanners\"")?;
        for name in ["vector", "compiled", "interval"] {
            if scanners.iter().all(|l| l.get("scanner").and_then(Value::as_str) != Some(name)) {
                return Err(format!("corpus_lex entry lacks the {name:?} scanner"));
            }
        }
        for l in scanners {
            for key in ["tokens_per_sec", "mbytes_per_sec", "speedup_vs_interval"] {
                let n = l
                    .get(key)
                    .and_then(Value::as_num)
                    .ok_or(format!("corpus_lex scanner missing {key:?}"))?;
                if !n.is_finite() || n < 0.0 {
                    return Err(format!("corpus_lex scanner has non-finite {key:?}"));
                }
            }
        }
    }
    // v7: the top-level incremental section is always present (empty when
    // `--edits` was not given); entries carry the keystroke-latency rows.
    // v8 splits the deferred tree build out as `materialize_us_p50` and
    // reports one row per dialect × engine pair (tagged `engine`).
    let incremental = v
        .get("incremental")
        .and_then(Value::as_arr)
        .ok_or("missing \"incremental\"")?;
    for i in incremental {
        i.get("dialect").and_then(Value::as_str).ok_or("incremental entry missing \"dialect\"")?;
        i.get("engine").and_then(Value::as_str).ok_or("incremental entry missing \"engine\"")?;
        for key in [
            "bytes",
            "tokens",
            "edits",
            "apply_edit_us_p50",
            "apply_edit_us_p99",
            "materialize_us_p50",
            "full_reparse_us_p50",
            "speedup_p50",
            "resync_bytes_p50",
            "resync_bytes_max",
            "reparsed_tokens_p50",
            "full_reparse_fallbacks",
        ] {
            let n = i
                .get(key)
                .and_then(Value::as_num)
                .ok_or(format!("incremental entry missing {key:?}"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!("incremental entry has non-finite {key:?}"));
            }
        }
    }
    Ok(())
}

/// Gate a fresh bench document against a checked-in baseline: the CI
/// regression tripwire behind `sqlweave bench --baseline FILE`.
///
/// For every dialect that appears in the `corpus_lex` section of **both**
/// documents, the `compiled` and `vector` scanners' `mbytes_per_sec` must
/// be at least `(1 - tolerance_pct/100)` of the baseline's, and the
/// vector-over-compiled speedup ratio must hold to the same tolerance.
/// The ratio check is the machine-portable signal (a vector path that
/// silently falls back to the table walk flattens it to ~1× on any
/// hardware); the absolute checks catch whole-scanner regressions when
/// baseline and CI hardware are comparable — the generous default
/// tolerance (25 %) exists to absorb runner-generation variance, not
/// run-to-run noise (use best-of reps for that).
///
/// When both documents carry a non-empty `incremental` section, the
/// incremental `speedup_p50` of every overlapping dialect is gated the
/// same way — it is a ratio of two times on the same machine, so it is
/// the portable signal that localized reparse silently degraded into
/// full-document work.
///
/// Returns the list of human-readable regressions (empty = pass), or an
/// `Err` when either document is malformed or there is no overlapping
/// dialect to compare — a gate that silently compares nothing is worse
/// than no gate.
pub fn compare_with_baseline(
    current: &str,
    baseline: &str,
    tolerance_pct: f64,
) -> Result<Vec<String>, String> {
    fn corpus_rates(doc: &str, label: &str) -> Result<Vec<(String, f64, f64)>, String> {
        let v: Value = json::parse(doc).map_err(|e| format!("{label}: {e}"))?;
        let entries = v
            .get("corpus_lex")
            .and_then(Value::as_arr)
            .ok_or(format!("{label}: missing \"corpus_lex\""))?;
        let mut out = Vec::new();
        for c in entries {
            let dialect = c
                .get("dialect")
                .and_then(Value::as_str)
                .ok_or(format!("{label}: corpus_lex entry missing \"dialect\""))?;
            let rate = |name: &str| -> Result<f64, String> {
                c.get("scanners")
                    .and_then(Value::as_arr)
                    .into_iter()
                    .flatten()
                    .find(|s| s.get("scanner").and_then(Value::as_str) == Some(name))
                    .and_then(|s| s.get("mbytes_per_sec"))
                    .and_then(Value::as_num)
                    .filter(|n| n.is_finite() && *n > 0.0)
                    .ok_or(format!("{label}: {dialect} lacks a positive {name:?} rate"))
            };
            out.push((dialect.to_string(), rate("compiled")?, rate("vector")?));
        }
        Ok(out)
    }

    /// Per-pair incremental gate inputs: the headline `speedup_p50` plus
    /// two lower-is-better latency ratios normalized by the same
    /// document's from-scratch reparse (so machine speed cancels out):
    /// tail keystroke cost `apply_edit_us_p99 / full_reparse_us_p50` and
    /// deferred tree build `materialize_us_p50 / full_reparse_us_p50`.
    /// The ratios are `None` when the document predates the column
    /// (pre-v8 baselines lack the materialize split) — absent data
    /// compares nothing, it does not fail the gate. `pair` is
    /// `dialect/engine`; rows without an `engine` tag (pre-v8 baselines
    /// measured the backtracking session only) key as
    /// `dialect/backtracking` so they stay comparable.
    struct IncRow {
        pair: String,
        speedup: f64,
        p99_ratio: Option<f64>,
        mat_ratio: Option<f64>,
    }

    fn incremental_speedups(doc: &str, label: &str) -> Result<Vec<IncRow>, String> {
        let v: Value = json::parse(doc).map_err(|e| format!("{label}: {e}"))?;
        // Absent section (pre-v7 baselines) compares nothing, not an error.
        let Some(entries) = v.get("incremental").and_then(Value::as_arr) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for i in entries {
            let dialect = i
                .get("dialect")
                .and_then(Value::as_str)
                .ok_or(format!("{label}: incremental entry missing \"dialect\""))?;
            let engine =
                i.get("engine").and_then(Value::as_str).unwrap_or("backtracking");
            let pair = format!("{dialect}/{engine}");
            let speedup = i
                .get("speedup_p50")
                .and_then(Value::as_num)
                .filter(|n| n.is_finite() && *n > 0.0)
                .ok_or(format!("{label}: {pair} lacks a positive \"speedup_p50\""))?;
            let num = |key: &str| {
                i.get(key)
                    .and_then(Value::as_num)
                    .filter(|n| n.is_finite() && *n > 0.0)
            };
            let full = num("full_reparse_us_p50");
            let ratio = |key: &str| Some(num(key)? / full?);
            out.push(IncRow { pair, speedup, p99_ratio: ratio("apply_edit_us_p99"), mat_ratio: ratio("materialize_us_p50") });
        }
        Ok(out)
    }

    let floor = 1.0 - tolerance_pct / 100.0;
    let base = corpus_rates(baseline, "baseline")?;
    let cur = corpus_rates(current, "current")?;
    let base_inc = incremental_speedups(baseline, "baseline")?;
    let cur_inc = incremental_speedups(current, "current")?;
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for (dialect, base_compiled, base_vector) in &base {
        let Some((_, cur_compiled, cur_vector)) = cur.iter().find(|(d, _, _)| d == dialect)
        else {
            continue;
        };
        compared += 1;
        let mut check = |what: &str, current: f64, baseline: f64| {
            if current < baseline * floor {
                regressions.push(format!(
                    "{dialect}: {what} regressed {:.1}% (baseline {baseline:.1}, current {current:.1}, tolerance {tolerance_pct:.0}%)",
                    (1.0 - current / baseline) * 100.0,
                ));
            }
        };
        check("compiled scanner MiB/s", *cur_compiled, *base_compiled);
        check("vector scanner MiB/s", *cur_vector, *base_vector);
        check(
            "vector/compiled speedup",
            cur_vector / cur_compiled,
            base_vector / base_compiled,
        );
    }
    for base_row in &base_inc {
        let pair = &base_row.pair;
        let Some(cur_row) = cur_inc.iter().find(|r| &r.pair == pair) else {
            continue;
        };
        compared += 1;
        if cur_row.speedup < base_row.speedup * floor {
            regressions.push(format!(
                "{pair}: incremental speedup_p50 regressed {:.1}% (baseline {:.1}, current {:.1}, tolerance {tolerance_pct:.0}%)",
                (1.0 - cur_row.speedup / base_row.speedup) * 100.0,
                base_row.speedup,
                cur_row.speedup,
            ));
        }
        // Lower-is-better latency-ratio gates: a regression is the current
        // ratio exceeding the baseline even after the tolerance discount.
        // Skipped (not failed) when either side lacks the column.
        let mut check_ratio = |what: &str, cur: Option<f64>, base: Option<f64>| {
            let (Some(cur), Some(base)) = (cur, base) else { return };
            if cur * floor > base {
                regressions.push(format!(
                    "{pair}: {what} regressed {:.1}% (baseline {base:.4}, current {cur:.4}, tolerance {tolerance_pct:.0}%)",
                    (cur / base - 1.0) * 100.0,
                ));
            }
        };
        check_ratio(
            "incremental apply_edit_us_p99 / full_reparse_us_p50",
            cur_row.p99_ratio,
            base_row.p99_ratio,
        );
        check_ratio(
            "incremental materialize_us_p50 / full_reparse_us_p50",
            cur_row.mat_ratio,
            base_row.mat_ratio,
        );
    }
    if compared == 0 {
        return Err(
            "no overlapping corpus_lex or incremental dialect between current and baseline"
                .to_string(),
        );
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pico_sweep_emits_valid_schema() {
        let doc = run_full(&[Dialect::Pico], 2, None, 0, 0);
        assert!(validate(&doc).is_ok());
        let v = json::parse(&doc).unwrap();
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2, "both engines reported");
        for r in results {
            assert_eq!(r.get("dialect").unwrap().as_str(), Some("pico"));
            assert!(r.get("statements").unwrap().as_num().unwrap() > 0.0);
            assert!(r.get("bytes").unwrap().as_num().unwrap() > 0.0);
            assert!(r.get("byte_classes").unwrap().as_num().unwrap() > 1.0);
            assert_eq!(r.get("apis").unwrap().as_arr().unwrap().len(), 4);
            let lex = r.get("lex").unwrap().as_arr().unwrap();
            match r.get("engine").unwrap().as_str() {
                Some("backtracking") => {
                    assert_eq!(lex.len(), 4, "interval/compiled/vector/naive")
                }
                _ => assert!(lex.is_empty(), "lex section only on backtracking rows"),
            }
            let recovery = r.get("recovery").unwrap();
            assert!(recovery.get("scripts").unwrap().as_num().unwrap() > 0.0);
            assert!(recovery.get("errors").unwrap().as_num().unwrap() > 0.0);
            assert!(recovery.get("clean_overhead").unwrap().as_num().unwrap() > 0.0);
            let sema = r.get("sema").unwrap();
            assert!(sema.get("statements_per_sec").unwrap().as_num().unwrap() > 0.0);
            assert!(sema.get("overhead_vs_parse").unwrap().as_num().unwrap() > 0.0);
            // v7: token-text interning columns — interning can only shrink.
            let lexeme = sema.get("lexeme_bytes").unwrap().as_num().unwrap();
            let interned = sema.get("interned_bytes").unwrap().as_num().unwrap();
            assert!(lexeme > 0.0 && interned > 0.0 && interned <= lexeme);
            assert!(sema.get("intern_ratio").unwrap().as_num().unwrap() >= 1.0);
        }
        // No --edits requested: the v7 section is present but empty.
        assert!(v.get("incremental").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("{").is_err());
        assert!(validate("{\"schema\":\"other/v9\"}").is_err());
        // v1..v7 documents (no dynamic counters / no lex stage / no
        // recovery section / no sema section / no vector row + corpus_lex
        // section / no incremental section + interning columns / no
        // materialize_us_p50 split) are rejected by name.
        assert!(validate("{\"schema\":\"sqlweave-bench-parser/v1\",\"iters\":1,\"results\":[]}").is_err());
        assert!(validate("{\"schema\":\"sqlweave-bench-parser/v2\",\"iters\":1,\"results\":[]}").is_err());
        assert!(validate("{\"schema\":\"sqlweave-bench-parser/v3\",\"iters\":1,\"results\":[]}").is_err());
        assert!(validate("{\"schema\":\"sqlweave-bench-parser/v4\",\"iters\":1,\"results\":[]}").is_err());
        assert!(validate("{\"schema\":\"sqlweave-bench-parser/v5\",\"iters\":1,\"results\":[]}").is_err());
        assert!(validate("{\"schema\":\"sqlweave-bench-parser/v6\",\"iters\":1,\"results\":[]}").is_err());
        assert!(validate("{\"schema\":\"sqlweave-bench-parser/v7\",\"iters\":1,\"results\":[]}").is_err());
        // A v8 header with empty results is still rejected.
        assert!(validate("{\"schema\":\"sqlweave-bench-parser/v8\",\"iters\":1,\"results\":[]}").is_err());
        // Schema-valid wrapper but an api entry missing its baseline.
        assert!(validate(
            "{\"schema\":\"sqlweave-bench-parser/v8\",\"iters\":1,\"results\":[{\"dialect\":\"pico\",\"engine\":\"backtracking\",\"statements\":1,\"tokens\":2,\"bytes\":3,\"byte_classes\":4,\"decision_table_hits\":0,\"backtracks\":0,\"failure_memo_hits\":0,\"backtrack_rate\":0.0,\"apis\":[{\"api\":\"batch\",\"statements_per_sec\":1,\"tokens_per_sec\":1,\"speedup_vs_seed\":1}],\"lex\":[],\"recovery\":{\"scripts\":1,\"errors\":1,\"scripts_per_sec\":1,\"clean_overhead\":1.0}}],\"corpus_lex\":[]}"
        )
        .is_err());
        // Counters present but the rate missing.
        assert!(validate(
            "{\"schema\":\"sqlweave-bench-parser/v8\",\"iters\":1,\"results\":[{\"dialect\":\"pico\",\"engine\":\"backtracking\",\"statements\":1,\"tokens\":2,\"bytes\":3,\"byte_classes\":4,\"decision_table_hits\":0,\"backtracks\":0,\"failure_memo_hits\":0,\"apis\":[{\"api\":\"seed_cst\",\"statements_per_sec\":1,\"tokens_per_sec\":1,\"speedup_vs_seed\":1}],\"lex\":[],\"recovery\":{\"scripts\":1,\"errors\":1,\"scripts_per_sec\":1,\"clean_overhead\":1.0}}],\"corpus_lex\":[]}"
        )
        .is_err());
        // A non-empty lex section must anchor on the interval walker.
        assert!(validate(
            "{\"schema\":\"sqlweave-bench-parser/v8\",\"iters\":1,\"results\":[{\"dialect\":\"pico\",\"engine\":\"backtracking\",\"statements\":1,\"tokens\":2,\"bytes\":3,\"byte_classes\":4,\"decision_table_hits\":0,\"backtracks\":0,\"failure_memo_hits\":0,\"backtrack_rate\":0.0,\"apis\":[{\"api\":\"seed_cst\",\"statements_per_sec\":1,\"tokens_per_sec\":1,\"speedup_vs_seed\":1}],\"lex\":[{\"scanner\":\"compiled\",\"tokens_per_sec\":1,\"mbytes_per_sec\":1,\"speedup_vs_interval\":2}],\"recovery\":{\"scripts\":1,\"errors\":1,\"scripts_per_sec\":1,\"clean_overhead\":1.0}}],\"corpus_lex\":[]}"
        )
        .is_err());
        // v3 rows (no recovery section) fail even under a v4 header.
        assert!(validate(
            "{\"schema\":\"sqlweave-bench-parser/v8\",\"iters\":1,\"results\":[{\"dialect\":\"pico\",\"engine\":\"backtracking\",\"statements\":1,\"tokens\":2,\"bytes\":3,\"byte_classes\":4,\"decision_table_hits\":0,\"backtracks\":0,\"failure_memo_hits\":0,\"backtrack_rate\":0.0,\"apis\":[{\"api\":\"seed_cst\",\"statements_per_sec\":1,\"tokens_per_sec\":1,\"speedup_vs_seed\":1}],\"lex\":[]}],\"corpus_lex\":[]}"
        )
        .is_err());
        // A recovery section with a missing field fails too.
        assert!(validate(
            "{\"schema\":\"sqlweave-bench-parser/v8\",\"iters\":1,\"results\":[{\"dialect\":\"pico\",\"engine\":\"backtracking\",\"statements\":1,\"tokens\":2,\"bytes\":3,\"byte_classes\":4,\"decision_table_hits\":0,\"backtracks\":0,\"failure_memo_hits\":0,\"backtrack_rate\":0.0,\"apis\":[{\"api\":\"seed_cst\",\"statements_per_sec\":1,\"tokens_per_sec\":1,\"speedup_vs_seed\":1}],\"lex\":[],\"recovery\":{\"scripts\":1,\"errors\":1}}],\"corpus_lex\":[]}"
        )
        .is_err());
    }

    /// One shape-valid v8 engine row, shared by the section-shape tests.
    const VALID_RESULTS: &str = "{\"dialect\":\"pico\",\"engine\":\"backtracking\",\"statements\":1,\"tokens\":2,\"bytes\":3,\"byte_classes\":4,\"decision_table_hits\":0,\"backtracks\":0,\"failure_memo_hits\":0,\"backtrack_rate\":0.0,\"apis\":[{\"api\":\"seed_cst\",\"statements_per_sec\":1,\"tokens_per_sec\":1,\"speedup_vs_seed\":1}],\"lex\":[],\"recovery\":{\"scripts\":1,\"errors\":1,\"scripts_per_sec\":1,\"clean_overhead\":1.0},\"sema\":{\"statements_per_sec\":1,\"overhead_vs_parse\":1.0,\"column_edges\":0,\"lexeme_bytes\":10,\"interned_bytes\":5,\"intern_ratio\":2.0}}";

    #[test]
    fn validate_checks_corpus_lex_shape() {
        // A shape-valid v8 document minus corpus_lex entirely is rejected…
        let wrap = |corpus: &str| {
            format!(
                "{{\"schema\":\"sqlweave-bench-parser/v8\",\"iters\":1,\"results\":[{VALID_RESULTS}]{corpus},\"incremental\":[]}}"
            )
        };
        assert!(validate(&wrap("")).is_err(), "corpus_lex key is mandatory");
        assert!(validate(&wrap(",\"corpus_lex\":[]")).is_ok(), "empty section is fine");
        // …and a non-empty entry must carry the vector scanner.
        let no_vector = ",\"corpus_lex\":[{\"dialect\":\"pico\",\"mebibytes\":1,\"bytes\":1048576,\"tokens\":9,\"simd_level\":\"swar\",\"scanners\":[{\"scanner\":\"interval\",\"tokens_per_sec\":1,\"mbytes_per_sec\":1,\"speedup_vs_interval\":1.0},{\"scanner\":\"compiled\",\"tokens_per_sec\":1,\"mbytes_per_sec\":1,\"speedup_vs_interval\":1.0}]}]";
        assert!(validate(&wrap(no_vector)).is_err());
        let full = ",\"corpus_lex\":[{\"dialect\":\"pico\",\"mebibytes\":1,\"bytes\":1048576,\"tokens\":9,\"simd_level\":\"swar\",\"scanners\":[{\"scanner\":\"interval\",\"tokens_per_sec\":1,\"mbytes_per_sec\":1,\"speedup_vs_interval\":1.0},{\"scanner\":\"compiled\",\"tokens_per_sec\":1,\"mbytes_per_sec\":1,\"speedup_vs_interval\":1.0},{\"scanner\":\"vector\",\"tokens_per_sec\":1,\"mbytes_per_sec\":1,\"speedup_vs_interval\":1.0}]}]";
        assert!(validate(&wrap(full)).is_ok());
    }

    #[test]
    fn validate_checks_incremental_shape() {
        let wrap = |incremental: &str| {
            format!(
                "{{\"schema\":\"sqlweave-bench-parser/v8\",\"iters\":1,\"results\":[{VALID_RESULTS}],\"corpus_lex\":[]{incremental}}}"
            )
        };
        assert!(validate(&wrap("")).is_err(), "incremental key is mandatory");
        assert!(validate(&wrap(",\"incremental\":[]")).is_ok(), "empty section is fine");
        let full = ",\"incremental\":[{\"dialect\":\"pico\",\"engine\":\"backtracking\",\"bytes\":4194304,\"tokens\":9,\"edits\":64,\"apply_edit_us_p50\":10.0,\"apply_edit_us_p99\":50.0,\"materialize_us_p50\":200.0,\"full_reparse_us_p50\":9000.0,\"speedup_p50\":900.0,\"resync_bytes_p50\":30,\"resync_bytes_max\":90,\"reparsed_tokens_p50\":12,\"full_reparse_fallbacks\":0}]";
        assert!(validate(&wrap(full)).is_ok());
        // An entry missing its headline ratio is rejected…
        let no_speedup = ",\"incremental\":[{\"dialect\":\"pico\",\"engine\":\"backtracking\",\"bytes\":4194304,\"tokens\":9,\"edits\":64,\"apply_edit_us_p50\":10.0,\"apply_edit_us_p99\":50.0,\"materialize_us_p50\":200.0,\"full_reparse_us_p50\":9000.0,\"resync_bytes_p50\":30,\"resync_bytes_max\":90,\"reparsed_tokens_p50\":12,\"full_reparse_fallbacks\":0}]";
        assert!(validate(&wrap(no_speedup)).is_err());
        // …as is a v7-shaped row lacking the materialize split…
        let no_materialize = ",\"incremental\":[{\"dialect\":\"pico\",\"engine\":\"backtracking\",\"bytes\":4194304,\"tokens\":9,\"edits\":64,\"apply_edit_us_p50\":10.0,\"apply_edit_us_p99\":50.0,\"full_reparse_us_p50\":9000.0,\"speedup_p50\":900.0,\"resync_bytes_p50\":30,\"resync_bytes_max\":90,\"reparsed_tokens_p50\":12,\"full_reparse_fallbacks\":0}]";
        assert!(validate(&wrap(no_materialize)).is_err());
        // …as is one missing the dialect name…
        let no_dialect = ",\"incremental\":[{\"engine\":\"backtracking\",\"bytes\":4194304,\"tokens\":9,\"edits\":64,\"apply_edit_us_p50\":10.0,\"apply_edit_us_p99\":50.0,\"materialize_us_p50\":200.0,\"full_reparse_us_p50\":9000.0,\"speedup_p50\":900.0,\"resync_bytes_p50\":30,\"resync_bytes_max\":90,\"reparsed_tokens_p50\":12,\"full_reparse_fallbacks\":0}]";
        assert!(validate(&wrap(no_dialect)).is_err());
        // …as is a v8 row without its engine tag.
        let no_engine = ",\"incremental\":[{\"dialect\":\"pico\",\"bytes\":4194304,\"tokens\":9,\"edits\":64,\"apply_edit_us_p50\":10.0,\"apply_edit_us_p99\":50.0,\"materialize_us_p50\":200.0,\"full_reparse_us_p50\":9000.0,\"speedup_p50\":900.0,\"resync_bytes_p50\":30,\"resync_bytes_max\":90,\"reparsed_tokens_p50\":12,\"full_reparse_fallbacks\":0}]";
        assert!(validate(&wrap(no_engine)).is_err());
    }

    #[test]
    fn corpus_lex_sweep_reports_three_scanners() {
        let c = bench_lex_corpus(Dialect::Pico, 1, 1);
        assert_eq!(c.dialect, "pico");
        assert!(c.bytes >= 1024 * 1024, "{c:?}");
        assert!(c.tokens > 0);
        let names: Vec<&str> = c.scanners.iter().map(|l| l.scanner).collect();
        assert_eq!(names, ["interval", "compiled", "vector"]);
        assert!((c.scanners[0].speedup_vs_interval - 1.0).abs() < 1e-9);
        for l in &c.scanners {
            assert!(l.mbytes_per_sec.is_finite() && l.mbytes_per_sec > 0.0, "{l:?}");
        }
    }

    #[test]
    fn lex_stage_reports_all_four_scanners() {
        let (bytes, lex) = bench_lex_stage(Dialect::Pico, 1);
        assert!(bytes > 0);
        let names: Vec<&str> = lex.iter().map(|l| l.scanner).collect();
        assert_eq!(names, ["interval", "compiled", "vector", "naive"]);
        assert!((lex[0].speedup_vs_interval - 1.0).abs() < 1e-9);
        for l in &lex {
            assert!(l.tokens_per_sec.is_finite() && l.tokens_per_sec > 0.0, "{l:?}");
            assert!(l.mbytes_per_sec.is_finite() && l.mbytes_per_sec > 0.0, "{l:?}");
            assert!(l.speedup_vs_interval.is_finite() && l.speedup_vs_interval > 0.0, "{l:?}");
        }
    }

    /// Minimal document for [`compare_with_baseline`] — it only reads the
    /// `corpus_lex` section, so the rest of the schema can be absent.
    fn corpus_doc(entries: &[(&str, f64, f64, f64)]) -> String {
        let entries: Vec<String> = entries
            .iter()
            .map(|(d, interval, compiled, vector)| {
                format!(
                    "{{\"dialect\":\"{d}\",\"mebibytes\":4,\"bytes\":4194304,\"tokens\":9,\"simd_level\":\"swar\",\"scanners\":[{{\"scanner\":\"interval\",\"tokens_per_sec\":1,\"mbytes_per_sec\":{interval},\"speedup_vs_interval\":1.0}},{{\"scanner\":\"compiled\",\"tokens_per_sec\":1,\"mbytes_per_sec\":{compiled},\"speedup_vs_interval\":1.0}},{{\"scanner\":\"vector\",\"tokens_per_sec\":1,\"mbytes_per_sec\":{vector},\"speedup_vs_interval\":1.0}}]}}"
                )
            })
            .collect();
        format!("{{\"corpus_lex\":[{}]}}", entries.join(","))
    }

    #[test]
    fn baseline_compare_passes_within_tolerance() {
        let base = corpus_doc(&[("full", 70.0, 150.0, 340.0)]);
        // 20% slower across the board with a flat ratio: within 25%.
        let cur = corpus_doc(&[("full", 56.0, 120.0, 272.0)]);
        assert_eq!(compare_with_baseline(&cur, &base, 25.0).unwrap(), Vec::<String>::new());
        // Identical documents trivially pass.
        assert_eq!(compare_with_baseline(&base, &base, 25.0).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn baseline_compare_flags_compiled_regression() {
        let base = corpus_doc(&[("full", 70.0, 150.0, 340.0)]);
        let cur = corpus_doc(&[("full", 70.0, 100.0, 340.0)]); // compiled -33%
        let regressions = compare_with_baseline(&cur, &base, 25.0).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("compiled scanner")),
            "{regressions:?}"
        );
    }

    #[test]
    fn baseline_compare_flags_flattened_speedup() {
        // Vector path silently degraded to compiled speed: both absolute
        // vector MiB/s and the machine-portable ratio check fire.
        let base = corpus_doc(&[("full", 70.0, 150.0, 340.0)]);
        let cur = corpus_doc(&[("full", 70.0, 150.0, 155.0)]);
        let regressions = compare_with_baseline(&cur, &base, 25.0).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("vector/compiled speedup")),
            "{regressions:?}"
        );
        assert!(regressions.iter().any(|r| r.contains("vector scanner")), "{regressions:?}");
    }

    #[test]
    fn baseline_compare_requires_overlap_and_section() {
        let base = corpus_doc(&[("full", 70.0, 150.0, 340.0)]);
        let cur = corpus_doc(&[("pico", 85.0, 178.0, 590.0)]);
        assert!(compare_with_baseline(&cur, &base, 25.0).is_err(), "no shared dialect");
        assert!(compare_with_baseline("{}", &base, 25.0).is_err(), "missing corpus_lex");
        assert!(compare_with_baseline("nonsense", &base, 25.0).is_err(), "malformed JSON");
        // Extra baseline dialects are fine as long as one overlaps.
        let multi =
            corpus_doc(&[("pico", 85.0, 178.0, 590.0), ("full", 70.0, 150.0, 340.0)]);
        assert!(compare_with_baseline(&base, &multi, 25.0).unwrap().is_empty());
    }

    /// Minimal document carrying only the incremental section (plus the
    /// empty corpus_lex the comparator requires). Entries are
    /// `(dialect, speedup_p50, apply_edit_us_p99, materialize_us_p50)`
    /// for the backtracking engine against a fixed 9000 µs full reparse.
    fn incremental_doc(entries: &[(&str, f64, f64, f64)]) -> String {
        let entries: Vec<String> = entries
            .iter()
            .map(|(d, speedup, p99, mat)| {
                format!(
                    "{{\"dialect\":\"{d}\",\"engine\":\"backtracking\",\"bytes\":4194304,\"tokens\":9,\"edits\":64,\"apply_edit_us_p50\":10,\"apply_edit_us_p99\":{p99},\"materialize_us_p50\":{mat},\"full_reparse_us_p50\":9000,\"speedup_p50\":{speedup},\"resync_bytes_p50\":30,\"resync_bytes_max\":90,\"reparsed_tokens_p50\":12,\"full_reparse_fallbacks\":0}}"
                )
            })
            .collect();
        format!("{{\"corpus_lex\":[],\"incremental\":[{}]}}", entries.join(","))
    }

    #[test]
    fn baseline_compare_gates_incremental_speedup() {
        let base = incremental_doc(&[("core", 400.0, 50.0, 200.0)]);
        // Within tolerance: 20% below a 25% floor passes.
        let ok = incremental_doc(&[("core", 320.0, 50.0, 200.0)]);
        assert!(compare_with_baseline(&ok, &base, 25.0).unwrap().is_empty());
        // Localized reparse silently degraded toward full-document work.
        let bad = incremental_doc(&[("core", 120.0, 50.0, 200.0)]);
        let regressions = compare_with_baseline(&bad, &base, 25.0).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("incremental speedup_p50")),
            "{regressions:?}"
        );
        // Non-overlapping incremental dialects with no corpus rows either:
        // the gate refuses to compare nothing.
        let other = incremental_doc(&[("pico", 500.0, 50.0, 200.0)]);
        assert!(compare_with_baseline(&other, &base, 25.0).is_err());
        // A pre-v7 baseline without the section skips the incremental gate
        // but still needs a corpus overlap to compare at all.
        let pre_v7 = corpus_doc(&[("full", 70.0, 150.0, 340.0)]);
        assert!(compare_with_baseline(&base, &pre_v7, 25.0).is_err());
    }

    #[test]
    fn baseline_compare_gates_incremental_latency_ratios() {
        let base = incremental_doc(&[("core", 400.0, 50.0, 200.0)]);
        // Mild drift inside the 25% tolerance on both ratios passes.
        let ok = incremental_doc(&[("core", 400.0, 60.0, 240.0)]);
        assert!(compare_with_baseline(&ok, &base, 25.0).unwrap().is_empty());
        // Tail keystroke latency blowing up fires the p99 ratio gate even
        // though the median speedup looks unchanged.
        let slow_tail = incremental_doc(&[("core", 400.0, 500.0, 200.0)]);
        let regressions = compare_with_baseline(&slow_tail, &base, 25.0).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("apply_edit_us_p99")),
            "{regressions:?}"
        );
        // Materialization degrading toward full-reparse cost fires its gate.
        let slow_mat = incremental_doc(&[("core", 400.0, 50.0, 8000.0)]);
        let regressions = compare_with_baseline(&slow_mat, &base, 25.0).unwrap();
        assert!(
            regressions.iter().any(|r| r.contains("materialize_us_p50")),
            "{regressions:?}"
        );
        // A v7 baseline row without the materialize column skips that gate
        // (the p99 gate still runs off the shared columns).
        let v7_row = "{\"corpus_lex\":[],\"incremental\":[{\"dialect\":\"core\",\"bytes\":4194304,\"tokens\":9,\"edits\":64,\"apply_edit_us_p50\":10,\"apply_edit_us_p99\":50,\"full_reparse_us_p50\":9000,\"speedup_p50\":400.0,\"resync_bytes_p50\":30,\"resync_bytes_max\":90,\"reparsed_tokens_p50\":12,\"full_reparse_fallbacks\":0}]}";
        assert!(compare_with_baseline(&slow_mat, v7_row, 25.0).unwrap().is_empty());
        assert!(compare_with_baseline(&slow_tail, v7_row, 25.0)
            .unwrap()
            .iter()
            .any(|r| r.contains("apply_edit_us_p99")));
    }

    #[test]
    fn percentiles_use_nearest_rank_semantics() {
        // n=1: every percentile is the single sample.
        assert_eq!(percentile_f64(&[7.0], 0.5), 7.0);
        assert_eq!(percentile_f64(&[7.0], 0.99), 7.0);
        // n=2: ⌈0.5·2⌉−1 = 0 → the median is the LOWER sample (the old
        // `(p·n) as usize` truncation wrongly picked index 1), while p99
        // and p=1.0 take the upper.
        assert_eq!(percentile_f64(&[1.0, 9.0], 0.5), 1.0);
        assert_eq!(percentile_f64(&[1.0, 9.0], 0.99), 9.0);
        assert_eq!(percentile_f64(&[1.0, 9.0], 1.0), 9.0);
        // Odd length: the median is the exact middle element.
        assert_eq!(percentile_f64(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        // n=64 (the default --edits count): p99 is ⌈63.36⌉−1 = 63, the
        // maximum — not index 63.36 truncated to 63 by luck but the
        // nearest rank above 99% of the mass.
        let v: Vec<f64> = (0..64).map(|i| i as f64).collect();
        assert_eq!(percentile_f64(&v, 0.99), 63.0);
        assert_eq!(percentile_f64(&v, 0.5), 31.0);
        // Mirrors for the usize flavour, plus the empty-slice guards.
        assert_eq!(percentile_usize(&[4, 8], 0.5), 4);
        assert_eq!(percentile_usize(&[], 0.5), 0);
        assert_eq!(percentile_f64(&[], 0.99), 0.0);
        // p=0 clamps to the minimum rather than underflowing.
        assert_eq!(percentile_f64(&[1.0, 9.0], 0.0), 1.0);
        assert_eq!(percentile_index(5, 0.0), 0);
    }

    #[test]
    fn incremental_bench_reports_positive_speedup() {
        // Tiny corpus (64 KiB, 8 edits) so the unit test stays fast; the
        // real ablation runs 4 MiB via `sqlweave bench --edits`.
        let r = bench_incremental_bytes(Dialect::Core, EngineMode::Backtracking, 64 * 1024, 8);
        assert_eq!(r.dialect, "core");
        assert_eq!(r.engine, "backtracking");
        assert!(r.bytes >= 64 * 1024, "{r:?}");
        assert!(r.tokens > 0 && r.edits == 8, "{r:?}");
        assert!(r.apply_edit_us_p50.is_finite() && r.apply_edit_us_p50 > 0.0, "{r:?}");
        assert!(r.apply_edit_us_p99 >= r.apply_edit_us_p50, "{r:?}");
        assert!(r.materialize_us_p50.is_finite() && r.materialize_us_p50 > 0.0, "{r:?}");
        assert!(r.full_reparse_us_p50 > 0.0, "{r:?}");
        assert!(r.speedup_p50.is_finite() && r.speedup_p50 > 0.0, "{r:?}");
        assert_eq!(r.full_reparse_fallbacks, 0, "single-token edits stay local: {r:?}");
        assert!(r.resync_bytes_max >= r.resync_bytes_p50, "{r:?}");
    }

    #[test]
    fn incremental_bench_covers_the_predictive_engine() {
        // The keystroke target holds per dialect × engine pair, so the
        // LL(1)-table session gets its own row — same locality guarantees.
        let r = bench_incremental_bytes(Dialect::Core, EngineMode::Ll1Table, 64 * 1024, 4);
        assert_eq!(r.engine, "ll1_table");
        assert!(r.apply_edit_us_p50 > 0.0 && r.speedup_p50 > 0.0, "{r:?}");
        assert_eq!(r.full_reparse_fallbacks, 0, "single-token edits stay local: {r:?}");
    }

    #[test]
    fn checked_in_baseline_is_comparable() {
        // The repo's own artifact must stay a usable baseline: comparing
        // it against itself parses, overlaps, and reports no regression.
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_parser.json"
        ))
        .expect("checked-in BENCH_parser.json");
        validate(&doc).expect("checked-in artifact validates against v8");
        assert!(compare_with_baseline(&doc, &doc, 25.0).unwrap().is_empty());
    }

    #[test]
    fn seed_baseline_reports_unit_speedup() {
        let r = bench_pair(Dialect::Pico, EngineMode::Backtracking, 1, None);
        assert_eq!(r.apis[0].api, "seed_cst");
        assert!((r.apis[0].speedup_vs_seed - 1.0).abs() < 1e-9);
    }

    #[test]
    fn backtracking_counters_populated() {
        // Tiny has two conflicted decisions (COUNT / SEMI), both resolved
        // by dispatch tables, so the default configuration hits the
        // tables and the LL(1) engine reports no speculation at all.
        let bt = bench_pair(Dialect::Tiny, EngineMode::Backtracking, 1, None);
        assert!(bt.decision_table_hits > 0, "{bt:?}");
        assert!(bt.backtrack_rate.is_finite() && bt.backtrack_rate >= 0.0);
        let ll1 = bench_pair(Dialect::Tiny, EngineMode::Ll1Table, 1, None);
        assert_eq!(ll1.decision_table_hits, 0);
        assert_eq!(ll1.backtracks, 0);
        assert_eq!(ll1.backtrack_rate, 0.0);
    }

    #[test]
    fn lookahead_ablation_changes_backtrack_rate() {
        // k=1 disables dispatch (the seed engine): every conflicted
        // decision speculates — core's corpus exercises the predicate
        // and NOT-tail conflicts on every WHERE clause. The default k=3
        // must hit tables instead and backtrack strictly less.
        let k1 = bench_pair(Dialect::Core, EngineMode::Backtracking, 1, Some(1));
        assert_eq!(k1.decision_table_hits, 0);
        assert!(k1.backtracks > 0, "{k1:?}");
        let k3 = bench_pair(Dialect::Core, EngineMode::Backtracking, 1, Some(3));
        assert!(k3.decision_table_hits > 0, "{k3:?}");
        assert!(k3.backtracks < k1.backtracks, "{k3:?} vs {k1:?}");
        assert!(k3.backtrack_rate < k1.backtrack_rate);
    }
}
