//! `lineage`: batch lineage as a data-platform user runs it. One op is one
//! fresh dbt-style script (DDL, `INSERT … SELECT` with joins and aggregates,
//! views over `WITH` CTEs, reports with windows and `CASE`) through one held
//! session on `full`: `ParseSession::parse_tree` → `SyntaxTree::to_cst` →
//! `sema::analyze_script`. Lex, parse, tree, CST and resolve do all of its
//! work.

use super::{add, build_layers, full_setup, phases, put_counts, Config, Counts, Outcome, Window};
use crate::gen::{self, Script};
use crate::host;
use crate::trace::{Tracer, OP, SETUP};
use sqlweave_dialects::Dialect;
use sqlweave_sema::{analyze_script, Analysis, ResolverCaps};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Set-up repetitions (each builds the `full` parser, about a second).
const SETUP_REPS: u64 = 3;
/// Scripts generated ahead of one slice.
const BATCH: u64 = 100;
/// Traced scripts whose counts are reported: the same scripts in every run.
const COUNTED: u64 = 64;

pub fn run(cfg: &Config, tr: &mut Tracer) -> Result<Outcome, String> {
    let traced = tr.on;
    let mut counts = Counts::new();
    let mut setup = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let before = host::probe();
        let s = full_setup(rep)?;
        let caps = ResolverCaps::for_dialect(Dialect::Full);
        let end = Instant::now();
        let after = host::probe();
        setup.push((
            end.duration_since(s.start).as_secs_f64(),
            host::scale(before, after),
        ));
        if traced {
            s.trace(tr, rep, end, (rep == 0).then_some(&mut counts));
        }
        kept = Some((s.parser, caps));
    }
    let (parser, caps) = kept.expect("at least one set-up");
    let mut out = Outcome {
        setup,
        phases: Vec::new(),
        attempted: 0,
        failed: 0,
        layers: BTreeMap::new(),
        lines: Vec::new(),
        simd: parser.scanner().simd_level().name(),
    };

    let mut session = parser.session();
    let mut scanned = Vec::new();
    let (mut next, mut traced_ops, mut scan_bytes, mut scan_secs) = (0u64, 0u64, 0usize, 0.0);
    for (on, budget) in phases(cfg) {
        tr.on = on;
        let mut w = Window::start();
        while w.busy < budget || (on && traced_ops < COUNTED) {
            let scripts: Vec<Script> = (next..next + BATCH)
                .map(|i| gen::script(cfg.seed, i))
                .collect();
            let mut results = Vec::with_capacity(scripts.len());
            let mut busy = 0.0;
            for (op, s) in (next..).zip(&scripts) {
                let before = session.counters();
                let t0 = Instant::now();
                let (result, t1, t2, shape) = match session.parse_tree(&s.text) {
                    Ok(tree) => {
                        let t1 = Instant::now();
                        let shape = (tree.tokens().len(), tree.node_count());
                        let cst = tree.to_cst();
                        let t2 = Instant::now();
                        let analysis = analyze_script(&s.text, &cst, &caps, None);
                        drop(cst);
                        (Ok(analysis), t1, t2, shape)
                    }
                    Err(e) => {
                        let t = Instant::now();
                        (Err(e.render(&s.text)), t, t, (0, 0))
                    }
                };
                let t3 = Instant::now();
                busy += t3.duration_since(t0).as_secs_f64();
                w.latency_sample(t3.duration_since(t0).as_secs_f64() * 1e3);
                if on {
                    let root = tr.span(OP, "script", op, None, (t0, t3));
                    let parse = tr.span(
                        "parser-rt.parse_only",
                        "ParseSession::parse_tree",
                        op,
                        Some(root),
                        (t0, t1),
                    );
                    tr.span(
                        "parser-rt.to_cst",
                        "SyntaxTree::to_cst",
                        op,
                        Some(root),
                        (t1, t2),
                    );
                    tr.span(
                        "sema.resolve",
                        "sema::analyze_script",
                        op,
                        Some(root),
                        (t2, t3),
                    );
                    let r0 = Instant::now();
                    let scan = parser.scanner().scan_into(&s.text, &mut scanned);
                    let r1 = Instant::now();
                    if scan.is_ok() {
                        tr.replica("lexgen.scan", "Scanner::scan_into", parse, (r0, r1));
                        scan_bytes += s.text.len();
                        scan_secs += r1.duration_since(r0).as_secs_f64();
                    }
                    if traced_ops < COUNTED {
                        let after = session.counters();
                        add(&mut counts, "lexgen.tokens", shape.0 as u64);
                        add(&mut counts, "parser-rt.nodes", shape.1 as u64);
                        add(
                            &mut counts,
                            "parser-rt.alt_attempts",
                            after.alt_attempts - before.alt_attempts,
                        );
                        add(
                            &mut counts,
                            "parser-rt.backtracks",
                            after.backtracks - before.backtracks,
                        );
                        add(
                            &mut counts,
                            "parser-rt.decision_hits",
                            after.decision_hits - before.decision_hits,
                        );
                        if let Ok(a) = &result {
                            let reads = a.statements.iter().map(|st| st.reads.len()).sum::<usize>();
                            let edges = a
                                .statements
                                .iter()
                                .map(|st| st.columns.len())
                                .sum::<usize>();
                            add(&mut counts, "sema.table_reads", reads as u64);
                            add(&mut counts, "sema.column_edges", edges as u64);
                        }
                    }
                    traced_ops += 1;
                }
                results.push(result);
            }
            let mut ok = 0;
            for (op, (s, r)) in (next..).zip(scripts.iter().zip(&results)) {
                match check(s, r) {
                    Ok(()) => ok += 1,
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("lineage op {op} failed: {e}");
                    }
                }
            }
            out.attempted += scripts.len() as u64;
            w.slice(0, ok, busy);
            next += BATCH;
        }
        out.phases.push(w);
    }
    let bytes: usize = (0..BATCH)
        .map(|i| gen::script(cfg.seed, i).text.len())
        .sum();
    out.lines.push(format!(
        "scripts: {} statements, {:.0} bytes on average (first {BATCH})",
        gen::SCRIPT_STATEMENTS,
        bytes as f64 / BATCH as f64
    ));

    if traced {
        let ops = tr.table(&[OP]);
        let set = tr.table(&[SETUP]);
        let per_op = |name: &str| ops.self_seconds(name) * 1e3 / traced_ops as f64;
        let l = &mut out.layers;
        build_layers(l, &set, SETUP_REPS as f64);
        l.insert(
            "sql-features.catalog_ms",
            set.per_span("sql-features.catalog") * 1e3,
        );
        l.insert("lexgen.scan_ms", per_op("lexgen.scan"));
        l.insert("parser-rt.parse_only_ms", per_op("parser-rt.parse_only"));
        l.insert(
            "parser-rt.parse_tree_ms",
            per_op("parser-rt.parse_only") + per_op("lexgen.scan"),
        );
        l.insert("parser-rt.to_cst_ms", per_op("parser-rt.to_cst"));
        l.insert("sema.resolve_ms", per_op("sema.resolve"));
        l.insert("residual_ms", ops.residual * 1e3 / traced_ops as f64);
        l.insert(
            "lexgen.scan_mib_s",
            scan_bytes as f64 / (1024.0 * 1024.0) / scan_secs,
        );
        put_counts(l, &counts);
        out.lines
            .extend(set.render("set-up (traced)", "repetition", SETUP_REPS));
        out.lines
            .extend(ops.render("ops (traced)", "script", traced_ops));
        out.lines.push(format!(
            "counts over the first {COUNTED} traced scripts, and the `full` build of the first set-up:"
        ));
        out.lines
            .extend(counts.iter().map(|(k, v)| format!("  {k:<34} {v}")));
        out.finish_trace(traced_ops);
    }
    Ok(out)
}

/// Every statement's kind, target and read set must match the generator's,
/// with no diagnostics.
fn check(s: &Script, result: &Result<Analysis, String>) -> Result<(), String> {
    let a = result.as_ref().map_err(|e| format!("rejected:\n{e}"))?;
    if let Some(d) = a.diagnostics.first() {
        return Err(format!("{} diagnostics, first: {d}", a.diagnostics.len()));
    }
    if a.statements.len() != s.statements.len() {
        return Err(format!(
            "{} statements, generated {}",
            a.statements.len(),
            s.statements.len()
        ));
    }
    for (got, want) in a.statements.iter().zip(&s.statements) {
        let reads: BTreeSet<&str> = got.reads.iter().map(|r| r.table.as_str()).collect();
        let expected: BTreeSet<&str> = want.reads.iter().map(String::as_str).collect();
        if got.kind != want.kind || got.target != want.target || reads != expected {
            return Err(format!(
                "statement {}: resolved {} {:?} reading {reads:?}, generated {} {:?} reading {expected:?}",
                got.index, got.kind, got.target, want.kind, want.target
            ));
        }
    }
    Ok(())
}
