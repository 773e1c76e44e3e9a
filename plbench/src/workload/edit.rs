//! `edit`: an editor holding one resident ~1.5 MiB script built from the
//! `lineage` statements. One op is one `ParseSession::apply_edit` keystroke.
//! A burst types a generated statement one character at a time at a seeded
//! statement boundary (the text has syntax errors until its `;`), reads the
//! tree once at the pause with `LazyTree::get` as an outline request would,
//! then backspaces the statement away. `edit` writes to maintained state
//! where `lineage` reads fresh input, so a change that trades incremental
//! locality for batch speed, or the reverse, shows.

use super::{add, build_layers, full_setup, phases, put_counts, Config, Counts, Outcome, Window};
use crate::gen::{self, Burst};
use crate::host;
use crate::trace::{Tracer, OP, SETUP};
use sqlweave_parser_rt::{EditOutcome, ParseError, SyntaxNode, SyntaxTree};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Resident document size.
const DOC_BYTES: usize = 3 << 19;
/// Set-up repetitions (each builds the `full` parser and opens the document).
const SETUP_REPS: u64 = 3;
/// Bursts per goodput slice.
const SLICE_BURSTS: u64 = 16;
/// Traced bursts whose counts are reported: the same bursts in every run.
const COUNTED_BURSTS: u64 = 8;
/// Every this many bursts, the tree and diagnostics are compared with a
/// from-scratch `parse_resilient` of the same text.
const CHECK_EVERY: u64 = 64;

const MATERIALIZE: &str = "parser-rt.materialize";

/// A point where the incremental result is compared with a from-scratch
/// parse once the measured phases are over.
struct Checkpoint {
    burst: Burst,
    /// Characters of the burst typed at this point.
    typed: usize,
    errors: Vec<ParseError>,
    /// Tree digest, at the pause only.
    tree: Option<(u64, usize)>,
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Result<Outcome, String> {
    let traced = tr.on;
    let doc = gen::document(cfg.seed, DOC_BYTES);
    let mut counts = Counts::new();
    let mut setup = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let before = host::probe();
        let s = full_setup(rep)?;
        let mut session = s.parser.session();
        let o0 = Instant::now();
        let opened = session.open_document(&doc.text);
        let diagnostics = opened.errors.len();
        drop(opened);
        let end = Instant::now();
        drop(session);
        let after = host::probe();
        if diagnostics != 0 {
            return Err(format!(
                "the generated document opens with {diagnostics} diagnostics"
            ));
        }
        setup.push((
            end.duration_since(s.start).as_secs_f64(),
            host::scale(before, after),
        ));
        if traced {
            let c = (rep == 0).then_some(&mut counts);
            let root = s.trace(tr, rep, end, c);
            let open = tr.span(
                "parser-rt.open_document",
                "ParseSession::open_document",
                rep,
                Some(root),
                (o0, end),
            );
            // Replicas of the parse inside `open_document`: the strict parse
            // of the whole document, and the scan inside that.
            let mut fresh = s.parser.session();
            let p0 = Instant::now();
            let tree = fresh
                .parse_tree(&doc.text)
                .map_err(|e| e.render(&doc.text))?;
            let p1 = Instant::now();
            let shape = (tree.tokens().len(), tree.node_count());
            let parse = tr.replica(
                "parser-rt.parse_only",
                "ParseSession::parse_tree",
                open,
                (p0, p1),
            );
            let mut toks = Vec::new();
            let q0 = Instant::now();
            let scan = s.parser.scanner().scan_into(&doc.text, &mut toks);
            let q1 = Instant::now();
            scan.map_err(|e| e.to_string())?;
            tr.replica("lexgen.scan", "Scanner::scan_into", parse, (q0, q1));
            if rep == 0 {
                let rc = fresh.counters();
                add(&mut counts, "lexgen.tokens", shape.0 as u64);
                add(&mut counts, "parser-rt.nodes", shape.1 as u64);
                add(&mut counts, "parser-rt.alt_attempts", rc.alt_attempts);
                add(&mut counts, "parser-rt.backtracks", rc.backtracks);
                add(&mut counts, "parser-rt.decision_hits", rc.decision_hits);
            }
        }
        kept = Some(s.parser);
    }
    let parser = kept.expect("at least one set-up");
    let mut out = Outcome {
        setup,
        phases: Vec::new(),
        attempted: 0,
        failed: 0,
        layers: BTreeMap::new(),
        lines: Vec::new(),
        simd: parser.scanner().simd_level().name(),
    };

    // The set-up opened the document on sessions it timed and dropped; the
    // measured session opens the same text once more, untimed.
    let mut session = parser.session();
    drop(session.open_document(&doc.text));
    let mut checkpoints = Vec::new();
    let (mut b, mut op, mut traced_bursts, mut keystrokes) = (0u64, 0u64, 0u64, 0u64);
    let mut max_diagnostics = 0u64;
    for (on, budget) in phases(cfg) {
        tr.on = on;
        let mut w = Window::start();
        let (mut ok, mut busy, mut in_slice) = (0u64, 0.0, 0u64);
        while w.busy + busy < budget || (on && traced_bursts < COUNTED_BURSTS) {
            let burst = gen::burst(cfg.seed, b, &doc);
            let check = b % CHECK_EVERY == 0;
            let counted = on && traced_bursts < COUNTED_BURSTS;
            let n = burst.text.len();
            for k in 0..2 * n {
                let (range, text) = if k < n {
                    (burst.at + k..burst.at + k, &burst.text[k..k + 1])
                } else {
                    let j = 2 * n - 1 - k;
                    (burst.at + j..burst.at + j + 1, "")
                };
                let t0 = Instant::now();
                let outcome = session.apply_edit(range, text);
                let t1 = Instant::now();
                let EditOutcome {
                    errors,
                    stats,
                    mut tree,
                } = outcome;
                let diagnostics = errors.len();
                let kept_errors =
                    (check && (k == n / 2 || k == n - 1)).then(|| Arc::clone(&errors));
                // Drop the diagnostics before the next keystroke: holding
                // them would force that edit to copy them.
                drop(errors);
                let t2 = Instant::now();
                busy += t2.duration_since(t0).as_secs_f64();
                w.latency_sample(t1.duration_since(t0).as_secs_f64() * 1e3);

                let mut pause = None;
                let mut digest = None;
                if k == n - 1 {
                    let p0 = Instant::now();
                    let t = tree.get();
                    let p1 = Instant::now();
                    busy += p1.duration_since(p0).as_secs_f64();
                    if check {
                        digest = Some(tree_digest(&t));
                    }
                    pause = Some((p0, p1));
                }
                if let Some(e) = kept_errors {
                    checkpoints.push(Checkpoint {
                        burst: burst.clone(),
                        typed: k + 1,
                        errors: (*e).clone(),
                        tree: digest,
                    });
                }
                // The statement is complete after its `;` and gone after the
                // last backspace: both leave a clean document.
                let good = !((k == n - 1 || k == 2 * n - 1) && diagnostics != 0);
                if good {
                    ok += 1;
                } else {
                    out.failed += 1;
                    eprintln!("edit keystroke {op}: {diagnostics} diagnostics where none are due");
                }
                if on {
                    let root = tr.span(OP, "keystroke", op, None, (t0, t2));
                    let name = if diagnostics == 0 {
                        "parser-rt.apply_clean"
                    } else {
                        "parser-rt.apply_dirty"
                    };
                    tr.span(name, "ParseSession::apply_edit", op, Some(root), (t0, t1));
                    if let Some(p) = pause {
                        tr.span(MATERIALIZE, "LazyTree::get", op, None, p);
                    }
                    keystrokes += 1;
                }
                if counted {
                    add(
                        &mut counts,
                        "lexgen.relexed_tokens",
                        stats.relexed_tokens as u64,
                    );
                    add(
                        &mut counts,
                        "lexgen.resync_bytes",
                        stats.resync_bytes as u64,
                    );
                    add(
                        &mut counts,
                        "parser-rt.window_tokens",
                        stats.reparsed_tokens as u64,
                    );
                    add(
                        &mut counts,
                        "parser-rt.full_reparse_fallbacks",
                        stats.full_reparse as u64,
                    );
                    max_diagnostics = max_diagnostics.max(diagnostics as u64);
                }
                out.attempted += 1;
                op += 1;
            }
            if session.document() != doc.text {
                out.failed += 1;
                eprintln!("edit burst {b}: the document did not return to its original text");
            }
            if on {
                traced_bursts += 1;
            }
            in_slice += 1;
            if in_slice == SLICE_BURSTS {
                w.slice(0, ok, busy);
                (ok, busy, in_slice) = (0, 0.0, 0);
            }
            b += 1;
        }
        if in_slice > 0 {
            w.slice(0, ok, busy);
        }
        out.phases.push(w);
    }
    counts.insert("parser-rt.diagnostics_max", max_diagnostics);

    // From-scratch comparisons, after the measured phases and on a session
    // of their own.
    drop(session);
    let mut fresh = parser.session();
    for c in &checkpoints {
        let mut text = doc.text.clone();
        text.insert_str(c.burst.at, &c.burst.text[..c.typed]);
        let o = fresh.parse_resilient(&text);
        let tree_ok = c.tree.is_none_or(|d| d == tree_digest(&o.tree));
        if o.errors != c.errors || !tree_ok {
            out.failed += 1;
            eprintln!(
                "edit: incremental result differs from parse_resilient at byte {} after {} typed characters",
                c.burst.at, c.typed
            );
        }
    }
    out.lines.push(format!(
        "document: {} bytes, {} statements; {b} bursts, {} from-scratch comparisons",
        doc.text.len(),
        doc.boundaries.len(),
        checkpoints.len()
    ));

    if traced {
        let ops = tr.table(&[OP, MATERIALIZE]);
        let set = tr.table(&[SETUP]);
        let per_rep = |name: &str| set.self_seconds(name) * 1e3 / SETUP_REPS as f64;
        let l = &mut out.layers;
        build_layers(l, &set, SETUP_REPS as f64);
        l.insert(
            "sql-features.catalog_ms",
            set.per_span("sql-features.catalog") * 1e3,
        );
        l.insert(
            "parser-rt.open_document_ms",
            per_rep("parser-rt.open_document"),
        );
        l.insert("lexgen.scan_ms", per_rep("lexgen.scan"));
        l.insert("parser-rt.parse_only_ms", per_rep("parser-rt.parse_only"));
        l.insert(
            "parser-rt.parse_tree_ms",
            per_rep("parser-rt.parse_only") + per_rep("lexgen.scan"),
        );
        l.insert(
            "lexgen.scan_mib_s",
            doc.text.len() as f64 / (1024.0 * 1024.0) / (per_rep("lexgen.scan") / 1e3),
        );
        l.insert(
            "parser-rt.apply_clean_us",
            ops.per_span("parser-rt.apply_clean") * 1e6,
        );
        l.insert(
            "parser-rt.apply_dirty_us",
            ops.per_span("parser-rt.apply_dirty") * 1e6,
        );
        l.insert("parser-rt.materialize_ms", ops.per_span(MATERIALIZE) * 1e3);
        l.insert("residual_ms", ops.residual * 1e3 / keystrokes as f64);
        put_counts(l, &counts);
        out.lines
            .extend(set.render("set-up (traced)", "repetition", SETUP_REPS));
        out.lines.extend(ops.render(
            "keystrokes and tree reads (traced)",
            "keystroke",
            keystrokes,
        ));
        out.lines.push(format!(
            "counts over the first {COUNTED_BURSTS} traced bursts, and the document parse and `full` build of the first set-up:"
        ));
        out.lines
            .extend(counts.iter().map(|(k, v)| format!("  {k:<34} {v}")));
        out.finish_trace(keystrokes);
    }
    Ok(out)
}

/// A digest of a tree's shape: every node's name and label and every
/// token's kind and span, in order, plus the node count.
fn tree_digest(tree: &SyntaxTree<'_>) -> (u64, usize) {
    fn mix(h: &mut u64, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            *h = (*h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn walk(n: &SyntaxNode<'_, '_>, h: &mut u64) {
        mix(h, n.name().as_bytes());
        mix(h, n.label().unwrap_or("").as_bytes());
        for c in n.children() {
            if let Some(child) = c.as_node() {
                walk(&child, h);
            } else if let Some(t) = c.as_token() {
                let (lo, hi) = t.span();
                mix(h, t.kind_name().as_bytes());
                mix(h, &(lo as u64).to_le_bytes());
                mix(h, &(hi as u64).to_le_bytes());
            }
        }
        mix(h, b")");
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    walk(&tree.root(), &mut h);
    (h, tree.node_count())
}
