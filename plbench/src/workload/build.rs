//! `build`: the paper's own operation, a feature configuration turned into a
//! parser. One op is `Dialect::configuration` → `Pipeline::compose` →
//! `Composed::into_parser`; a cycle visits the six presets, `pico` (24
//! features) to `full` (215), in seeded order. Configuration size is the
//! product line's own traffic dimension, and every build layer works here.

use super::{
    build_layers, build_parser, phases, put_counts, trace_build, Config, Counts, Loaded, Outcome,
    Window,
};
use crate::gen;
use crate::host;
use crate::report::percentile;
use crate::trace::{Tracer, OP, SETUP};
use sqlweave_dialects::Dialect;
use sqlweave_sql_features::catalog;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Catalog loads in set-up. Each takes a few ms, so the median of many is
/// what makes `setup_s` steady here.
const SETUP_REPS: u64 = 15;

/// Per preset, in `Dialect::ALL` order: a statement its parser must accept,
/// and a witness outside its language it must reject. Each witness but the
/// last belongs to a larger preset; `LIMIT` is in no preset.
const PROBES: [(&str, &str); 6] = [
    (
        "SELECT a, b FROM t WHERE a = 1 AND b < 2",
        "SELECT a FROM t ORDER BY a",
    ),
    (
        "SELECT nodeid, AVG(temp) FROM sensors GROUP BY nodeid EPOCH DURATION 1024",
        "SELECT temp AS t FROM sensors",
    ),
    (
        "CREATE TABLE purse (id INT NOT NULL, balance DECIMAL(8, 2))",
        "COMMIT",
    ),
    (
        "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC",
        "SELECT a FROM t UNION SELECT b FROM u",
    ),
    (
        "WITH r AS (SELECT a FROM t) SELECT r.a, RANK() OVER (ORDER BY r.a) AS k FROM r",
        "MERGE INTO t USING u ON t.a = u.a WHEN MATCHED THEN UPDATE SET b = 1",
    ),
    (
        "MERGE INTO t USING u ON t.a = u.a WHEN MATCHED THEN UPDATE SET b = 1",
        "SELECT a FROM t LIMIT 10",
    ),
];

pub fn run(cfg: &Config, tr: &mut Tracer) -> Result<Outcome, String> {
    let traced = tr.on;
    let mut setup = Vec::new();
    let mut probe = host::probe();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let loaded = black_box(Loaded::load(rep));
        let t1 = Instant::now();
        drop(loaded);
        let after = host::probe();
        setup.push((
            t1.duration_since(t0).as_secs_f64(),
            host::scale(probe, after),
        ));
        probe = after;
        if traced {
            let root = tr.span(SETUP, "set-up", rep, None, (t0, t1));
            tr.span(
                "sql-features.catalog",
                "Catalog::build",
                rep,
                Some(root),
                (t0, t1),
            );
        }
    }

    let mut out = Outcome {
        setup,
        phases: Vec::new(),
        attempted: 0,
        failed: 0,
        layers: BTreeMap::new(),
        lines: Vec::new(),
        simd: "unknown",
    };
    let mut counts = Counts::new();
    let (mut cycle, mut op, mut traced_ops) = (0u64, 0u64, 0u64);
    for (on, budget) in phases(cfg) {
        tr.on = on;
        let mut w = Window::start();
        // Whole cycles only, so every preset weighs the same in every run;
        // stop before a cycle that the mean cycle so far says would overrun.
        let mut cycles = 0u64;
        while cycles == 0 || w.busy * (1.0 + 1.0 / cycles as f64) <= budget {
            // Counts cover the first traced cycle: the same six builds in
            // every traced run.
            let counted = on && traced_ops == 0;
            for i in gen::preset_cycle(cfg.seed, cycle) {
                let dialect = Dialect::ALL[i];
                out.attempted += 1;
                let (parser, t) = match build_parser(catalog(), dialect) {
                    Ok(built) => built,
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("build op {op} failed: {e}");
                        op += 1;
                        continue;
                    }
                };
                let secs = t[3].duration_since(t[0]).as_secs_f64();
                w.latency_sample(secs * 1e3);
                let (accept, witness) = PROBES[i];
                let ok = parser.parse(accept).is_ok() && parser.parse(witness).is_err();
                if !ok {
                    out.failed += 1;
                    eprintln!(
                        "build op {op}: {} accepts the wrong language",
                        dialect.name()
                    );
                }
                w.slice(i, ok as u64, secs);
                out.simd = parser.scanner().simd_level().name();
                if on {
                    let root = tr.span(OP, dialect.name(), op, None, (t[0], t[3]));
                    let c = if counted { Some(&mut counts) } else { None };
                    trace_build(tr, root, catalog(), dialect, t, &parser, c);
                    traced_ops += 1;
                }
                op += 1;
            }
            cycle += 1;
            cycles += 1;
        }
        out.phases.push(w);
    }

    let last = out.phases.last().expect("at least one phase");
    out.lines.push(format!(
        "{:<10} {:>8} {:>5} {:>12} {:>12}",
        "preset", "features", "ops", "p50 ms", "p99 ms"
    ));
    for (i, d) in Dialect::ALL.iter().enumerate() {
        let ms = last.group(i);
        if !ms.is_empty() {
            out.lines.push(format!(
                "{:<10} {:>8} {:>5} {:>12.3} {:>12.3}",
                d.name(),
                d.configuration().len(),
                ms.len(),
                percentile(&ms, 50.0),
                percentile(&ms, 99.0)
            ));
        }
    }

    if traced {
        let ops = tr.table(&[OP]);
        let set = tr.table(&[SETUP]);
        build_layers(&mut out.layers, &ops, traced_ops as f64);
        out.layers
            .insert("residual_ms", ops.residual * 1e3 / traced_ops as f64);
        out.layers.insert(
            "sql-features.catalog_ms",
            set.per_span("sql-features.catalog") * 1e3,
        );
        put_counts(&mut out.layers, &counts);
        out.lines
            .extend(set.render("set-up (traced)", "repetition", SETUP_REPS));
        out.lines
            .extend(ops.render("ops (traced)", "op", traced_ops));
        out.lines
            .push("counts over the first traced cycle (six builds):".to_string());
        out.lines
            .extend(counts.iter().map(|(k, v)| format!("  {k:<34} {v}")));
        out.finish_trace(traced_ops);
    }
    Ok(out)
}
