//! Metric names, summary statistics, the run environment and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("goodput", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer a
/// workload never enters reads 0 there.
pub const PER_LAYER: [(&str, &str); 37] = [
    // build: exercised by `build` ops, and by `full` in lineage/edit set-up
    ("feature-model.complete_ms", "ms"),
    ("core.compose_ms", "ms"),
    ("lexgen.scanner_build_ms", "ms"),
    ("lexgen.subset_ms", "ms"),
    ("lexgen.minimize_ms", "ms"),
    ("grammar.analyze_ms", "ms"),
    ("grammar.lookahead_ms", "ms"),
    ("parser-rt.compile_ms", "ms"),
    ("lexgen.dfa_states_raw", "count"),
    ("lexgen.dfa_states_min", "count"),
    ("grammar.conflicts", "count"),
    ("parser-rt.decision_tables", "count"),
    // every set-up
    ("sql-features.catalog_ms", "ms"),
    // run: lineage ops, and the opened document in edit set-up
    ("lexgen.scan_ms", "ms"),
    ("lexgen.scan_mib_s", "MiB/s"),
    ("parser-rt.parse_tree_ms", "ms"),
    ("parser-rt.parse_only_ms", "ms"),
    ("lexgen.tokens", "count"),
    ("parser-rt.nodes", "count"),
    ("parser-rt.alt_attempts", "count"),
    ("parser-rt.backtracks", "count"),
    ("parser-rt.decision_hits", "count"),
    // lineage only
    ("parser-rt.to_cst_ms", "ms"),
    ("sema.resolve_ms", "ms"),
    ("sema.table_reads", "count"),
    ("sema.column_edges", "count"),
    // edit only
    ("parser-rt.apply_clean_us", "us"),
    ("parser-rt.apply_dirty_us", "us"),
    ("lexgen.relexed_tokens", "count"),
    ("lexgen.resync_bytes", "count"),
    ("parser-rt.window_tokens", "count"),
    ("parser-rt.full_reparse_fallbacks", "count"),
    ("parser-rt.diagnostics_max", "count"),
    ("parser-rt.materialize_ms", "ms"),
    ("parser-rt.open_document_ms", "ms"),
    // every workload
    ("residual_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The environment line every report carries.
pub fn environment(seed: u64, simd: &str) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env: seed={seed} available_parallelism={threads} simd={simd} rustc=\"{}\" profile={} opt-level={} debug-assertions={}",
        env!("PLBENCH_RUSTC"),
        env!("PLBENCH_PROFILE"),
        env!("PLBENCH_OPT_LEVEL"),
        cfg!(debug_assertions)
    )
}

/// The result line: correctness, op counts and every metric of one list.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// One aligned `name value unit` row of the human-readable report.
pub fn row(name: &str, value: f64, unit: &str) -> String {
    format!("  {name:<34} {value:>16.6} {unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 99.0), 5.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut v = BTreeMap::new();
        v.insert("goodput", 12.5);
        let line = result_json(true, 3, 0, &END_TO_END, &v);
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        assert!(line.contains("\"goodput\": {\"value\": 12.5"), "{line}");
    }
}
