//! Experiment B3 (static side) — the "scaled-down SQL" claim: tailored
//! dialects yield measurably smaller parsers. This regenerates the static
//! size table (grammar productions, alternatives, LL(1) table cells, token
//! rules, lexer DFA states) across the dialect ladder.

use sqlweave_bench::parser;
use sqlweave::dialects::Dialect;

#[test]
fn size_table() {
    println!(
        "{:<10} {:>9} {:>12} {:>10} {:>11} {:>11} {:>10} {:>10}",
        "dialect", "features", "productions", "alts", "flat prods", "table cells", "tokens", "dfa states"
    );
    let mut rows = Vec::new();
    for d in Dialect::ALL {
        let s = parser(d).stats();
        let features = d.configuration().len();
        println!(
            "{:<10} {:>9} {:>12} {:>10} {:>11} {:>11} {:>10} {:>10}",
            d.name(),
            features,
            s.productions,
            s.alternatives,
            s.flat_productions,
            s.table_cells,
            s.token_rules,
            s.dfa_states
        );
        rows.push((d, features, s));
    }

    // The headline shape: every size metric grows strictly from pico to
    // full, and full is several times larger than pico.
    let pico = &rows[0].2;
    let full = &rows[5].2;
    assert!(full.productions > 3 * pico.productions);
    assert!(full.table_cells > 3 * pico.table_cells);
    assert!(full.token_rules > 3 * pico.token_rules);
    assert!(full.dfa_states > 2 * pico.dfa_states);

    // Monotone along the designed ladder pico ⊂ core ⊂ warehouse ⊂ full.
    let ladder = [Dialect::Pico, Dialect::Core, Dialect::Warehouse, Dialect::Full];
    let stats: Vec<_> = ladder.iter().map(|d| parser(*d).stats()).collect();
    for w in stats.windows(2) {
        assert!(w[0].productions <= w[1].productions);
        assert!(w[0].token_rules <= w[1].token_rules);
        assert!(w[0].table_cells <= w[1].table_cells);
    }
}

#[test]
fn conflicts_grow_with_dialect_size() {
    let mut prev = 0usize;
    for d in [Dialect::Pico, Dialect::Core, Dialect::Full] {
        let stats = parser(d).stats();
        println!(
            "{:<10} productions={} conflicts={} table_cells={}",
            d.name(),
            stats.productions,
            stats.conflicts,
            stats.table_cells
        );
        assert!(
            stats.conflicts >= prev,
            "conflicts should not shrink as features are added"
        );
        prev = stats.conflicts;
    }
}

#[test]
fn composition_cost_is_feature_bounded() {
    // Composition touches each selected feature once; the trace length is
    // bounded by total alternatives contributed.
    for d in Dialect::ALL {
        let composed = sqlweave_bench::composed(d);
        assert!(composed.trace.entries.len() >= composed.grammar.alternative_count());
        assert_eq!(
            composed.sequence.len(),
            d.configuration().len(),
            "{}: sequence covers every selected feature",
            d.name()
        );
    }
}
