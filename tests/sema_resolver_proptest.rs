//! Property tests for the semantic analysis layer: resolving
//! grammar-generated scripts never panics, and every span the resolver
//! emits — statement extents, table reads, column-lineage edges,
//! diagnostic anchors — falls inside the analyzed source. Runs every
//! dialect so the resolver sees every CST shape the presets produce.

use proptest::prelude::*;
use sqlweave::dialects::Dialect;
use sqlweave::sema::{analyze_script, Analysis, ResolverCaps};
use sqlweave_bench::{generated, parser};

/// Every span in the analysis is a well-formed range into `sql`.
fn assert_spans_in_bounds(dialect: Dialect, sql: &str, a: &Analysis) {
    let check = |what: &str, (start, end): (usize, usize)| {
        assert!(
            start <= end && end <= sql.len(),
            "{}: {what} span {start}..{end} escapes {sql:?}",
            dialect.name()
        );
    };
    for s in &a.statements {
        check("statement", s.span);
        for r in &s.reads {
            check("read", r.span);
        }
        for c in &s.columns {
            check("column edge", c.span);
        }
    }
    for d in &a.diagnostics {
        if let Some(span) = d.span {
            check("diagnostic", span);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Grammar-generated scripts — syntactically valid by construction,
    /// semantically arbitrary — resolve without panicking on any dialect,
    /// and every emitted span stays in bounds.
    #[test]
    fn resolver_survives_generated_scripts(seed in 0u64..1 << 48) {
        for &dialect in Dialect::ALL.iter() {
            let caps = ResolverCaps::for_dialect(dialect);
            let sentences = generated(dialect, seed, 4, 8);
            // Exercise both single statements and multi-statement scripts
            // (cross-statement state: CTE envs reset, DDL registration).
            let script = sentences.join("; ");
            let p = parser(dialect);
            let mut session = p.session();
            for sql in sentences.iter().map(String::as_str).chain([script.as_str()]) {
                // The property only covers accepted parses.
                let Ok(tree) = session.parse_tree(sql) else { continue };
                let a = analyze_script(sql, &tree.to_cst(), &caps, None);
                assert_spans_in_bounds(dialect, sql, &a);
            }
        }
    }
}

/// Deterministic companion: the per-dialect lineage fixtures (the ones the
/// golden inventory is built from) analyze cleanly through the facade, and
/// every edge's spans sit inside the fixture source.
#[test]
fn lineage_fixture_spans_stay_in_bounds() {
    for (dialect, sql) in sqlweave::sema::fixtures::all() {
        let caps = ResolverCaps::for_dialect(dialect);
        let p = parser(dialect);
        let cst = p.parse(sql).unwrap_or_else(|e| panic!("{}: {e}", dialect.name()));
        let a = analyze_script(sql, &cst, &caps, None);
        assert!(
            a.diagnostics.is_empty(),
            "{}: fixture produced {:?}",
            dialect.name(),
            a.diagnostics
        );
        assert!(!a.statements.is_empty(), "{}: no statements", dialect.name());
        assert_spans_in_bounds(dialect, sql, &a);
    }
}
