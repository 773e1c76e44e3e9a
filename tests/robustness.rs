//! Robustness: nothing in the pipeline panics on hostile input — parsers
//! return errors, the DSL parser rejects garbage gracefully, spans stay
//! consistent, and composed grammars are hygienic (no unproductive rules).

use proptest::prelude::*;
use sqlweave_bench::{corpus, parser};
use sqlweave::dialects::Dialect;
use sqlweave::grammar::dsl::{parse_grammar, parse_tokens};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The full-dialect parser never panics; it accepts or errors.
    #[test]
    fn parser_never_panics_on_random_input(input in "[ -~\\n]{0,80}") {
        let p = parser(Dialect::Full);
        let _ = p.parse(&input);
    }

    /// Random keyword soup in particular (lexes fine, must fail cleanly).
    #[test]
    fn parser_never_panics_on_keyword_soup(
        words in prop::collection::vec(
            prop::sample::select(vec![
                "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "JOIN",
                "ON", "AND", "OR", "NOT", "NULL", "CASE", "WHEN", "END",
                "INSERT", "UPDATE", "DELETE", "CREATE", "TABLE", "(", ")",
                ",", "*", "=", "a", "t", "1", "'s'",
            ]),
            0..25,
        )
    ) {
        let input = words.join(" ");
        let p = parser(Dialect::Full);
        let _ = p.parse(&input);
        let _ = sqlweave::baseline::parse_script(&input);
    }

    /// The grammar DSL parser never panics on arbitrary text.
    #[test]
    fn dsl_parsers_never_panic(input in "[ -~\\n]{0,120}") {
        let _ = parse_grammar(&input);
        let _ = parse_tokens(&input);
    }

    /// The regex parser never panics on arbitrary patterns.
    #[test]
    fn regex_parser_never_panics(input in "[ -~]{0,40}") {
        let _ = sqlweave::lexgen::regex::parse(&input);
    }
}

#[test]
fn token_spans_reconstruct_source_slices() {
    let p = parser(Dialect::Full);
    for stmt in corpus(Dialect::Full) {
        let cst = p.parse(stmt).unwrap();
        for tok in cst.tokens() {
            let sqlweave::parser_rt::CstNode::Token { text, start, end, .. } = tok else {
                unreachable!()
            };
            assert_eq!(
                &stmt[*start..*end],
                text,
                "span [{start}..{end}] does not slice to the token text in {stmt:?}"
            );
        }
        // whole-tree span covers first..last token
        let (lo, hi) = cst.span().unwrap();
        assert!(lo <= hi && hi <= stmt.len());
    }
}

#[test]
fn composed_dialect_grammars_are_hygienic() {
    for d in Dialect::ALL {
        let p = parser(d);
        let analysis = p.analysis();
        assert!(
            analysis.unproductive.is_empty(),
            "{}: unproductive nonterminals {:?}",
            d.name(),
            analysis.unproductive
        );
        assert!(
            analysis.left_recursion.is_empty(),
            "{}: left recursion {:?}",
            d.name(),
            analysis.left_recursion
        );
        // Everything the composition pulled in should be reachable from the
        // start symbol — unreachable rules would mean a feature contributed
        // syntax that can never fire.
        assert!(
            analysis.unreachable.is_empty(),
            "{}: unreachable nonterminals {:?}",
            d.name(),
            analysis.unreachable
        );
    }
}

#[test]
fn deeply_nested_input_parses_or_fails_gracefully() {
    // 60 levels of parenthesized expressions — exercises recursion depth.
    let p = parser(Dialect::Warehouse);
    let depth = 60;
    let stmt = format!(
        "SELECT {}a{} FROM t",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    p.parse(&stmt).unwrap();
    // unbalanced version must error, not panic or hang
    let bad = format!("SELECT {}a FROM t", "(".repeat(depth));
    assert!(p.parse(&bad).is_err());
}

#[test]
fn pathological_backtracking_terminates_quickly() {
    // Chains of commas/identifiers that force alternative retries.
    let p = parser(Dialect::Full);
    let stmt = format!("SELECT {} FROM t", vec!["a"; 200].join(", "));
    let t0 = std::time::Instant::now();
    p.parse(&stmt).unwrap();
    assert!(t0.elapsed().as_secs() < 5, "took {:?}", t0.elapsed());

    let bad = format!("SELECT {} FROM", vec!["a"; 200].join(", "));
    let t0 = std::time::Instant::now();
    assert!(p.parse(&bad).is_err());
    assert!(t0.elapsed().as_secs() < 5, "took {:?}", t0.elapsed());
}
