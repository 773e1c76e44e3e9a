//! Panic-mode error recovery across the dialect matrix: multi-error
//! scripts yield one diagnostic per seeded error plus a tree covering
//! every scanned token, the first diagnostic stays byte-identical to the
//! strict single-error path, and the resilient driver never panics,
//! always terminates, and agrees with strict parsing on clean input.

use proptest::prelude::*;
use sqlweave::dialects::Dialect;
use sqlweave::parser_rt::{SyntaxElement, SyntaxNode, SyntaxTree};
use sqlweave_bench::{corpus, faulty_corpus, parser};

/// How many times each scanned token index appears in the tree. A
/// recovered tree must cover every token exactly once — skipped tokens
/// land in `error` nodes, never on the floor.
fn token_coverage(tree: &SyntaxTree<'_>) -> Vec<usize> {
    fn walk(node: SyntaxNode<'_, '_>, seen: &mut Vec<usize>) {
        for el in node.children() {
            match el {
                SyntaxElement::Token(t) => seen[t.index()] += 1,
                SyntaxElement::Node(n) => walk(n, seen),
            }
        }
    }
    let mut seen = vec![0usize; tree.tokens().len()];
    walk(tree.root(), &mut seen);
    seen
}

/// Duplicate the statement's leading keyword — no dialect accepts
/// `SELECT SELECT …`, and the error lands inside this statement.
fn corrupt(stmt: &str) -> String {
    match stmt.split_once(' ') {
        Some((head, rest)) => format!("{head} {head} {rest}"),
        None => format!("{stmt} {stmt}"),
    }
}

/// A five-statement script with syntax errors seeded into statements
/// 1, 3, and 4 (0-based), plus the byte range of each corrupted
/// statement. Statements come from the dialect's own corpus, restricted
/// to those the parser accepts strictly (a rejected one would add genuine
/// extra diagnostics), and cycled if fewer than five remain.
fn seeded_script(dialect: Dialect) -> (String, Vec<(usize, usize)>) {
    let p = parser(dialect);
    let stmts: Vec<&str> = corpus(dialect)
        .into_iter()
        .filter(|s| p.parse(s).is_ok())
        .collect();
    assert!(
        !stmts.is_empty(),
        "{}: no corpus statement parses",
        dialect.name()
    );
    let bad = [1usize, 3, 4];
    let mut script = String::new();
    let mut spans = Vec::new();
    for i in 0..5 {
        if i > 0 {
            script.push_str("; ");
        }
        let stmt = stmts[i % stmts.len()];
        if bad.contains(&i) {
            let start = script.len();
            script.push_str(&corrupt(stmt));
            spans.push((start, script.len()));
        } else {
            script.push_str(stmt);
        }
    }
    (script, spans)
}

#[test]
fn three_seeded_errors_yield_three_diagnostics_everywhere() {
    for d in Dialect::ALL {
        let (script, spans) = seeded_script(d);
        let p = parser(d);
        let mut s = p.session();
        let outcome = s.parse_resilient(&script);
        assert_eq!(
            outcome.errors.len(),
            3,
            "{} {script:?} -> {:?}",
            d.name(),
            outcome.errors
        );
        // One diagnostic inside each corrupted statement, in order.
        for (e, (lo, hi)) in outcome.errors.iter().zip(&spans) {
            assert!(
                (*lo..=*hi).contains(&e.at),
                "{} error at {} outside seeded range {lo}..{hi}",
                d.name(),
                e.at
            );
        }
        // Full coverage: every scanned token appears exactly once.
        assert!(
            token_coverage(&outcome.tree).iter().all(|&c| c == 1),
            "{} tree dropped or duplicated tokens",
            d.name()
        );
    }
}

#[test]
fn first_diagnostic_is_byte_identical_to_strict_error() {
    for d in Dialect::ALL {
        let (script, _) = seeded_script(d);
        let p = parser(d);
        let strict = p.parse(&script).unwrap_err();
        let mut s = p.session();
        let outcome = s.parse_resilient(&script);
        assert_eq!(
            outcome.errors[0].to_string(),
            strict.to_string(),
            "{}",
            d.name()
        );
    }
}

#[test]
fn resilient_agrees_with_strict_on_clean_corpus() {
    for d in Dialect::ALL {
        let p = parser(d);
        let mut s = p.session();
        // Recovery equivalence only holds on inputs the parser
        // accepts strictly.
        for stmt in corpus(d) {
            let Ok(strict) = p.parse(stmt) else { continue };
            let outcome = s.parse_resilient(stmt);
            assert!(outcome.errors.is_empty(), "{} {stmt:?}", d.name());
            assert_eq!(outcome.tree.to_cst(), strict, "{} {stmt:?}", d.name());
        }
    }
}

#[test]
fn faulty_corpus_recovers_with_stable_diagnostics() {
    // Deterministic corruption, so the diagnostic count per script is
    // stable across runs. Every script reports at least one error and
    // keeps full token coverage.
    for d in Dialect::ALL {
        let p = parser(d);
        let mut s = p.session();
        let counts: Vec<usize> = faulty_corpus(d)
            .iter()
            .map(|script| {
                let outcome = s.parse_resilient(script);
                assert!(!outcome.errors.is_empty(), "{} {script:?}", d.name());
                assert!(
                    token_coverage(&outcome.tree).iter().all(|&c| c == 1),
                    "{} {script:?}",
                    d.name()
                );
                outcome.errors.len()
            })
            .collect();
        let again: Vec<usize> = faulty_corpus(d)
            .iter()
            .map(|s2| s.parse_resilient(s2).errors.len())
            .collect();
        assert_eq!(counts, again, "{}", d.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The resilient driver never panics and always terminates on
    /// arbitrary printable input, and its diagnostics are well-formed:
    /// sorted by position, in bounds, with a covered tree.
    #[test]
    fn resilient_never_panics_and_spans_stay_in_bounds(input in "[ -~\\n]{0,80}") {
        let p = parser(Dialect::Full);
        let mut s = p.session();
        let outcome = s.parse_resilient(&input);
        let mut prev = 0usize;
        for e in &outcome.errors {
            prop_assert!(e.at <= input.len(), "{e:?}");
            prop_assert!(e.at >= prev, "diagnostics out of order");
            prev = e.at;
            prop_assert!(e.line >= 1 && e.column >= 1, "{e:?}");
        }
        prop_assert!(
            token_coverage(&outcome.tree).iter().all(|&c| c == 1),
            "{input:?}"
        );
    }

    /// Keyword soup: lexes clean, fails syntactically all over — recovery
    /// must still cover every token and terminate.
    #[test]
    fn resilient_survives_keyword_soup(
        words in prop::collection::vec(
            prop::sample::select(vec![
                "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "JOIN",
                "ON", "AND", "OR", "NOT", "NULL", "INSERT", "UPDATE",
                "DELETE", "CREATE", "TABLE", "(", ")", ",", "*", "=",
                ";", "a", "t", "1", "'s'",
            ]),
            0..25,
        )
    ) {
        let input = words.join(" ");
        let p = parser(Dialect::Full);
        let mut s = p.session();
        let outcome = s.parse_resilient(&input);
        prop_assert!(
            token_coverage(&outcome.tree).iter().all(|&c| c == 1),
            "{input:?}"
        );
    }

    /// On inputs the parser accepts strictly, recovery is invisible: no
    /// diagnostics and an identical CST.
    #[test]
    fn resilient_matches_strict_on_accepted_input(
        idx in 0usize..64,
        d in prop::sample::select(Dialect::ALL.to_vec()),
    ) {
        let stmts = corpus(d);
        let stmt = stmts[idx % stmts.len()];
        let p = parser(d);
        if let Ok(strict) = p.parse(stmt) {
            let mut s = p.session();
            let outcome = s.parse_resilient(stmt);
            prop_assert!(outcome.errors.is_empty(), "{stmt:?}");
            prop_assert_eq!(outcome.tree.to_cst(), strict, "{stmt:?}");
        }
    }
}
