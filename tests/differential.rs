//! Differential testing: the composed full parser (+ lowering) and the
//! hand-written monolithic baseline parser must agree statement by
//! statement — both on curated corpora and on grammar-generated workloads.

use sqlweave_bench::{corpus, generated, parser};
use sqlweave::baseline;
use sqlweave::dialects::Dialect;
use sqlweave::sql_ast::lower;

fn composed_ast(stmt: &str) -> sqlweave::sql_ast::Statement {
    let p = parser(Dialect::Full);
    let cst = p.parse(stmt).unwrap_or_else(|e| panic!("composed parse {stmt:?}: {e}"));
    let stmts = lower::lower_script(&cst).unwrap_or_else(|e| panic!("lower {stmt:?}: {e}"));
    assert_eq!(stmts.len(), 1);
    stmts.into_iter().next().unwrap()
}

#[test]
fn corpora_agree() {
    for d in Dialect::ALL {
        for stmt in corpus(d) {
            let b = baseline::parse_statement(stmt)
                .unwrap_or_else(|e| panic!("baseline parse {stmt:?}: {e}"));
            let c = composed_ast(stmt);
            assert_eq!(b, c, "ASTs differ on {stmt:?}");
        }
    }
}

#[test]
fn generated_workloads_agree() {
    // Generated sentences must come from the FULL dialect: its sentence
    // generator validates sampled identifiers against the full keyword set,
    // which is also the baseline's reserved-word list. (A sentence from a
    // scaled-down dialect may legally use `is` or `floor` as identifiers —
    // they only become reserved when the corresponding features are
    // selected.)
    for seed in [1234u64, 99, 7] {
        for stmt in generated(Dialect::Full, seed, 150, 9) {
            // scripts can contain several statements — compare lists
            let b = baseline::parse_script(&stmt)
                .unwrap_or_else(|e| panic!("baseline parse {stmt:?}: {e}"));
            let p = parser(Dialect::Full);
            let cst = p
                .parse(&stmt)
                .unwrap_or_else(|e| panic!("composed parse {stmt:?}: {e}"));
            let c = lower::lower_script(&cst)
                .unwrap_or_else(|e| panic!("lower {stmt:?}: {e}"));
            assert_eq!(b, c, "ASTs differ on {stmt:?}");
        }
    }
}

#[test]
fn printed_asts_reparse_identically_in_baseline() {
    // parse (composed) → lower → print → parse (baseline): fixed point.
    for stmt in corpus(Dialect::Full) {
        let ast = composed_ast(stmt);
        let printed = sqlweave::sql_ast::print_statement(&ast);
        let reparsed = baseline::parse_statement(&printed)
            .unwrap_or_else(|e| panic!("baseline reparse {printed:?}: {e}"));
        assert_eq!(ast, reparsed, "print/reparse drift:\n  {stmt}\n  {printed}");
    }
}

#[test]
fn both_reject_malformed_statements() {
    let p = parser(Dialect::Full);
    for bad in [
        "SELECT FROM t",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "INSERT t VALUES (1)",
        "UPDATE SET a = 1",
        "DELETE t",
        "CREATE TABLE t",
        "SELECT a FROM t GROUP BY",
        "SELECT a a a FROM t",
        "GRANT ON t TO u",
    ] {
        assert!(p.parse(bad).is_err(), "composed accepted {bad:?}");
        assert!(baseline::parse_statement(bad).is_err(), "baseline accepted {bad:?}");
    }
}
