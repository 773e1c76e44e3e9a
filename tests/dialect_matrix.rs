//! Experiment T4 — "We have created different prototype parsers by
//! composing different features" (paper §5).
//!
//! Every dialect preset composes into a working parser; each accepts its
//! own corpus, rejects its feature-boundary witness, and the full dialect
//! accepts everything every other dialect accepts (language inclusion on
//! the corpora).

use sqlweave_bench::{corpus, parser, rejection_witness};
use sqlweave::dialects::Dialect;

#[test]
fn acceptance_matrix() {
    // rows: dialects; columns: corpora. Print the acceptance counts.
    println!("{:<10} {}", "dialect", Dialect::ALL.map(|d| format!("{:>10}", d.name())).join(""));
    for row in Dialect::ALL {
        let p = parser(row);
        let mut cells = String::new();
        for col in Dialect::ALL {
            let stmts = corpus(col);
            let accepted = stmts.iter().filter(|s| p.parse(s).is_ok()).count();
            cells.push_str(&format!("{:>7}/{:<2}", accepted, stmts.len()));
        }
        println!("{:<10} {cells}", row.name());
    }

    // Own corpus fully accepted.
    for d in Dialect::ALL {
        let p = parser(d);
        for stmt in corpus(d) {
            assert!(p.parse(stmt).is_ok(), "{} rejected {stmt:?}", d.name());
        }
    }
}

#[test]
fn full_dialect_subsumes_all_corpora() {
    let full = parser(Dialect::Full);
    for d in Dialect::ALL {
        for stmt in corpus(d) {
            assert!(
                full.parse(stmt).is_ok(),
                "full rejected {}-corpus statement {stmt:?}",
                d.name()
            );
        }
    }
}

#[test]
fn boundaries_are_enforced() {
    for d in Dialect::ALL {
        if let Some(witness) = rejection_witness(d) {
            let p = parser(d);
            assert!(
                p.parse(witness).is_err(),
                "{} must reject {witness:?} (unselected feature)",
                d.name()
            );
            // …and the full dialect accepts the same statement.
            assert!(
                parser(Dialect::Full).parse(witness).is_ok(),
                "full must accept {witness:?}"
            );
        }
    }
}

#[test]
fn pico_rejects_out_of_dialect_statements() {
    let p = parser(Dialect::Pico);
    assert!(p.parse("SELECT a FROM t ORDER BY a").is_err());
    assert!(p.parse("INSERT INTO t VALUES (1)").is_err());
}

#[test]
fn configurations_grow_with_dialect_scope() {
    let sizes: Vec<(usize, &str)> = Dialect::ALL
        .iter()
        .map(|d| (d.configuration().len(), d.name()))
        .collect();
    println!("selected features per dialect: {sizes:?}");
    let pico = sizes[0].0;
    let full = sizes[5].0;
    assert!(pico < full / 3, "pico ({pico}) should be far smaller than full ({full})");
    for (len, name) in &sizes {
        assert!(*len >= pico, "{name} smaller than pico?");
        assert!(*len <= full, "{name} larger than full?");
    }
}
