//! Property-based tests over the whole pipeline, using proptest for the
//! feature-model/composition invariants and seeded grammar-driven
//! generation for the parser round-trip property.

use proptest::prelude::*;
use sqlweave_bench::{generated, parser};
use sqlweave::dialects::Dialect;
use sqlweave::feature_model::count::enumerate_configurations;
use sqlweave::feature_model::{Configuration, GroupKind, ModelBuilder};
use sqlweave::sql::catalog;
use sqlweave::sql_ast::{lower, print};

#[test]
fn every_dialect_parses_its_generated_sentences() {
    for d in Dialect::ALL {
        let p = parser(d);
        for s in generated(d, 0xfeed, 100, 10) {
            if let Err(e) = p.parse(&s) {
                panic!("{} rejected its own sentence {s:?}: {e}", d.name());
            }
        }
    }
}

#[test]
fn full_dialect_generated_sentences_roundtrip_through_ast() {
    let p = parser(Dialect::Full);
    for s in generated(Dialect::Full, 0xabcd, 200, 9) {
        let cst = p.parse(&s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"));
        let stmts = lower::lower_script(&cst).unwrap_or_else(|e| panic!("lower {s:?}: {e}"));
        for ast in &stmts {
            let printed = print::statement(ast);
            let cst2 = p
                .parse(&printed)
                .unwrap_or_else(|e| panic!("reparse {printed:?} (from {s:?}): {e}"));
            let stmts2 = lower::lower_script(&cst2).unwrap();
            assert_eq!(&stmts2[0], ast, "roundtrip drift on {s:?} -> {printed:?}");
        }
    }
}

/// Strategy producing small random feature models.
fn arb_model() -> impl Strategy<Value = sqlweave::feature_model::FeatureModel> {
    // Up to 3 levels: root with n1 children; each child optionally a group
    // or solitary; leaves get no children.
    let leaf = prop::collection::vec(prop::bool::ANY, 1..4);
    prop::collection::vec((prop::bool::ANY, prop::bool::ANY, leaf), 1..4).prop_map(|spec| {
        let mut b = ModelBuilder::new("root");
        let root = b.root();
        for (i, (mandatory, grouped, leaves)) in spec.into_iter().enumerate() {
            if grouped && leaves.len() >= 2 {
                let names: Vec<String> =
                    (0..leaves.len()).map(|j| format!("g{i}_{j}")).collect();
                let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let kind = if leaves[0] { GroupKind::Or } else { GroupKind::Xor };
                b.group(root, kind, &name_refs);
            } else {
                let name = format!("f{i}");
                let parent = if mandatory {
                    b.mandatory(root, &name)
                } else {
                    b.optional(root, &name)
                };
                for (j, leaf_mandatory) in leaves.iter().enumerate() {
                    let leaf_name = format!("f{i}_{j}");
                    if *leaf_mandatory {
                        b.mandatory(parent, &leaf_name);
                    } else {
                        b.optional(parent, &leaf_name);
                    }
                }
            }
        }
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counting and enumeration agree on arbitrary small models.
    #[test]
    fn count_matches_enumeration(model in arb_model()) {
        let count = model.count_configurations();
        let enumerated = enumerate_configurations(&model, 50_000);
        prop_assert_eq!(count, enumerated.len() as u128);
        for config in &enumerated {
            prop_assert!(model.validate(config).is_ok());
        }
    }

    /// Completion always yields a superset closed under completion.
    #[test]
    fn completion_is_monotone_and_idempotent(model in arb_model(), pick in prop::collection::vec(prop::num::usize::ANY, 0..4)) {
        let names: Vec<String> = model.iter().map(|(_, f)| f.name.clone()).collect();
        let mut partial = Configuration::new();
        for p in pick {
            partial.select(names[p % names.len()].clone());
        }
        let completed = model.complete(&partial).unwrap();
        prop_assert!(partial.is_subset_of(&completed));
        let twice = model.complete(&completed).unwrap();
        prop_assert_eq!(completed, twice);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any valid configuration of the SQL catalog that selects at least one
    /// statement class composes into a working parser.
    #[test]
    fn random_catalog_configurations_compose(seed_features in prop::collection::vec(0usize..4096, 1..12)) {
        let cat = catalog();
        let names: Vec<String> = cat.model().iter().map(|(_, f)| f.name.clone()).collect();
        let mut partial = Configuration::of(["query_statement", "select_sublist"]);
        for s in seed_features {
            partial.select(names[s % names.len()].clone());
        }
        let Ok(config) = cat.model().complete(&partial) else {
            // names are all valid; completion cannot fail
            unreachable!()
        };
        // Completion leaves OR-group choices open occasionally; fill any
        // invalid config by skipping it (the property targets composable
        // configs).
        if cat.model().validate(&config).is_err() {
            return Ok(());
        }
        let parser = cat.pipeline().parser_for(&config);
        prop_assert!(parser.is_ok(), "compose failed: {:?}", parser.err().map(|e| e.to_string()));
        // Every such dialect parses the minimal SELECT.
        let parser = parser.unwrap();
        prop_assert!(parser.parse("SELECT a FROM t").is_ok());
    }
}
