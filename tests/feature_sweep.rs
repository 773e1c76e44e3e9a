//! Single-feature sweep: every feature of the catalog, added alone to a
//! minimal query dialect, must complete into a valid configuration and
//! compose into a *closed, analyzable* grammar. This catches any feature
//! whose artifact breaks composition in isolation (undefined nonterminals a
//! `requires` edge should have pulled in, token conflicts, ordering
//! hazards). Full parser construction (dominated by lexer-DFA
//! minimization) is exercised on a deterministic sample; the dialect and
//! property suites cover full builds of the realistic configurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use sqlweave::dialects::Dialect;
use sqlweave::feature_model::complete::complete;
use sqlweave::feature_model::solve::{enumerate_or_sample, resolve_open_choices};
use sqlweave::feature_model::Configuration;
use sqlweave::grammar::analysis::analyze;
use sqlweave::grammar::ir::Grammar;
use sqlweave::grammar::sentence::SentenceGenerator;
use sqlweave::lexgen::tokenset::TokenSet;
use sqlweave::parser_rt::engine::Parser;
use sqlweave::sql::catalog;
use std::collections::BTreeSet;
use std::sync::OnceLock;

#[test]
fn every_feature_composes_on_top_of_the_minimal_query_dialect() {
    let cat = catalog();
    let base = ["query_statement", "select_sublist"];
    let mut tested = 0usize;
    let mut skipped_invalid = Vec::new();

    for (i, (_, feature)) in cat.model().iter().enumerate() {
        let name = feature.name.clone();
        let mut selection: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        selection.push(name.clone());
        let Ok(config) = cat.complete(selection) else {
            panic!("completion failed for feature `{name}`");
        };
        // Completion can leave OR-group choices open (selecting a group
        // parent without a member); those configurations are legitimately
        // invalid and skipped.
        if cat.model().validate(&config).is_err() {
            skipped_invalid.push(name);
            continue;
        }
        tested += 1;
        let composed = cat
            .pipeline()
            .compose(&config)
            .unwrap_or_else(|e| panic!("feature `{name}` broke composition: {e}"));
        let analysis = analyze(&composed.grammar)
            .unwrap_or_else(|e| panic!("feature `{name}` left an open grammar: {e}"));
        assert!(
            analysis.left_recursion.is_empty(),
            "feature `{name}` introduced left recursion: {:?}",
            analysis.left_recursion
        );
        assert!(
            analysis.unproductive.is_empty(),
            "feature `{name}` introduced unproductive rules: {:?}",
            analysis.unproductive
        );
        // Full parser build + parse on a deterministic sample.
        if i % 8 == 0 {
            let parser = composed
                .into_parser()
                .unwrap_or_else(|e| panic!("feature `{name}` broke the parser build: {e}"));
            parser
                .parse("SELECT a FROM t")
                .unwrap_or_else(|e| panic!("feature `{name}` broke the base query: {e}"));
        }
    }

    println!(
        "swept {tested} features ({} skipped as open OR-group parents: {:?})",
        skipped_invalid.len(),
        skipped_invalid
    );
    assert!(tested >= 170, "only {tested} features were sweepable");
}

#[test]
fn every_pair_of_statement_classes_composes() {
    // Pairwise interaction of the statement-class features (the R3-append
    // surface where cross-feature conflicts would appear).
    let cat = catalog();
    let classes = [
        "query_statement",
        "insert_statement",
        "update_statement",
        "delete_statement",
        "merge_statement",
        "table_definition",
        "view_definition",
        "schema_definition",
        "domain_definition",
        "alter_table_statement",
        "drop_statement",
        "grant_revoke",
        "transaction_statement",
        "session_statement",
        "cursor_statement",
    ];
    for (i, a) in classes.iter().enumerate() {
        for b in &classes[i + 1..] {
            let mut selection = vec![a.to_string(), b.to_string()];
            // statement classes with OR-group children need one choice
            for extra in [
                "select_sublist",      // query
                "drop_table",          // drop
                "add_column",          // alter
                "set_schema",          // session
                "merge_update_branch", // merge
                "character_types",     // data_type via column_definition
            ] {
                selection.push(extra.to_string());
            }
            let config = cat
                .complete(selection)
                .unwrap_or_else(|e| panic!("{a}+{b}: completion failed: {e}"));
            if cat.model().validate(&config).is_err() {
                continue;
            }
            let composed = cat
                .pipeline()
                .compose(&config)
                .unwrap_or_else(|e| panic!("{a}+{b} broke composition: {e}"));
            analyze(&composed.grammar)
                .unwrap_or_else(|e| panic!("{a}+{b} left an open grammar: {e}"));
        }
    }
}

#[test]
fn removing_any_optional_feature_from_full_still_composes() {
    // The complement sweep: full minus one optional leaf must remain valid
    // (when no other selected feature requires it) and compose.
    let cat = catalog();
    let full: Vec<String> = cat.model().iter().map(|(_, f)| f.name.clone()).collect();
    let mut tested = 0usize;
    for (id, feature) in cat.model().iter() {
        // Only leaves: removing an inner node orphans its children.
        if !feature.children.is_empty() {
            continue;
        }
        let name = &feature.name;
        let config = Configuration::of(full.iter().filter(|n| *n != name).cloned());
        if cat.model().validate(&config).is_err() {
            // mandatory leaf, group minimum, or another feature requires it
            continue;
        }
        tested += 1;
        let composed = cat
            .pipeline()
            .compose(&config)
            .unwrap_or_else(|e| panic!("full minus `{name}` broke composition: {e}"));
        analyze(&composed.grammar)
            .unwrap_or_else(|e| panic!("full minus `{name}` left an open grammar: {e}"));
        // full parser build on a sample
        if tested.is_multiple_of(10) {
            composed
                .into_parser()
                .unwrap_or_else(|e| panic!("full minus `{name}` broke the parser build: {e}"));
        }
        let _ = id;
    }
    println!("tested full-minus-one for {tested} leaves");
    assert!(tested >= 60, "only {tested} leaves were removable");
}

/// One certify-sampled non-preset configuration, composed and built once.
struct SampledDialect {
    config: String,
    grammar: Grammar,
    tokens: TokenSet,
    parser: Parser,
}

/// Non-preset configurations drawn by the same pairwise sampler `sqlweave
/// certify` uses, built once for the whole property suite. Configurations
/// whose parser cannot be built (certify reports those as findings) are
/// skipped here — this suite is about the ones that *do* build.
fn certify_sampled_dialects() -> &'static [SampledDialect] {
    static SAMPLED: OnceLock<Vec<SampledDialect>> = OnceLock::new();
    SAMPLED.get_or_init(|| {
        let cat = catalog();
        let seeds: Vec<Configuration> = Dialect::ALL.iter().map(|d| d.configuration()).collect();
        let presets: BTreeSet<String> = seeds.iter().map(|c| c.to_string()).collect();
        let sample = enumerate_or_sample(cat.model(), &seeds, 10, true);
        // Sampled configurations are minimal realizations of pairwise
        // combos; most select no statement class and (correctly) fail the
        // parser build — `sqlweave certify` reports exactly that. Lift each
        // onto the minimal query dialect, the way certify's diagram scopes
        // do, to obtain buildable non-preset dialects.
        let base = Configuration::of(["query_statement", "select_sublist"]);
        let mut out: Vec<SampledDialect> = Vec::new();
        for config in &sample.configs {
            let Ok(closed) = complete(cat.model(), &config.union(&base)) else {
                continue;
            };
            let Some(lifted) = resolve_open_choices(cat.model(), &closed, &Configuration::new())
            else {
                continue;
            };
            let key = lifted.to_string();
            if presets.contains(&key) || out.iter().any(|d| d.config == key) {
                continue;
            }
            let Ok(composed) = cat.pipeline().compose(&lifted) else {
                continue;
            };
            let Ok(parser) = Parser::new(composed.grammar.clone(), &composed.tokens) else {
                continue;
            };
            out.push(SampledDialect {
                config: key,
                grammar: composed.grammar,
                tokens: composed.tokens,
                parser,
            });
        }
        assert!(
            out.len() >= 2,
            "pairwise sampling produced only {} buildable non-preset configurations",
            out.len()
        );
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Certify-sampled configurations behave like shipped dialects: their
    /// own generated sentences parse.
    #[test]
    fn sampled_configurations_parse_their_generated_sentences(
        pick in 0usize..64,
        seed in prop::num::usize::ANY,
        depth in 4usize..9,
    ) {
        let dialects = certify_sampled_dialects();
        let d = &dialects[pick % dialects.len()];
        let gen = SentenceGenerator::new(&d.grammar, &d.tokens)
            .unwrap_or_else(|e| panic!("{}: sentence generator: {e}", d.config));
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let sentence = gen.generate(&mut rng, depth);
        if let Err(e) = d.parser.parse(&sentence) {
            panic!("{}: rejected its own sentence {sentence:?}: {e}", d.config);
        }
    }
}
