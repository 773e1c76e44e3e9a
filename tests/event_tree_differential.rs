//! Cross-engine differential suite for the event-driven green core: every
//! tree the event engines build (via [`sqlweave::parser_rt::SyntaxTree`])
//! must convert to the *identical* `CstNode` the preserved seed engines
//! produce — and every error must be reported identically — across all
//! dialects, both engine modes, curated corpora, rejection witnesses, and
//! grammar-generated sentences. This is the proof that the perf rework is
//! a pure representation change.

use proptest::prelude::*;
use sqlweave::dialects::Dialect;
use sqlweave::parser_rt::engine::EngineMode;
use sqlweave::parser_rt::{CstNode, SyntaxElement, SyntaxNode};
use sqlweave_bench::{corpus, generated, parser, rejection_witness};

const MODES: [EngineMode; 2] = [EngineMode::Backtracking, EngineMode::Ll1Table];

#[test]
fn corpus_trees_match_seed_engines_everywhere() {
    for d in Dialect::ALL {
        for mode in MODES {
            let p = parser(d, mode);
            let mut session = p.session();
            for stmt in corpus(d) {
                match p.parse_reference(stmt) {
                    Ok(seed_cst) => {
                        let tree = session.parse_tree(stmt).unwrap_or_else(|e| {
                            panic!("{} {mode:?}: event engine rejected {stmt:?}: {e}", d.name())
                        });
                        assert_eq!(
                            tree.to_cst(),
                            seed_cst,
                            "{} {mode:?}: tree shape drift on {stmt:?}",
                            d.name()
                        );
                        assert_eq!(
                            tree.pretty(),
                            seed_cst.pretty(),
                            "{} {mode:?}: pretty drift on {stmt:?}",
                            d.name()
                        );
                    }
                    // The LL(1) engine legitimately rejects non-LL(1)
                    // corpus statements; the event engine must agree.
                    Err(seed_err) => {
                        let event_err = session.parse_tree(stmt).map(|t| t.to_cst()).unwrap_err();
                        assert_eq!(
                            event_err,
                            seed_err,
                            "{} {mode:?}: error drift on {stmt:?}",
                            d.name()
                        );
                    }
                }
            }
        }
    }
}

/// Assert that `node` and every node below it report the same span as
/// their `CstNode` twins.
fn assert_spans_match(node: SyntaxNode<'_, '_>, cst: &CstNode, ctx: &str) {
    assert_eq!(node.span(), cst.span(), "{ctx}: span of `{}`", node.name());
    let kids: Vec<SyntaxElement<'_, '_>> = node.children().collect();
    assert_eq!(
        kids.len(),
        cst.children().len(),
        "{ctx}: children of `{}`",
        node.name()
    );
    for (kid, twin) in kids.iter().zip(cst.children()) {
        if let Some(n) = kid.as_node() {
            assert_spans_match(n, twin, ctx);
        }
    }
}

/// `SyntaxNode::span` equals `CstNode::span` on every node of every corpus
/// statement's tree, and of each corpus opened as one document, whose root
/// spans many statement chunks.
#[test]
fn node_spans_match_cst_spans_on_every_corpus() {
    for d in Dialect::ALL {
        let p = parser(d, EngineMode::Backtracking);
        let mut session = p.session();
        for stmt in corpus(d) {
            let tree = session
                .parse_tree(stmt)
                .unwrap_or_else(|e| panic!("{}: {stmt:?}: {e}", d.name()));
            assert_spans_match(
                tree.root(),
                &tree.to_cst(),
                &format!("{} {stmt:?}", d.name()),
            );
        }
        session.open_document(&corpus(d).join(";\n"));
        let outcome = session.try_document_outcome().expect("document open");
        assert_spans_match(
            outcome.tree.root(),
            &outcome.tree.to_cst(),
            &format!("{} document", d.name()),
        );
    }
}

#[test]
fn error_messages_unchanged_on_rejections() {
    // Rejection witnesses plus a few malformed statements: the memo table
    // and the note-recording fast path must not alter a single diagnostic.
    let malformed = [
        "",
        "SELECT",
        "SELECT FROM t",
        "SELECT a FROM",
        "SELECT a FROM t t t",
        "SELEC a FROM t",
        "SELECT a FROM t WHERE",
    ];
    for d in Dialect::ALL {
        for mode in MODES {
            let p = parser(d, mode);
            let witnesses = rejection_witness(d).into_iter();
            for stmt in witnesses.chain(malformed) {
                let seed = p.parse_reference(stmt);
                let event = p.parse(stmt);
                assert_eq!(event, seed, "{} {mode:?}: outcome drift on {stmt:?}", d.name());
                if let (Err(se), Err(ee)) = (p.parse_reference(stmt), p.parse(stmt)) {
                    assert_eq!(
                        ee.to_string(),
                        se.to_string(),
                        "{} {mode:?}: message drift on {stmt:?}",
                        d.name()
                    );
                }
            }
        }
    }
}

#[test]
fn batch_api_matches_one_shot_parses() {
    for d in [Dialect::Pico, Dialect::Core, Dialect::Full] {
        let p = parser(d, EngineMode::Backtracking);
        let mut stmts = corpus(d);
        stmts.push("SELECT FROM t"); // keep an error in every batch
        let batched = p.parse_many(&stmts);
        let threaded = p.parse_many_parallel(&stmts, 3);
        assert_eq!(batched.len(), stmts.len());
        for (i, stmt) in stmts.iter().enumerate() {
            match (&batched[i], p.parse_reference(stmt)) {
                (Ok(stats), Ok(cst)) => {
                    assert_eq!(stats.nodes, cst.node_count(), "{} node count {stmt:?}", d.name());
                }
                (Err(be), Err(se)) => assert_eq!(be, &se, "{} batch error {stmt:?}", d.name()),
                (b, s) => panic!("{} outcome drift on {stmt:?}: batch {b:?} vs seed {s:?}", d.name()),
            }
            match (&batched[i], &threaded[i]) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("{} parallel drift on {stmt:?}: {a:?} vs {b:?}", d.name()),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grammar-generated sentences from the full dialect: the event tree
    /// converts to exactly the seed engines' CST, in both engine modes,
    /// for any generation seed.
    #[test]
    fn generated_sentences_trees_match(seed in 0u64..1u64 << 48) {
        for mode in MODES {
            let p = parser(Dialect::Full, mode);
            let mut session = p.session();
            for s in generated(Dialect::Full, seed, 8, 9) {
                let seed_result = p.parse_reference(&s);
                let event_result = session.parse_tree(&s).map(|t| t.to_cst());
                prop_assert_eq!(
                    event_result,
                    seed_result,
                    "{:?} drift on generated sentence {:?}",
                    mode,
                    s
                );
            }
        }
    }
}
