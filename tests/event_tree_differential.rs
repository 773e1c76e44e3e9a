//! Differential suite for the event-driven green core: every tree the
//! event engine builds (via [`sqlweave::parser_rt::SyntaxTree`]) must
//! convert to the *identical* `CstNode` the preserved seed engine
//! produces — and every error must be reported identically — across all
//! dialects, curated corpora, rejection witnesses, and grammar-generated
//! sentences. This is the proof that the perf rework is a pure
//! representation change.

use proptest::prelude::*;
use sqlweave::dialects::Dialect;
use sqlweave::parser_rt::{CstNode, SyntaxElement, SyntaxNode};
use sqlweave_bench::{corpus, generated, parser, rejection_witness};

#[test]
fn corpus_trees_match_seed_engines_everywhere() {
    for d in Dialect::ALL {
        let p = parser(d);
        let mut session = p.session();
        for stmt in corpus(d) {
            match p.parse_reference(stmt) {
                Ok(seed_cst) => {
                    let tree = session.parse_tree(stmt).unwrap_or_else(|e| {
                        panic!("{} event engine rejected {stmt:?}: {e}", d.name())
                    });
                    assert_eq!(
                        tree.to_cst(),
                        seed_cst,
                        "{} tree shape drift on {stmt:?}",
                        d.name()
                    );
                    assert_eq!(
                        tree.pretty(),
                        seed_cst.pretty(),
                        "{} pretty drift on {stmt:?}",
                        d.name()
                    );
                }
                // A rejected corpus statement must be rejected with
                // the same error by both engines.
                Err(seed_err) => {
                    let event_err = session.parse_tree(stmt).map(|t| t.to_cst()).unwrap_err();
                    assert_eq!(event_err, seed_err, "{} error drift on {stmt:?}", d.name());
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
/// spans many statement chunks. The document is then read after edits
/// that leave non-zero chunk span bases behind — a token-preserving
/// insertion in front of every chunk, a reparsed one inside the first
/// statement, and its removal — and each read must give the spans and the
/// CST of a from-scratch `parse_resilient` of the edited text.
#[test]
fn node_spans_match_cst_spans_on_every_corpus() {
    for d in Dialect::ALL {
        let p = parser(d);
        let mut session = p.session();
        let mut oracle = p.session();
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
        let text = corpus(d).join(";\n");
        session.open_document(&text);
        let outcome = session.try_document_outcome().expect("document open");
        assert_spans_match(
            outcome.tree.root(),
            &outcome.tree.to_cst(),
            &format!("{} document", d.name()),
        );
        drop(outcome);
        let word_end = text.find(' ').expect("corpus statements have spaces");
        for (what, at, cut, rep) in [
            ("leading newline", 0, 0, "\n  "),
            ("identifier glued to the first word", word_end + 3, 0, "x"),
            ("glued identifier removed", word_end + 3, 1, ""),
        ] {
            session.apply_edit(at..at + cut, rep);
            let edited = session.document().to_string();
            let fresh = oracle.parse_resilient(&edited).tree.to_cst();
            let outcome = session.try_document_outcome().expect("document open");
            let ctx = format!("{} document after {what}", d.name());
            assert_spans_match(outcome.tree.root(), &fresh, &ctx);
            assert_eq!(outcome.tree.to_cst(), fresh, "{ctx}");
        }
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
        let p = parser(d);
        let witnesses = rejection_witness(d).into_iter();
        for stmt in witnesses.chain(malformed) {
            let seed = p.parse_reference(stmt);
            let event = p.parse(stmt);
            assert_eq!(event, seed, "{} outcome drift on {stmt:?}", d.name());
            if let (Err(se), Err(ee)) = (p.parse_reference(stmt), p.parse(stmt)) {
                assert_eq!(
                    ee.to_string(),
                    se.to_string(),
                    "{} message drift on {stmt:?}",
                    d.name()
                );
            }
        }
    }
}

/// A batch is one session recycled across its statements: each
/// statement's outcome equals a one-shot seed-engine parse.
#[test]
fn batch_api_matches_one_shot_parses() {
    for d in [Dialect::Pico, Dialect::Core, Dialect::Full] {
        let p = parser(d);
        let mut session = p.session();
        let mut stmts = corpus(d);
        stmts.push("SELECT FROM t"); // keep an error in every batch
        for stmt in &stmts {
            match (session.parse_tree(stmt), p.parse_reference(stmt)) {
                (Ok(tree), Ok(cst)) => {
                    assert_eq!(
                        tree.node_count(),
                        cst.node_count(),
                        "{} node count {stmt:?}",
                        d.name()
                    );
                }
                (Err(be), Err(se)) => assert_eq!(be, se, "{} batch error {stmt:?}", d.name()),
                (b, s) => panic!(
                    "{} outcome drift on {stmt:?}: batch {:?} vs seed {s:?}",
                    d.name(),
                    b.map(|t| t.node_count())
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grammar-generated sentences from the full dialect: the event tree
    /// converts to exactly the seed engine's CST for any generation seed.
    #[test]
    fn generated_sentences_trees_match(seed in 0u64..1u64 << 48) {
        let p = parser(Dialect::Full);
        let mut session = p.session();
        for s in generated(Dialect::Full, seed, 8, 9) {
            let seed_result = p.parse_reference(&s);
            let event_result = session.parse_tree(&s).map(|t| t.to_cst());
            prop_assert_eq!(
                event_result,
                seed_result,
                "drift on generated sentence {:?}",
                s
            );
        }
    }
}
