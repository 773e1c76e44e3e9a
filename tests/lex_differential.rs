//! Lex-stage differential suite: the vectorized run-skipping scanner (the
//! production `scan`/`scan_into` path), the compiled byte-class walker
//! (`scan_compiled`), the preserved interval walker (`scan_reference`),
//! and per-rule NFA simulation (`scan_naive`) must agree on every dialect
//! and input shape — token kinds, byte spans, skip behavior, and
//! `LexError` messages alike. The vector path is additionally pinned
//! against its own portable SWAR level so the SIMD and scalar chunk
//! classifiers cannot drift apart. This is the whole-pipeline
//! counterpart of the unit-level differentials inside `sqlweave-lexgen`:
//! here the token sets are the real composed dialects, so the compiled
//! tables face hundreds of DFA states and the full byte-class spread.

use proptest::prelude::*;
use sqlweave::dialects::Dialect;
use sqlweave_bench::{composed, corpus, generated, parser};

/// Assert all four scanners (and the pinned-SWAR vector path) agree on
/// one input, including error text.
fn assert_scanners_agree(
    d: Dialect,
    scanner: &sqlweave::lexgen::Scanner,
    nfas: &[sqlweave::lexgen::nfa::Nfa],
    input: &str,
) {
    let fast = scanner.scan(input);
    let compiled = scanner.scan_compiled(input);
    assert_eq!(
        fast,
        compiled,
        "vector vs compiled ({}) on {input:?}",
        d.name()
    );
    let interval = scanner.scan_reference(input);
    assert_eq!(
        fast,
        interval,
        "vector vs interval ({}) on {input:?}",
        d.name()
    );
    let swar = scanner
        .scan_with_simd(sqlweave::lexgen::SimdLevel::Swar, input)
        .expect("SWAR is always available");
    assert_eq!(fast, swar, "detected level vs SWAR ({}) on {input:?}", d.name());
    let naive = scanner.scan_naive(input, nfas);
    assert_eq!(fast, naive, "vector vs naive ({}) on {input:?}", d.name());
    if let (Err(f), Err(i)) = (&fast, &interval) {
        assert_eq!(
            f.to_string(),
            i.to_string(),
            "error text drifted ({})",
            d.name()
        );
    }
}

/// One scanner + naive-oracle pair per dialect (the NFAs are the
/// expensive part — build them once per dialect, not per input).
fn with_dialect_oracles(mut f: impl FnMut(Dialect, &sqlweave::lexgen::Scanner, &[sqlweave::lexgen::nfa::Nfa])) {
    for d in Dialect::ALL {
        let scanner = parser(d).scanner();
        let nfas = composed(d)
            .tokens
            .build_rule_nfas()
            .unwrap_or_else(|e| panic!("rule NFAs {}: {e}", d.name()));
        f(d, scanner, &nfas);
    }
}

#[test]
fn corpus_tokens_agree_across_scanners() {
    with_dialect_oracles(|d, scanner, nfas| {
        for stmt in corpus(d) {
            assert_scanners_agree(d, scanner, nfas, stmt);
        }
    });
}

#[test]
fn generated_workloads_agree_across_scanners() {
    with_dialect_oracles(|d, scanner, nfas| {
        for stmt in generated(d, 4242, 40, 8) {
            assert_scanners_agree(d, scanner, nfas, &stmt);
        }
    });
}

#[test]
fn multibyte_utf8_agrees_across_scanners() {
    // String/comment contents admit non-ASCII scalars, which the compiled
    // scanner routes through its interval fallback mid-token; identifiers
    // do not, so several of these also exercise the error path. Every
    // dialect sees every input — smaller dialects reject more of them,
    // and rejections must match too.
    let inputs = [
        "SELECT 'héllo wörld' FROM t",
        "SELECT '中文 и русский' FROM t WHERE a = 'λ'",
        "SELECT '🦀🦀🦀' FROM t",
        "SELECT a FROM t -- trailing comment with émoji 🎉",
        "'unterminated héllo",
        "é",
        "SELECT é FROM t",
        "SELECT 'ok' FROM 中文",
        "\u{FEFF}SELECT a FROM t",
    ];
    with_dialect_oracles(|d, scanner, nfas| {
        for input in inputs {
            assert_scanners_agree(d, scanner, nfas, input);
        }
    });
}

#[test]
fn lex_error_messages_agree_across_scanners() {
    // ASCII error shapes: unknown punctuation, bad numerics, mid-token
    // failures. The compiled path must report the same byte offset,
    // line/column, and offending character as both oracles.
    let inputs = [
        "SELECT ? FROM t",
        "SELECT a FROM t WHERE a ~ 1",
        "a\nb\n  #",
        "SELECT \u{0007}",
        "`backtick`",
    ];
    with_dialect_oracles(|d, scanner, nfas| {
        for input in inputs {
            let fast = scanner.scan(input);
            assert_scanners_agree(d, scanner, nfas, input);
            if let Err(e) = fast {
                // sanity: the error names a real position inside the input
                assert!(e.at <= input.len(), "{} on {input:?}", d.name());
            }
        }
    });
}

/// SQL-ish fragments mixing ASCII structure with multi-byte scalars both
/// inside and outside string literals, so random concatenations hit the
/// fast path, the fallback, and the error path in one scan.
fn arb_sqlish() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            "SELECT ", "FROM ", "WHERE ", "t", "a1", "12", "12.5", ", ", " = ", "(", ")", "*",
            " ", "'héllo'", "'中文'", "'🦀'", "é", "🦀", "?", "-- c\n", "'",
        ]),
        0..10,
    )
    .prop_map(|v| v.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_fragments_agree_on_the_full_dialect(input in arb_sqlish()) {
        // Build the oracles once; `parser`/`composed` are cached statics
        // and `build_rule_nfas` is deterministic, so per-case rebuild cost
        // is the only concern — full has 244 rules, hence the lazy static.
        use std::sync::OnceLock;
        static NFAS: OnceLock<Vec<sqlweave::lexgen::nfa::Nfa>> = OnceLock::new();
        let scanner = parser(Dialect::Full).scanner();
        let nfas = NFAS.get_or_init(|| {
            composed(Dialect::Full).tokens.build_rule_nfas().expect("full rule NFAs")
        });
        let fast = scanner.scan(&input);
        let compiled = scanner.scan_compiled(&input);
        prop_assert_eq!(&fast, &compiled, "vector vs compiled on {:?}", &input);
        let interval = scanner.scan_reference(&input);
        prop_assert_eq!(&fast, &interval, "vector vs interval on {:?}", &input);
        let swar = scanner
            .scan_with_simd(sqlweave::lexgen::SimdLevel::Swar, &input)
            .expect("SWAR is always available");
        prop_assert_eq!(&fast, &swar, "detected vs SWAR on {:?}", &input);
        let naive = scanner.scan_naive(&input, nfas);
        prop_assert_eq!(&fast, &naive, "vector vs naive on {:?}", &input);
        if let (Err(f), Err(i)) = (&fast, &interval) {
            prop_assert_eq!(f.to_string(), i.to_string());
        }
    }
}
