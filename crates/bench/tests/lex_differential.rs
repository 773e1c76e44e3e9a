//! Four-substrate lexing differential suite.
//!
//! The scanner carries four implementations of the same tokenization
//! contract, from hottest to slowest:
//!
//! 1. `scan` — the vectorized run-skipping path (chunked classification +
//!    keyword perfect-hash, [`sqlweave_lexgen::vector`]),
//! 2. `scan_compiled` — the per-byte compiled byte-class tables,
//! 3. `scan_reference` — the per-character interval-DFA walker,
//! 4. `scan_naive` — per-rule NFA simulation.
//!
//! Every test here asserts they produce **identical** output — the same
//! token stream (kinds and byte spans) on success and the same `LexError`
//! (offset, line, column, offending char) on failure — across all six
//! dialects. The vectorized path additionally must agree with itself when
//! the chunked classifier is pinned to the portable SWAR level, so the
//! SIMD and portable classifiers cannot drift apart.

use proptest::prelude::*;
use sqlweave_bench::{composed, corpus, generated, parser};
use sqlweave_dialects::Dialect;
use sqlweave_lexgen::{Scanner, SimdLevel};

fn scanner(d: Dialect) -> &'static Scanner {
    parser(d).scanner()
}

/// Assert the three automaton substrates and the forced-SWAR vector path
/// agree exactly on `input` (tokens and errors alike).
fn assert_fast_substrates_agree(d: Dialect, input: &str) {
    let s = scanner(d);
    let vector = s.scan(input);
    let compiled = s.scan_compiled(input);
    let reference = s.scan_reference(input);
    assert_eq!(vector, compiled, "{}: vector vs compiled on {input:?}", d.name());
    assert_eq!(vector, reference, "{}: vector vs reference on {input:?}", d.name());
    let swar = s
        .scan_with_simd(SimdLevel::Swar, input)
        .expect("SWAR is always available");
    assert_eq!(vector, swar, "{}: detected-level vs SWAR on {input:?}", d.name());
}

/// [`assert_fast_substrates_agree`] plus the NFA-simulation oracle (much
/// slower — callers keep these inputs small).
fn assert_all_substrates_agree(d: Dialect, input: &str) {
    assert_fast_substrates_agree(d, input);
    let s = scanner(d);
    let nfas = composed(d)
        .tokens
        .build_rule_nfas()
        .unwrap_or_else(|e| panic!("rule NFAs {}: {e}", d.name()));
    assert_eq!(
        s.scan(input),
        s.scan_naive(input, &nfas),
        "{}: vector vs naive on {input:?}",
        d.name()
    );
}

#[test]
fn substrates_agree_on_curated_corpus() {
    for d in Dialect::ALL {
        for stmt in corpus(d) {
            assert_all_substrates_agree(d, stmt);
        }
    }
}

#[test]
fn substrates_agree_on_generated_corpus() {
    for d in Dialect::ALL {
        // The big-corpus factory itself (wrapped multi-line statements,
        // comment lines, long identifiers) on the three fast substrates…
        let script = sqlweave_bench::corpus::generate_script(d, 0xD1FF, 64 * 1024);
        assert_fast_substrates_agree(d, &script);
        // …and grammar-sampled single statements on all four.
        for stmt in generated(d, 42, 24, 8) {
            assert_all_substrates_agree(d, &stmt);
        }
    }
}

#[test]
fn substrates_agree_on_chunk_boundary_straddles() {
    // Tokens sized to straddle the 8-byte SWAR and 16-byte SIMD chunk
    // boundaries in every alignment: identifiers and string literals of
    // lengths around 8, 16, and 64, preceded by 0–3 pad bytes.
    for d in Dialect::ALL {
        for pad in 0..4usize {
            for n in [1, 6, 7, 8, 9, 14, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127] {
                let ident = format!("{}x{} y", " ".repeat(pad), "a".repeat(n));
                assert_fast_substrates_agree(d, &ident);
                let string = format!("{}'{}' z", " ".repeat(pad), "s".repeat(n));
                assert_fast_substrates_agree(d, &string);
                let number = format!("{}{} w", " ".repeat(pad), "7".repeat(n));
                assert_fast_substrates_agree(d, &number);
            }
        }
    }
}

#[test]
fn substrates_agree_on_utf8_inputs() {
    // Multi-byte scalars at token starts, inside string interiors, and
    // adjacent to run boundaries — the cases that force the vectorized
    // path through its interval-DFA fallback.
    let inputs = [
        "select 'héllo wörld' from t",
        "'日本語のテキスト'",
        "a 'é' b 'ab\u{0301}cd' c",
        "x'café'",
        "-- commentaire: déjà vu\nselect 1",
        "id\u{00e9}",       // non-ASCII directly after an identifier run
        "   \u{3000}   ",   // ideographic space is NOT whitespace in any dialect
        "'unterminated \u{4e2d}",
        "\u{feff}select 1", // BOM at start
    ];
    for d in Dialect::ALL {
        for input in inputs {
            assert_all_substrates_agree(d, input);
        }
    }
}

#[test]
fn substrates_agree_on_error_inputs() {
    // All substrates must report byte-identical LexErrors: same offset,
    // same line/column, same offending character.
    let inputs = [
        "\u{1}",
        "select \u{1} from t",
        "a b c \u{7f}",
        "ident\u{1}tail",
        "'ok' \u{2}",
        "   \u{1}",
        "select 1;\nselect \u{3};",
    ];
    for d in Dialect::ALL {
        for input in inputs {
            assert_all_substrates_agree(d, input);
        }
    }
}

/// Random fragment soup: concatenations of identifiers, keywords in mixed
/// case, numbers, punctuation, whitespace runs, string literals (ASCII and
/// non-ASCII interiors), comments, and occasional stray control bytes.
/// Run lengths are drawn to straddle the 8/16-byte chunk boundaries.
fn arb_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        // identifiers whose tails cross chunk boundaries at every length
        (1usize..80).prop_map(|n| format!("x{}", "a".repeat(n))),
        prop::sample::select(vec![
            "select", "SELECT", "SeLeCt", "from", "FROM", "where", "join", "ON", "not", "NULL",
        ])
        .prop_map(str::to_string),
        (0u64..1_000_000).prop_map(|n| n.to_string()),
        prop::sample::select(vec!["(", ")", ",", ".", ";", "*", "=", "<", ">", "+", "-"])
            .prop_map(str::to_string),
        (1usize..40).prop_map(|n| " ".repeat(n)),
        prop::sample::select(vec!["\n", "\t", "\n    "]).prop_map(str::to_string),
        (0usize..30).prop_map(|n| format!("'{}'", "s".repeat(n))),
        prop::sample::select(vec!["'héllo'", "'日本'", "-- note\n"]).prop_map(str::to_string),
        // stray control byte: a guaranteed LexError in every dialect
        Just("\u{1}".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn substrates_agree_on_fragment_soup(fragments in prop::collection::vec(arb_fragment(), 0..24)) {
        let input = fragments.concat();
        for d in Dialect::ALL {
            let s = scanner(d);
            let vector = s.scan(&input);
            let reference = s.scan_reference(&input);
            prop_assert_eq!(&vector, &reference, "{}: vector vs reference on {:?}", d.name(), input);
            let compiled = s.scan_compiled(&input);
            prop_assert_eq!(&vector, &compiled, "{}: vector vs compiled on {:?}", d.name(), input);
            let swar = s.scan_with_simd(SimdLevel::Swar, &input).expect("SWAR always available");
            prop_assert_eq!(&vector, &swar, "{}: detected vs SWAR on {:?}", d.name(), input);
        }
    }

    #[test]
    fn straddling_tokens_match_reference(pad in 0usize..16, len in 1usize..96) {
        // One token positioned to straddle chunk boundaries at every
        // (alignment, length) combination, on the widest dialect.
        let d = Dialect::Full;
        let s = scanner(d);
        for body in [format!("k{}", "w".repeat(len)), format!("'{}'", "q".repeat(len))] {
            let input = format!("{}{body};", " ".repeat(pad));
            prop_assert_eq!(s.scan(&input), s.scan_reference(&input), "{:?}", input);
        }
    }
}
