//! Deterministic multi-megabyte script factory.
//!
//! The curated [`crate::corpus()`] statements are a *coverage* workload:
//! 5–42 statements, a few hundred bytes total — too few to show how the
//! scanner or the incremental repair behave over a long document. This
//! module manufactures scripts of arbitrary size from the dialect's *own
//! composed grammar*: sentences are sampled from [`SentenceGenerator`]
//! (the same weights the fuzz/sweep workloads use), joined into
//! `;`-separated statement scripts, and interleaved with comment lines
//! when the dialect's token set defines a comment skip rule. Everything is
//! seeded and reproducible — the same `(dialect, seed, size)` triple
//! always yields a byte-identical corpus, so work counts measured on it
//! (relexed tokens, reparse windows) are exact on every host.

use crate::composed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlweave_dialects::Dialect;
use sqlweave_grammar::sentence::SentenceGenerator;
use std::fmt::Write as _;

/// Sentence depth budget: deep enough for nested subqueries and multi-way
/// joins so the token mix resembles the curated corpus, not single-clause
/// stubs.
const MAX_DEPTH: usize = 10;

/// Pattern-lexeme repetition range: identifiers, numbers, and string
/// literals sized like production schemas (`order_line_items`,
/// `cfg_retention_days`), not fuzz minimals (`q7`). Real-world scripts
/// average 8–12 bytes per identifier; the default fuzz range averages ~2.
const LEXEME_REPS: (usize, usize) = (8, 18);

/// Wrap generated statements at this column, continuation lines indented —
/// the whitespace shape of hand-written or formatter-emitted SQL.
const WRAP_WIDTH: usize = 72;

/// Generate a script of at least `target_bytes` bytes for `dialect`,
/// deterministically from `seed`.
///
/// The script is a sequence of generated statements, `;`-terminated when
/// the dialect defines a `SEMI` token, one per line, with a comment line
/// (exercising comment-run skipping) every few statements when the
/// dialect's token set has a `LINE_COMMENT` rule. The output always lexes
/// cleanly under the dialect's scanner — it is produced from the same
/// composed token set.
pub fn generate_script(dialect: Dialect, seed: u64, target_bytes: usize) -> String {
    let composed = composed(dialect);
    let generator = SentenceGenerator::new(&composed.grammar, &composed.tokens)
        .unwrap_or_else(|e| panic!("generator {}: {e}", dialect.name()))
        .with_lexeme_reps(LEXEME_REPS.0, LEXEME_REPS.1);
    let mut rng = StdRng::seed_from_u64(seed);
    let has_semi = composed.tokens.get("SEMI").is_some();
    let has_comment = composed.tokens.get("LINE_COMMENT").is_some();

    let mut out = String::with_capacity(target_bytes + 256);
    let mut batch = 0usize;
    while out.len() < target_bytes {
        if has_comment && batch.is_multiple_of(8) {
            let _ = writeln!(
                out,
                "-- batch {batch}: generated workload, dialect {}",
                dialect.name()
            );
        }
        let stmt = generator.generate_wrapped(&mut rng, MAX_DEPTH, WRAP_WIDTH);
        out.push_str(&stmt);
        // The generator samples whole script sentences, which may already
        // carry their own trailing separator — appending another would
        // manufacture an empty statement (`;;`) the parsers diagnose,
        // poisoning every "clean document" workload built on this corpus.
        if has_semi && !stmt.trim_end().ends_with(';') {
            out.push(';');
        }
        out.push('\n');
        batch += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlweave_parser_rt::engine::EngineMode;

    #[test]
    fn corpus_is_deterministic_and_reaches_target_size() {
        let a = generate_script(Dialect::Core, 7, 64 * 1024);
        let b = generate_script(Dialect::Core, 7, 64 * 1024);
        assert_eq!(a, b);
        assert!(a.len() >= 64 * 1024);
        assert_ne!(a, generate_script(Dialect::Core, 8, 64 * 1024));
    }

    #[test]
    fn corpus_lexes_cleanly_on_every_dialect() {
        for d in Dialect::ALL {
            let script = generate_script(d, 3, 32 * 1024);
            let scanner = crate::parser(d, EngineMode::Backtracking).scanner();
            let toks = scanner
                .scan(&script)
                .unwrap_or_else(|e| panic!("{}: {e}", d.name()));
            assert!(!toks.is_empty(), "{}", d.name());
            // Every preset passes the keyword-hash soundness gate; a
            // run-only fallback would scan every keyword through the
            // fragmented full automaton.
            assert_eq!(scanner.vector_strategy(), "keyword-hash", "{}", d.name());
            // and identically across all four substrates' hot pair
            assert_eq!(scanner.scan_compiled(&script).unwrap(), toks, "{}", d.name());
        }
    }

    #[test]
    fn corpus_contains_comments_and_statement_separators() {
        let script = generate_script(Dialect::Full, 11, 16 * 1024);
        assert!(script.contains("-- batch"));
        assert!(script.contains(";\n"));
    }
}
