//! Deterministic multi-megabyte corpus factory — the honest lex workload.
//!
//! The curated [`crate::corpus`] statements are a *coverage* workload:
//! 5–42 statements, a few hundred bytes total. Throughput numbers measured
//! on them are dominated by loop warmup and cache residency, not by
//! steady-state scanning ("Parser Knows Best" makes exactly this point
//! about tiny hand-picked corpora). This module manufactures scripts of
//! arbitrary size from the dialect's *own composed grammar*: sentences are
//! sampled from [`SentenceGenerator`] (the same weights the fuzz/sweep
//! workloads use), joined into `;`-separated statement scripts, and
//! interleaved with comment lines when the dialect's token set defines a
//! comment skip rule. Everything is seeded and reproducible — the same
//! `(dialect, seed, size)` triple always yields a byte-identical corpus.

use crate::composed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlweave_dialects::Dialect;
use sqlweave_grammar::sentence::SentenceGenerator;
use std::fmt::Write as _;

/// Seed used by `sqlweave bench --corpus-mb` and the CI smoke run.
pub const DEFAULT_SEED: u64 = 0xC0FF_EE11;

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

/// [`generate_script`] sized in whole mebibytes with the default seed —
/// the entry point behind `sqlweave bench --corpus-mb N`.
pub fn generate_script_mb(dialect: Dialect, mebibytes: usize) -> String {
    generate_script(dialect, DEFAULT_SEED, mebibytes * 1024 * 1024)
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
            // and identically across all four substrates' hot pair
            assert_eq!(scanner.scan_compiled(&script).unwrap(), toks, "{}", d.name());
        }
    }

    #[test]
    #[ignore = "manual throughput probe; run with --release -- --ignored"]
    fn throughput_probe() {
        let d = Dialect::Full;
        let script = generate_script_mb(d, 4);
        let scanner = crate::parser(d, EngineMode::Backtracking).scanner();
        println!(
            "strategy={} level={} keywords={} bytes={}",
            scanner.vector_strategy(),
            scanner.simd_level().name(),
            scanner.keywords_hashed(),
            script.len()
        );
        let mut toks = Vec::new();
        for (name, f) in [
            ("vector", Box::new(|out: &mut Vec<_>| scanner.scan_into(&script, out).unwrap())
                as Box<dyn Fn(&mut Vec<sqlweave_lexgen::Token>)>),
            ("compiled", Box::new(|out: &mut Vec<_>| scanner.scan_compiled_into(&script, out).unwrap())),
            ("interval", Box::new(|out: &mut Vec<_>| scanner.scan_reference_into(&script, out).unwrap())),
        ] {
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                toks.clear();
                let t = std::time::Instant::now();
                f(&mut toks);
                best = best.min(t.elapsed().as_secs_f64());
            }
            println!(
                "{name}: {:.1} MB/s ({} tokens)",
                script.len() as f64 / best / (1024.0 * 1024.0),
                toks.len()
            );
        }
    }

    #[test]
    #[ignore = "manual component probe"]
    fn component_probe() {
        let d = Dialect::Full;
        let scanner = crate::parser(d, EngineMode::Backtracking).scanner();
        let workloads: Vec<(&str, String)> = vec![
            // long identifier runs: one 40-char ident + space, repeated
            ("idents40", "abcdefgh_ijklmnop_qrstuvwx_yzabcdefg ".repeat(110_000)),
            // short idents: 4-char ident + space
            ("idents4", "abcd ".repeat(820_000)),
            // punctuation: "a<=b " style
            ("punct", "( ) , . + - * / < > = ; ".repeat(170_000)),
            // whitespace-heavy
            ("ws", "a        \n        b        \n        ".repeat(114_000)),
            // keywords
            ("keywords", "select from where group by having order ".repeat(100_000)),
        ];
        let mut toks = Vec::new();
        for (name, text) in &workloads {
            for (sub, f) in [
                ("vector", Box::new(|out: &mut Vec<_>| scanner.scan_into(text, out).unwrap())
                    as Box<dyn Fn(&mut Vec<sqlweave_lexgen::Token>)>),
                ("compiled", Box::new(|out: &mut Vec<_>| scanner.scan_compiled_into(text, out).unwrap())),
            ] {
                let mut best = f64::INFINITY;
                for _ in 0..3 {
                    toks.clear();
                    let t = std::time::Instant::now();
                    f(&mut toks);
                    best = best.min(t.elapsed().as_secs_f64());
                }
                println!(
                    "{name:9} {sub:9} {:7.1} MB/s  ({} tokens, {} bytes)",
                    text.len() as f64 / best / (1024.0 * 1024.0),
                    toks.len(),
                    text.len()
                );
            }
        }
    }

    #[test]
    fn corpus_contains_comments_and_statement_separators() {
        let script = generate_script(Dialect::Full, 11, 16 * 1024);
        assert!(script.contains("-- batch"));
        assert!(script.contains(";\n"));
    }
}

#[cfg(test)]
mod dump {
    #[test]
    #[ignore]
    fn dump_sample() {
        let s = super::generate_script(sqlweave_dialects::Dialect::Full, super::DEFAULT_SEED, 2500);
        println!("{s}");
    }
}

#[cfg(test)]
mod stats {
    use super::*;
    use sqlweave_parser_rt::engine::EngineMode;
    #[test]
    #[ignore]
    fn corpus_stats() {
        let d = sqlweave_dialects::Dialect::Full;
        let script = generate_script_mb(d, 4);
        let scanner = crate::parser(d, EngineMode::Backtracking).scanner();
        let toks = scanner.scan(&script).unwrap();
        let total = script.len();
        let mut kw_bytes = 0usize; let mut kw_n = 0usize;
        let mut id_bytes = 0usize; let mut id_n = 0usize;
        let mut p1_bytes = 0usize; let mut p1_n = 0usize;
        let mut other_bytes = 0usize; let mut other_n = 0usize;
        for t in &toks {
            let name = scanner.name(t.kind);
            let len = t.end - t.start;
            if name.chars().all(|c| c.is_ascii_uppercase() || c == '_') && script[t.start..t.end].chars().all(|c| c.is_ascii_alphabetic() || c == '_') && name.eq_ignore_ascii_case(&script[t.start..t.end]) {
                kw_bytes += len; kw_n += 1;
            } else if name == "IDENT" { id_bytes += len; id_n += 1; }
            else if len == 1 { p1_bytes += len; p1_n += 1; }
            else { other_bytes += len; other_n += 1; }
        }
        let tok_bytes = kw_bytes + id_bytes + p1_bytes + other_bytes;
        println!("total {total}  token-bytes {tok_bytes}  ws/skip-bytes {}", total - tok_bytes);
        println!("keywords: {kw_n} toks {kw_bytes} bytes avg {:.1}", kw_bytes as f64 / kw_n.max(1) as f64);
        println!("idents:   {id_n} toks {id_bytes} bytes avg {:.1}", id_bytes as f64 / id_n.max(1) as f64);
        println!("punct1:   {p1_n} toks {p1_bytes} bytes", );
        println!("other:    {other_n} toks {other_bytes} bytes avg {:.1}", other_bytes as f64 / other_n.max(1) as f64);
    }
}


#[cfg(test)]
mod probe_tmp2 {
    use super::*;
    use sqlweave_parser_rt::engine::EngineMode;
    #[test]
    #[ignore]
    fn probe_ll1_failures() {
        let d = sqlweave_dialects::Dialect::Core;
        let script = generate_script(d, 0xED17, 256 * 1024);
        let p = crate::parser(d, EngineMode::Ll1Table);
        let mut s = p.session();
        let o = s.parse_resilient(&script);
        println!("core ll1: {} errors", o.errors.len());
        for e in o.errors.iter().take(5) {
            let lo = e.at.saturating_sub(80);
            let hi = (e.at + 40).min(script.len());
            let lo = (lo..=e.at).rev().find(|&i| script.is_char_boundary(i)).unwrap();
            let hi = (hi..script.len().min(hi+4)).find(|&i| script.is_char_boundary(i)).unwrap_or(script.len());
            println!(
                "--- at {} ({}:{}): expected {:?} found {:?}",
                e.at, e.line, e.column, e.expected, e.found
            );
            println!("    ...{}", &script[lo..hi].replace('\n', " "));
        }
    }
}
