//! Workload generation and shared fixtures for the integration tests.
//!
//! Three workload sources:
//!
//! * [`corpus()`] — curated statements per dialect, exercising each
//!   statement class the dialect supports (the "realistic usage" workload).
//! * [`generated`] — grammar-driven random sentences sampled from the
//!   dialect's *own composed grammar* (seeded, reproducible), the
//!   stress/sweep workload.
//! * [`corpus::generate_script`] — seeded multi-statement scripts of any
//!   size, the input of the scanner and incremental work-count gates.
//!
//! Parsers are cached per `(dialect, engine)` in [`parser`] because full
//! composition takes tens of milliseconds and tests request them
//! repeatedly.

pub mod corpus;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlweave_core::pipeline::Composed;
use sqlweave_dialects::Dialect;
use sqlweave_grammar::sentence::SentenceGenerator;
use sqlweave_parser_rt::engine::{EngineMode, Parser};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Cached composed artifacts per dialect.
pub fn composed(dialect: Dialect) -> &'static Composed {
    static CACHE: OnceLock<Mutex<HashMap<&'static str, &'static Composed>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap();
    map.entry(dialect.name()).or_insert_with(|| {
        Box::leak(Box::new(
            dialect
                .composed()
                .unwrap_or_else(|e| panic!("compose {}: {e}", dialect.name())),
        ))
    })
}

/// Cached parser per dialect and engine mode.
pub fn parser(dialect: Dialect, mode: EngineMode) -> &'static Parser {
    // Keyed on `EngineMode` itself (it derives `Hash`): a projection like
    // `matches!(mode, EngineMode::Ll1Table)` would silently collide two
    // modes into one cache slot the day a third engine is added.
    static CACHE: OnceLock<Mutex<HashMap<(&'static str, EngineMode), &'static Parser>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap();
    let key = (dialect.name(), mode);
    map.entry(key).or_insert_with(|| {
        Box::leak(Box::new(
            dialect
                .parser_with_mode(mode)
                .unwrap_or_else(|e| panic!("parser {}: {e}", dialect.name())),
        ))
    })
}

/// Curated statements every parser of the given dialect must accept.
pub fn corpus(dialect: Dialect) -> Vec<&'static str> {
    let pico = vec![
        "SELECT a FROM t",
        "SELECT a, b, c FROM t",
        "SELECT * FROM t WHERE a = 1",
        "SELECT a FROM t WHERE a < 10 AND b = 2 AND c > 3",
        "SELECT balance FROM accounts WHERE owner = 4711",
    ];
    let tiny = vec![
        "SELECT nodeid, light FROM sensors",
        "SELECT nodeid, AVG(temp) FROM sensors GROUP BY nodeid",
        "SELECT COUNT(*) FROM sensors WHERE temp > 30 EPOCH DURATION 1024",
        "SELECT nodeid FROM sensors SAMPLE PERIOD 2048",
        "SELECT MAX(light) FROM sensors WHERE deck = 6 LIFETIME 30",
    ];
    let scql = vec![
        "CREATE TABLE purse (id INT NOT NULL, balance DECIMAL(8, 2))",
        "INSERT INTO purse VALUES (1, 100)",
        "UPDATE purse SET balance = 50 WHERE id = 1",
        "DELETE FROM purse WHERE id = 1",
        "SELECT balance FROM purse WHERE id = 1",
        "GRANT SELECT ON purse TO PUBLIC",
        "REVOKE UPDATE ON purse FROM clerk",
    ];
    let core = vec![
        "SELECT DISTINCT a, b AS bee FROM t1, t2 WHERE a = b",
        "SELECT a FROM t LEFT OUTER JOIN u ON t.x = u.y WHERE u.z IS NOT NULL",
        "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC",
        "SELECT a FROM (SELECT b FROM u) AS v WHERE a IN (1, 2, 3)",
        "SELECT x FROM t WHERE x BETWEEN 1 AND 10 OR y LIKE 'abc%'",
        "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
        "UPDATE t SET a = a + 1, b = DEFAULT WHERE c NOT IN (4, 5)",
        "DELETE FROM t WHERE a BETWEEN 1 AND 10",
        "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(40) DEFAULT 'x' NOT NULL, CONSTRAINT fk FOREIGN KEY (id) REFERENCES u (uid) ON DELETE CASCADE)",
        "DROP TABLE t CASCADE",
        "START TRANSACTION ISOLATION LEVEL SERIALIZABLE, READ WRITE",
        "SAVEPOINT sp1",
        "ROLLBACK TO SAVEPOINT sp1",
        "COMMIT WORK",
    ];
    let warehouse = vec![
        "SELECT region, SUM(sales) FROM facts GROUP BY ROLLUP (region, yr)",
        "SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1 OFFSET 100 ROWS FETCH FIRST 10 ROWS ONLY",
        "WITH RECURSIVE r AS (SELECT a FROM t) SELECT * FROM r",
        "SELECT CASE WHEN margin > 0 THEN 'profit' ELSE 'loss' END FROM facts",
        "SELECT CAST(total AS DECIMAL(12, 2)) FROM facts",
        "SELECT t.* FROM t WHERE EXISTS (SELECT u.x FROM u WHERE u.x = t.x)",
        "SELECT a FROM f GROUP BY GROUPING SETS (a, ROLLUP (b, c))",
        "SELECT a FROM t WHERE a = ANY (SELECT b FROM u)",
        "CREATE VIEW v (a, b) AS SELECT x, y FROM t WITH CHECK OPTION",
        "SELECT EXTRACT(YEAR FROM d), CURRENT_TIMESTAMP FROM t",
        "SELECT w FROM t WINDOW win AS (PARTITION BY a ORDER BY b ROWS BETWEEN 1 PRECEDING AND CURRENT ROW)",
        "SELECT RANK() OVER (PARTITION BY region ORDER BY sales) FROM f",
        "SELECT STDDEV_POP(x), VAR_SAMP(y) FROM t GROUP BY g",
        "SELECT a FROM t WHERE b IS NOT UNKNOWN",
    ];
    let full_extra = vec![
        "MERGE INTO t USING u ON t.a = u.a WHEN MATCHED THEN UPDATE SET b = 1 WHEN NOT MATCHED THEN INSERT (a, b) VALUES (1, 2)",
        "CREATE SCHEMA s AUTHORIZATION admin",
        "CREATE DOMAIN money AS DECIMAL(10, 2) DEFAULT 0 CHECK (v >= 0)",
        "ALTER TABLE t ADD COLUMN c BOOLEAN",
        "GRANT SELECT, UPDATE ON TABLE t TO u1, u2 WITH GRANT OPTION",
        "SET SESSION AUTHORIZATION admin",
        "DECLARE c1 INSENSITIVE SCROLL CURSOR WITH HOLD FOR SELECT a FROM t",
        "FETCH ABSOLUTE 10 FROM c1",
        "SELECT SUBSTRING(name FROM 1 FOR 3) || '…no…' FROM t",
        "SELECT INTERVAL '1' DAY, DATE '2026-07-04' FROM t",
        "CREATE GLOBAL TEMPORARY TABLE tt (xs INTEGER ARRAY[8])",
        "SELECT a FROM t WHERE x IS DISTINCT FROM y",
        "SELECT LN(x), EXP(y), ROW_NUMBER() OVER (ORDER BY x) FROM t",
        "CREATE TABLE seq (id INTEGER GENERATED ALWAYS AS IDENTITY PRIMARY KEY, v SMALLINT)",
    ];
    match dialect {
        Dialect::Pico => pico,
        Dialect::Tiny => tiny,
        Dialect::Scql => scql,
        Dialect::Core => core,
        Dialect::Warehouse => {
            let mut v = core.clone();
            v.extend(warehouse);
            v
        }
        Dialect::Full => {
            let mut v = core;
            v.extend(warehouse);
            v.extend(full_extra);
            v
        }
    }
}

/// Deterministically corrupted multi-statement scripts — the error-density
/// workload of the recovery differential suite.
///
/// Corpus statements are grouped three to a script (`; `-joined) and one
/// statement per script is corrupted by duplicating its leading keyword
/// (`SELECT SELECT …`), which no dialect accepts; the corrupted slot
/// rotates with the script index so errors land at the start, middle, and
/// end of scripts. Pure index arithmetic, no RNG: the same dialect always
/// yields byte-identical scripts.
pub fn faulty_corpus(dialect: Dialect) -> Vec<String> {
    fn corrupt(stmt: &str) -> String {
        match stmt.split_once(' ') {
            Some((head, rest)) => format!("{head} {head} {rest}"),
            None => format!("{stmt} {stmt}"),
        }
    }
    corpus(dialect)
        .chunks(3)
        .enumerate()
        .map(|(i, chunk)| {
            let bad = i % chunk.len();
            let stmts: Vec<String> = chunk
                .iter()
                .enumerate()
                .map(|(j, s)| if j == bad { corrupt(s) } else { (*s).to_string() })
                .collect();
            stmts.join("; ")
        })
        .collect()
}

/// A statement each *other* dialect accepts but this one must reject
/// (feature-boundary witnesses for the dialect matrix).
pub fn rejection_witness(dialect: Dialect) -> Option<&'static str> {
    match dialect {
        Dialect::Pico => Some("SELECT a FROM t ORDER BY a"),
        Dialect::Tiny => Some("SELECT a AS alias FROM t"),
        Dialect::Scql => Some("COMMIT"),
        Dialect::Core => Some("SELECT a FROM t UNION SELECT b FROM u"),
        Dialect::Warehouse => Some("MERGE INTO t USING u ON a = b WHEN MATCHED THEN UPDATE SET x = 1"),
        Dialect::Full => None,
    }
}

/// Generate `n` random sentences from the dialect's composed grammar.
pub fn generated(dialect: Dialect, seed: u64, n: usize, max_depth: usize) -> Vec<String> {
    let composed = composed(dialect);
    let generator = SentenceGenerator::new(&composed.grammar, &composed.tokens)
        .unwrap_or_else(|e| panic!("generator {}: {e}", dialect.name()));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| generator.generate(&mut rng, max_depth)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_accepted_by_their_dialects() {
        for d in Dialect::ALL {
            let p = parser(d, EngineMode::Backtracking);
            for stmt in corpus(d) {
                if let Err(e) = p.parse(stmt) {
                    panic!("{} rejected corpus statement {stmt:?}: {e}", d.name());
                }
            }
        }
    }

    #[test]
    fn rejection_witnesses_rejected() {
        for d in Dialect::ALL {
            if let Some(stmt) = rejection_witness(d) {
                let p = parser(d, EngineMode::Backtracking);
                assert!(p.parse(stmt).is_err(), "{} accepted witness {stmt:?}", d.name());
            }
        }
    }

    #[test]
    fn generated_sentences_parse() {
        for d in Dialect::ALL {
            let p = parser(d, EngineMode::Backtracking);
            for s in generated(d, 7, 50, 9) {
                if let Err(e) = p.parse(&s) {
                    panic!("{} rejected its own sentence {s:?}: {e}", d.name());
                }
            }
        }
    }

    #[test]
    fn faulty_corpus_is_deterministic_and_every_script_errors() {
        for d in Dialect::ALL {
            let scripts = faulty_corpus(d);
            assert!(!scripts.is_empty(), "{}", d.name());
            assert_eq!(scripts, faulty_corpus(d), "{}", d.name());
            let p = parser(d, EngineMode::Backtracking);
            let mut s = p.session();
            for script in &scripts {
                let outcome = s.parse_resilient(script);
                assert!(!outcome.errors.is_empty(), "{}: {script:?}", d.name());
            }
        }
    }

    #[test]
    fn generated_sentences_are_reproducible() {
        assert_eq!(generated(Dialect::Core, 42, 10, 8), generated(Dialect::Core, 42, 10, 8));
        assert_ne!(generated(Dialect::Core, 42, 10, 8), generated(Dialect::Core, 43, 10, 8));
    }
}
