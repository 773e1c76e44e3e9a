//! Seeded input generators. Everything the benchmark runs comes from here:
//! the preset order of `build`, the dbt-style scripts of `lineage` together
//! with the lineage each statement must produce, and the resident document
//! and typing bursts of `edit`. The same seed always gives byte-identical
//! inputs; nothing here reads another crate's corpus or sentence generator.

use crate::rng::{Rng, STREAM_BURST, STREAM_DOCUMENT, STREAM_PRESETS, STREAM_SCRIPT};
use std::collections::BTreeSet;

/// Statements per `lineage` script.
pub const SCRIPT_STATEMENTS: usize = 40;

/// One generated statement and the lineage the resolver must report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    pub sql: String,
    pub kind: &'static str,
    pub target: Option<String>,
    pub reads: BTreeSet<String>,
}

/// A script: its statements, each followed by `;` and a newline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub text: String,
    pub statements: Vec<Statement>,
}

/// The order in which cycle `cycle` of `build` visits the six presets, as
/// indices into `Dialect::ALL`.
pub fn preset_cycle(seed: u64, cycle: u64) -> [usize; 6] {
    let mut order = [0, 1, 2, 3, 4, 5];
    Rng::stream(seed, STREAM_PRESETS, cycle).shuffle(&mut order);
    order
}

/// Script `index` of the `lineage` stream.
pub fn script(seed: u64, index: u64) -> Script {
    ScriptGen::new(Rng::stream(seed, STREAM_SCRIPT, index)).run()
}

/// The resident `edit` document and the byte offsets just past each
/// statement's `;`, where bursts type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    pub text: String,
    pub boundaries: Vec<usize>,
}

/// A document of at least `min_bytes`, made of `lineage`-style scripts.
pub fn document(seed: u64, min_bytes: usize) -> Document {
    let mut text = String::with_capacity(min_bytes + 16 * 1024);
    let mut boundaries = Vec::new();
    let mut index = 0;
    while text.len() < min_bytes {
        let s = ScriptGen::new(Rng::stream(seed, STREAM_DOCUMENT, index)).run();
        for st in &s.statements {
            text.push_str(&st.sql);
            text.push(';');
            boundaries.push(text.len());
            text.push('\n');
        }
        index += 1;
    }
    Document { text, boundaries }
}

/// One `edit` burst: `text` is typed at byte `at`, one character per
/// keystroke, then backspaced away. It ends with the statement's `;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Burst {
    pub at: usize,
    pub text: String,
}

/// Burst `index` of the `edit` stream over `doc`.
pub fn burst(seed: u64, index: u64, doc: &Document) -> Burst {
    let mut rng = Rng::stream(seed, STREAM_BURST, index);
    let at = *rng.pick(&doc.boundaries);
    let topic = rng.pick(&TOPICS);
    let n = rng.range(1, 40);
    let k = rng.range(1, 999);
    let stmt = match rng.below(4) {
        0 => format!("DELETE FROM raw_{topic}_{n} WHERE id = {k}"),
        1 => format!(
            "SELECT x.{} FROM raw_{topic}_{n} AS x",
            rng.pick(&MEASURES).0
        ),
        2 => format!("UPDATE agg_{topic}_{n} SET row_count = {k}"),
        _ => format!("INSERT INTO agg_{topic}_{n} (account_id) VALUES ({k})"),
    };
    Burst {
        at,
        text: format!("\n{stmt};"),
    }
}

// ------------------------------------------------------------ scripts

const TOPICS: [&str; 10] = [
    "orders",
    "accounts",
    "payments",
    "shipments",
    "events",
    "invoices",
    "sessions",
    "products",
    "refunds",
    "tickets",
];
const MEASURES: [(&str, &str); 6] = [
    ("amount", "DECIMAL(12, 2)"),
    ("qty", "INT"),
    ("price", "DECIMAL(10, 2)"),
    ("discount", "DECIMAL(5, 2)"),
    ("weight", "INT"),
    ("score", "INT"),
];
const DIMS: [(&str, &str); 6] = [
    ("region", "VARCHAR(16)"),
    ("status", "VARCHAR(12)"),
    ("channel", "VARCHAR(12)"),
    ("segment", "VARCHAR(20)"),
    ("country", "CHAR(2)"),
    ("category", "VARCHAR(24)"),
];
const DIM_VALUES: [&str; 8] = [
    "emea", "apac", "amer", "open", "closed", "web", "retail", "b2b",
];
const AGGS: [&str; 4] = ["SUM", "AVG", "MIN", "MAX"];
const RANKS: [&str; 3] = ["RANK", "DENSE_RANK", "ROW_NUMBER"];

/// Name of a derived measure column: `amount` under `SUM` is `amount_sum`,
/// and a derived measure keeps only its root (`amount_sum` under `MAX` is
/// `amount_max`), so names stay short however deep views nest.
fn derived_name(measure: &str, agg: &str) -> String {
    let root = measure.split('_').next().unwrap_or(measure);
    format!("{root}_{}", agg.to_ascii_lowercase())
}

/// A relation the script has created, with the columns later statements
/// may reference. Every relation has `account_id`, a measure and a dim.
struct Table {
    name: String,
    topic: &'static str,
    measures: Vec<String>,
    dims: Vec<String>,
}

/// Source tables each script creates before anything else.
const SOURCES: usize = 8;

struct ScriptGen {
    rng: Rng,
    serial: usize,
    /// Source tables first, then the aggregates and views built on them.
    tables: Vec<Table>,
    statements: Vec<Statement>,
}

impl ScriptGen {
    fn new(rng: Rng) -> ScriptGen {
        ScriptGen {
            rng,
            serial: 0,
            tables: Vec::new(),
            statements: Vec::new(),
        }
    }

    fn run(mut self) -> Script {
        for _ in 0..SOURCES {
            self.source_table();
        }
        while self.statements.len() < SCRIPT_STATEMENTS {
            let left = SCRIPT_STATEMENTS - self.statements.len();
            match self.rng.below(20) {
                0..=4 if left >= 2 => self.insert_select(),
                0..=10 => self.view(),
                _ => self.report(),
            }
        }
        let mut text = String::new();
        for st in &self.statements {
            text.push_str(&st.sql);
            text.push_str(";\n");
        }
        Script {
            text,
            statements: self.statements,
        }
    }

    fn name(&mut self, prefix: &str, topic: &str) -> String {
        self.serial += 1;
        format!("{prefix}_{topic}_{}", self.serial)
    }

    fn push(
        &mut self,
        sql: String,
        kind: &'static str,
        target: Option<String>,
        reads: Vec<String>,
    ) {
        let reads = reads.into_iter().collect();
        self.statements.push(Statement {
            sql,
            kind,
            target,
            reads,
        });
    }

    /// A relation other than those in `not`.
    fn any_table(&mut self, not: &[usize]) -> usize {
        loop {
            let i = self.rng.below(self.tables.len());
            if !not.contains(&i) {
                return i;
            }
        }
    }

    fn measure(&mut self, t: usize) -> String {
        let t = &self.tables[t];
        t.measures[self.rng.below(t.measures.len())].clone()
    }

    fn dim(&mut self, t: usize) -> String {
        let t = &self.tables[t];
        t.dims[self.rng.below(t.dims.len())].clone()
    }

    fn source_table(&mut self) {
        let topic = *self.rng.pick(&TOPICS);
        let name = self.name("raw", topic);
        let mut m: Vec<usize> = (0..MEASURES.len()).collect();
        let mut d: Vec<usize> = (0..DIMS.len()).collect();
        self.rng.shuffle(&mut m);
        self.rng.shuffle(&mut d);
        m.truncate(2);
        d.truncate(2);
        let mut sql = format!("CREATE TABLE {name} (\nid INT NOT NULL,\naccount_id INT");
        for &i in &m {
            sql.push_str(&format!(",\n{} {}", MEASURES[i].0, MEASURES[i].1));
        }
        for &i in &d {
            sql.push_str(&format!(",\n{} {}", DIMS[i].0, DIMS[i].1));
        }
        sql.push_str("\n)");
        self.push(sql, "create_table", Some(name.clone()), Vec::new());
        self.tables.push(Table {
            name,
            topic,
            measures: m.iter().map(|&i| MEASURES[i].0.to_string()).collect(),
            dims: d.iter().map(|&i| DIMS[i].0.to_string()).collect(),
        });
    }

    /// `CREATE TABLE` for an aggregate target, then `INSERT … SELECT` into
    /// it over a join with an aggregate.
    fn insert_select(&mut self) {
        let ia = self.any_table(&[]);
        let ib = self.any_table(&[ia]);
        let ic = if self.rng.chance(30) {
            Some(self.any_table(&[ia, ib]))
        } else {
            None
        };
        let (m, m2, dim, dim2) = (
            self.measure(ia),
            self.measure(ia),
            self.dim(ib),
            self.dim(ib),
        );
        let (a, b) = (self.tables[ia].name.clone(), self.tables[ib].name.clone());
        let topic = self.tables[ia].topic;
        let agg = *self.rng.pick(&AGGS);
        let out = derived_name(&m, agg);
        let target = self.name("agg", topic);
        let ddl = format!(
            "CREATE TABLE {target} (\naccount_id INT,\n{dim} VARCHAR(24),\n{out} DECIMAL(14, 2),\nrow_count INT\n)"
        );
        self.push(ddl, "create_table", Some(target.clone()), Vec::new());

        let mut sql = format!(
            "INSERT INTO {target} (account_id, {dim}, {out}, row_count)\nSELECT a.account_id, b.{dim}, {agg}(a.{m}), COUNT(*)\nFROM {a} AS a\nJOIN {b} AS b ON a.account_id = b.account_id"
        );
        let floor = self.rng.range(0, 500);
        let mut reads = vec![a, b];
        if let Some(ic) = ic {
            let c = self.tables[ic].name.clone();
            let cm = self.measure(ic);
            sql.push_str(&format!(
                "\nLEFT JOIN {c} AS c ON c.account_id = a.account_id"
            ));
            sql.push_str(&format!("\nWHERE a.{m2} > {floor} AND c.{cm} IS NOT NULL"));
            reads.push(c);
        } else if self.rng.chance(50) {
            let v = self.rng.pick(&DIM_VALUES);
            sql.push_str(&format!("\nWHERE a.{m2} > {floor} AND b.{dim2} <> '{v}'"));
        }
        sql.push_str(&format!("\nGROUP BY a.account_id, b.{dim}"));
        if self.rng.chance(25) {
            sql.push_str(&format!("\nHAVING COUNT(*) > {}", self.rng.range(1, 20)));
        }
        self.push(sql, "insert", Some(target.clone()), reads);
        self.tables.push(Table {
            name: target,
            topic,
            measures: vec![out, "row_count".to_string()],
            dims: vec![dim],
        });
    }

    /// `CREATE VIEW … AS WITH …`: one or two aggregating CTEs joined to a
    /// relation that supplies a dimension.
    fn view(&mut self) {
        let i1 = self.any_table(&[]);
        let i3 = self.any_table(&[i1]);
        let i2 = if self.rng.chance(25) {
            Some(self.any_table(&[i1, i3]))
        } else {
            None
        };
        let (m, dim) = (self.measure(i1), self.dim(i3));
        let (s1, s3) = (self.tables[i1].name.clone(), self.tables[i3].name.clone());
        let topic = self.tables[i1].topic;
        let agg = *self.rng.pick(&AGGS);
        let out = derived_name(&m, agg);
        let name = self.name("v", topic);
        let mut sql = format!(
            "CREATE VIEW {name} AS\nWITH stage_1 AS (\nSELECT x.account_id AS account_id, {agg}(x.{m}) AS {out}\nFROM {s1} AS x\nGROUP BY x.account_id\n)"
        );
        let mut reads = vec!["stage_1".to_string(), s1, s3.clone()];
        let mut peak = None;
        if let Some(i2) = i2 {
            let (m2, d2) = (self.measure(i2), self.dim(i2));
            let s2 = self.tables[i2].name.clone();
            let p = derived_name(&m2, "PEAK");
            let v = self.rng.pick(&DIM_VALUES);
            sql.push_str(&format!(
                ",\nstage_2 AS (\nSELECT y.account_id AS account_id, MAX(y.{m2}) AS {p}\nFROM {s2} AS y\nWHERE y.{d2} = '{v}'\nGROUP BY y.account_id\n)"
            ));
            reads.push("stage_2".to_string());
            reads.push(s2);
            peak = Some(p);
        }
        sql.push_str(&format!("\nSELECT k.account_id, k.{out}, d.{dim}"));
        if let Some(p) = &peak {
            sql.push_str(&format!(", j.{p}"));
        }
        sql.push_str(&format!(
            "\nFROM stage_1 AS k\nJOIN {s3} AS d ON d.account_id = k.account_id"
        ));
        if peak.is_some() {
            sql.push_str("\nJOIN stage_2 AS j ON j.account_id = k.account_id");
        }
        self.push(sql, "create_view", Some(name.clone()), reads);
        let mut measures = vec![out];
        measures.extend(peak);
        self.tables.push(Table {
            name,
            topic,
            measures,
            dims: vec![dim],
        });
    }

    /// A report: a ranking window and a `CASE` over a derived relation,
    /// sometimes joined to another relation.
    fn report(&mut self) {
        let ir = if self.tables.len() > SOURCES {
            SOURCES + self.rng.below(self.tables.len() - SOURCES)
        } else {
            self.any_table(&[])
        };
        let (m, dim) = (self.measure(ir), self.dim(ir));
        let r = self.tables[ir].name.clone();
        let rank = *self.rng.pick(&RANKS);
        let hi = self.rng.range(500, 5000);
        let case = if self.rng.chance(30) {
            let lo = self.rng.range(10, 400);
            format!(
                "CASE WHEN r.{m} > {hi} THEN 'high' WHEN r.{m} > {lo} THEN 'mid' ELSE 'low' END"
            )
        } else {
            format!("CASE WHEN r.{m} > {hi} THEN 'high' ELSE 'low' END")
        };
        let mut sql = format!(
            "SELECT r.{dim}, r.{m},\n{rank}() OVER (PARTITION BY r.{dim} ORDER BY r.{m} DESC) AS rnk,\n{case} AS tier"
        );
        let mut reads = vec![r.clone()];
        if self.rng.chance(30) {
            let is = self.any_table(&[ir]);
            let sd = self.dim(is);
            let s = self.tables[is].name.clone();
            sql.push_str(&format!(", s.{sd} AS peer_{sd}\nFROM {r} AS r\nJOIN {s} AS s ON s.account_id = r.account_id"));
            reads.push(s);
        } else {
            sql.push_str(&format!("\nFROM {r} AS r"));
        }
        if self.rng.chance(50) {
            sql.push_str(&format!("\nWHERE r.{m} IS NOT NULL"));
        }
        sql.push_str(&format!("\nORDER BY r.{dim}"));
        self.push(sql, "select", None, reads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_identical_inputs() {
        for seed in [0, 7, 12345] {
            assert_eq!(preset_cycle(seed, 3), preset_cycle(seed, 3));
            assert_eq!(script(seed, 5), script(seed, 5));
            let a = document(seed, 64 * 1024);
            let b = document(seed, 64 * 1024);
            assert_eq!(a, b);
            assert_eq!(burst(seed, 9, &a), burst(seed, 9, &b));
        }
    }

    #[test]
    fn another_seed_gives_different_inputs() {
        let cycles = |seed| (0..8).map(|c| preset_cycle(seed, c)).collect::<Vec<_>>();
        assert_ne!(cycles(1), cycles(2));
        assert_ne!(script(1, 0).text, script(2, 0).text);
        assert_ne!(script(1, 0).text, script(1, 1).text);
        let (a, b) = (document(1, 64 * 1024), document(2, 64 * 1024));
        assert_ne!(a.text, b.text);
        let bursts = |seed, d: &Document| (0..8).map(|i| burst(seed, i, d)).collect::<Vec<_>>();
        assert_ne!(bursts(1, &a), bursts(2, &a));
    }

    #[test]
    fn scripts_have_the_advertised_shape() {
        let s = script(3, 0);
        assert_eq!(s.statements.len(), SCRIPT_STATEMENTS);
        for kind in ["create_table", "insert", "create_view", "select"] {
            assert!(
                s.statements.iter().any(|st| st.kind == kind),
                "no {kind} in {}",
                s.text
            );
        }
        let d = document(3, 256 * 1024);
        assert!(d.text.len() >= 256 * 1024);
        assert!(d
            .boundaries
            .iter()
            .all(|&b| d.text.as_bytes()[b - 1] == b';'));
    }
}
