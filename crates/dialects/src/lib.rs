//! Named SQL dialect presets — the "different prototype parsers" of the
//! paper's Section 5, each a feature configuration over the
//! `sqlweave-sql-features` catalog.
//!
//! | Dialect | Models | Scope |
//! |---|---|---|
//! | [`Dialect::Pico`] | PicoDBMS-style smartcard queries | select-project with simple predicates |
//! | [`Dialect::Tiny`] | TinySQL (TinyDB sensor networks) | single-table SELECT, aggregation, epoch/sample-period/lifetime clauses, no column aliases |
//! | [`Dialect::Scql`] | ISO SCQL (smart cards) | small DDL + DML + simple queries + grants |
//! | [`Dialect::Core`] | a practical SQL core | queries with joins/grouping/ordering, DML, basic DDL, transactions |
//! | [`Dialect::Warehouse`] | analytics/OLAP | core + set operations, WITH, CASE, windows, ROLLUP/CUBE/GROUPING SETS |
//! | [`Dialect::Full`] | everything in the catalog | all features |

use sqlweave_core::pipeline::Composed;
use sqlweave_core::PipelineError;
use sqlweave_feature_model::Configuration;
use sqlweave_parser_rt::engine::Parser;
use sqlweave_sql_features::catalog;

/// A named dialect preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// Select-project queries with simple predicates (embedded/smartcard).
    Pico,
    /// TinySQL for sensor networks.
    Tiny,
    /// Structured Card Query Language subset.
    Scql,
    /// Practical SQL core.
    Core,
    /// Analytics-oriented SQL.
    Warehouse,
    /// Every feature in the catalog.
    Full,
}

impl Dialect {
    /// All presets, smallest to largest.
    pub const ALL: [Dialect; 6] = [
        Dialect::Pico,
        Dialect::Tiny,
        Dialect::Scql,
        Dialect::Core,
        Dialect::Warehouse,
        Dialect::Full,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Dialect::Pico => "pico",
            Dialect::Tiny => "tiny",
            Dialect::Scql => "scql",
            Dialect::Core => "core",
            Dialect::Warehouse => "warehouse",
            Dialect::Full => "full",
        }
    }

    /// The seed feature selection (before auto-completion).
    pub fn seed_features(self) -> Vec<&'static str> {
        match self {
            Dialect::Pico => vec![
                "query_statement",
                "select_sublist",
                "select_asterisk",
                "where",
                "and_operator",
            ],
            Dialect::Tiny => vec![
                "query_statement",
                "select_sublist",
                "select_asterisk",
                "where",
                "and_operator",
                "group_by",
                "aggregate_functions",
                "count_star",
                "count_agg",
                "sum_agg",
                "avg_agg",
                "min_agg",
                "max_agg",
                "sensor_query",
                "epoch_duration",
                "sample_period",
                "lifetime_clause",
                "string_literal",
            ],
            Dialect::Scql => vec![
                "query_statement",
                "select_sublist",
                "select_asterisk",
                "where",
                "and_operator",
                "or_operator",
                "null_predicate",
                "string_literal",
                "null_literal",
                "table_definition",
                "not_null_constraint",
                "character_types",
                "exact_numeric_types",
                "insert_statement",
                "update_statement",
                "update_where",
                "delete_statement",
                "delete_where",
                "grant_revoke",
                "revoke_statement",
            ],
            Dialect::Core => vec![
                // queries
                "query_statement",
                "set_quantifier",
                "all",
                "distinct",
                "select_sublist",
                "select_asterisk",
                "as_clause",
                "correlation_name",
                "from_list",
                "joined_table",
                "outer_join",
                "left_join",
                "right_join",
                "where",
                "group_by",
                "having",
                "order_by",
                "asc_desc",
                "subquery",
                "derived_table",
                // expressions
                "arithmetic",
                "multiplicative_ops",
                "unary_sign",
                "parenthesized_expression",
                "string_literal",
                "boolean_literal",
                "null_literal",
                "aggregate_functions",
                "count_star",
                "count_agg",
                "sum_agg",
                "avg_agg",
                "min_agg",
                "max_agg",
                // predicates
                "boolean_logic",
                "or_operator",
                "and_operator",
                "not_operator",
                "boolean_parentheses",
                "between_predicate",
                "in_predicate",
                "like_predicate",
                "null_predicate",
                // DML
                "insert_statement",
                "insert_columns",
                "update_statement",
                "update_where",
                "delete_statement",
                "delete_where",
                // DDL
                "table_definition",
                "column_constraints",
                "not_null_constraint",
                "column_unique",
                "column_primary_key",
                "default_clause",
                "table_constraint",
                "primary_key_constraint",
                "unique_constraint",
                "foreign_key_constraint",
                "character_types",
                "exact_numeric_types",
                "approximate_numeric_types",
                "boolean_type",
                "datetime_types",
                "drop_statement",
                "drop_table",
                // transactions
                "transaction_statement",
                "savepoints",
                "isolation_levels",
                "set_transaction",
            ],
            Dialect::Warehouse => {
                let mut v = Dialect::Core.seed_features();
                v.extend([
                    "set_operations",
                    "union_op",
                    "except_op",
                    "intersect_op",
                    "with_clause",
                    "recursive_with",
                    "row_limit",
                    "nulls_ordering",
                    "grouping_sets",
                    "rollup",
                    "cube",
                    "window_clause",
                    "partition_by",
                    "window_order",
                    "window_frame",
                    "case_expression",
                    "simple_case",
                    "window_functions",
                    "rank_fn",
                    "dense_rank_fn",
                    "row_number_fn",
                    "stddev_pop_agg",
                    "stddev_samp_agg",
                    "var_pop_agg",
                    "var_samp_agg",
                    "truth_value_test",
                    "nullif_function",
                    "coalesce_function",
                    "cast_expression",
                    "exists_predicate",
                    "in_subquery",
                    "quantified_comparison",
                    "scalar_subquery",
                    "qualified_asterisk",
                    "full_join",
                    "cross_join",
                    "natural_join",
                    "join_using",
                    "view_definition",
                    "with_check_option",
                    "datetime_literal",
                    "extract_fn",
                    "current_datetime_fn",
                    "datetime_functions",
                ]);
                v
            }
            Dialect::Full => Vec::new(), // special-cased: all features
        }
    }

    /// The completed, validated configuration for this dialect.
    pub fn configuration(self) -> Configuration {
        let cat = catalog();
        let config = if self == Dialect::Full {
            Configuration::of(cat.model().iter().map(|(_, f)| f.name.clone()))
        } else {
            cat.complete(self.seed_features())
                .unwrap_or_else(|e| panic!("{} preset does not complete: {e}", self.name()))
        };
        if let Err(e) = cat.model().validate(&config) {
            panic!("{} preset invalid: {e}", self.name());
        }
        config
    }

    /// Whether this preset's completed configuration selects `feature`.
    /// This is the anchor for feature→capability mappings outside the
    /// grammar pipeline (e.g. the semantic resolver keys its subsystems
    /// off the same names). Completes the configuration on each call —
    /// hold a [`Dialect::configuration`] when querying many features.
    pub fn has_feature(self, feature: &str) -> bool {
        self.configuration().contains(feature)
    }

    /// Compose this dialect's grammar and tokens.
    pub fn composed(self) -> Result<Composed, PipelineError> {
        catalog()
            .pipeline()
            .with_name(self.name())
            .compose(&self.configuration())
    }

    /// Build the dialect parser.
    pub fn parser(self) -> Result<Parser, PipelineError> {
        self.composed()?.into_parser()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_compose() {
        for d in Dialect::ALL {
            let composed = d.composed().unwrap_or_else(|e| panic!("{}: {e}", d.name()));
            assert!(
                composed.grammar.undefined_nonterminals().is_empty(),
                "{}: undefined {:?}",
                d.name(),
                composed.grammar.undefined_nonterminals()
            );
            let parser = composed.into_parser();
            assert!(parser.is_ok(), "{}: {:?}", d.name(), parser.err().map(|e| e.to_string()));
        }
    }

    #[test]
    fn dialect_sizes_are_ordered() {
        let sizes: Vec<usize> = Dialect::ALL
            .iter()
            .map(|d| d.configuration().len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1] || w[0] < sizes[5]),
            "sizes not broadly increasing: {sizes:?}");
        assert!(sizes[0] < sizes[3] && sizes[3] < sizes[5]);
    }

    #[test]
    fn pico_accepts_and_rejects() {
        let p = Dialect::Pico.parser().unwrap();
        assert!(p.parse("SELECT a, b FROM t WHERE a = 1 AND b < 2").is_ok());
        assert!(p.parse("SELECT * FROM t").is_ok());
        assert!(p.parse("SELECT a FROM t ORDER BY a").is_err());
        assert!(p.parse("INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn tiny_accepts_sensor_queries() {
        let p = Dialect::Tiny.parser().unwrap();
        assert!(p
            .parse("SELECT nodeid, avg ( temp ) FROM sensors GROUP BY nodeid EPOCH DURATION 1024")
            .is_ok());
        assert!(p.parse("SELECT COUNT(*) FROM sensors SAMPLE PERIOD 2048").is_ok());
        // no aliases in TinySQL
        assert!(p.parse("SELECT temp AS t FROM sensors").is_err());
        // no joins
        assert!(p.parse("SELECT a FROM s JOIN t ON x = y").is_err());
    }

    #[test]
    fn scql_subset() {
        let p = Dialect::Scql.parser().unwrap();
        assert!(p.parse("CREATE TABLE t (a INT NOT NULL, b CHAR(8))").is_ok());
        assert!(p.parse("INSERT INTO t VALUES (1, 'x')").is_ok());
        assert!(p.parse("UPDATE t SET a = 2 WHERE b = 'x'").is_ok());
        assert!(p.parse("DELETE FROM t WHERE a = 1").is_ok());
        assert!(p.parse("GRANT SELECT ON t TO PUBLIC").is_ok());
        // no transactions in SCQL preset
        assert!(p.parse("COMMIT").is_err());
    }

    #[test]
    fn core_statements() {
        let p = Dialect::Core.parser().unwrap();
        for stmt in [
            "SELECT DISTINCT a, b AS bee FROM t1, t2 WHERE a = b AND NOT (b < 3 OR a > 5)",
            "SELECT a FROM t LEFT OUTER JOIN u ON t.x = u.y WHERE u.z IS NOT NULL",
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC",
            "SELECT a FROM (SELECT b FROM u) AS v",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
            "UPDATE t SET a = a + 1 WHERE b IN (1, 2, 3)",
            "DELETE FROM t WHERE a BETWEEN 1 AND 10",
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, PRIMARY KEY (id))",
            "DROP TABLE t CASCADE",
            "START TRANSACTION ISOLATION LEVEL SERIALIZABLE",
            "COMMIT WORK",
            "ROLLBACK TO SAVEPOINT sp1",
        ] {
            if let Err(e) = p.parse(stmt) {
                panic!("core rejected {stmt:?}: {e}");
            }
        }
        // not in core: windows, set operations
        assert!(p.parse("SELECT a FROM t UNION SELECT b FROM u").is_err());
    }

    #[test]
    fn warehouse_statements() {
        let p = Dialect::Warehouse.parser().unwrap();
        for stmt in [
            "SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1 OFFSET 10 ROWS FETCH FIRST 5 ROWS ONLY",
            "WITH r AS (SELECT a FROM t) SELECT * FROM r",
            "SELECT region, SUM(sales) FROM facts GROUP BY ROLLUP (region, yr)",
            "SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t",
            "SELECT CAST(a AS DECIMAL(10, 2)) FROM t",
            "SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE u.x = t.x)",
            "SELECT t.* FROM t",
        ] {
            if let Err(e) = p.parse(stmt) {
                panic!("warehouse rejected {stmt:?}: {e}");
            }
        }
    }

    #[test]
    fn full_dialect_accepts_everything_above() {
        let p = Dialect::Full.parser().unwrap();
        for stmt in [
            "SELECT a FROM t",
            "SELECT nodeid FROM sensors EPOCH DURATION 10",
            "MERGE INTO t USING u ON t.a = u.a WHEN MATCHED THEN UPDATE SET b = 1",
            "CREATE VIEW v AS SELECT a FROM t WITH CHECK OPTION",
            "CREATE SCHEMA s AUTHORIZATION admin",
            "ALTER TABLE t ADD COLUMN c INT",
            "GRANT SELECT, UPDATE ON TABLE t TO u1, u2 WITH GRANT OPTION",
            "SET TIME ZONE LOCAL",
            "DECLARE c1 INSENSITIVE SCROLL CURSOR WITH HOLD FOR SELECT a FROM t",
            "FETCH NEXT FROM c1",
            "SELECT SUBSTRING(name FROM 1 FOR 3) FROM t WHERE name LIKE 'A%' ESCAPE '!'",
            "SELECT EXTRACT(YEAR FROM d) FROM t",
            "SELECT a FROM t; DELETE FROM t; COMMIT;",
        ] {
            if let Err(e) = p.parse(stmt) {
                panic!("full rejected {stmt:?}: {e}");
            }
        }
    }

    /// The feature names semantic capabilities key off stay present (or
    /// absent) exactly where each preset's grammar says they are.
    #[test]
    fn capability_features_track_presets() {
        assert!(Dialect::Pico.has_feature("select_asterisk"));
        assert!(!Dialect::Pico.has_feature("subquery"));
        assert!(Dialect::Core.has_feature("derived_table"));
        assert!(!Dialect::Core.has_feature("with_clause"));
        assert!(Dialect::Warehouse.has_feature("with_clause"));
        assert!(Dialect::Warehouse.has_feature("qualified_asterisk"));
        assert!(Dialect::Full.has_feature("view_definition"));
        assert!(!Dialect::Full.has_feature("no_such_feature"));
    }
}
