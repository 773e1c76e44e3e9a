//! # sqlweave — a feature-oriented product line of customizable SQL parsers
//!
//! Facade crate re-exporting the whole `sqlweave` workspace. This is a
//! from-scratch Rust reproduction of *"Generating Highly Customizable SQL
//! Parsers"* (Sunkle, Kuhlemann, Siegmund, Rosenmüller, Saake — EDBT 2008
//! Workshop on Software Engineering for Tailor-made Data Management).
//!
//! The idea: treat the SQL:2003 grammar as a **software product line**.
//! Every SQL construct is a *feature* in a FODA-style feature diagram; every
//! feature carries an LL(k) *sub-grammar* and a token file; selecting a set
//! of features (a *feature instance description*) and composing their
//! sub-grammars yields a grammar — and from it a parser — that accepts
//! *exactly* the selected SQL dialect.
//!
//! ```
//! // Select features for a tiny SELECT dialect (the paper's worked example).
//! let catalog = sqlweave::sql::catalog();
//! let config = catalog
//!     .complete(["query_statement", "select_sublist"])
//!     .expect("valid configuration");
//!
//! // Compose the sub-grammars and build a parser.
//! let parser = catalog.pipeline().parser_for(&config).expect("composable");
//! assert!(parser.parse("SELECT a FROM t").is_ok());
//! assert!(parser.parse("SELECT a FROM t WHERE a = 1").is_err()); // Where not selected
//! ```
//!
//! See `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the
//! paper-reproduction index.

pub use sqlweave_baseline as baseline;
pub use sqlweave_core as compose;
pub use sqlweave_dialects as dialects;
pub use sqlweave_feature_model as feature_model;
pub use sqlweave_grammar as grammar;
pub use sqlweave_lexgen as lexgen;
pub use sqlweave_lint as lint;
pub use sqlweave_parser_rt as parser_rt;
pub use sqlweave_sema as sema;
pub use sqlweave_sql_ast as sql_ast;
pub use sqlweave_sql_features as sql;

/// Convenience re-exports for typical use.
pub mod prelude {
    pub use crate::dialects::Dialect;
    pub use crate::feature_model::{Configuration, FeatureModel, ModelBuilder};
    pub use crate::parser_rt::engine::Parser;
    pub use crate::sql_ast::Statement;
}

/// Parse a SQL script with a preset dialect straight to typed ASTs.
///
/// The one-call path through the product line: dialect preset → composed
/// parser (cached per process) → CST → lowered statements.
///
/// ```
/// use sqlweave::dialects::Dialect;
///
/// let stmts = sqlweave::parse_sql(Dialect::Core, "SELECT a FROM t; COMMIT;").unwrap();
/// assert_eq!(stmts.len(), 2);
/// assert!(matches!(stmts[0], sqlweave::sql_ast::Statement::Query(_)));
///
/// // Statements outside the dialect are rejected with a parse error.
/// assert!(sqlweave::parse_sql(Dialect::Pico, "COMMIT").is_err());
/// ```
pub fn parse_sql(
    dialect: dialects::Dialect,
    sql: &str,
) -> Result<Vec<sql_ast::Statement>, ParseSqlError> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<&'static str, &'static parser_rt::engine::Parser>>> =
        OnceLock::new();
    let parser: &'static parser_rt::engine::Parser = {
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("cache lock");
        match map.get(dialect.name()) {
            Some(p) => p,
            None => {
                let p = dialect.parser().map_err(ParseSqlError::Compose)?;
                map.insert(dialect.name(), Box::leak(Box::new(p)));
                map[dialect.name()]
            }
        }
    };
    let cst = parser.parse(sql).map_err(ParseSqlError::Parse)?;
    sql_ast::lower::lower_script(&cst).map_err(ParseSqlError::Lower)
}

/// Error from [`parse_sql`].
#[derive(Debug)]
pub enum ParseSqlError {
    /// The dialect failed to compose (catalog bug; should not happen for
    /// the shipped presets).
    Compose(compose::PipelineError),
    /// The statement is not in the dialect.
    Parse(parser_rt::ParseError),
    /// The CST did not lower (catalog/lowering mismatch; should not happen
    /// for the shipped presets).
    Lower(sql_ast::LowerError),
}

impl std::fmt::Display for ParseSqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseSqlError::Compose(e) => write!(f, "{e}"),
            ParseSqlError::Parse(e) => write!(f, "{e}"),
            ParseSqlError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseSqlError {}
