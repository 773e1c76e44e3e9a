//! Lexer-generator substrate for `sqlweave`.
//!
//! The paper delegates lexing to ANTLR's generated lexers; this crate is the
//! from-scratch replacement. It compiles a set of token rules — keywords,
//! punctuation, and regular-expression patterns — into a single minimized
//! DFA and scans input with longest-match / declaration-priority semantics.
//!
//! Pipeline: [`regex`] (pattern AST + parser) → [`nfa`] (Thompson
//! construction) → [`dfa`] (subset construction over a partitioned
//! alphabet) → [`minimize`] (partition refinement) → [`compiled`] (dense
//! byte-class dispatch tables) → [`vector`] (chunked SWAR/SIMD
//! run-skipping plus the generated keyword hash) → [`scanner`]
//! (maximal-munch scanning over the vectorized tables, with the per-byte
//! compiled walk and the interval walker preserved as differential
//! oracles). [`tokenset`] is the user-facing rule
//! collection, used by the grammar/composition layers for the paper's
//! per-feature *token files*.
//!
//! # Example
//!
//! ```
//! use sqlweave_lexgen::tokenset::TokenSet;
//!
//! let mut ts = TokenSet::new();
//! ts.keyword("SELECT").unwrap();
//! ts.keyword("FROM").unwrap();
//! ts.punct("COMMA", ",").unwrap();
//! ts.pattern("IDENT", r"[A-Za-z_][A-Za-z0-9_]*").unwrap();
//! ts.skip("WS", r"[ \t\r\n]+").unwrap();
//!
//! let scanner = ts.build().unwrap();
//! let toks = scanner.scan("select x, y from t").unwrap();
//! let kinds: Vec<&str> = toks.iter().map(|t| scanner.name(t.kind)).collect();
//! assert_eq!(kinds, ["SELECT", "IDENT", "COMMA", "IDENT", "FROM", "IDENT"]);
//! ```

pub mod analysis;
pub mod compiled;
pub mod dfa;
pub mod incremental;
pub mod line_index;
pub mod minimize;
pub mod nfa;
pub mod regex;
pub mod scanner;
pub mod split_vec;
#[cfg(test)]
mod testdata;
pub mod text;
pub mod tokenset;
pub mod vector;

pub use compiled::CompiledDfa;
pub use incremental::{Probe, ProbeCache, RawStep, Relex, TokenSource};
pub use line_index::LineIndex;
pub use scanner::{LexError, Scanner, Token, TokenKind};
pub use split_vec::{Anchored, SplitVec};
pub use text::TextView;
pub use tokenset::{TokenRule, TokenSet};
pub use vector::SimdLevel;
