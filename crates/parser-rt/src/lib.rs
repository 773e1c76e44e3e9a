//! Parser runtime for `sqlweave` — the from-scratch replacement for the
//! ANTLR/JavaCC parser generators the paper relies on.
//!
//! A [`Parser`] is built from a composed grammar plus its token set. Its
//! one engine is a recursive-descent interpreter over the EBNF IR with
//! FIRST-set pruning, ordered-alternative backtracking (PEG-style
//! resolution of non-LL(1) spots, like ANTLR's decision engine), compiled
//! LL(k ≤ 3) dispatch tables at every conflict static lookahead analysis
//! resolves, and O(1) failure memoization of re-probed nonterminals. Which
//! conflicts remain after that analysis, per dialect, is what
//! `sqlweave analyze` reports.
//!
//! The engine emits flat [`events::Event`] streams instead of building
//! nodes (backtracking is a buffer truncation), which a separate builder
//! materializes into an arena-backed [`tree::SyntaxTree`] with zero-copy
//! token text. The seed [`cst::CstNode`] API survives as a conversion
//! ([`tree::SyntaxTree::to_cst`]), and [`Parser::parse_reference`] keeps
//! the seed engine as a differential oracle. [`session::ParseSession`]
//! recycles every buffer across the statements of a batch.
//!
//! Beyond the strict single-error contract, [`Parser::parse_resilient`]
//! and [`session::ParseSession::parse_resilient`] run panic-mode error
//! recovery: every committed failure becomes a diagnostic, skipped tokens
//! fold into `error` nodes ([`events::ERROR_NODE`]), and the returned
//! [`session::ParseOutcome`] carries a tree covering every scanned token
//! plus all diagnostics in source order.
//!
//! [`codegen`] additionally *generates Rust source* for a standalone
//! recursive-descent parser, which is the closest analogue of the paper's
//! "use ANTLR to generate parser code" step.

pub mod codegen;
pub mod cst;
pub mod engine;
pub mod errors;
pub mod events;
pub mod reference;
pub mod session;
pub mod tree;

pub use cst::CstNode;
pub use engine::{Parser, ParserStats, RunCounters};
pub use errors::ParseError;
pub use events::{Event, ERROR_NODE};
pub use session::{EditError, EditOutcome, EditStats, LazyTree, ParseOutcome, ParseSession};
pub use tree::{Sym, SyntaxElement, SyntaxNode, SyntaxToken, SyntaxTree, TokenInterner};
