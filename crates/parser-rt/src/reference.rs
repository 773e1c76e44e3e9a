//! The seed backtracking engine, kept verbatim as a differential oracle.
//!
//! Before the green-tree rework, the engine materialized [`CstNode`]s
//! *while* parsing: every token allocated its kind name and lexeme, every
//! expansion cloned its production name and label, and abandoning a
//! speculative alternative dropped a fully built subtree. This module
//! preserves that implementation — same traversal order, same
//! farthest-failure notes, no memoization — so that:
//!
//! * the differential suite can assert the event-built
//!   [`crate::tree::SyntaxTree`] converts to the *identical* `CstNode` the
//!   seed engine produced, for every statement;
//! * error-message regression tests can prove the memo table, the
//!   dispatch tables and the note-recording fast path changed no reported
//!   diagnostics.
//!
//! It is not a supported parsing API; use [`Parser::parse`] or
//! [`crate::session::ParseSession`].

use crate::cst::CstNode;
use crate::engine::{CTerm, Notes, Parser};
use crate::errors::ParseError;
use sqlweave_lexgen::Token;
use std::collections::BTreeSet;

/// Seed-engine context: token stream plus farthest-failure tracking.
struct RefCtx<'a> {
    toks: &'a [Token],
    kind_ids: Vec<u32>,
    input: &'a str,
    parser: &'a Parser,
    notes: Notes,
}

impl RefCtx<'_> {
    fn token_node(&self, pos: usize) -> CstNode {
        let t = &self.toks[pos];
        CstNode::Token {
            kind: self.parser.scanner().name(t.kind).to_string(),
            text: t.text(self.input).to_string(),
            start: t.start,
            end: t.end,
        }
    }
}

impl Parser {
    /// Parse with the seed (pre-event) implementation: direct per-node CST
    /// construction, no failure memo, no dispatch tables. Kept for
    /// differential testing; behaviorally identical to [`Parser::parse`].
    pub fn parse_reference(&self, input: &str) -> Result<CstNode, ParseError> {
        let toks = self.scanner.scan(input).map_err(|e| ParseError {
            at: e.at,
            line: e.line,
            column: e.column,
            expected: BTreeSet::new(),
            found: e.found.map(|c| ("CHAR".to_string(), c.to_string())),
            lexical: Some(e.to_string()),
        })?;
        let kind_ids: Vec<u32> = toks.iter().map(|t| t.kind.0).collect();
        let mut ctx = RefCtx {
            toks: &toks,
            kind_ids,
            input,
            parser: self,
            notes: Notes::new(self.n_tokens),
        };
        match self.ref_bt_nt(&mut ctx, self.cstart, 0) {
            Ok((node, next)) if next == toks.len() => Ok(node),
            Ok((_, next)) => {
                ctx.notes.note_eof(next);
                Err(self.error_from(input, &toks, &ctx.notes))
            }
            Err(()) => Err(self.error_from(input, &toks, &ctx.notes)),
        }
    }

    fn ref_bt_nt(&self, ctx: &mut RefCtx<'_>, prod: u32, pos: usize) -> Result<(CstNode, usize), ()> {
        let prod = &self.cprods[prod as usize];
        let la = ctx.kind_ids.get(pos).copied();
        for alt in &prod.alts {
            if !alt.nullable {
                match la {
                    Some(k) if alt.first.contains(k) => {}
                    _ => {
                        ctx.notes.note_set(pos, &alt.first);
                        continue;
                    }
                }
            }
            let mut children = Vec::new();
            if let Ok(next) = self.ref_bt_seq(ctx, &alt.seq, pos, &mut children) {
                return Ok((
                    CstNode::rule(&prod.name, alt.label.clone(), children),
                    next,
                ));
            }
        }
        Err(())
    }

    fn ref_bt_seq(
        &self,
        ctx: &mut RefCtx<'_>,
        seq: &[CTerm],
        mut pos: usize,
        children: &mut Vec<CstNode>,
    ) -> Result<usize, ()> {
        for term in seq {
            pos = self.ref_bt_term(ctx, term, pos, children)?;
        }
        Ok(pos)
    }

    /// Greedy repetition shared by `Star` and the tail of `Plus`.
    fn ref_bt_repeat(
        &self,
        ctx: &mut RefCtx<'_>,
        body: &[CTerm],
        first: &crate::engine::TokBits,
        mut pos: usize,
        children: &mut Vec<CstNode>,
    ) -> usize {
        loop {
            match ctx.kind_ids.get(pos) {
                Some(&k) if first.contains(k) => {
                    let mark = children.len();
                    match self.ref_bt_seq(ctx, body, pos, children) {
                        Ok(next) if next > pos => pos = next,
                        _ => {
                            children.truncate(mark);
                            break;
                        }
                    }
                }
                _ => {
                    ctx.notes.note_set(pos, first);
                    break;
                }
            }
        }
        pos
    }

    fn ref_bt_term(
        &self,
        ctx: &mut RefCtx<'_>,
        term: &CTerm,
        pos: usize,
        children: &mut Vec<CstNode>,
    ) -> Result<usize, ()> {
        match term {
            CTerm::Tok(kind) => match ctx.kind_ids.get(pos) {
                Some(k) if k == kind => {
                    children.push(ctx.token_node(pos));
                    Ok(pos + 1)
                }
                _ => {
                    ctx.notes.note_id(pos, *kind);
                    Err(())
                }
            },
            CTerm::Nt(n) => {
                let (node, next) = self.ref_bt_nt(ctx, *n, pos)?;
                children.push(node);
                Ok(next)
            }
            CTerm::Opt { body, first, .. } => {
                if matches!(ctx.kind_ids.get(pos), Some(&k) if first.contains(k)) {
                    let mark = children.len();
                    match self.ref_bt_seq(ctx, body, pos, children) {
                        Ok(next) => return Ok(next),
                        Err(()) => children.truncate(mark),
                    }
                } else {
                    // Not taken: still informative for error messages.
                    ctx.notes.note_set(pos, first);
                }
                Ok(pos)
            }
            CTerm::Star { body, first, .. } => {
                Ok(self.ref_bt_repeat(ctx, body, first, pos, children))
            }
            CTerm::Plus { body, first, .. } => {
                let next = self.ref_bt_seq(ctx, body, pos, children)?;
                Ok(self.ref_bt_repeat(ctx, body, first, next, children))
            }
            CTerm::Group { alts, .. } => {
                let la = ctx.kind_ids.get(pos).copied();
                for alt in alts {
                    if !alt.nullable {
                        match la {
                            Some(k) if alt.first.contains(k) => {}
                            _ => {
                                ctx.notes.note_set(pos, &alt.first);
                                continue;
                            }
                        }
                    }
                    let mark = children.len();
                    match self.ref_bt_seq(ctx, &alt.seq, pos, children) {
                        Ok(next) => return Ok(next),
                        Err(()) => children.truncate(mark),
                    }
                }
                Err(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlweave_grammar::dsl::{parse_grammar, parse_tokens};

    fn parser() -> Parser {
        let g = parse_grammar(
            r#"
            grammar q;
            start query;
            query : SELECT quant? select_list FROM IDENT #select ;
            quant : DISTINCT #distinct | ALL #all ;
            select_list : IDENT (COMMA IDENT)* #columns | STAR #star ;
            "#,
        )
        .unwrap();
        let t = parse_tokens(
            r#"
            tokens q;
            SELECT = kw; FROM = kw; DISTINCT = kw; ALL = kw;
            COMMA = ","; STAR = "*";
            IDENT = /[a-z][a-z0-9_]*/;
            WS = skip /[ \t\r\n]+/;
            "#,
        )
        .unwrap();
        Parser::new(g, &t).unwrap()
    }

    #[test]
    fn reference_and_event_engines_agree_on_trees() {
        let p = parser();
        for input in [
            "SELECT a FROM t",
            "SELECT DISTINCT a, b, c FROM t",
            "SELECT * FROM t",
        ] {
            assert_eq!(
                p.parse(input).unwrap(),
                p.parse_reference(input).unwrap(),
                "{input:?}"
            );
        }
    }

    #[test]
    fn reference_and_event_engines_agree_on_errors() {
        let p = parser();
        for input in [
            "",
            "SELECT",
            "SELECT FROM t",
            "SELECT a b FROM t",
            "SELECT a FROM t x",
            "%",
        ] {
            assert_eq!(
                p.parse(input).unwrap_err(),
                p.parse_reference(input).unwrap_err(),
                "{input:?}"
            );
        }
    }
}
