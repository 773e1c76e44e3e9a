//! Materialized syntax trees over flat event streams.
//!
//! A [`SyntaxTree`] is the green-tree counterpart of [`CstNode`]: one
//! contiguous node arena plus one contiguous child-element array, built in
//! a single pass over the event buffer a parse produced. Nothing in the
//! tree owns a string — production names and alternative labels are
//! resolved on demand against the parser's compiled tables, and token text
//! is a zero-copy span into the original input.
//!
//! The tree borrows the [`crate::session::ParseSession`] buffers it was
//! built into (and the input), so a steady-state session parses with no
//! per-statement allocation at all once its buffers have grown to the
//! workload's high-water mark. Callers that need an owning tree (golden
//! tests, the lowering layer) convert with [`SyntaxTree::to_cst`], which
//! reproduces the seed CST shape exactly.

use crate::cst::CstNode;
use crate::engine::{EngineMode, Parser};
use crate::events::Event;
use sqlweave_lexgen::Token;
use std::fmt;

/// Arena node: a nonterminal expansion with a contiguous child range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeData {
    prod: u32,
    alt: u32,
    elems_start: u32,
    elems_end: u32,
}

/// One child of a node: either another node or a token, by arena index.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Element {
    Node(u32),
    Token(u32),
}

/// Reusable tree-building buffers owned by a session.
#[derive(Default)]
pub(crate) struct TreeBuffers {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) elems: Vec<Element>,
    /// Children collected for the currently open expansions.
    pending: Vec<Element>,
    /// `(node id, pending mark)` per open expansion.
    open: Vec<(u32, usize)>,
}

impl TreeBuffers {
    /// Build the arena from a well-formed event stream; returns the root
    /// node id.
    pub(crate) fn build(&mut self, events: &[Event]) -> u32 {
        self.reset();
        for ev in events {
            match *ev {
                Event::Open { prod, alt } => self.open_node(prod, alt),
                Event::Token { index } => self.pending.push(Element::Token(index)),
                Event::Close => self.close_node(),
            }
        }
        self.take_root()
    }

    /// Build the arena directly from a *chunked* event representation: a
    /// root wrapper around a sequence of per-chunk event slices whose
    /// token indices are chunk-relative (absolute index = chunk-relative
    /// plus the chunk's `tok_base`). Equivalent to flattening the chunks
    /// into one root-wrapped stream and calling [`TreeBuffers::build`],
    /// without materializing that stream — this is how a lazily
    /// maintained document's tree is built on first access.
    pub(crate) fn build_chunked<'c>(
        &mut self,
        root: (u32, u32),
        chunks: impl Iterator<Item = (&'c [Event], u32)>,
    ) -> u32 {
        self.reset();
        self.open_node(root.0, root.1);
        for (events, tok_base) in chunks {
            for ev in events {
                match *ev {
                    Event::Open { prod, alt } => self.open_node(prod, alt),
                    Event::Token { index } => {
                        self.pending.push(Element::Token(index + tok_base))
                    }
                    Event::Close => self.close_node(),
                }
            }
        }
        self.close_node();
        self.take_root()
    }

    fn reset(&mut self) {
        self.nodes.clear();
        self.elems.clear();
        self.pending.clear();
        self.open.clear();
    }

    fn open_node(&mut self, prod: u32, alt: u32) {
        let id = self.nodes.len() as u32;
        self.nodes.push(NodeData { prod, alt, elems_start: 0, elems_end: 0 });
        self.open.push((id, self.pending.len()));
    }

    fn close_node(&mut self) {
        let (id, mark) = self.open.pop().expect("unbalanced Close event");
        let start = self.elems.len() as u32;
        self.elems.extend_from_slice(&self.pending[mark..]);
        let node = &mut self.nodes[id as usize];
        node.elems_start = start;
        node.elems_end = self.elems.len() as u32;
        self.pending.truncate(mark);
        self.pending.push(Element::Node(id));
    }

    fn take_root(&mut self) -> u32 {
        debug_assert!(self.open.is_empty(), "unclosed Open event");
        debug_assert_eq!(self.pending.len(), 1, "event stream must have one root");
        match self.pending[0] {
            Element::Node(id) => id,
            Element::Token(_) => unreachable!("root of a parse is a rule expansion"),
        }
    }
}

/// A materialized parse: node arena + token stream + input, with names
/// resolved against the parser that produced it.
pub struct SyntaxTree<'a> {
    pub(crate) parser: &'a Parser,
    pub(crate) mode: EngineMode,
    pub(crate) input: &'a str,
    pub(crate) toks: &'a [Token],
    pub(crate) nodes: &'a [NodeData],
    pub(crate) elems: &'a [Element],
    pub(crate) root: u32,
}

impl<'a> SyntaxTree<'a> {
    /// The root node (start production of the grammar).
    pub fn root(&self) -> SyntaxNode<'a, '_> {
        SyntaxNode { tree: self, id: self.root }
    }

    /// The original input text.
    pub fn input(&self) -> &'a str {
        self.input
    }

    /// All scanned (non-skip) tokens, in order.
    pub fn tokens(&self) -> &'a [Token] {
        self.toks
    }

    /// Total nodes in the seed counting convention: rule expansions plus
    /// token leaves (matches [`CstNode::node_count`]).
    pub fn node_count(&self) -> usize {
        self.nodes.len() + self.toks.len()
    }

    /// Rule expansions only.
    pub fn rule_count(&self) -> usize {
        self.nodes.len()
    }

    /// Convert to the seed owning CST representation. This is the only
    /// tree operation that allocates per node; it exists so downstream
    /// consumers (lowering, golden tests, printing) keep working unchanged.
    pub fn to_cst(&self) -> CstNode {
        self.node_to_cst(self.root)
    }

    fn node_to_cst(&self, id: u32) -> CstNode {
        let node = &self.nodes[id as usize];
        let children = self.elems[node.elems_start as usize..node.elems_end as usize]
            .iter()
            .map(|e| match *e {
                Element::Node(n) => self.node_to_cst(n),
                Element::Token(t) => {
                    let tok = &self.toks[t as usize];
                    CstNode::Token {
                        kind: self.parser.scanner().name(tok.kind).to_string(),
                        text: tok.text(self.input).to_string(),
                        start: tok.start,
                        end: tok.end,
                    }
                }
            })
            .collect();
        CstNode::Rule {
            name: self.parser.prod_name(self.mode, node.prod).to_string(),
            label: self
                .parser
                .alt_label(self.mode, node.prod, node.alt)
                .map(str::to_string),
            children,
        }
    }

    /// Render the same indented tree as [`CstNode::pretty`], without
    /// materializing a CST.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_node(&mut out, self.root, 0);
        out
    }

    fn pretty_node(&self, out: &mut String, id: u32, depth: usize) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let node = &self.nodes[id as usize];
        let name = self.parser.prod_name(self.mode, node.prod);
        let _ = match self.parser.alt_label(self.mode, node.prod, node.alt) {
            Some(l) => writeln!(out, "{indent}{name} #{l}"),
            None => writeln!(out, "{indent}{name}"),
        };
        for e in &self.elems[node.elems_start as usize..node.elems_end as usize] {
            match *e {
                Element::Node(n) => self.pretty_node(out, n, depth + 1),
                Element::Token(t) => {
                    let tok = &self.toks[t as usize];
                    let kind = self.parser.scanner().name(tok.kind);
                    let text = tok.text(self.input);
                    let _ = writeln!(out, "{}{kind} {text:?}", "  ".repeat(depth + 1));
                }
            }
        }
    }
}

/// Handle to a string in a [`TokenInterner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The raw interner index (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A small per-tree string interner for token text. SQL scripts repeat
/// lexemes heavily — keywords by design, identifiers because schemas are
/// finite — so deduplicating lexemes turns the O(source bytes) cost of an
/// owning token representation into O(distinct lexeme bytes). Unique
/// strings live concatenated in one arena buffer (one allocation
/// amortized over the tree, not one per token); lookup is a hash map from
/// a deterministic FNV-1a hash to candidate symbols, verified by
/// comparison so collisions stay correct.
#[derive(Default, Debug, Clone)]
pub struct TokenInterner {
    /// Concatenated unique lexemes.
    buf: String,
    /// Symbol → byte span in `buf`.
    spans: Vec<(u32, u32)>,
    /// FNV-1a hash → symbols with that hash (almost always one).
    map: std::collections::HashMap<u64, Vec<Sym>>,
}

impl TokenInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Intern `s`, returning the existing symbol if it was seen before.
    pub fn intern(&mut self, s: &str) -> Sym {
        let h = Self::fnv1a(s);
        let candidates = self.map.entry(h).or_default();
        for &sym in candidates.iter() {
            let (lo, hi) = self.spans[sym.index()];
            if &self.buf[lo as usize..hi as usize] == s {
                return sym;
            }
        }
        let lo = self.buf.len() as u32;
        self.buf.push_str(s);
        let sym = Sym(self.spans.len() as u32);
        self.spans.push((lo, self.buf.len() as u32));
        candidates.push(sym);
        sym
    }

    /// The string a symbol stands for.
    pub fn resolve(&self, sym: Sym) -> &str {
        let (lo, hi) = self.spans[sym.index()];
        &self.buf[lo as usize..hi as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total bytes of deduplicated string storage.
    pub fn bytes(&self) -> usize {
        self.buf.len()
    }
}

impl<'a> SyntaxTree<'a> {
    /// Intern every token's lexeme, returning one symbol per token (in
    /// token-stream order). The interner can be shared across trees to
    /// deduplicate lexemes corpus-wide; comparing the returned symbols is
    /// `u32` equality instead of string comparison, and
    /// `symbols.len() / interner.len()` is the dedupe factor the bench
    /// reports.
    pub fn intern_tokens(&self, interner: &mut TokenInterner) -> Vec<Sym> {
        self.toks
            .iter()
            .map(|t| interner.intern(t.text(self.input)))
            .collect()
    }
}

impl fmt::Debug for SyntaxTree<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyntaxTree")
            .field("rules", &self.nodes.len())
            .field("tokens", &self.toks.len())
            .finish_non_exhaustive()
    }
}

/// Cursor over one rule expansion of a [`SyntaxTree`].
#[derive(Clone, Copy)]
pub struct SyntaxNode<'a, 't> {
    tree: &'t SyntaxTree<'a>,
    id: u32,
}

/// Cursor over one token leaf of a [`SyntaxTree`].
#[derive(Clone, Copy)]
pub struct SyntaxToken<'a, 't> {
    tree: &'t SyntaxTree<'a>,
    index: u32,
}

/// A child of a node: rule expansion or token leaf.
#[derive(Clone, Copy)]
pub enum SyntaxElement<'a, 't> {
    /// A nested rule expansion.
    Node(SyntaxNode<'a, 't>),
    /// A token leaf.
    Token(SyntaxToken<'a, 't>),
}

impl<'a, 't> SyntaxElement<'a, 't> {
    /// Production name or token kind name.
    pub fn name(&self) -> &'a str {
        match self {
            SyntaxElement::Node(n) => n.name(),
            SyntaxElement::Token(t) => t.kind_name(),
        }
    }

    /// The nested node, if this element is one.
    pub fn as_node(&self) -> Option<SyntaxNode<'a, 't>> {
        match self {
            SyntaxElement::Node(n) => Some(*n),
            SyntaxElement::Token(_) => None,
        }
    }

    /// The token leaf, if this element is one.
    pub fn as_token(&self) -> Option<SyntaxToken<'a, 't>> {
        match self {
            SyntaxElement::Token(t) => Some(*t),
            SyntaxElement::Node(_) => None,
        }
    }
}

impl<'a, 't> SyntaxNode<'a, 't> {
    /// Production name.
    pub fn name(&self) -> &'a str {
        let node = &self.tree.nodes[self.id as usize];
        self.tree.parser.prod_name(self.tree.mode, node.prod)
    }

    /// Label of the alternative that matched, if any.
    pub fn label(&self) -> Option<&'a str> {
        let node = &self.tree.nodes[self.id as usize];
        self.tree.parser.alt_label(self.tree.mode, node.prod, node.alt)
    }

    /// Child elements in input order.
    pub fn children(&self) -> impl Iterator<Item = SyntaxElement<'a, 't>> + '_ {
        let node = &self.tree.nodes[self.id as usize];
        self.tree.elems[node.elems_start as usize..node.elems_end as usize]
            .iter()
            .map(|e| match *e {
                Element::Node(n) => SyntaxElement::Node(SyntaxNode { tree: self.tree, id: n }),
                Element::Token(t) => {
                    SyntaxElement::Token(SyntaxToken { tree: self.tree, index: t })
                }
            })
    }

    /// First child rule with the given production name.
    pub fn child(&self, name: &str) -> Option<SyntaxNode<'a, 't>> {
        self.children().find_map(|e| match e {
            SyntaxElement::Node(n) if n.name() == name => Some(n),
            _ => None,
        })
    }

    /// First token descendant of the given kind (pre-order).
    pub fn find_token(&self, kind: &str) -> Option<SyntaxToken<'a, 't>> {
        for e in self.children() {
            match e {
                SyntaxElement::Token(t) if t.kind_name() == kind => return Some(t),
                SyntaxElement::Token(_) => {}
                SyntaxElement::Node(n) => {
                    if let Some(t) = n.find_token(kind) {
                        return Some(t);
                    }
                }
            }
        }
        None
    }

    /// Byte span covered by this node, if it contains any tokens.
    pub fn span(&self) -> Option<(usize, usize)> {
        let node = &self.tree.nodes[self.id as usize];
        let elems = &self.tree.elems[node.elems_start as usize..node.elems_end as usize];
        let first = elems.iter().find_map(|e| self.elem_span(e))?;
        let last = elems.iter().rev().find_map(|e| self.elem_span(e))?;
        Some((first.0, last.1))
    }

    fn elem_span(&self, e: &Element) -> Option<(usize, usize)> {
        match *e {
            Element::Token(t) => {
                let tok = &self.tree.toks[t as usize];
                Some((tok.start, tok.end))
            }
            Element::Node(n) => SyntaxNode { tree: self.tree, id: n }.span(),
        }
    }
}

impl<'a, 't> SyntaxToken<'a, 't> {
    /// Token rule name (e.g. `SELECT`, `IDENT`).
    pub fn kind_name(&self) -> &'a str {
        self.tree.parser.scanner().name(self.tree.toks[self.index as usize].kind)
    }

    /// Index of this token in the scanned token stream.
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// The lexeme, borrowed from the input.
    pub fn text(&self) -> &'a str {
        self.tree.toks[self.index as usize].text(self.tree.input)
    }

    /// Byte span in the original input.
    pub fn span(&self) -> (usize, usize) {
        let t = &self.tree.toks[self.index as usize];
        (t.start, t.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineMode;
    use sqlweave_grammar::dsl::{parse_grammar, parse_tokens};

    fn parser(mode: EngineMode) -> Parser {
        let g = parse_grammar(
            r#"
            grammar q;
            start query;
            query : SELECT select_list FROM IDENT #select ;
            select_list : IDENT (COMMA IDENT)* #columns | STAR #star ;
            "#,
        )
        .unwrap();
        let t = parse_tokens(
            r#"
            tokens q;
            SELECT = kw; FROM = kw;
            COMMA = ","; STAR = "*";
            IDENT = /[a-z][a-z0-9_]*/;
            WS = skip /[ \t\r\n]+/;
            "#,
        )
        .unwrap();
        Parser::new(g, &t).unwrap().with_mode(mode)
    }

    #[test]
    fn tree_navigation_matches_cst() {
        let p = parser(EngineMode::Backtracking);
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b FROM t").unwrap();
        let root = tree.root();
        assert_eq!(root.name(), "query");
        assert_eq!(root.label(), Some("select"));
        let sl = root.child("select_list").unwrap();
        assert_eq!(sl.label(), Some("columns"));
        assert_eq!(sl.span(), Some((7, 11)));
        assert_eq!(root.find_token("FROM").unwrap().text(), "FROM");
        assert!(root.find_token("STAR").is_none());
        // token text is a span into the input, not a copy
        let a = sl.find_token("IDENT").unwrap();
        assert_eq!(a.text(), "a");
        assert!(std::ptr::eq(a.text(), &tree.input()[7..8]));
    }

    #[test]
    fn to_cst_matches_seed_shape() {
        for mode in [EngineMode::Backtracking, EngineMode::Ll1Table] {
            let p = parser(mode);
            for input in ["SELECT a, b FROM t", "SELECT * FROM t"] {
                let mut s = p.session();
                let tree = s.parse_tree(input).unwrap();
                assert_eq!(tree.to_cst(), p.parse_reference(input).unwrap(), "{mode:?} {input:?}");
            }
        }
    }

    #[test]
    fn pretty_matches_cst_pretty() {
        let p = parser(EngineMode::Backtracking);
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b FROM t").unwrap();
        assert_eq!(tree.pretty(), tree.to_cst().pretty());
    }

    #[test]
    fn node_count_matches_cst() {
        let p = parser(EngineMode::Backtracking);
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b FROM t").unwrap();
        assert_eq!(tree.node_count(), tree.to_cst().node_count());
        assert_eq!(tree.rule_count(), 2);
    }

    #[test]
    fn interner_dedupes_and_resolves() {
        let mut i = TokenInterner::new();
        let a = i.intern("select");
        let b = i.intern("t1");
        let a2 = i.intern("select");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "select");
        assert_eq!(i.resolve(b), "t1");
        assert_eq!(i.len(), 2);
        assert_eq!(i.bytes(), "select".len() + "t1".len());
        assert!(!i.is_empty());
        assert!(TokenInterner::new().is_empty());
    }

    #[test]
    fn intern_tokens_is_parallel_to_the_token_stream() {
        let p = parser(EngineMode::Backtracking);
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b, a FROM a").unwrap();
        let mut interner = TokenInterner::new();
        let syms = tree.intern_tokens(&mut interner);
        assert_eq!(syms.len(), tree.tokens().len());
        for (sym, tok) in syms.iter().zip(tree.tokens()) {
            assert_eq!(interner.resolve(*sym), tok.text(tree.input()));
        }
        // `a` appears three times but is stored once
        assert_eq!(syms.iter().filter(|&&s| interner.resolve(s) == "a").count(), 3);
        assert!(interner.len() < syms.len());
        // sharing the interner across trees keeps deduplicating
        let before = interner.len();
        let tree2 = s.parse_tree("SELECT b FROM a").unwrap();
        tree2.intern_tokens(&mut interner);
        assert_eq!(interner.len(), before);
    }

    #[test]
    fn build_chunked_matches_flattened_build() {
        use crate::events::ERROR_NODE;
        // chunk A: node(tok0 tok1), chunk B: bare tok2, chunk C: error(tok3 tok4)
        let a = [
            Event::Open { prod: 1, alt: 2 },
            Event::Token { index: 0 },
            Event::Token { index: 1 },
            Event::Close,
        ];
        let b = [Event::Token { index: 0 }];
        let c = [
            Event::Open { prod: ERROR_NODE, alt: 0 },
            Event::Token { index: 0 },
            Event::Token { index: 1 },
            Event::Close,
        ];
        let chunks: [(&[Event], u32); 3] = [(&a, 0), (&b, 2), (&c, 3)];
        let mut chunked = TreeBuffers::default();
        let croot = chunked.build_chunked((7, 0), chunks.into_iter());

        let mut flat_events = vec![Event::Open { prod: 7, alt: 0 }];
        for (events, base) in chunks {
            for ev in events {
                flat_events.push(match *ev {
                    Event::Token { index } => Event::Token { index: index + base },
                    other => other,
                });
            }
        }
        flat_events.push(Event::Close);
        let mut flat = TreeBuffers::default();
        let froot = flat.build(&flat_events);

        assert_eq!(croot, froot);
        assert_eq!(chunked.nodes.len(), flat.nodes.len());
        assert_eq!(chunked.elems.len(), flat.elems.len());
        for (cn, fn_) in chunked.nodes.iter().zip(&flat.nodes) {
            assert_eq!((cn.prod, cn.alt), (fn_.prod, fn_.alt));
            assert_eq!((cn.elems_start, cn.elems_end), (fn_.elems_start, fn_.elems_end));
        }
        for (ce, fe) in chunked.elems.iter().zip(&flat.elems) {
            match (ce, fe) {
                (Element::Node(x), Element::Node(y)) => assert_eq!(x, y),
                (Element::Token(x), Element::Token(y)) => assert_eq!(x, y),
                _ => panic!("element kind diverged"),
            }
        }
    }

    #[test]
    fn builder_roundtrips_nested_events() {
        let events = [
            Event::Open { prod: 0, alt: 0 },
            Event::Token { index: 0 },
            Event::Open { prod: 1, alt: 1 },
            Event::Token { index: 1 },
            Event::Token { index: 2 },
            Event::Close,
            Event::Token { index: 3 },
            Event::Close,
        ];
        let mut buf = TreeBuffers::default();
        let root = buf.build(&events);
        let rd = &buf.nodes[root as usize];
        assert_eq!((rd.elems_start, rd.elems_end), (2, 5));
        let kids = &buf.elems[rd.elems_start as usize..rd.elems_end as usize];
        assert!(matches!(kids[0], Element::Token(0)));
        assert!(matches!(kids[1], Element::Node(1)));
        assert!(matches!(kids[2], Element::Token(3)));
        let inner = &buf.nodes[1];
        let ikids = &buf.elems[inner.elems_start as usize..inner.elems_end as usize];
        assert!(matches!(ikids, [Element::Token(1), Element::Token(2)]));
    }
}
