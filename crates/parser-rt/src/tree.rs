//! Materialized syntax trees over flat event streams.
//!
//! A [`SyntaxTree`] is the green-tree counterpart of [`CstNode`]: a root
//! expansion over a sequence of *chunks*, each a small node arena built in
//! one pass over the events of the subtrees (and bare tokens) that sit
//! directly under the root. Node ids are local to their chunk and token
//! indices relative to the chunk's first token, so a chunk stays valid
//! while the chunks around it are replaced or shifted. A tree from
//! [`crate::session::ParseSession::parse_tree`] or
//! [`crate::session::ParseSession::parse_resilient`] is the one-chunk
//! case; a maintained document keeps one chunk per top-level statement
//! and rebuilds only the chunks an edit reparses. Nothing in the tree
//! owns a string — production names and alternative labels are resolved
//! on demand against the parser's compiled tables, and token text is a
//! zero-copy span into the original input.
//!
//! The tree borrows the [`crate::session::ParseSession`] buffers it was
//! built into (and the input), so a steady-state session parses with no
//! per-statement allocation at all once its buffers have grown to the
//! workload's high-water mark. Callers that need an owning tree (golden
//! tests, the lowering layer) convert with [`SyntaxTree::to_cst`], which
//! reproduces the seed CST shape exactly.

use crate::cst::CstNode;
use crate::engine::Parser;
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

/// One child of a node: another node of the same arena (by arena-local
/// id) or a token (by index relative to the arena's first token).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Element {
    Node(u32),
    Token(u32),
}

#[cfg(test)]
thread_local! {
    /// Arena nodes built on this thread, in test builds only: the exact
    /// work count the document read-locality gate pins (no other build
    /// has it).
    static NODES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Arena nodes built on this thread so far (test builds only).
#[cfg(test)]
pub(crate) fn nodes_built() -> usize {
    NODES_BUILT.with(|c| c.get())
}

/// The node arena of one chunk: the rule expansions of a run of balanced
/// subtrees and bare tokens.
#[derive(Default)]
pub(crate) struct Arena {
    nodes: Vec<NodeData>,
    /// Every node's child list, then (from `top` on) the chunk's own
    /// top-level elements, which are children of the tree's root.
    elems: Vec<Element>,
    top: u32,
}

/// Scratch stacks for [`Arena::build`], reused across builds.
#[derive(Default)]
pub(crate) struct TreeBuilder {
    /// Children collected for the currently open expansions.
    pending: Vec<Element>,
    /// `(node id, pending mark)` per open expansion.
    open: Vec<(u32, usize)>,
}

impl Arena {
    /// An arena built from `events` (see [`Arena::build`]), allocated at
    /// its exact size.
    pub(crate) fn from_events(b: &mut TreeBuilder, events: &[Event], tok_lo: u32) -> Arena {
        let mut arena = Arena::default();
        arena.build(b, events, tok_lo);
        arena
    }

    /// Rebuild this arena (capacity kept) from a sequence of balanced
    /// subtrees and bare tokens whose token indices start at `tok_lo`.
    pub(crate) fn build(&mut self, b: &mut TreeBuilder, events: &[Event], tok_lo: u32) {
        let opens = events
            .iter()
            .filter(|e| matches!(e, Event::Open { .. }))
            .count();
        self.nodes.clear();
        self.elems.clear();
        self.nodes.reserve_exact(opens);
        // every node but none of the `Close` events becomes one element
        self.elems.reserve_exact(events.len() - opens);
        b.pending.clear();
        b.open.clear();
        for ev in events {
            match *ev {
                Event::Open { prod, alt } => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(NodeData {
                        prod,
                        alt,
                        elems_start: 0,
                        elems_end: 0,
                    });
                    b.open.push((id, b.pending.len()));
                }
                Event::Token { index } => b.pending.push(Element::Token(index - tok_lo)),
                Event::Close => {
                    let (id, mark) = b.open.pop().expect("unbalanced Close event");
                    let start = self.elems.len() as u32;
                    self.elems.extend_from_slice(&b.pending[mark..]);
                    let node = &mut self.nodes[id as usize];
                    node.elems_start = start;
                    node.elems_end = self.elems.len() as u32;
                    b.pending.truncate(mark);
                    b.pending.push(Element::Node(id));
                }
            }
        }
        assert!(b.open.is_empty(), "unclosed Open event");
        self.top = self.elems.len() as u32;
        self.elems.append(&mut b.pending);
        #[cfg(test)]
        NODES_BUILT.with(|c| c.set(c.get() + self.nodes.len()));
    }

    /// Rule expansions in this arena.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    fn children(&self, id: u32) -> &[Element] {
        let node = &self.nodes[id as usize];
        &self.elems[node.elems_start as usize..node.elems_end as usize]
    }

    fn top(&self) -> &[Element] {
        &self.elems[self.top as usize..]
    }

    /// Address of the node buffer, which identifies a non-empty arena
    /// across moves (test builds only).
    #[cfg(test)]
    pub(crate) fn addr(&self) -> usize {
        self.nodes.as_ptr() as usize
    }
}

/// A materialized parse: a root expansion over chunk arenas, the token
/// stream and the input, with names resolved against the parser that
/// produced it.
pub struct SyntaxTree<'a> {
    parser: &'a Parser,
    input: &'a str,
    toks: &'a [Token],
    /// `(prod, alt)` of the root, whose children are the chunks' top-level
    /// elements in order.
    root: (u32, u32),
    chunks: &'a [Arena],
    /// First absolute token index of each chunk.
    tok_lo: &'a [usize],
}

impl<'a> SyntaxTree<'a> {
    pub(crate) fn new(
        parser: &'a Parser,
        input: &'a str,
        toks: &'a [Token],
        root: (u32, u32),
        chunks: &'a [Arena],
        tok_lo: &'a [usize],
    ) -> SyntaxTree<'a> {
        debug_assert_eq!(chunks.len(), tok_lo.len());
        SyntaxTree {
            parser,
            input,
            toks,
            root,
            chunks,
            tok_lo,
        }
    }

    /// The root node (start production of the grammar).
    pub fn root(&self) -> SyntaxNode<'a, '_> {
        SyntaxNode {
            tree: self,
            chunk: ROOT,
            id: 0,
        }
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
        self.rule_count() + self.toks.len()
    }

    /// Rule expansions only.
    pub fn rule_count(&self) -> usize {
        1 + self.chunks.iter().map(Arena::len).sum::<usize>()
    }

    /// Convert to the seed owning CST representation. This is the only
    /// tree operation that allocates per node; it exists so downstream
    /// consumers (lowering, golden tests, printing) keep working unchanged.
    pub fn to_cst(&self) -> CstNode {
        self.root().to_cst()
    }

    /// Render the same indented tree as [`CstNode::pretty`], without
    /// materializing a CST.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.root().pretty(&mut out, 0);
        out
    }

    /// The cursor for element `e` of chunk `chunk`.
    fn element<'t>(&'t self, chunk: usize, e: Element) -> SyntaxElement<'a, 't> {
        match e {
            Element::Node(id) => SyntaxElement::Node(SyntaxNode {
                tree: self,
                chunk: chunk as u32,
                id,
            }),
            Element::Token(t) => SyntaxElement::Token(SyntaxToken {
                tree: self,
                index: self.tok_lo[chunk] as u32 + t,
            }),
        }
    }
}

/// Chunk of the root cursor, which lives in no arena.
const ROOT: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Nodes [`SyntaxNode::span`] entered on this thread, in test builds
    /// only (the linear-span test pins it).
    static SPAN_VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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
            .field("rules", &self.rule_count())
            .field("tokens", &self.toks.len())
            .finish_non_exhaustive()
    }
}

/// Cursor over one rule expansion of a [`SyntaxTree`].
#[derive(Clone, Copy)]
pub struct SyntaxNode<'a, 't> {
    tree: &'t SyntaxTree<'a>,
    /// The chunk whose arena holds the node, or [`ROOT`].
    chunk: u32,
    /// Arena-local node id.
    id: u32,
}

/// Cursor over one token leaf of a [`SyntaxTree`].
#[derive(Clone, Copy)]
pub struct SyntaxToken<'a, 't> {
    tree: &'t SyntaxTree<'a>,
    /// Absolute index into the tree's token stream.
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
    /// `(prod, alt)` of this expansion.
    fn prod_alt(&self) -> (u32, u32) {
        if self.chunk == ROOT {
            return self.tree.root;
        }
        let node = &self.tree.chunks[self.chunk as usize].nodes[self.id as usize];
        (node.prod, node.alt)
    }

    /// Production name.
    pub fn name(&self) -> &'a str {
        self.tree.parser.prod_name(self.prod_alt().0)
    }

    /// Label of the alternative that matched, if any.
    pub fn label(&self) -> Option<&'a str> {
        let (prod, alt) = self.prod_alt();
        self.tree.parser.alt_label(prod, alt)
    }

    /// Child elements in input order.
    pub fn children(&self) -> impl DoubleEndedIterator<Item = SyntaxElement<'a, 't>> + 't {
        let tree = self.tree;
        self.child_runs()
            .flat_map(move |(c, elems)| elems.iter().map(move |&e| tree.element(c, e)))
    }

    /// The children as `(chunk, elements)` runs: the root's children are
    /// the top-level elements of every chunk, any other node's are one
    /// slice of its own chunk.
    fn child_runs(&self) -> impl DoubleEndedIterator<Item = (usize, &'t [Element])> + 't {
        let tree = self.tree;
        let (chunks, id) = match self.chunk {
            ROOT => (0..tree.chunks.len(), None),
            c => (c as usize..c as usize + 1, Some(self.id)),
        };
        chunks.map(move |c| {
            let arena = &tree.chunks[c];
            let elems = match id {
                Some(id) => arena.children(id),
                None => arena.top(),
            };
            (c, elems)
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
    ///
    /// Each endpoint descends one side of the tree independently, so the
    /// cost is the depth of the two boundary paths, not the size of the
    /// subtree.
    pub fn span(&self) -> Option<(usize, usize)> {
        Some((self.first_token()?.span().0, self.last_token()?.span().1))
    }

    /// First token leaf, descending leftward only.
    fn first_token(&self) -> Option<SyntaxToken<'a, 't>> {
        #[cfg(test)]
        SPAN_VISITS.with(|c| c.set(c.get() + 1));
        self.children().find_map(|e| match e {
            SyntaxElement::Token(t) => Some(t),
            SyntaxElement::Node(n) => n.first_token(),
        })
    }

    /// Last token leaf, descending rightward only.
    fn last_token(&self) -> Option<SyntaxToken<'a, 't>> {
        #[cfg(test)]
        SPAN_VISITS.with(|c| c.set(c.get() + 1));
        self.children().rev().find_map(|e| match e {
            SyntaxElement::Token(t) => Some(t),
            SyntaxElement::Node(n) => n.last_token(),
        })
    }

    fn to_cst(self) -> CstNode {
        let tree = self.tree;
        // Sized up front (most nodes have one or two children) and filled
        // run by run: this is the per-node loop of every `to_cst` call.
        let mut children = Vec::with_capacity(self.child_runs().map(|(_, e)| e.len()).sum());
        for (c, elems) in self.child_runs() {
            for &e in elems {
                children.push(match e {
                    Element::Node(id) => SyntaxNode { tree, chunk: c as u32, id }.to_cst(),
                    Element::Token(t) => {
                        let tok = &tree.toks[tree.tok_lo[c] + t as usize];
                        CstNode::Token {
                            kind: tree.parser.scanner().name(tok.kind).to_string(),
                            text: tok.text(tree.input).to_string(),
                            start: tok.start,
                            end: tok.end,
                        }
                    }
                });
            }
        }
        let (prod, alt) = self.prod_alt();
        CstNode::Rule {
            name: tree.parser.prod_name(prod).to_string(),
            label: tree.parser.alt_label(prod, alt).map(str::to_string),
            children,
        }
    }

    fn pretty(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let name = self.name();
        let _ = match self.label() {
            Some(l) => writeln!(out, "{indent}{name} #{l}"),
            None => writeln!(out, "{indent}{name}"),
        };
        for e in self.children() {
            match e {
                SyntaxElement::Node(n) => n.pretty(out, depth + 1),
                SyntaxElement::Token(t) => {
                    let (kind, text) = (t.kind_name(), t.text());
                    let _ = writeln!(out, "{}{kind} {text:?}", "  ".repeat(depth + 1));
                }
            }
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
    use sqlweave_grammar::dsl::{parse_grammar, parse_tokens};

    fn parser() -> Parser {
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
        Parser::new(g, &t).unwrap()
    }

    #[test]
    fn tree_navigation_matches_cst() {
        let p = parser();
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
        let p = parser();
        for input in ["SELECT a, b FROM t", "SELECT * FROM t"] {
            let mut s = p.session();
            let tree = s.parse_tree(input).unwrap();
            assert_eq!(
                tree.to_cst(),
                p.parse_reference(input).unwrap(),
                "{input:?}"
            );
        }
    }

    #[test]
    fn pretty_matches_cst_pretty() {
        let p = parser();
        let mut s = p.session();
        let tree = s.parse_tree("SELECT a, b FROM t").unwrap();
        assert_eq!(tree.pretty(), tree.to_cst().pretty());
    }

    #[test]
    fn node_count_matches_cst() {
        let p = parser();
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
        let p = parser();
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
    fn span_descends_one_path_per_endpoint() {
        // n0 : n1 ; n1 : n2 ; … n39 : IDENT — a 40-deep single-child chain
        const DEPTH: usize = 40;
        let mut g = String::from("grammar c;\nstart n0;\n");
        for i in 0..DEPTH - 1 {
            g.push_str(&format!("n{i} : n{} ;\n", i + 1));
        }
        g.push_str(&format!("n{} : IDENT ;\n", DEPTH - 1));
        let t = parse_tokens("tokens c;\nIDENT = /[a-z]+/;\nWS = skip /[ ]+/;\n").unwrap();
        let p = Parser::new(parse_grammar(&g).unwrap(), &t).unwrap();
        let mut s = p.session();
        let tree = s.parse_tree(" abc").unwrap();
        assert_eq!(tree.rule_count(), DEPTH);
        let before = SPAN_VISITS.with(|c| c.get());
        assert_eq!(tree.root().span(), Some((1, 4)));
        // one visit per node on each endpoint's path; asking each child
        // for its full span would make this 2^DEPTH
        assert_eq!(SPAN_VISITS.with(|c| c.get()) - before, 2 * DEPTH);
        assert_eq!(tree.root().span(), tree.to_cst().span());
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
        let arena = Arena::from_events(&mut TreeBuilder::default(), &events, 0);
        assert!(matches!(arena.top(), [Element::Node(0)]));
        assert_eq!((arena.nodes[0].prod, arena.nodes[0].alt), (0, 0));
        let kids = arena.children(0);
        assert!(matches!(
            kids,
            [Element::Token(0), Element::Node(1), Element::Token(3)]
        ));
        assert!(matches!(
            arena.children(1),
            [Element::Token(1), Element::Token(2)]
        ));
    }

    #[test]
    fn arena_is_chunk_relative_with_top_level_elements_last() {
        use crate::events::ERROR_NODE;
        // node(tok5 tok6) tok7 error(tok8): a window drive's raw output
        let events = [
            Event::Open { prod: 1, alt: 0 },
            Event::Token { index: 5 },
            Event::Token { index: 6 },
            Event::Close,
            Event::Token { index: 7 },
            Event::Open {
                prod: ERROR_NODE,
                alt: 0,
            },
            Event::Token { index: 8 },
            Event::Close,
        ];
        let mut b = TreeBuilder::default();
        let mut arena = Arena::from_events(&mut b, &events, 5);
        assert_eq!(arena.len(), 2);
        assert!(matches!(
            arena.top(),
            [Element::Node(0), Element::Token(2), Element::Node(1)]
        ));
        assert!(matches!(
            arena.children(0),
            [Element::Token(0), Element::Token(1)]
        ));
        assert!(matches!(arena.children(1), [Element::Token(3)]));
        // a rebuild replaces the old contents
        arena.build(&mut b, &events[4..5], 7);
        assert_eq!(arena.len(), 0);
        assert!(matches!(arena.top(), [Element::Token(0)]));
    }
}
