//! Static LL(k) lookahead analysis over the flattened grammar.
//!
//! The seed pipeline computes FIRST/FOLLOW at k=1 ([`crate::analysis`]) and
//! leaves every LL(1) prediction conflict to the backtracking engine. This
//! module closes the gap with the paper's LL(k) parser-generation model:
//! for each conflicted decision point it computes capped FIRST_k/FOLLOW_k
//! *sequence* sets (k ≤ [`K_MAX`]) and classifies the conflict as
//!
//! * [`Outcome::Resolved`] — some k' ≤ k makes the alternatives' lookahead
//!   sets pairwise disjoint; a k'-token dispatch table is emitted (filtered
//!   so a table hit can never diverge from the engine's ordered-PEG
//!   semantics, see below);
//! * [`Outcome::Residual`] — the alternatives still intersect at k; the
//!   shortest shared token sequence is emitted as a concrete witness;
//! * [`Outcome::Saturated`] — a set overflowed its cap and no witness was
//!   found among the retained words, so neither claim can be certified.
//!   A grammar with more distinct tokens than a 16-bit id can name reports
//!   every decision this way.
//!
//! # Words
//!
//! A *word* is a sequence of ≤ k token ids packed into a `u64`
//! (`len << 48 | t0 << 32 | t1 << 16 | t2`). Words shorter than the set's
//! depth mean the input *ends* there (EOF inside the window), so no
//! explicit end marker is needed, and the natural `u64` order is exactly
//! (length, lexicographic) — the minimum of an intersection is the
//! shortest witness. Sets under-approximate when capped (`complete`
//! false): word *presence* is always a real derivation, word *absence* is
//! only trustworthy when the set is complete.
//!
//! # Evaluation order
//!
//! Depth levels are evaluated shallowest first, and each level in
//! dependency order. FIRST_j of a nonterminal reads FIRST_j of another
//! only through its left corner (after a nullable prefix); every other
//! read is of a finished shallower level. So each strongly connected
//! component of the left-corner graph is evaluated once its successors are
//! done, and only a left-recursive component iterates. FOLLOW_j reads
//! FOLLOW_j of a parent only when the rest after an occurrence is
//! nullable, and then takes it whole: one fold per occurrence builds a
//! base set, and one union per component of that parent graph finishes
//! it, with no iteration.
//!
//! # PEG safety
//!
//! The backtracking engine commits to the first alternative that locally
//! succeeds; a dispatch hit on alternative `i` may only skip the probes of
//! `j < i` if none of them could have succeeded. Full-window matches are
//! excluded by lookahead-set disjointness; the remaining hazard is a `j`
//! that succeeds consuming *fewer* than k' tokens. [`analyze_lookahead`]
//! therefore drops any entry `(w → i)` for which some earlier alternative
//! has a complete FIRST word shorter than k' that prefixes `w`.

use crate::analysis::{GrammarAnalysis, EOF};
use crate::ir::Term;
use crate::lower::is_synthetic;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// Deepest lookahead the packed word representation supports.
pub const K_MAX: usize = 3;

/// Per-set word cap. A set keeps its `CAP` smallest words and is marked
/// incomplete when it was offered more distinct words than that; keeping
/// the smallest words preserves the shortest-witness property under
/// saturation.
const CAP: usize = 20_000;

type Word = u64;
const EPSILON: Word = 0;

fn w_len(w: Word) -> usize {
    (w >> 48) as usize
}

fn w_tok(w: Word, i: usize) -> u16 {
    (w >> (32 - 16 * i)) as u16
}

fn w_push(w: Word, t: u16) -> Word {
    let l = w_len(w);
    debug_assert!(l < K_MAX);
    (((l + 1) as u64) << 48) | (w & 0x0000_FFFF_FFFF_FFFF) | ((t as u64) << (32 - 16 * l))
}

/// Append `v`'s tokens to `u`, truncating at length `j`.
fn w_concat(j: usize, u: Word, v: Word) -> Word {
    let mut out = u;
    for i in 0..w_len(v) {
        if w_len(out) == j {
            break;
        }
        out = w_push(out, w_tok(v, i));
    }
    out
}

fn w_trunc(j: usize, w: Word) -> Word {
    if w_len(w) <= j {
        return w;
    }
    let mut out = EPSILON;
    for i in 0..j {
        out = w_push(out, w_tok(w, i));
    }
    out
}

fn w_prefix(v: Word, w: Word) -> bool {
    w_len(v) <= w_len(w) && (0..w_len(v)).all(|i| w_tok(v, i) == w_tok(w, i))
}

/// A capped set of packed words, sorted ascending without duplicates,
/// plus a completeness flag. Built through [`SeqBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
struct SeqSet {
    words: Vec<Word>,
    complete: bool,
}

impl SeqSet {
    /// The complete set holding only the empty word.
    fn epsilon() -> Self {
        SeqSet {
            words: vec![EPSILON],
            complete: true,
        }
    }
}

/// Collects words in any order and caps them into a [`SeqSet`]: the `CAP`
/// smallest distinct words are kept, and the set is incomplete when more
/// than `CAP` distinct words were pushed (or an absorbed set was).
struct SeqBuilder {
    words: Vec<Word>,
    complete: bool,
}

impl SeqBuilder {
    fn new() -> Self {
        SeqBuilder {
            words: Vec::new(),
            complete: true,
        }
    }

    fn push(&mut self, w: Word) {
        self.words.push(w);
        self.bound();
    }

    /// Add every word of `s`, inheriting its incompleteness.
    fn absorb(&mut self, s: &SeqSet) {
        self.complete &= s.complete;
        self.words.extend_from_slice(&s.words);
        self.bound();
    }

    /// Cap early when the buffer grows large. The `CAP` smallest of a set
    /// are also the `CAP` smallest of any superset's retained part, so the
    /// finished set is the same as with one cap at the end.
    fn bound(&mut self) {
        if self.words.len() >= 4 * CAP {
            self.cap();
        }
    }

    fn cap(&mut self) {
        self.words.sort_unstable();
        self.words.dedup();
        if self.words.len() > CAP {
            self.words.truncate(CAP);
            self.complete = false;
        }
    }

    fn finish(mut self) -> SeqSet {
        self.cap();
        SeqSet {
            words: self.words,
            complete: self.complete,
        }
    }
}

/// The smallest word in both sorted sets, by a merge walk.
fn first_common(a: &[Word], b: &[Word]) -> Option<Word> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return Some(a[i]),
        }
    }
    None
}

/// Strongly connected components of the graph `succ` (node → successors),
/// in Tarjan's emission order: each component comes after every component
/// it reaches, so evaluating in this order finds dependencies finished.
fn sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; succ.len()];
    let mut low = vec![0; succ.len()];
    let mut on_stack = vec![false; succ.len()];
    let mut stack = Vec::new();
    let mut comps = Vec::new();
    let mut next = 0;
    for root in 0..succ.len() {
        if index[root] != UNSEEN {
            continue;
        }
        // Explicit DFS frames: (node, next successor to visit).
        let mut frames = vec![(root, 0)];
        while let Some(frame) = frames.last_mut() {
            let (v, e) = *frame;
            if index[v] == UNSEEN {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(e) {
                frame.1 += 1;
                if index[w] == UNSEEN {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("component root is on the stack");
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                comps.push(comp);
            }
        }
    }
    comps
}

/// One compiled dispatch-table entry: observing `word` as the next tokens
/// selects alternative `alt` directly. A word shorter than the decision's
/// k means the input must end right after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchEntry {
    /// Token names, in input order; length ≤ the decision's k.
    pub word: Vec<String>,
    /// The alternative index (into the flat production) the word selects.
    pub alt: usize,
}

/// Classification of one conflicted decision point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Disjoint at `k` tokens of lookahead; `entries` is the (PEG-safety
    /// filtered) dispatch table.
    Resolved {
        /// Minimal lookahead depth that separates the alternatives.
        k: usize,
        /// Dispatch entries, sorted shortest-word-first.
        entries: Vec<DispatchEntry>,
    },
    /// Still ambiguous at the analysis depth: `alternatives` share the
    /// lookahead sequence `witness`.
    Residual {
        /// The first alternative pair (by index) sharing the witness.
        alternatives: (usize, usize),
        /// Shortest shared token sequence.
        witness: Vec<String>,
        /// `true` if the witness requires the input to end after it.
        witness_eof: bool,
    },
    /// A lookahead set overflowed its cap and no witness survived among
    /// the retained words — neither resolution nor ambiguity is provable.
    Saturated,
}

/// One conflicted decision point and its classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Flat production name (may be a synthetic `owner__optN` etc.).
    pub production: String,
    /// `true` if the production was introduced by EBNF lowering.
    pub synthetic: bool,
    /// The LL(1) conflict tokens at this production, sorted (may include
    /// [`EOF`] when a nullable alternative conflicts at end of input).
    pub conflict_tokens: Vec<String>,
    /// How the conflict classifies at the analysis depth.
    pub outcome: Outcome,
}

impl Decision {
    fn new(production: &str, conflict: &BTreeSet<&str>, outcome: Outcome) -> Self {
        Decision {
            production: production.to_string(),
            synthetic: is_synthetic(production),
            conflict_tokens: conflict.iter().map(|t| t.to_string()).collect(),
            outcome,
        }
    }

    /// One-line human rendering used by the linter and the CLI report.
    pub fn summary(&self) -> String {
        let toks = self.conflict_tokens.join(", ");
        match &self.outcome {
            Outcome::Resolved { k, entries } => format!(
                "LL(1) conflict on {toks} is resolvable with k={k} lookahead ({} dispatch entries)",
                entries.len()
            ),
            Outcome::Residual {
                alternatives: (i, j),
                witness,
                witness_eof,
            } => format!(
                "residual ambiguity on {toks}: alternatives {i} and {j} share lookahead `{}`",
                witness_display(witness, *witness_eof)
            ),
            Outcome::Saturated => format!(
                "lookahead analysis saturated on {toks} (set cap reached); treated as ambiguous"
            ),
        }
    }
}

/// Render a witness with a trailing `$` when it requires end of input.
pub fn witness_display(witness: &[String], eof: bool) -> String {
    let mut s = witness.join(" ");
    if eof {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push('$');
    }
    s
}

/// Result of [`analyze_lookahead`]: one [`Decision`] per conflicted flat
/// production, in first-conflict order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookaheadAnalysis {
    /// The depth the analysis ran at (clamped to 1..=[`K_MAX`]).
    pub k: usize,
    /// Per-production classifications.
    pub decisions: Vec<Decision>,
}

impl LookaheadAnalysis {
    /// Number of decisions resolved at some k' ≤ k.
    pub fn resolved(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Resolved { .. }))
            .count()
    }

    /// Number of residual (witnessed) ambiguities.
    pub fn residual(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Residual { .. }))
            .count()
    }

    /// Number of saturated decisions.
    pub fn saturated(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, Outcome::Saturated))
            .count()
    }
}

/// A flat grammar symbol: a token id or a production index.
#[derive(Clone, Copy)]
enum Sym {
    Tok(u16),
    Nt(usize),
}

struct La<'a> {
    a: &'a GrammarAnalysis,
    k: usize,
    tok_ids: HashMap<&'a str, u16>,
    tok_names: Vec<&'a str>,
    /// Production index by name; productions are numbered in flat order.
    index: HashMap<&'a str, usize>,
    names: Vec<&'a str>,
    /// Each production's alternatives as symbol sequences.
    alts: Vec<Vec<Vec<Sym>>>,
    nullable: Vec<bool>,
    /// `first[j][n]` / `follow[j][n]` are valid for j in 1..=k; index 0
    /// unused. Level 1 is populated for every nonterminal (derived from
    /// the k=1 analysis); deeper levels only for demanded symbols.
    first: Vec<Vec<Option<SeqSet>>>,
    follow: Vec<Vec<Option<SeqSet>>>,
    /// Nonterminal occurrences: production → (parent production, alt
    /// idx, position).
    occ: Vec<Vec<(usize, usize, usize)>>,
}

impl<'a> La<'a> {
    /// Intern the flat grammar and seed level 1 from the k=1 analysis.
    /// `None` when the grammar has more distinct tokens than a 16-bit id
    /// can name: packing them would alias two tokens.
    fn new(a: &'a GrammarAnalysis, k: usize) -> Option<Self> {
        let prods = a.flat.productions();
        let index: HashMap<&'a str, usize> = prods
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i))
            .collect();
        let mut tok_ids: HashMap<&'a str, u16> = HashMap::new();
        let mut tok_names: Vec<&'a str> = Vec::new();
        let mut occ = vec![Vec::new(); prods.len()];
        let mut alts = Vec::with_capacity(prods.len());
        for (pi, p) in prods.iter().enumerate() {
            let mut seqs = Vec::with_capacity(p.alternatives.len());
            for (ai, alt) in p.alternatives.iter().enumerate() {
                let mut seq = Vec::with_capacity(alt.seq.len());
                for (pos, term) in alt.seq.iter().enumerate() {
                    seq.push(match term {
                        Term::Token(t) => Sym::Tok(match tok_ids.get(t.as_str()) {
                            Some(&id) => id,
                            None => {
                                let id = u16::try_from(tok_names.len()).ok()?;
                                tok_ids.insert(t.as_str(), id);
                                tok_names.push(t.as_str());
                                id
                            }
                        }),
                        Term::NonTerminal(n) => {
                            let m = index[n.as_str()];
                            occ[m].push((pi, ai, pos));
                            Sym::Nt(m)
                        }
                        _ => unreachable!("lookahead runs on flattened grammars"),
                    });
                }
                seqs.push(seq);
            }
            alts.push(seqs);
        }

        let mut first = vec![vec![None; prods.len()]; k + 1];
        let mut follow = vec![vec![None; prods.len()]; k + 1];
        for (i, p) in prods.iter().enumerate() {
            let name = p.name.as_str();
            let mut f = SeqBuilder::new();
            if a.nullable.contains(name) {
                f.push(EPSILON);
            }
            for t in &a.first[name] {
                f.push(w_push(EPSILON, tok_ids[t.as_str()]));
            }
            first[1][i] = Some(f.finish());
            let mut fo = SeqBuilder::new();
            for t in &a.follow[name] {
                if t == EOF {
                    fo.push(EPSILON);
                } else {
                    fo.push(w_push(EPSILON, tok_ids[t.as_str()]));
                }
            }
            follow[1][i] = Some(fo.finish());
        }

        Some(La {
            a,
            k,
            tok_ids,
            tok_names,
            index,
            names: prods.iter().map(|p| p.name.as_str()).collect(),
            alts,
            nullable: prods.iter().map(|p| a.nullable.contains(&p.name)).collect(),
            first,
            follow,
            occ,
        })
    }

    fn min_len(&self, s: Sym) -> usize {
        match s {
            Sym::Tok(_) => 1,
            Sym::Nt(n) => usize::from(!self.nullable[n]),
        }
    }

    /// FIRST_j ⊕-fold of a flat sequence, starting from {ε}.
    fn fold_seq(&self, j: usize, seq: &[Sym]) -> SeqSet {
        let mut acc = SeqSet::epsilon();
        for &sym in seq {
            // Minimum element is the shortest word; if even it is full,
            // nothing can be extended any further.
            if acc.words.first().is_none_or(|&w| w_len(w) == j) {
                break;
            }
            let mut next = SeqBuilder::new();
            next.complete = acc.complete;
            match sym {
                Sym::Tok(id) => {
                    for &u in &acc.words {
                        next.push(if w_len(u) == j { u } else { w_push(u, id) });
                    }
                }
                Sym::Nt(n) => {
                    for &u in &acc.words {
                        let l = w_len(u);
                        if l == j {
                            next.push(u);
                            continue;
                        }
                        match &self.first[j - l][n] {
                            Some(src) => {
                                next.complete &= src.complete;
                                for &v in &src.words {
                                    next.push(w_concat(j, u, v));
                                }
                            }
                            // Not demanded — should not happen; treat as
                            // unknown (sound: empty + incomplete).
                            None => next.complete = false,
                        }
                    }
                }
            }
            acc = next.finish();
        }
        acc
    }

    /// FIRST_j of production `n`: the union of its alternatives' folds.
    fn first_of(&self, j: usize, n: usize) -> SeqSet {
        let mut acc = SeqBuilder::new();
        for seq in &self.alts[n] {
            acc.absorb(&self.fold_seq(j, seq));
        }
        acc.finish()
    }

    /// Register FIRST demands for every symbol contributing to the first
    /// `budget` tokens of `seq`.
    fn walk_demand(
        &self,
        seq: &[Sym],
        budget: usize,
        fdem: &mut [Vec<bool>],
        fwork: &mut Vec<(usize, usize)>,
    ) {
        let mut budget = budget;
        for &sym in seq {
            if budget == 0 {
                break;
            }
            if let Sym::Nt(n) = sym {
                demand_levels(fdem, fwork, n, budget);
            }
            budget = budget.saturating_sub(self.min_len(sym));
        }
    }

    /// Demand closure: which FIRST_j and FOLLOW_j entries (j ≥ 2)
    /// classifying `conflicted` at depth `self.k` reads, as
    /// `[level][production]` flags.
    fn demand(&self, conflicted: &[usize]) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
        let k = self.k;
        let mut fdem = vec![vec![false; self.alts.len()]; k + 1];
        let mut wdem = vec![vec![false; self.alts.len()]; k + 1];
        let mut fwork: Vec<(usize, usize)> = Vec::new();
        let mut wwork: Vec<(usize, usize)> = Vec::new();

        for &n in conflicted {
            for seq in &self.alts[n] {
                self.walk_demand(seq, k, &mut fdem, &mut fwork);
            }
            demand_levels(&mut wdem, &mut wwork, n, k);
        }

        loop {
            if let Some((n, j)) = fwork.pop() {
                for seq in &self.alts[n] {
                    self.walk_demand(seq, j, &mut fdem, &mut fwork);
                }
                continue;
            }
            if let Some((n, j)) = wwork.pop() {
                for &(pi, ai, pos) in &self.occ[n] {
                    let rest = &self.alts[pi][ai][pos + 1..];
                    self.walk_demand(rest, j, &mut fdem, &mut fwork);
                    let restmin: usize = rest.iter().map(|&s| self.min_len(s)).sum();
                    demand_levels(&mut wdem, &mut wwork, pi, j.saturating_sub(restmin));
                }
                continue;
            }
            break;
        }
        (fdem, wdem)
    }

    /// Demand closure, then the deep FIRST/FOLLOW tables needed to
    /// classify `conflicted` at depth `self.k`, level by level.
    fn compute(&mut self, conflicted: &[usize]) {
        let (fdem, wdem) = self.demand(conflicted);
        let members = |dem: &[bool]| -> Vec<usize> { (0..dem.len()).filter(|&n| dem[n]).collect() };
        for j in 2..=self.k {
            self.first_level(j, &members(&fdem[j]));
            self.follow_level(j, &members(&wdem[j]));
        }
    }

    /// FIRST_j of `members`, the demanded nonterminals at level j ≥ 2, one
    /// left-corner component at a time, successors first.
    fn first_level(&mut self, j: usize, members: &[usize]) {
        let local = local_index(self.alts.len(), members);
        let corners: Vec<Vec<usize>> = members
            .iter()
            .map(|&n| {
                let mut out = Vec::new();
                for seq in &self.alts[n] {
                    for &sym in seq {
                        let Sym::Nt(m) = sym else { break };
                        if let Some(c) = local[m] {
                            out.push(c);
                        }
                        if !self.nullable[m] {
                            break;
                        }
                    }
                }
                out
            })
            .collect();
        for comp in sccs(&corners) {
            if let [i] = comp[..] {
                if !corners[i].contains(&i) {
                    let n = members[i];
                    self.first[j][n] = Some(self.first_of(j, n));
                    continue;
                }
            }
            // Left recursion: iterate from empty-but-complete seeds in
            // name order until a pass changes nothing. Flags are recomputed
            // every pass and only flip false when a cap is actually hit.
            let mut comp: Vec<usize> = comp.iter().map(|&i| members[i]).collect();
            comp.sort_by_key(|&n| self.names[n]);
            for &n in &comp {
                self.first[j][n] = Some(SeqBuilder::new().finish());
            }
            loop {
                let mut changed = false;
                for &n in &comp {
                    let acc = self.first_of(j, n);
                    if self.first[j][n].as_ref() != Some(&acc) {
                        self.first[j][n] = Some(acc);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
    }

    /// FOLLOW_j of `members`, the demanded nonterminals at level j ≥ 2.
    /// FOLLOW_j(n) is n's base set — the start's ε plus each occurrence's
    /// fold over FOLLOW of shallower levels — united with FOLLOW_j of every
    /// parent whose occurrence of n ends in a nullable rest. That is
    /// reachability, so one union per component of the parent graph,
    /// parents first, finishes the level.
    fn follow_level(&mut self, j: usize, members: &[usize]) {
        let local = local_index(self.alts.len(), members);
        let start = self.index[self.a.flat.start()];
        let mut bases = Vec::with_capacity(members.len());
        let mut parents: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
        for (i, &n) in members.iter().enumerate() {
            let mut acc = SeqBuilder::new();
            if n == start {
                acc.push(EPSILON);
            }
            for &(pi, ai, pos) in &self.occ[n] {
                let folded = self.fold_seq(j, &self.alts[pi][ai][pos + 1..]);
                acc.complete &= folded.complete;
                for &w in &folded.words {
                    let l = w_len(w);
                    if l == j {
                        acc.push(w);
                        continue;
                    }
                    if l == 0 {
                        match local[pi] {
                            Some(p) => parents[i].push(p),
                            None => acc.complete = false,
                        }
                        continue;
                    }
                    match &self.follow[j - l][pi] {
                        Some(fs) => {
                            acc.complete &= fs.complete;
                            for &v in &fs.words {
                                acc.push(w_concat(j, w, v));
                            }
                        }
                        None => acc.complete = false,
                    }
                }
            }
            bases.push(acc.finish());
        }

        let comps = sccs(&parents);
        let mut comp_of = vec![0; members.len()];
        for (c, comp) in comps.iter().enumerate() {
            for &i in comp {
                comp_of[i] = c;
            }
        }
        for (c, comp) in comps.iter().enumerate() {
            let mut acc = SeqBuilder::new();
            let mut outside: Vec<usize> = Vec::new();
            for &i in comp {
                acc.absorb(&bases[i]);
                outside.extend(parents[i].iter().filter(|&&p| comp_of[p] != c));
            }
            outside.sort_unstable();
            outside.dedup();
            for p in outside {
                acc.absorb(
                    self.follow[j][members[p]]
                        .as_ref()
                        .expect("parents come first"),
                );
            }
            let set = acc.finish();
            for &i in comp {
                self.follow[j][members[i]] = Some(set.clone());
            }
        }
    }

    fn names_of(&self, w: Word) -> Vec<String> {
        (0..w_len(w))
            .map(|i| self.tok_names[w_tok(w, i) as usize].to_string())
            .collect()
    }

    fn classify(&self, n: usize, conflict: &BTreeSet<&str>) -> Decision {
        let k = self.k;
        let conflict_eof = conflict.contains(EOF);
        let cids: BTreeSet<u16> = conflict
            .iter()
            .filter(|t| **t != EOF)
            .map(|t| self.tok_ids[*t])
            .collect();
        let in_conflict = |w: Word| -> bool {
            if w_len(w) == 0 {
                conflict_eof
            } else {
                cids.contains(&w_tok(w, 0))
            }
        };

        // Per alternative: (full FIRST_k fold, conflict-restricted la set).
        let per_alt: Vec<(SeqSet, SeqSet)> = self.alts[n]
            .iter()
            .map(|seq| {
                let f = self.fold_seq(k, seq);
                let mut lac = SeqBuilder::new();
                lac.complete = f.complete;
                for &w in &f.words {
                    let l = w_len(w);
                    if l == k {
                        if in_conflict(w) {
                            lac.push(w);
                        }
                    } else {
                        match &self.follow[k - l][n] {
                            Some(fs) => {
                                lac.complete &= fs.complete;
                                for &v in &fs.words {
                                    let w2 = w_concat(k, w, v);
                                    if in_conflict(w2) {
                                        lac.push(w2);
                                    }
                                }
                            }
                            None => lac.complete = false,
                        }
                    }
                }
                (f, lac.finish())
            })
            .collect();

        let decision = |outcome| Decision::new(self.names[n], conflict, outcome);

        for k2 in 2..=k {
            let tr: Vec<SeqSet> = per_alt
                .iter()
                .map(|(_, lac)| {
                    let mut s = SeqBuilder::new();
                    s.complete = lac.complete;
                    for &w in &lac.words {
                        s.push(w_trunc(k2, w));
                    }
                    s.finish()
                })
                .collect();
            if tr.iter().any(|s| !s.complete) {
                continue;
            }
            let disjoint = (0..tr.len()).all(|i| {
                (i + 1..tr.len()).all(|j| first_common(&tr[i].words, &tr[j].words).is_none())
            });
            if !disjoint {
                continue;
            }
            // PEG-safety filter: drop entries an earlier alternative could
            // pre-empt by locally succeeding on fewer than k2 tokens.
            let mut entries = Vec::new();
            for (i, s) in tr.iter().enumerate() {
                'word: for &w in &s.words {
                    for (fj, _) in per_alt.iter().take(i) {
                        for &v in &fj.words {
                            if w_len(v) >= k2 {
                                break;
                            }
                            if w_prefix(v, w) {
                                continue 'word;
                            }
                        }
                    }
                    entries.push((w, i));
                }
            }
            entries.sort_by_key(|&(w, _)| w);
            let entries = entries
                .into_iter()
                .map(|(w, alt)| DispatchEntry {
                    word: self.names_of(w),
                    alt,
                })
                .collect();
            return decision(Outcome::Resolved { k: k2, entries });
        }

        // Residual: shortest word shared by any pair, first pair wins ties.
        let mut best: Option<(Word, (usize, usize))> = None;
        for i in 0..per_alt.len() {
            for j in i + 1..per_alt.len() {
                if let Some(w) = first_common(&per_alt[i].1.words, &per_alt[j].1.words) {
                    if best.is_none_or(|(bw, _)| w < bw) {
                        best = Some((w, (i, j)));
                    }
                }
            }
        }
        match best {
            Some((w, pair)) => decision(Outcome::Residual {
                alternatives: pair,
                witness: self.names_of(w),
                witness_eof: w_len(w) < k,
            }),
            None => decision(Outcome::Saturated),
        }
    }
}

/// Demand production `n` at levels 2..=`upto` of `dem`, queueing the
/// entries that were not demanded yet.
fn demand_levels(dem: &mut [Vec<bool>], work: &mut Vec<(usize, usize)>, n: usize, upto: usize) {
    for (j, level) in dem.iter_mut().enumerate().take(upto + 1).skip(2) {
        if !std::mem::replace(&mut level[n], true) {
            work.push((n, j));
        }
    }
}

/// Position of each of `members` in the list, by production index.
fn local_index(productions: usize, members: &[usize]) -> Vec<Option<usize>> {
    let mut local = vec![None; productions];
    for (i, &n) in members.iter().enumerate() {
        local[n] = Some(i);
    }
    local
}

/// Run the LL(k) analysis at depth `k` (clamped to 1..=[`K_MAX`]) over a
/// completed k=1 analysis. Returns one [`Decision`] per conflicted flat
/// production, in first-conflict order; an LL(1) grammar yields no
/// decisions. Left-recursive grammars are handled (the k-bounded
/// fixpoints terminate) but their classifications are not meaningful for
/// parsing — callers gate on `analysis.left_recursion` being empty.
pub fn analyze_lookahead(a: &GrammarAnalysis, k: usize) -> LookaheadAnalysis {
    analyze_with(a, k, La::compute)
}

/// [`analyze_lookahead`] with the FIRST_k/FOLLOW_k evaluation supplied.
fn analyze_with<'a>(
    a: &'a GrammarAnalysis,
    k: usize,
    compute: fn(&mut La<'a>, &[usize]),
) -> LookaheadAnalysis {
    let k = k.clamp(1, K_MAX);
    if a.conflicts.is_empty() {
        return LookaheadAnalysis {
            k,
            decisions: Vec::new(),
        };
    }
    let mut order: Vec<&str> = Vec::new();
    let mut tokens_by: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    for c in &a.conflicts {
        if !tokens_by.contains_key(c.nonterminal.as_str()) {
            order.push(&c.nonterminal);
        }
        tokens_by
            .entry(&c.nonterminal)
            .or_default()
            .insert(&c.token);
    }
    let decisions = match La::new(a, k) {
        Some(mut la) => {
            let conflicted: Vec<usize> = order.iter().map(|&name| la.index[name]).collect();
            compute(&mut la, &conflicted);
            conflicted
                .iter()
                .zip(&order)
                .map(|(&n, &name)| la.classify(n, &tokens_by[name]))
                .collect()
        }
        None => order
            .iter()
            .map(|&name| Decision::new(name, &tokens_by[name], Outcome::Saturated))
            .collect(),
    };
    LookaheadAnalysis { k, decisions }
}

/// Derive the top-level synchronization set for panic-mode error
/// recovery: the union of FOLLOW over every nonterminal referenced from
/// the start production's (flat) alternatives, plus [`EOF`].
///
/// The intuition mirrors the classic panic-mode rule-of-thumb
/// ("synchronize on tokens that can follow the construct being parsed"),
/// specialized to the script skeleton this generator composes: for
/// `sql_script : sql_statement (SEMI sql_statement)* SEMI?` the flat
/// start alternatives reference the statement nonterminals, whose FOLLOW
/// is exactly `{SEMI, $}` — so a failed statement skips to the next
/// statement boundary. The derivation is fully generic: any grammar's
/// recovery points fall out of its own FOLLOW sets, with no SQL-specific
/// token names wired in.
pub fn recovery_sync_set(a: &GrammarAnalysis) -> BTreeSet<String> {
    let mut sync = BTreeSet::new();
    sync.insert(EOF.to_string());
    let mut pending: Vec<&str> = vec![a.flat.start()];
    let mut seen: BTreeSet<&str> = pending.iter().copied().collect();
    while let Some(name) = pending.pop() {
        let Some(prod) = a.flat.production(name) else {
            continue;
        };
        for alt in &prod.alternatives {
            for term in &alt.seq {
                match term {
                    Term::Token(t) => {
                        sync.insert(t.clone());
                    }
                    Term::NonTerminal(n) => {
                        if let Some(follow) = a.follow.get(n) {
                            sync.extend(follow.iter().cloned());
                        }
                        // Synthetic helpers introduced by EBNF lowering
                        // (the `(SEMI sql_statement)*` loop body) are part
                        // of the start skeleton, not user constructs —
                        // recurse through them so the tokens they mention
                        // still count as statement boundaries.
                        if is_synthetic(n) && seen.insert(n) {
                            pending.push(n);
                        }
                    }
                    // Flat grammars carry only tokens and nonterminals.
                    _ => {}
                }
            }
        }
    }
    sync
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::dsl::parse_grammar;
    use crate::ir::{Alternative, Grammar, Production};
    use crate::print::to_dsl;
    use proptest::prelude::*;

    fn run(src: &str, k: usize) -> LookaheadAnalysis {
        analyze_lookahead(&analyze(&parse_grammar(src).unwrap()).unwrap(), k)
    }

    impl La<'_> {
        /// Reference evaluation for the dependency order: a round-robin
        /// fixpoint that recomputes every demanded FIRST_j, then every
        /// FOLLOW_j, in name order until a whole pass changes nothing.
        fn compute_round_robin(&mut self, conflicted: &[usize]) {
            let (fdem, wdem) = self.demand(conflicted);
            let by_name = |dem: &[bool]| -> Vec<usize> {
                let mut names: Vec<usize> = (0..dem.len()).filter(|&n| dem[n]).collect();
                names.sort_by_key(|&n| self.names[n]);
                names
            };
            let fnames: Vec<Vec<usize>> = fdem.iter().map(|d| by_name(d)).collect();
            let wnames: Vec<Vec<usize>> = wdem.iter().map(|d| by_name(d)).collect();

            // Pre-seed every demanded entry as empty-but-complete.
            for (j, names) in fnames.iter().enumerate() {
                for &n in names {
                    self.first[j][n] = Some(SeqBuilder::new().finish());
                }
            }
            for (j, names) in wnames.iter().enumerate() {
                for &n in names {
                    self.follow[j][n] = Some(SeqBuilder::new().finish());
                }
            }

            for (j, names) in fnames.iter().enumerate().skip(2) {
                loop {
                    let mut changed = false;
                    for &n in names {
                        let acc = self.first_of(j, n);
                        if self.first[j][n].as_ref() != Some(&acc) {
                            self.first[j][n] = Some(acc);
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }

            let start = self.index[self.a.flat.start()];
            for (j, names) in wnames.iter().enumerate().skip(2) {
                loop {
                    let mut changed = false;
                    for &n in names {
                        let mut acc = SeqBuilder::new();
                        if n == start {
                            acc.push(EPSILON);
                        }
                        for &(pi, ai, pos) in &self.occ[n] {
                            let folded = self.fold_seq(j, &self.alts[pi][ai][pos + 1..]);
                            acc.complete &= folded.complete;
                            for &w in &folded.words {
                                let l = w_len(w);
                                if l == j {
                                    acc.push(w);
                                    continue;
                                }
                                match &self.follow[j - l][pi] {
                                    Some(fs) => {
                                        acc.complete &= fs.complete;
                                        for &v in &fs.words {
                                            acc.push(w_concat(j, w, v));
                                        }
                                    }
                                    None => acc.complete = false,
                                }
                            }
                        }
                        let acc = acc.finish();
                        if self.follow[j][n].as_ref() != Some(&acc) {
                            self.follow[j][n] = Some(acc);
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
        }
    }

    fn round_robin(a: &GrammarAnalysis, k: usize) -> LookaheadAnalysis {
        analyze_with(a, k, La::compute_round_robin)
    }

    /// Random term over nonterminals a, b, c and tokens X, Y, Z.
    fn arb_term(depth: u32) -> BoxedStrategy<Term> {
        let leaf = prop_oneof![
            prop::sample::select(vec!["a", "b", "c"]).prop_map(Term::nt),
            prop::sample::select(vec!["X", "Y", "Z"]).prop_map(Term::tok),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let inner = arb_term(depth - 1);
        prop_oneof![
            4 => leaf,
            1 => prop::collection::vec(inner.clone(), 1..3).prop_map(Term::Optional),
            1 => prop::collection::vec(inner.clone(), 1..3).prop_map(Term::Star),
            1 => prop::collection::vec(inner.clone(), 1..3).prop_map(Term::Plus),
            1 => prop::collection::vec(prop::collection::vec(inner, 1..3), 2..3)
                .prop_map(Term::Group),
        ]
        .boxed()
    }

    /// Random grammar defining a, b, c: nullable chains, FOLLOW cycles and
    /// left recursion all occur.
    fn arb_grammar() -> impl Strategy<Value = Grammar> {
        let alt = prop::collection::vec(arb_term(2), 0..4).prop_map(Alternative::new);
        let prod = prop::collection::vec(alt, 1..3);
        (prod.clone(), prod.clone(), prod).prop_map(|(a, b, c)| {
            let mut g = Grammar::new("random", "a");
            g.add_production(Production::new("a", a));
            g.add_production(Production::new("b", b));
            g.add_production(Production::new("c", c));
            g
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Dependency-ordered evaluation classifies exactly like the
        /// round-robin fixpoint, at every depth.
        #[test]
        fn dependency_order_matches_round_robin(g in arb_grammar()) {
            let a = analyze(&g).unwrap();
            for k in 1..=K_MAX {
                prop_assert_eq!(
                    analyze_lookahead(&a, k),
                    round_robin(&a, k),
                    "k={}\n{}",
                    k,
                    to_dsl(&g)
                );
            }
        }
    }

    /// `t` and `u` over 150 distinct filler tokens each: `t t` alone
    /// offers 22,500 words at k=3, past the cap.
    fn with_fillers(rules: &str) -> String {
        let alts = |from: usize| {
            (from..from + 150)
                .map(|i| format!("T{i}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        format!(
            "grammar g; start s; {rules} t : {} ; u : {} ;",
            alts(0),
            alts(150)
        )
    }

    fn outcome_of<'l>(la: &'l LookaheadAnalysis, production: &str) -> &'l Outcome {
        &la.decisions
            .iter()
            .find(|d| d.production == production)
            .unwrap_or_else(|| panic!("no decision for {production}: {la:?}"))
            .outcome
    }

    fn residual_on(witness: &[&str]) -> Outcome {
        Outcome::Residual {
            alternatives: (0, 1),
            witness: witness.iter().map(|s| s.to_string()).collect(),
            witness_eof: false,
        }
    }

    #[test]
    fn first_side_cap_saturates() {
        let a = analyze(&parse_grammar(&with_fillers("s : A t t | A u u ;")).unwrap()).unwrap();
        let la = analyze_lookahead(&a, K_MAX);
        assert_eq!(outcome_of(&la, "s"), &Outcome::Saturated);
        assert_eq!(la.saturated(), 1);
        assert_eq!(la, round_robin(&a, K_MAX));
    }

    #[test]
    fn follow_cycle_cap_saturates_the_star_exit() {
        // FOLLOW_3(y) holds the 22,500 `t t E1` words; it reaches
        // x__star1 through the y → x → y cycle and caps it there.
        let src = with_fillers("s : y t t E1 | y u u E2 ; y : C x ; x : (C D)* C? y? ;");
        let a = analyze(&parse_grammar(&src).unwrap()).unwrap();
        let la = analyze_lookahead(&a, K_MAX);
        assert_eq!(outcome_of(&la, "x__star1"), &Outcome::Saturated);
        assert_eq!(outcome_of(&la, "s"), &residual_on(&["C", "C", "C"]));
        assert_eq!(outcome_of(&la, "x__opt2"), &residual_on(&["C", "C", "C"]));
        assert_eq!(la, round_robin(&a, K_MAX));
    }

    #[test]
    fn more_tokens_than_ids_saturates_instead_of_aliasing() {
        // 65,538 distinct tokens: with wrapping ids `Y` would alias `X`,
        // and `s` would report a residual witness `A X` at k=2.
        let fillers = (0..65_535)
            .map(|i| format!("T{i}"))
            .collect::<Vec<_>>()
            .join(" | ");
        let src = format!("grammar g; start s; s : A X | A g ; f : {fillers} ; g : Y ;");
        let a = analyze(&parse_grammar(&src).unwrap()).unwrap();
        for k in [2, K_MAX] {
            let la = analyze_lookahead(&a, k);
            assert_eq!(la.decisions.len(), 1);
            assert_eq!(la.decisions[0].production, "s");
            assert_eq!(la.decisions[0].conflict_tokens, ["A"]);
            assert_eq!(la.decisions[0].outcome, Outcome::Saturated);
        }
        // Without the filler the same decision resolves at k=2.
        let la = run("grammar g; start s; s : A X | A g ; g : Y ;", 2);
        assert!(matches!(
            la.decisions[0].outcome,
            Outcome::Resolved { k: 2, .. }
        ));
    }

    fn entry(word: &[&str], alt: usize) -> DispatchEntry {
        DispatchEntry {
            word: word.iter().map(|s| s.to_string()).collect(),
            alt,
        }
    }

    #[test]
    fn packed_word_roundtrip_and_order() {
        let w = w_push(w_push(EPSILON, 7), 3);
        assert_eq!(w_len(w), 2);
        assert_eq!(w_tok(w, 0), 7);
        assert_eq!(w_tok(w, 1), 3);
        // (length, lex) order: shorter sorts first, then position 0 major.
        assert!(w_push(EPSILON, 9) < w);
        assert!(w < w_push(w_push(EPSILON, 8), 0));
        assert!(w_prefix(w_push(EPSILON, 7), w));
        assert!(!w_prefix(w_push(EPSILON, 3), w));
        assert_eq!(w_trunc(1, w), w_push(EPSILON, 7));
        assert_eq!(w_concat(3, w, w_push(EPSILON, 5)), w_push(w, 5));
        assert_eq!(w_concat(2, w, w_push(EPSILON, 5)), w);
    }

    #[test]
    fn seqset_cap_keeps_smallest_and_flags_incomplete() {
        let mut b = SeqBuilder::new();
        for t in 0..CAP as u64 + 5 {
            b.push((1 << 48) | ((t % 60_000) << 32));
        }
        let s = b.finish();
        assert!(!s.complete);
        assert_eq!(s.words.len(), CAP);
        // Smallest word survives.
        assert!(s.words.contains(&(1 << 48)));
    }

    #[test]
    fn seqset_cap_counts_distinct_words_and_survives_early_capping() {
        // Exactly CAP distinct words, each pushed five times in descending
        // order (so the buffer caps early more than once), is complete.
        let mut b = SeqBuilder::new();
        for _ in 0..5 {
            for t in (0..CAP as u64).rev() {
                b.push((2 << 48) | (t << 16));
            }
        }
        let s = b.finish();
        assert!(s.complete);
        assert_eq!(s.words.len(), CAP);
        assert!(
            s.words.windows(2).all(|p| p[0] < p[1]),
            "sorted and deduplicated"
        );
        // One more distinct word, pushed first and so capped away early:
        // the set is now incomplete and still holds the CAP smallest.
        let mut b = SeqBuilder::new();
        b.push((3 << 48) | 1);
        for _ in 0..5 {
            for &w in &s.words {
                b.push(w);
            }
        }
        assert_eq!(
            b.finish(),
            SeqSet {
                words: s.words.clone(),
                complete: false
            }
        );
    }

    #[test]
    fn first_common_is_the_smallest_shared_word() {
        assert_eq!(first_common(&[1, 4, 6, 9], &[2, 6, 9]), Some(6));
        assert_eq!(first_common(&[1, 3], &[2, 4]), None);
        assert_eq!(first_common(&[], &[2]), None);
    }

    #[test]
    fn sccs_come_after_everything_they_reach() {
        // 0 → 1 ⇄ 2 → 3, 3 → 3, and an isolated 4.
        let succ = vec![vec![1], vec![2], vec![1, 3], vec![3], vec![]];
        let comps: Vec<Vec<usize>> = sccs(&succ)
            .into_iter()
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        assert_eq!(comps, [vec![3], vec![1, 2], vec![0], vec![4]]);
    }

    #[test]
    fn no_conflicts_no_decisions() {
        let la = run("grammar g; s : A b ; b : B | C ;", 3);
        assert!(la.decisions.is_empty());
        assert_eq!(la.k, 3);
    }

    #[test]
    fn common_prefix_resolved_at_k2() {
        let la = run("grammar g; s : A B | A C ;", 3);
        assert_eq!(la.decisions.len(), 1);
        let d = &la.decisions[0];
        assert_eq!(d.production, "s");
        assert!(!d.synthetic);
        assert_eq!(d.conflict_tokens, ["A"]);
        match &d.outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 2);
                assert_eq!(entries, &[entry(&["A", "B"], 0), entry(&["A", "C"], 1)]);
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
        assert_eq!(la.resolved(), 1);
        assert_eq!(la.residual() + la.saturated(), 0);
    }

    #[test]
    fn deeper_prefix_needs_k3() {
        let la = run("grammar g; s : A A B | A A C ;", 3);
        match &la.decisions[0].outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 3);
                assert_eq!(entries, &[entry(&["A", "A", "B"], 0), entry(&["A", "A", "C"], 1)]);
            }
            o => panic!("expected Resolved at 3, got {o:?}"),
        }
        // At k=2 the same grammar is residual with the shared prefix.
        let la = run("grammar g; s : A A B | A A C ;", 2);
        match &la.decisions[0].outcome {
            Outcome::Residual { witness, witness_eof, alternatives } => {
                assert_eq!(witness, &["A", "A"]);
                assert!(!witness_eof);
                assert_eq!(*alternatives, (0, 1));
            }
            o => panic!("expected Residual at 2, got {o:?}"),
        }
    }

    #[test]
    fn star_exit_resolved_through_follow() {
        // Pico-style script: trailing SEMI conflicts the star's continue
        // (SEMI stmt …) with its exit (SEMI? then EOF).
        let la = run(
            "grammar g; start script; script : stmt (SEMI stmt)* SEMI? ; stmt : A ;",
            3,
        );
        let d = la
            .decisions
            .iter()
            .find(|d| d.production.contains("__star"))
            .expect("star decision");
        assert!(d.synthetic);
        assert_eq!(d.conflict_tokens, ["SEMI"]);
        match &d.outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 2);
                // Exit entry: SEMI then end of input (word shorter than k).
                assert!(entries.contains(&entry(&["SEMI"], 1)), "{entries:?}");
                // Continue entry: SEMI then another statement.
                assert!(entries.contains(&entry(&["SEMI", "A"], 0)), "{entries:?}");
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
    }

    #[test]
    fn unbounded_common_prefix_is_residual_with_witness() {
        let la = run("grammar g; s : a B | a C ; a : A | A a ;", 3);
        match &la.decisions[0].outcome {
            Outcome::Residual { witness, witness_eof, .. } => {
                assert_eq!(witness, &["A", "A", "A"]);
                assert!(!witness_eof);
            }
            o => panic!("expected Residual, got {o:?}"),
        }
        assert_eq!(la.residual(), 1);
    }

    #[test]
    fn k1_reports_conflicts_as_residual_single_token() {
        let la = run("grammar g; s : A B | A C ;", 1);
        assert_eq!(la.k, 1);
        match &la.decisions[0].outcome {
            Outcome::Residual { witness, .. } => assert_eq!(witness, &["A"]),
            o => panic!("expected Residual at k=1, got {o:?}"),
        }
    }

    #[test]
    fn peg_safety_filter_drops_preemptable_entries() {
        // `p : A | A B` — the first alternative locally succeeds on `A`
        // alone, so the engine commits to it and never parses `A B` via
        // alternative 1 ("A B" as a whole statement is rejected by PEG
        // semantics even though the CFG accepts it). The dispatch table
        // must not "fix" that, or trees would diverge from the oracle.
        let la = run("grammar g; start s; s : p X ; p : A | A B ;", 3);
        match &la.decisions[0].outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 2);
                assert_eq!(entries, &[entry(&["A", "X"], 0)], "A B entry must be filtered");
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
    }

    #[test]
    fn nullable_alternative_resolved_against_eof() {
        // `a : X | ε` inside `s : a X` — the ε-alternative is predicted on
        // FOLLOW; at k=2 "X then EOF" would pick ε, but the PEG filter
        // drops it because alternative 0 completes on a bare `X`.
        let la = run("grammar g; start s; s : a X ; a : X | ;", 2);
        let d = &la.decisions[0];
        assert_eq!(d.production, "a");
        match &d.outcome {
            Outcome::Resolved { k, entries } => {
                assert_eq!(*k, 2);
                assert_eq!(entries, &[entry(&["X", "X"], 0)], "short EOF entry must be filtered");
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
    }

    #[test]
    fn conflict_token_list_aggregates_and_sorts() {
        let la = run("grammar g; s : A B | A C | D | D E ;", 3);
        assert_eq!(la.decisions.len(), 1);
        assert_eq!(la.decisions[0].conflict_tokens, ["A", "D"]);
        match &la.decisions[0].outcome {
            Outcome::Resolved { entries, .. } => {
                // Entry for the D/D-E conflict: bare `D` (EOF) → alt 2 is
                // kept (no earlier alternative can pre-empt it), `D E` → 3
                // is dropped by the PEG filter (alt 2 completes on `D`).
                assert!(entries.contains(&entry(&["D"], 2)), "{entries:?}");
                assert!(!entries.iter().any(|e| e.alt == 3), "{entries:?}");
            }
            o => panic!("expected Resolved, got {o:?}"),
        }
    }

    #[test]
    fn summary_lines_render() {
        let la = run("grammar g; s : A B | A C ;", 3);
        let s = la.decisions[0].summary();
        assert!(s.contains("k=2"), "{s}");
        let la = run("grammar g; s : a B | a C ; a : A | A a ;", 3);
        let s = la.decisions[0].summary();
        assert!(s.contains("`A A A`"), "{s}");
        assert_eq!(witness_display(&["A".into()], true), "A $");
        assert_eq!(witness_display(&[], true), "$");
    }

    #[test]
    fn recovery_sync_set_of_script_skeleton_is_semi_and_eof() {
        // The composed sql_script skeleton every dialect shares.
        let a = analyze(
            &parse_grammar(
                "grammar g; start script; script : stmt (SEMI stmt)* SEMI? ; stmt : SELECT IDENT ;",
            )
            .unwrap(),
        )
        .unwrap();
        let sync = recovery_sync_set(&a);
        let sync: Vec<&str> = sync.iter().map(|s| s.as_str()).collect();
        assert_eq!(sync, [EOF, "SEMI"]);
    }

    #[test]
    fn recovery_sync_set_uses_follow_of_start_level_nonterminals() {
        let a = analyze(
            &parse_grammar("grammar g; start s; s : a END ; a : X | Y a ;").unwrap(),
        )
        .unwrap();
        let sync = recovery_sync_set(&a);
        let sync: Vec<&str> = sync.iter().map(|s| s.as_str()).collect();
        // FOLLOW(a) = {END}, plus the literal END token and EOF itself.
        assert_eq!(sync, [EOF, "END"]);
    }

    #[test]
    fn recovery_sync_set_always_contains_eof() {
        let a = analyze(&parse_grammar("grammar g; start s; s : X ;").unwrap()).unwrap();
        assert!(recovery_sync_set(&a).contains(EOF));
    }
}
