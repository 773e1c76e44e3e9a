//! Subset construction: tagged NFA → DFA over a partitioned alphabet.
//!
//! The automaton's alphabet is not `char` directly but a set of disjoint
//! character intervals computed from every class boundary appearing in the
//! NFA. Within one interval, all characters behave identically, so DFA
//! transitions are per-interval — typically a few dozen intervals for a SQL
//! token set instead of 1.1M code points.

use crate::nfa::{Nfa, StateId};
use std::collections::HashMap;

/// A deterministic automaton with tagged accepting states.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Sorted, disjoint alphabet intervals (inclusive).
    pub intervals: Vec<(char, char)>,
    /// States; index 0 is the start state.
    pub states: Vec<DfaState>,
}

/// One DFA state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfaState {
    /// Per-interval successor (`None` = reject).
    pub trans: Vec<Option<u32>>,
    /// Accepting tag (token rule index), smallest tag wins on conflicts.
    pub accept: Option<usize>,
}

impl Dfa {
    /// Build a DFA from a finished NFA.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        determinize(nfa).0
    }

    /// Map a character to its alphabet interval, if any.
    pub fn classify(&self, c: char) -> Option<usize> {
        self.intervals
            .binary_search_by(|&(lo, hi)| {
                if c < lo {
                    std::cmp::Ordering::Greater
                } else if c > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
    }

    /// Step from `state` on character `c`.
    #[inline]
    pub fn step(&self, state: u32, c: char) -> Option<u32> {
        let ii = self.classify(c)?;
        self.states[state as usize].trans[ii]
    }

    /// Longest-match simulation from position 0 of `input`; returns
    /// `(match_len_bytes, tag)`.
    pub fn simulate(&self, input: &str) -> Option<(usize, usize)> {
        let mut state = 0u32;
        let mut best: Option<(usize, usize)> = None;
        let mut len = 0usize;
        for c in input.chars() {
            match self.step(state, c) {
                Some(next) => {
                    state = next;
                    len += c.len_utf8();
                    if let Some(tag) = self.states[state as usize].accept {
                        best = Some((len, tag));
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Upper bound, in *characters*, on how far a maximal-munch scan can
    /// examine input past the end of the match it finally emits — the
    /// automaton keeps stepping after the last accepting state until it
    /// dies, and every state on that tail is non-accepting (an accept
    /// would have extended the match). The bound is therefore one char
    /// for the killing character plus the longest path through
    /// non-accepting states reachable from any accepting state. `None`
    /// means such a path can cycle (the lookahead is unbounded, e.g. a
    /// token that is a prefix of an arbitrarily long non-accepting
    /// pattern); incremental relexing then restarts from byte 0.
    pub fn probe_overhang(&self) -> Option<usize> {
        let tags = self
            .states
            .iter()
            .filter_map(|s| s.accept)
            .max()
            .map_or(0, |t| t + 1);
        self.probe_overhang_by_tag(tags)
            .into_iter()
            .try_fold(1usize, |acc, oh| oh.map(|oh| acc.max(oh)))
    }

    /// Per-rule refinement of [`Dfa::probe_overhang`]: entry `t` bounds
    /// the lookahead of any munch that *ends in an accepting state of
    /// rule `t`* — the rule that longest-match resolution actually
    /// reports for the match. A single unbounded rule (say, a quoted
    /// string whose body can run on forever unaccepted) then poisons
    /// only its own entry instead of the whole automaton: matches of
    /// every other rule keep a finite bound, and callers fall back to
    /// exact recorded probe frontiers for the unbounded rules alone.
    /// Entries for tags the automaton never accepts stay `Some(1)`.
    pub fn probe_overhang_by_tag(&self, tags: usize) -> Vec<Option<usize>> {
        // Longest non-accepting chain from each non-accepting state,
        // counting the state itself. Recursion depth is bounded by the
        // chain length, which this function proves finite before
        // returning it; `None` propagation marks every state on the DFS
        // stack above a cycle, which is exactly the set of states from
        // which that cycle is reachable.
        let n = self.states.len();
        let mut longest = vec![0usize; n];
        let mut done = vec![false; n];
        fn chain(
            dfa: &Dfa,
            s: usize,
            longest: &mut [usize],
            done: &mut [bool],
            on_stack: &mut [bool],
        ) -> Option<usize> {
            if done[s] {
                return Some(longest[s]);
            }
            if on_stack[s] {
                return None; // cycle through non-accepting states
            }
            on_stack[s] = true;
            let mut best = 1usize;
            for t in dfa.states[s].trans.iter().flatten() {
                let t = *t as usize;
                if dfa.states[t].accept.is_some() {
                    continue; // re-accepting paths extend the match instead
                }
                best = best.max(1 + chain(dfa, t, longest, done, on_stack)?);
            }
            on_stack[s] = false;
            done[s] = true;
            longest[s] = best;
            Some(best)
        }
        let mut on_stack = vec![false; n];
        let mut out = vec![Some(1usize); tags]; // the killing character itself
        for s in 0..n {
            let Some(tag) = self.states[s].accept else {
                continue;
            };
            if tag >= tags {
                continue;
            }
            for t in self.states[s].trans.iter().flatten() {
                let t = *t as usize;
                if self.states[t].accept.is_some() {
                    continue;
                }
                out[tag] = match (
                    out[tag],
                    chain(self, t, &mut longest, &mut done, &mut on_stack),
                ) {
                    (Some(a), Some(c)) => Some(a.max(1 + c)),
                    _ => None,
                };
            }
        }
        out
    }

    /// `true` if the automaton has no states (never after construction).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Subset construction. Returns the DFA and, for each of its states, the
/// NFA state set behind it (`sets[i]` is state `i`'s sorted ε-closed set),
/// for analyses that need every accepting tag rather than the winning one.
///
/// Its cost follows the DFA it emits, not |NFA| × intervals per state:
/// each class range is resolved once to the run of interval indices it
/// covers, one pass over a state's NFA set fills the move set ("kernel")
/// of every interval, and each distinct kernel is ε-closed once — so the
/// dozens of letter intervals that lead into an identifier loop share a
/// single closure. States are numbered in the discovery order of a LIFO
/// worklist that visits intervals in ascending order; the tests hold the
/// result to the plain per-(state, interval) construction state for state.
pub(crate) fn determinize(nfa: &Nfa) -> (Dfa, Vec<Vec<StateId>>) {
    let intervals = alphabet_intervals(nfa);
    // Intervals are cut at every class boundary, so a class range covers
    // exactly the intervals whose low end lies inside it: a contiguous
    // run. `runs[first[s]..first[s + 1]]` are state `s`'s transitions as
    // `(first interval, one past the last, target)`.
    let mut first = Vec::with_capacity(nfa.states.len() + 1);
    let mut runs: Vec<(usize, usize, StateId)> = Vec::new();
    for state in &nfa.states {
        first.push(runs.len());
        for (class, target) in &state.trans {
            for &(lo, hi) in class.ranges() {
                let a = intervals.partition_point(|iv| iv.0 < lo);
                let b = intervals.partition_point(|iv| iv.0 <= hi);
                runs.push((a, b, *target));
            }
        }
    }
    first.push(runs.len());

    let mut subsets = Subsets {
        nfa,
        width: intervals.len(),
        states: Vec::new(),
        sets: Vec::new(),
        index: HashMap::new(),
        worklist: Vec::new(),
    };
    let mut closure = Closure {
        stamp: vec![0; nfa.states.len()],
        generation: 0,
        stack: Vec::new(),
    };
    // Kernel → DFA state, in front of the closure.
    let mut kernels: HashMap<Vec<StateId>, u32> = HashMap::new();
    // One move set per interval, filled and emptied for every DFA state.
    let mut buckets: Vec<Vec<StateId>> = vec![Vec::new(); intervals.len()];

    subsets.intern(closure.close(nfa, &[nfa.start()]));
    while let Some(id) = subsets.worklist.pop() {
        for &s in &subsets.sets[id as usize] {
            for &(a, b, target) in &runs[first[s]..first[s + 1]] {
                for bucket in &mut buckets[a..b] {
                    bucket.push(target);
                }
            }
        }
        for (ii, kernel) in buckets.iter_mut().enumerate() {
            if kernel.is_empty() {
                continue;
            }
            kernel.sort_unstable();
            kernel.dedup();
            let next = match kernels.get(kernel.as_slice()) {
                Some(&next) => next,
                None => {
                    let next = subsets.intern(closure.close(nfa, kernel));
                    kernels.insert(kernel.clone(), next);
                    next
                }
            };
            subsets.states[id as usize].trans[ii] = Some(next);
            kernel.clear();
        }
    }
    let Subsets { states, sets, .. } = subsets;
    (Dfa { intervals, states }, sets)
}

/// The DFA under construction, keyed by NFA state set.
struct Subsets<'a> {
    nfa: &'a Nfa,
    width: usize,
    states: Vec<DfaState>,
    sets: Vec<Vec<StateId>>,
    index: HashMap<Vec<StateId>, u32>,
    worklist: Vec<u32>,
}

impl Subsets<'_> {
    /// The state for the closed set `set`, created and queued on first sight.
    fn intern(&mut self, set: Vec<StateId>) -> u32 {
        if let Some(&id) = self.index.get(&set) {
            return id;
        }
        let id = self.states.len() as u32;
        self.states.push(DfaState {
            trans: vec![None; self.width],
            accept: accept_of(self.nfa, &set),
        });
        self.index.insert(set.clone(), id);
        self.sets.push(set);
        self.worklist.push(id);
        id
    }
}

/// ε-closure scratch shared by every closure of one construction: a
/// state counts as visited when its stamp equals the current generation,
/// so a closure touches only the states it reaches.
struct Closure {
    stamp: Vec<u32>,
    generation: u32,
    stack: Vec<StateId>,
}

impl Closure {
    /// Sorted ε-closure of `seeds`, as [`Nfa::eps_closure`] computes it.
    fn close(&mut self, nfa: &Nfa, seeds: &[StateId]) -> Vec<StateId> {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        let generation = self.generation;
        let mut out = Vec::new();
        for &s in seeds {
            if self.stamp[s] != generation {
                self.stamp[s] = generation;
                self.stack.push(s);
            }
        }
        while let Some(s) = self.stack.pop() {
            out.push(s);
            for &t in &nfa.states[s].eps {
                if self.stamp[t] != generation {
                    self.stamp[t] = generation;
                    self.stack.push(t);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Smallest accepting tag of an NFA state set.
fn accept_of(nfa: &Nfa, set: &[usize]) -> Option<usize> {
    set.iter().filter_map(|&s| nfa.states[s].accept).min()
}

/// Compute the disjoint alphabet intervals induced by all class boundaries.
///
/// A single sorted sweep over range-boundary events decides coverage: each
/// class range contributes `+1` at its start and `-1` one past its end, so
/// an interval is kept iff the running depth at its low end is positive.
/// (The earlier implementation re-scanned every NFA transition per
/// candidate interval — quadratic in the number of class boundaries, which
/// the `full` token set has hundreds of.)
pub(crate) fn alphabet_intervals(nfa: &Nfa) -> Vec<(char, char)> {
    // Coverage events in u32 space: range start opens (+1), one past the
    // range end closes (-1). Event positions double as the cut points.
    let mut events: Vec<(u32, i32)> = Vec::new();
    for state in &nfa.states {
        for (class, _) in &state.trans {
            for &(lo, hi) in class.ranges() {
                events.push((lo as u32, 1));
                events.push((hi as u32 + 1, -1));
            }
        }
    }
    let mut cuts: Vec<u32> = events.iter().map(|&(at, _)| at).collect();
    // Always cut at the surrogate gap so no interval straddles it; gap
    // intervals are dropped below because their low end is not a `char`.
    cuts.push(0xD800);
    cuts.push(0xE000);
    cuts.sort_unstable();
    cuts.dedup();
    events.sort_unstable();

    let mut intervals = Vec::new();
    let mut depth = 0i32;
    let mut next_event = 0usize;
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1] - 1);
        // Accumulate every event at or before this interval's start; cut
        // points include every class boundary, so an interval is fully
        // inside or fully outside each class and the depth at `lo` is the
        // depth everywhere in the interval.
        while next_event < events.len() && events[next_event].0 <= lo {
            depth += events[next_event].1;
            next_event += 1;
        }
        if depth <= 0 {
            continue;
        }
        // Skip the surrogate gap (its low end is not a `char`).
        let lo_c = match char::from_u32(lo) {
            Some(c) => c,
            None => continue,
        };
        let hi_c = char::from_u32(hi).expect("interval ends never fall inside the surrogate gap");
        intervals.push((lo_c, hi_c));
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::regex::parse;
    use crate::tokenset::{RuleKind, TokenRule, TokenSet};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn dfa_of(patterns: &[&str]) -> Dfa {
        let mut nfa = Nfa::new();
        for (i, p) in patterns.iter().enumerate() {
            nfa.add_pattern(&parse(p).unwrap(), i);
        }
        nfa.finish();
        Dfa::from_nfa(&nfa)
    }

    #[test]
    fn literal_simulation() {
        let d = dfa_of(&["abc"]);
        assert_eq!(d.simulate("abc"), Some((3, 0)));
        assert_eq!(d.simulate("abx"), None);
        assert_eq!(d.simulate("ab"), None);
    }

    #[test]
    fn longest_match() {
        let d = dfa_of(&["a+"]);
        assert_eq!(d.simulate("aaab"), Some((3, 0)));
    }

    #[test]
    fn priority_resolution() {
        let d = dfa_of(&["select", "[a-z]+"]);
        assert_eq!(d.simulate("select"), Some((6, 0)));
        assert_eq!(d.simulate("selected"), Some((8, 1)));
        assert_eq!(d.simulate("sel"), Some((3, 1)));
    }

    #[test]
    fn intervals_are_disjoint_and_sorted() {
        let d = dfa_of(&["[a-m]+", "[k-z]+", "[0-9]"]);
        for w in d.intervals.windows(2) {
            assert!(w[0].1 < w[1].0, "overlap: {:?}", d.intervals);
        }
        // boundary char 'k' splits [a-m] and [k-z]
        assert!(d.classify('j') != d.classify('k'));
    }

    #[test]
    fn classify_outside_alphabet() {
        let d = dfa_of(&["[a-z]+"]);
        assert_eq!(d.classify('0'), None);
        assert!(d.classify('q').is_some());
    }

    #[test]
    fn agreement_with_nfa_reference() {
        let patterns = ["[0-9]+", "[0-9]+\\.[0-9]+", "[a-zA-Z_][a-zA-Z0-9_]*", "'([^'])*'"];
        let mut nfa = Nfa::new();
        for (i, p) in patterns.iter().enumerate() {
            nfa.add_pattern(&parse(p).unwrap(), i);
        }
        nfa.finish();
        let dfa = Dfa::from_nfa(&nfa);
        for input in ["123", "12.5", "hello", "'str'", "12.x", "x12", "''", "9"] {
            assert_eq!(dfa.simulate(input), nfa.simulate(input), "on {input:?}");
        }
    }

    #[test]
    fn probe_overhang_bounds_lookahead() {
        // `12.x`: after accepting `12`, the munch examines `.` (live,
        // hoping for a fraction) and `x` (dead) — overhang 2.
        let d = dfa_of(&["[0-9]+(\\.[0-9]+)?", "[a-z]+"]);
        let oh = d.probe_overhang().unwrap();
        assert!(oh >= 2, "number lookahead needs 2, got {oh}");
        // Exponent forms look one further (`1e+` then the dead byte).
        let d = dfa_of(&["[0-9]+(\\.[0-9]+)?([eE][+\\-]?[0-9]+)?"]);
        assert!(d.probe_overhang().unwrap() >= 3);
        // Pure keyword/ident sets die immediately after their match.
        let d = dfa_of(&["[a-z]+", "[0-9]+"]);
        assert_eq!(d.probe_overhang(), Some(1));
        // A standalone `/` that is also the prefix of a block comment can
        // stay live through an unbounded non-accepting comment body:
        // overhang is unbounded.
        let d = dfa_of(&["/", "/\\*([^*])*\\*/"]);
        assert_eq!(d.probe_overhang(), None);
    }

    #[test]
    fn dot_like_negated_class() {
        let d = dfa_of(&["--[^\n]*"]);
        assert_eq!(d.simulate("-- a comment"), Some((12, 0)));
        assert_eq!(d.simulate("-- a\nrest"), Some((4, 0)));
    }

    /// The subset construction [`determinize`] replaced, kept verbatim as
    /// its oracle: every (state, interval) pair re-tests every NFA
    /// transition and closes its move set from scratch. Each state's NFA
    /// set is read back off the index.
    fn reference(nfa: &Nfa) -> (Dfa, Vec<Vec<usize>>) {
        let intervals = alphabet_intervals(nfa);
        let mut states: Vec<DfaState> = Vec::new();
        let mut index: HashMap<Vec<usize>, u32> = HashMap::new();
        let mut worklist: Vec<Vec<usize>> = Vec::new();

        let start_set = nfa.eps_closure(&[nfa.start()]);
        index.insert(start_set.clone(), 0);
        states.push(DfaState {
            trans: vec![None; intervals.len()],
            accept: accept_of(nfa, &start_set),
        });
        worklist.push(start_set);

        while let Some(set) = worklist.pop() {
            let id = index[&set];
            for (ii, &(lo, _hi)) in intervals.iter().enumerate() {
                // Any character of the interval is representative.
                let mut moved: Vec<usize> = Vec::new();
                for &s in &set {
                    for (class, t) in &nfa.states[s].trans {
                        if class.contains(lo) && !moved.contains(t) {
                            moved.push(*t);
                        }
                    }
                }
                if moved.is_empty() {
                    continue;
                }
                let closed = nfa.eps_closure(&moved);
                let target = match index.get(&closed) {
                    Some(&t) => t,
                    None => {
                        let t = states.len() as u32;
                        index.insert(closed.clone(), t);
                        states.push(DfaState {
                            trans: vec![None; intervals.len()],
                            accept: accept_of(nfa, &closed),
                        });
                        worklist.push(closed);
                        t
                    }
                };
                states[id as usize].trans[ii] = Some(target);
            }
        }
        let mut sets = vec![Vec::new(); states.len()];
        for (set, id) in index {
            sets[id as usize] = set;
        }
        (Dfa { intervals, states }, sets)
    }

    /// The NFA [`TokenSet::build`] compiles rules in priority order into.
    fn rule_nfa(rules: &[TokenRule]) -> Nfa {
        let mut nfa = Nfa::new();
        for (tag, rule) in rules.iter().enumerate() {
            nfa.add_pattern(&rule.to_regex().expect("rules are valid"), tag);
        }
        nfa.finish();
        nfa
    }

    /// `determinize(nfa)` is the reference's DFA — intervals, then every
    /// state in order — with the same NFA set behind each state. Returns
    /// those sets.
    fn same_as_reference(nfa: &Nfa) -> Result<Vec<Vec<usize>>, String> {
        let (got, got_sets) = determinize(nfa);
        let (want, want_sets) = reference(nfa);
        prop_assert_eq!(&got.intervals, &want.intervals);
        for (i, (g, w)) in got.states.iter().zip(&want.states).enumerate() {
            prop_assert_eq!(g, w, "state {}: {:?} vs reference {:?}", i, g, w);
        }
        prop_assert_eq!(got.states.len(), want.states.len());
        prop_assert_eq!(&got_sets, &want_sets);
        Ok(want_sets)
    }

    /// Checks `ts` with and without its keywords (the second automaton is
    /// the one `VectorTables::build` compiles), and that the lint analysis
    /// reads the verdicts off the same sets the reference reaches.
    fn check_token_set(ts: &TokenSet) -> Result<(), String> {
        let rules = ts.prioritized();
        let keywordless: Vec<TokenRule> = rules
            .iter()
            .filter(|r| r.kind != RuleKind::Keyword)
            .cloned()
            .collect();
        same_as_reference(&rule_nfa(&keywordless))?;
        let nfa = rule_nfa(&rules);
        let sets = same_as_reference(&nfa)?;

        let mut winnable = vec![false; rules.len()];
        let mut overlaps = BTreeSet::new();
        for set in &sets {
            let tags: BTreeSet<usize> = set.iter().filter_map(|&s| nfa.states[s].accept).collect();
            if let Some(&winner) = tags.first() {
                winnable[winner] = true;
            }
            for &a in &tags {
                for &b in tags.range(a + 1..) {
                    overlaps.insert((a, b));
                }
            }
        }
        let got = analyze(ts).map_err(|e| e.to_string())?;
        prop_assert_eq!(got.winnable, winnable);
        prop_assert_eq!(got.overlaps, overlaps.into_iter().collect::<Vec<_>>());
        Ok(())
    }

    /// Random regexes over ASCII letters, digits, quotes and multi-byte
    /// characters, with plain, negated and multi-byte classes.
    fn arb_pattern() -> impl Strategy<Value = String> {
        let leaf = prop::sample::select(vec![
            "a",
            "b",
            "Z",
            "_",
            "1",
            "'",
            "é",
            "€",
            "😀",
            "[a-c]",
            "[A-Za-z_]",
            "[0-9]",
            "[^a]",
            "[^'\\n]",
            "[é-ü]",
            "[^é€]",
            "[a-zé-ü😀]",
            "\\d",
            ".",
        ])
        .prop_map(str::to_string);
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..4).prop_map(|v| v.join("")),
                prop::collection::vec(inner.clone(), 2..4)
                    .prop_map(|v| format!("({})", v.join("|"))),
                inner.clone().prop_map(|r| format!("({r})*")),
                inner.clone().prop_map(|r| format!("({r})+")),
                inner.prop_map(|r| format!("({r})?")),
            ]
        })
    }

    /// Random token sets mixing case-insensitive keywords over a few
    /// letters (so they share prefixes and collide with patterns),
    /// ASCII and multi-byte puncts, patterns and skip patterns.
    fn arb_token_set() -> impl Strategy<Value = TokenSet> {
        let keyword =
            prop::collection::vec(prop::sample::select(vec!['a', 'b', 'c', 'z', '_']), 1..5)
                .prop_map(|w| (RuleKind::Keyword, w.into_iter().collect::<String>()));
        let punct = prop::sample::select(vec![
            "(", ",", "<", "<=", "<>", "||", "-", "--", "/*", "'", "é", "€=",
        ])
        .prop_map(|p| (RuleKind::Punct(p.to_string()), String::new()));
        let rule = prop_oneof![
            3 => keyword,
            1 => punct,
            2 => arb_pattern().prop_map(|p| (RuleKind::Pattern(p), String::new())),
            1 => arb_pattern().prop_map(|p| (RuleKind::Skip(p), String::new())),
        ];
        prop::collection::vec(rule, 1..10).prop_map(|rules| {
            let mut ts = TokenSet::new();
            for (i, (kind, spelling)) in rules.into_iter().enumerate() {
                let name = match kind {
                    RuleKind::Keyword => spelling.to_ascii_uppercase(),
                    _ => format!("R{i}"),
                };
                ts.add(TokenRule { name, kind })
                    .expect("generated rules are valid");
            }
            ts
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_token_sets_match_the_reference(ts in arb_token_set()) {
            check_token_set(&ts)?;
        }
    }

    #[test]
    fn full_sized_sql_token_set_matches_the_reference() {
        let ts = crate::testdata::sql_token_set();
        assert!(ts.len() > 300, "{} rules", ts.len());
        check_token_set(&ts).unwrap();
    }
}
