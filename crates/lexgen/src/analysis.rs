//! Static analyses over a composed token set, for the product-line linter.
//!
//! The scanner resolves rule conflicts silently (smallest prioritized index
//! wins per DFA state), which is the right *runtime* behavior but hides
//! defects a dialect author wants surfaced ahead of time: a rule that can
//! never be emitted because earlier rules cover its whole language, or a
//! skip rule whose language collides with a real token. This module takes
//! the NFA state set behind every DFA state from the scanner's own subset
//! construction ([`crate::dfa`]), reads off the **full** accepting-tag set
//! of each — rather than only the winning tag — and derives both facts
//! from it exactly (no approximation: two rules overlap iff some reachable
//! DFA state accepts both). One construction serves scanner and lint, so
//! the per-configuration `lint`/`certify` loop costs what a scanner build's
//! subset step costs.

use crate::dfa::determinize;
use crate::nfa::Nfa;
use crate::tokenset::{TokenRule, TokenSet, TokenSetError};
use std::collections::BTreeSet;

/// Result of [`analyze`]: per-rule emittability and pairwise overlaps.
///
/// Rule indices refer to `rules`, which is the set in *scanner priority
/// order* (keywords/puncts hoisted above patterns/skips, declaration order
/// within each class) — the same order the built [`crate::Scanner`] uses.
#[derive(Debug, Clone)]
pub struct TokenSetAnalysis {
    /// Rules in scanner priority order.
    pub rules: Vec<TokenRule>,
    /// `winnable[i]` — some input makes the scanner emit (or skip-match)
    /// rule `i`. A `false` entry is a fully shadowed rule.
    pub winnable: Vec<bool>,
    /// Pairs `(i, j)` with `i < j` whose languages intersect: some string
    /// is matched in full by both rules. Rule `i` wins those strings.
    pub overlaps: Vec<(usize, usize)>,
}

impl TokenSetAnalysis {
    /// Indices of rules that can never be emitted.
    pub fn shadowed(&self) -> Vec<usize> {
        self.winnable
            .iter()
            .enumerate()
            .filter(|(_, &w)| !w)
            .map(|(i, _)| i)
            .collect()
    }

    /// The rules shadowing rule `i`: every rule with higher priority whose
    /// language overlaps `i`'s.
    pub fn shadowers(&self, i: usize) -> Vec<usize> {
        self.overlaps
            .iter()
            .filter(|&&(a, b)| b == i && a < i)
            .map(|&(a, _)| a)
            .collect()
    }
}

/// Analyze `ts`. Fails only if a rule's pattern fails to compile, which
/// [`TokenSet::add`] already prevents for sets built through the public API.
pub fn analyze(ts: &TokenSet) -> Result<TokenSetAnalysis, TokenSetError> {
    let rules = ts.prioritized();
    let mut nfa = Nfa::new();
    for (tag, rule) in rules.iter().enumerate() {
        let re = rule.to_regex().map_err(|error| TokenSetError::BadPattern {
            name: rule.name.clone(),
            error,
        })?;
        nfa.add_pattern(&re, tag);
    }
    nfa.finish();

    let (_, sets) = determinize(&nfa);

    // A rule is winnable iff it is the highest-priority (smallest) tag of
    // some reachable accepting state: maximal-munch keeps extending the
    // match, but every accepting state it can stop in reports its smallest
    // tag, so a rule that is nowhere the smallest is never emitted.
    let mut winnable = vec![false; rules.len()];
    let mut overlaps: BTreeSet<(usize, usize)> = BTreeSet::new();
    for set in &sets {
        let accepts: BTreeSet<usize> = set.iter().filter_map(|&s| nfa.states[s].accept).collect();
        if let Some(&winner) = accepts.iter().next() {
            winnable[winner] = true;
        }
        for &a in &accepts {
            for &b in accepts.iter().filter(|&&b| b > a) {
                overlaps.insert((a, b));
            }
        }
    }

    Ok(TokenSetAnalysis {
        rules,
        winnable,
        overlaps: overlaps.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenset::RuleKind;

    fn names(a: &TokenSetAnalysis, idxs: &[usize]) -> Vec<String> {
        idxs.iter().map(|&i| a.rules[i].name.clone()).collect()
    }

    #[test]
    fn healthy_set_has_no_shadowed_rules() {
        let mut ts = TokenSet::new();
        ts.keyword("SELECT").unwrap();
        ts.pattern("IDENT", "[a-z]+").unwrap();
        ts.pattern("NUM", "[0-9]+").unwrap();
        ts.skip("WS", " +").unwrap();
        let a = analyze(&ts).unwrap();
        assert!(a.shadowed().is_empty(), "{:?}", names(&a, &a.shadowed()));
    }

    #[test]
    fn fully_shadowed_pattern_detected() {
        let mut ts = TokenSet::new();
        ts.pattern("ANY", "[a-z]+").unwrap();
        ts.pattern("ABC", "abc").unwrap(); // ⊂ ANY at every length it matches
        let a = analyze(&ts).unwrap();
        let shadowed = a.shadowed();
        assert_eq!(names(&a, &shadowed), ["ABC"]);
        let shadowers = a.shadowers(shadowed[0]);
        assert_eq!(names(&a, &shadowers), ["ANY"]);
    }

    #[test]
    fn keyword_ident_overlap_reported_not_shadowed() {
        let mut ts = TokenSet::new();
        ts.keyword("FROM").unwrap();
        ts.pattern("IDENT", "[a-z]+").unwrap();
        let a = analyze(&ts).unwrap();
        // Keyword wins its own spelling; IDENT still wins everything else.
        assert!(a.shadowed().is_empty());
        let kw = a.rules.iter().position(|r| r.name == "FROM").unwrap();
        let id = a.rules.iter().position(|r| r.name == "IDENT").unwrap();
        assert!(a.overlaps.contains(&(kw.min(id), kw.max(id))));
    }

    #[test]
    fn skip_rule_overlap_with_token_detected() {
        let mut ts = TokenSet::new();
        ts.pattern("DASHES", "-+").unwrap();
        ts.skip("COMMENT", "--[a-z]*").unwrap();
        let a = analyze(&ts).unwrap();
        let d = a.rules.iter().position(|r| r.name == "DASHES").unwrap();
        let c = a.rules.iter().position(|r| r.name == "COMMENT").unwrap();
        // `--` is matched by both: the token rule wins (declared earlier in
        // priority order), so the comment rule never sees bare dashes.
        assert!(
            a.overlaps.contains(&(d.min(c), d.max(c))),
            "overlaps: {:?}",
            a.overlaps
        );
    }

    #[test]
    fn disjoint_rules_do_not_overlap() {
        let mut ts = TokenSet::new();
        ts.pattern("NUM", "[0-9]+").unwrap();
        ts.pattern("IDENT", "[a-z]+").unwrap();
        let a = analyze(&ts).unwrap();
        assert!(a.overlaps.is_empty(), "{:?}", a.overlaps);
    }

    #[test]
    fn analysis_order_matches_scanner_priority() {
        let mut ts = TokenSet::new();
        ts.pattern("IDENT", "[a-z]+").unwrap(); // declared first…
        ts.keyword("FROM").unwrap(); // …but keywords are hoisted
        let a = analyze(&ts).unwrap();
        assert_eq!(a.rules[0].name, "FROM");
        assert!(matches!(a.rules[1].kind, RuleKind::Pattern(_)));
    }
}
