//! The three workloads and what they share: measured windows, set-up
//! repetitions, and the timed parser build with its layer replicas.
//!
//! Every workload is a closed loop with one client on one thread. An op's
//! busy time covers only calls into the program; input generation, output
//! checks and span recording happen between ops and are not counted.

pub mod build;
pub mod edit;
pub mod lineage;

use crate::host;
use crate::report::{geomean, median, percentile, PER_LAYER};
use crate::trace::{SpanId, Tracer};
use sqlweave_dialects::Dialect;
use sqlweave_grammar::analysis::analyze;
use sqlweave_grammar::lookahead::{analyze_lookahead, K_MAX};
use sqlweave_lexgen::dfa::Dfa;
use sqlweave_lexgen::minimize::minimize;
use sqlweave_lexgen::nfa::Nfa;
use sqlweave_lexgen::tokenset::{RuleKind, TokenRule, TokenSet};
use sqlweave_parser_rt::Parser;
use sqlweave_sql_features::{catalog, Catalog};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub struct Config {
    pub seed: u64,
    /// Busy seconds to measure.
    pub seconds: f64,
    pub trace: bool,
}

/// Counts gathered over a fixed, seed-determined prefix of the work, so two
/// traced runs with one seed report identical values.
pub type Counts = BTreeMap<&'static str, u64>;

pub fn add(c: &mut Counts, name: &'static str, v: u64) {
    *c.entry(name).or_insert(0) += v;
}

/// One measured phase of a run, cut into slices of one group each: 100
/// scripts in `lineage` and 16 bursts in `edit` (one group), a single op in
/// `build`, where the group is the preset and its op is the same work in
/// every cycle. The host is probed before and after every slice, and each
/// slice's times are taken at the nominal host speed (see `crate::host`).
pub struct Window {
    /// Per slice: group, successful ops, busy seconds, host scale.
    slices: Vec<(usize, u64, f64, f64)>,
    /// Op latencies in ms, with the index of their slice.
    latencies: Vec<(usize, f64)>,
    /// Raw busy seconds.
    pub busy: f64,
    /// The probe taken after the last closed slice.
    probe: f64,
}

impl Window {
    pub fn start() -> Window {
        Window {
            slices: Vec::new(),
            latencies: Vec::new(),
            busy: 0.0,
            probe: host::probe(),
        }
    }

    /// Record one op's latency in the slice being filled.
    pub fn latency_sample(&mut self, ms: f64) {
        self.latencies.push((self.slices.len(), ms));
    }

    /// Close the slice being filled and probe the host after it.
    pub fn slice(&mut self, group: usize, ok: u64, busy: f64) {
        let after = host::probe();
        let k = host::scale(self.probe, after);
        self.slices.push((group, ok, busy, k));
        self.probe = after;
        self.busy += busy;
    }

    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    pub fn samples(&self) -> usize {
        self.latencies.len()
    }

    /// Slice indices by group.
    fn groups(&self) -> BTreeMap<usize, Vec<usize>> {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.slices.iter().enumerate() {
            groups.entry(s.0).or_default().push(i);
        }
        groups
    }

    /// Successful ops per busy second over one pass through the groups, each
    /// at the median rate of its slices (with one group, that median). With
    /// `scaled`, each slice's time is taken at the nominal host speed.
    pub fn goodput(&self, scaled: bool) -> f64 {
        let groups = self.groups();
        let secs: f64 = groups
            .values()
            .map(|ix| {
                let rates: Vec<f64> = ix
                    .iter()
                    .map(|&i| {
                        let (_, ok, s, k) = self.slices[i];
                        ok as f64 / if scaled { s * k } else { s }
                    })
                    .collect();
                1.0 / median(&rates)
            })
            .sum();
        if groups.is_empty() {
            0.0
        } else {
            groups.len() as f64 / secs
        }
    }

    /// Op latency percentile: within each group, the nearest-rank percentile
    /// of each slice's ops, then the median over the group's slices; then the
    /// geometric mean over groups. Taking the percentile per slice keeps a
    /// spike in one slice from moving the tail of the run. In `build` a slice
    /// is one op, so p50 and p99 coincide there.
    pub fn latency(&self, p: f64, scaled: bool) -> f64 {
        let mut per_slice: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(slice, ms) in &self.latencies {
            per_slice.entry(slice).or_default().push(ms);
        }
        let per_group: Vec<f64> = self
            .groups()
            .values()
            .map(|ix| {
                let v: Vec<f64> = ix
                    .iter()
                    .filter_map(|&i| {
                        let k = if scaled { self.slices[i].3 } else { 1.0 };
                        per_slice.get(&i).map(|ms| percentile(ms, p) * k)
                    })
                    .collect();
                median(&v)
            })
            .collect();
        if per_group.is_empty() {
            0.0
        } else {
            geomean(&per_group)
        }
    }

    /// Raw latencies of every op of one group, in ms.
    pub fn group(&self, g: usize) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|l| self.slices.get(l.0).is_some_and(|s| s.0 == g))
            .map(|l| l.1)
            .collect()
    }

    /// Host scales of the slices.
    pub fn scales(&self) -> Vec<f64> {
        self.slices.iter().map(|s| s.3).collect()
    }
}

/// What a workload hands back to the report.
pub struct Outcome {
    /// Each set-up repetition: raw seconds and host scale.
    pub setup: Vec<(f64, f64)>,
    /// Measured phases: `[untraced]`, or `[traced, untraced]` in a traced run.
    pub phases: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metric values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra report lines.
    pub lines: Vec<String>,
    pub simd: &'static str,
}

impl Outcome {
    /// Report the tracing overhead: the untraced phase's goodput against the
    /// traced phase's.
    pub fn finish_trace(&mut self, ops: u64) {
        let [traced, untraced] = &self.phases[..] else {
            return;
        };
        let (a, b) = (traced.goodput(true), untraced.goodput(true));
        let overhead = (b / a - 1.0) * 100.0;
        self.layers.insert("trace.overhead_pct", overhead);
        self.lines.push(format!(
            "tracing overhead: goodput {a:.3} op/s traced vs {b:.3} op/s untraced ({overhead:+.2}%), {ops} traced ops"
        ));
    }
}

/// Phase plan: a traced run spends half its seconds traced and half
/// untraced, so it can report the tracing overhead.
pub fn phases(cfg: &Config) -> Vec<(bool, f64)> {
    if cfg.trace {
        vec![(true, cfg.seconds / 2.0), (false, cfg.seconds / 2.0)]
    } else {
        vec![(false, cfg.seconds)]
    }
}

/// Load the catalog: the process-wide one on the first repetition (the ops
/// use it), a fresh one after that.
pub enum Loaded {
    Global(&'static Catalog),
    Fresh(Box<Catalog>),
}

impl Loaded {
    pub fn load(rep: u64) -> Loaded {
        if rep == 0 {
            Loaded::Global(catalog())
        } else {
            Loaded::Fresh(Box::new(Catalog::build()))
        }
    }

    pub fn get(&self) -> &Catalog {
        match self {
            Loaded::Global(c) => c,
            Loaded::Fresh(c) => c,
        }
    }
}

/// Timestamps of one parser build: before `Dialect::configuration`, before
/// `Pipeline::compose`, before `Composed::into_parser`, and after it.
pub type BuildTimes = [Instant; 4];

/// Build `dialect`'s parser the way a user does.
pub fn build_parser(cat: &Catalog, dialect: Dialect) -> Result<(Parser, BuildTimes), String> {
    let t0 = Instant::now();
    let config = dialect.configuration();
    let t1 = Instant::now();
    let composed = cat
        .pipeline()
        .with_name(dialect.name())
        .compose(&config)
        .map_err(|e| format!("{}: compose: {e}", dialect.name()))?;
    let t2 = Instant::now();
    let parser = composed
        .into_parser()
        .map_err(|e| format!("{}: Parser::new: {e}", dialect.name()))?;
    let t3 = Instant::now();
    Ok((parser, [t0, t1, t2, t3]))
}

/// Record the spans of one parser build under `parent`, then run the
/// replicas of the layers `Parser::new` contains on a fresh composition of
/// the same configuration. With `counts`, add the build's sizes to it.
pub fn trace_build(
    tr: &mut Tracer,
    parent: SpanId,
    cat: &Catalog,
    dialect: Dialect,
    t: BuildTimes,
    parser: &Parser,
    counts: Option<&mut Counts>,
) {
    let op = tr.op_of(parent);
    tr.span(
        "feature-model.complete",
        "Dialect::configuration",
        op,
        Some(parent),
        (t[0], t[1]),
    );
    tr.span(
        "core.compose",
        "Pipeline::compose",
        op,
        Some(parent),
        (t[1], t[2]),
    );
    let new = tr.span(
        "parser-rt.compile",
        "Composed::into_parser",
        op,
        Some(parent),
        (t[2], t[3]),
    );

    let composed = cat
        .pipeline()
        .with_name(dialect.name())
        .compose(&dialect.configuration())
        .expect("the op composed this configuration");
    let r0 = Instant::now();
    let scanner = black_box(composed.tokens.build().expect("the op built this scanner"));
    let r1 = Instant::now();
    drop(scanner);
    let scanner_build = tr.replica("lexgen.scanner_build", "TokenSet::build", new, (r0, r1));
    let nfa = token_nfa(&composed.tokens);
    let s0 = Instant::now();
    let dfa = Dfa::from_nfa(&nfa);
    let s1 = Instant::now();
    let min = minimize(&dfa);
    let s2 = Instant::now();
    tr.replica("lexgen.subset", "Dfa::from_nfa", scanner_build, (s0, s1));
    tr.replica(
        "lexgen.minimize",
        "minimize::minimize",
        scanner_build,
        (s1, s2),
    );

    let a0 = Instant::now();
    let analysis = analyze(&composed.grammar).expect("the op analyzed this grammar");
    let a1 = Instant::now();
    tr.replica("grammar.analyze", "analysis::analyze", new, (a0, a1));
    // `Parser::new` runs the lookahead analysis only when there are conflicts.
    if !analysis.conflicts.is_empty() {
        let l0 = Instant::now();
        let la = black_box(analyze_lookahead(&analysis, K_MAX));
        let l1 = Instant::now();
        drop(la);
        tr.replica(
            "grammar.lookahead",
            "lookahead::analyze_lookahead",
            new,
            (l0, l1),
        );
    }
    if let Some(c) = counts {
        add(c, "lexgen.dfa_states_raw", dfa.len() as u64);
        add(c, "lexgen.dfa_states_min", min.len() as u64);
        add(c, "grammar.conflicts", analysis.conflicts.len() as u64);
        add(
            c,
            "parser-rt.decision_tables",
            parser.decision_tables() as u64,
        );
    }
}

/// The combined NFA `TokenSet::build` makes: keywords and punctuation first,
/// then patterns, each in declaration order, tagged by position.
fn token_nfa(tokens: &TokenSet) -> Nfa {
    let literal = |r: &&TokenRule| matches!(r.kind, RuleKind::Keyword | RuleKind::Punct(_));
    let rules = tokens.rules();
    let ordered = rules
        .iter()
        .filter(literal)
        .chain(rules.iter().filter(|r| !literal(r)));
    let mut nfa = Nfa::new();
    for (tag, rule) in ordered.enumerate() {
        nfa.add_pattern(
            &rule.to_regex().expect("TokenSet::build compiled this rule"),
            tag,
        );
    }
    nfa.finish();
    nfa
}

/// One set-up repetition of `lineage` and `edit`: load the catalog and
/// build the `full` parser, the dialect `sqlweave lineage` defaults to.
pub struct FullSetup {
    pub start: Instant,
    pub catalog_end: Instant,
    pub loaded: Loaded,
    pub parser: Parser,
    pub build: BuildTimes,
}

pub fn full_setup(rep: u64) -> Result<FullSetup, String> {
    let start = Instant::now();
    let loaded = Loaded::load(rep);
    let catalog_end = Instant::now();
    let (parser, build) = build_parser(loaded.get(), Dialect::Full)?;
    Ok(FullSetup {
        start,
        catalog_end,
        loaded,
        parser,
        build,
    })
}

impl FullSetup {
    /// Record the repetition's spans, ending at `end`, and run the build
    /// replicas; with `counts`, add the build's sizes. Returns the root span.
    pub fn trace(
        &self,
        tr: &mut Tracer,
        rep: u64,
        end: Instant,
        counts: Option<&mut Counts>,
    ) -> SpanId {
        let root = tr.span(crate::trace::SETUP, "set-up", rep, None, (self.start, end));
        tr.span(
            "sql-features.catalog",
            "Catalog::build",
            rep,
            Some(root),
            (self.start, self.catalog_end),
        );
        let (cat, parser) = (self.loaded.get(), &self.parser);
        trace_build(tr, root, cat, Dialect::Full, self.build, parser, counts);
        root
    }
}

/// Per-layer values of the parser build, taken from one table: each build
/// layer's self ms divided by `per`.
pub fn build_layers(layers: &mut BTreeMap<&'static str, f64>, t: &crate::trace::Table, per: f64) {
    for name in [
        "feature-model.complete",
        "core.compose",
        "lexgen.scanner_build",
        "lexgen.subset",
        "lexgen.minimize",
        "grammar.analyze",
        "grammar.lookahead",
        "parser-rt.compile",
    ] {
        layers.insert(ms_name(name), t.self_seconds(name) * 1e3 / per);
    }
}

/// The listed metric that reports a span's self time in ms.
pub fn ms_name(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_suffix("_ms") == Some(span))
        .expect("every timed layer is a listed metric")
}

/// Move counts into the per-layer values.
pub fn put_counts(layers: &mut BTreeMap<&'static str, f64>, counts: &Counts) {
    for (&k, &v) in counts {
        layers.insert(k, v as f64);
    }
}
