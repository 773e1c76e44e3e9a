//! Family-based product-line certification (the SW5xx rules).
//!
//! `lint` checks one composed grammar at a time; `certify` checks the *family*:
//! every valid configuration of a feature model (exactly, when the space is
//! small enough to enumerate) or a pairwise-covering sample of it (with honest
//! coverage accounting when it is not). Findings that already appear in every
//! preset dialect are baseline noise and are subtracted; what remains are
//! *interaction faults* — defects that only manifest when particular features
//! are co-selected — and each is reported once with a minimized **presence
//! condition**: the smallest feature set whose co-selection reproduces it.
//!
//! The pass drives the same composition pipeline and lint checks that
//! `sqlweave lint` uses, so a certify finding is always replayable as a plain
//! lint run on the witness configuration.

use crate::diag::{Code, Severity};
use crate::json;
use sqlweave_core::pipeline::Pipeline;
use sqlweave_core::registry::FeatureRegistry;
use sqlweave_dialects::Dialect;
use sqlweave_feature_model::complete::complete;
use sqlweave_feature_model::solve::{self, PairwiseCoverage};
use sqlweave_feature_model::{Configuration, FeatureId, FeatureModel};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Schema identifier for the JSON certification inventory.
pub const CERTIFY_SCHEMA: &str = "sqlweave-certify/v1";

/// Default cap on configurations analyzed per model.
pub const DEFAULT_LIMIT: usize = 64;

/// Feature diagrams certified by `sqlweave certify` when no `--dialect-model`
/// is given: every exactly-enumerable statement-class diagram that fits the
/// default limit, plus the full SQL:2003 model (sampled). Ordered as listed.
pub const DEFAULT_MODELS: &[&str] = &[
    "set_quantifier",
    "order_by",
    "group_by",
    "insert_statement",
    "sensor_query",
    "table_expression",
    "sql_2003",
];

/// Tuning knobs for a certification run.
#[derive(Debug, Clone)]
pub struct CertifyOptions {
    /// Maximum configurations analyzed per model. When the model's exact
    /// count fits the limit the whole space is enumerated; otherwise a
    /// pairwise-covering sample is drawn and coverage is reported honestly.
    pub limit: usize,
    /// Force pairwise sampling even when exhaustive enumeration would fit.
    pub force_sample: bool,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            limit: DEFAULT_LIMIT,
            force_sample: false,
        }
    }
}

/// The product-line slice a certification run ranges over.
///
/// `scope_model` is the diagram whose configurations are enumerated or
/// sampled; `model`/`registry` are the full product line each scope
/// configuration is *lifted* into before composing (a statement-class diagram
/// is not composable on its own — it needs the surrounding minimal dialect).
pub struct FamilyScope<'a> {
    /// Name used in reports and as the composed grammar's name.
    pub subject: String,
    /// Full feature model the pipeline composes against.
    pub model: &'a FeatureModel,
    /// Grammar/token fragments, one per feature.
    pub registry: &'a FeatureRegistry,
    /// Start symbol for composition.
    pub start: String,
    /// The diagram whose configuration space is certified.
    pub scope_model: FeatureModel,
    /// Features added to every scope configuration before lifting (the
    /// minimal surrounding dialect); empty when the scope *is* the full model.
    pub base: Configuration,
}

/// One certified defect, deduplicated across configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyFinding {
    /// The SW5xx family code.
    pub code: Code,
    /// The per-configuration lint code this aggregates (absent for SW501
    /// composition failures and SW505 coverage shortfalls).
    pub underlying: Option<Code>,
    /// Site of the defect (production, token, or model name).
    pub site: String,
    /// Minimized presence condition: the smallest set of non-skeleton
    /// features whose co-selection reproduces the finding. Empty means the
    /// defect is family-wide within the scope.
    pub presence: Vec<String>,
    /// A complete valid configuration exhibiting the defect.
    pub witness: Configuration,
    /// Human-readable message from the underlying check.
    pub detail: String,
}

impl CertifyFinding {
    /// Render as a single report line.
    pub fn render(&self) -> String {
        // An empty presence condition on a composed-grammar finding means the
        // scope's *minimal* configuration already reproduces it; a coverage
        // shortfall is a property of the run, not of any configuration.
        let context = if self.code == Code::SampledCoverageShortfall {
            String::new()
        } else if self.presence.is_empty() {
            "in the minimal configuration: ".to_string()
        } else {
            format!("under {{{}}}: ", self.presence.join(", "))
        };
        let underlying = self
            .underlying
            .map(|u| format!("{} ", u.id()))
            .unwrap_or_default();
        format!(
            "{}[{}] {}: {}{}{}",
            self.code.severity(),
            self.code.id(),
            self.site,
            context,
            underlying,
            self.detail
        )
    }
}

/// Certification result for one feature diagram.
#[derive(Debug, Clone)]
pub struct ModelCertification {
    /// The diagram certified.
    pub subject: String,
    /// Whether the whole configuration space was enumerated.
    pub exact: bool,
    /// Exact size of the configuration space, when countable.
    pub total: Option<u128>,
    /// Configurations produced by enumeration or sampling.
    pub enumerated: usize,
    /// Configurations successfully lifted, composed or diagnosed.
    pub analyzed: usize,
    /// Scope configurations with no valid lift into the full model.
    pub unliftable: usize,
    /// Pairwise coverage accounting (sampled mode only).
    pub coverage: Option<PairwiseCoverage>,
    /// Deduplicated findings, sorted by (code, site, presence).
    pub findings: Vec<CertifyFinding>,
}

impl ModelCertification {
    /// True when any finding is error severity.
    pub fn has_errors(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.code.severity() == Severity::Error)
    }

    /// Multi-line human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = format!("certify `{}`\n", self.subject);
        let total = match self.total {
            Some(n) => n.to_string(),
            None => "uncountable".to_string(),
        };
        if self.exact {
            out.push_str(&format!(
                "  mode: exact — all {} valid configurations enumerated, {} analyzed ({} unliftable)\n",
                total, self.analyzed, self.unliftable
            ));
        } else {
            out.push_str(&format!(
                "  mode: sampled — {} of {} configurations analyzed ({} unliftable)\n",
                self.analyzed, total, self.unliftable
            ));
            if let Some(cov) = &self.coverage {
                out.push_str(&format!(
                    "  pairwise coverage: {}/{} combinations over {} variables ({} proven invalid)\n",
                    cov.covered, cov.required, cov.variables, cov.proven_invalid
                ));
            }
        }
        if self.findings.is_empty() {
            out.push_str("  certified: no findings beyond the preset baseline\n");
        } else {
            for f in &self.findings {
                out.push_str(&format!("  {}\n", f.render()));
            }
        }
        out
    }
}

/// Finding keys as they appear in per-configuration lint output.
type LintKey = (Code, String);

/// Cached outcome of composing + linting one full configuration.
type ComposeOutcome = Result<BTreeMap<LintKey, String>, String>;

struct Certifier<'a> {
    scope: &'a FamilyScope<'a>,
    /// Names of every feature inside the scope diagram.
    scope_names: BTreeSet<String>,
    /// Implication closure of the empty selection in the scope: features
    /// present in *every* scope configuration, hence never part of a
    /// presence condition.
    skeleton: Configuration,
    cache: HashMap<String, ComposeOutcome>,
}

impl<'a> Certifier<'a> {
    fn new(scope: &'a FamilyScope<'a>) -> Self {
        let scope_names = scope
            .scope_model
            .iter()
            .map(|(_, f)| f.name.clone())
            .collect();
        let skeleton = complete(&scope.scope_model, &Configuration::new())
            .expect("empty selection closes over any model");
        Certifier {
            scope,
            scope_names,
            skeleton,
            cache: HashMap::new(),
        }
    }

    /// Lift a scope configuration into a complete, valid full-model
    /// configuration that keeps every deselected scope feature deselected.
    /// Returns `None` when no such lift exists — the scope configuration is
    /// then *unliftable* and honestly excluded from the analyzed count.
    fn lift(&self, config: &Configuration) -> Option<Configuration> {
        let off = Configuration::of(
            self.scope_names
                .iter()
                .filter(|n| !config.contains(n))
                .cloned(),
        );
        let seeded = self.scope.base.union(config);
        let closed = complete(self.scope.model, &seeded).ok()?;
        solve::resolve_open_choices(self.scope.model, &closed, &off)
    }

    /// Compose and lint one full configuration, memoized. `Err` carries the
    /// pipeline error message; `Ok` maps each family-relevant lint key to its
    /// message.
    fn compose_and_lint(&mut self, full: &Configuration) -> ComposeOutcome {
        let key = full.to_string();
        if let Some(hit) = self.cache.get(&key) {
            return hit.clone();
        }
        let outcome = match Pipeline::new(self.scope.model, self.scope.registry)
            .with_start(&self.scope.start)
            .with_name(&self.scope.subject)
            .compose(full)
        {
            Err(e) => Err(e.to_string()),
            Ok(composed) => {
                let report = crate::lint_composed(&composed);
                let mut keys = BTreeMap::new();
                for d in &report.diagnostics {
                    if family_code(d.code).is_some() {
                        keys.entry((d.code, d.site.clone()))
                            .or_insert_with(|| d.message.clone());
                    }
                }
                Ok(keys)
            }
        };
        self.cache.insert(key, outcome.clone());
        outcome
    }

    /// Does the partial selection `keep` (with `removed` forced off inside
    /// the scope) still reproduce the finding?
    fn reproduces(&mut self, target: &Target, keep: &[String], removed: &[String]) -> bool {
        let avoid = Configuration::of(removed.iter().cloned());
        let Ok(closed) = complete(&self.scope.scope_model, &Configuration::of(keep.iter().cloned()))
        else {
            return false;
        };
        if closed.iter().any(|n| avoid.contains(n)) {
            return false;
        }
        let Some(config) = solve::resolve_open_choices(&self.scope.scope_model, &closed, &avoid)
        else {
            return false;
        };
        let Some(full) = self.lift(&config) else {
            return false;
        };
        match (self.compose_and_lint(&full), target) {
            (Err(msg), Target::ComposeError(want)) => msg == *want,
            (Ok(keys), Target::Lint(key)) => keys.contains_key(key),
            _ => false,
        }
    }

    /// Minimize a presence condition by greedy chunked removal (ddmin-lite):
    /// every removal is re-validated by actually re-composing and re-linting
    /// a configuration that contains the kept features and avoids the
    /// removed ones.
    fn minimize(&mut self, target: &Target, vars: Vec<String>) -> Vec<String> {
        let mut kept = vars;
        let mut removed: Vec<String> = Vec::new();
        let mut chunk = kept.len().div_ceil(2).max(1);
        loop {
            let mut progress = false;
            let mut i = 0;
            while i < kept.len() {
                let end = (i + chunk).min(kept.len());
                let trial_keep: Vec<String> =
                    kept[..i].iter().chain(&kept[end..]).cloned().collect();
                let trial_removed: Vec<String> =
                    removed.iter().chain(&kept[i..end]).cloned().collect();
                if self.reproduces(target, &trial_keep, &trial_removed) {
                    kept = trial_keep;
                    removed = trial_removed;
                    progress = true;
                } else {
                    i = end;
                }
            }
            if chunk == 1 {
                if !progress {
                    break;
                }
            } else {
                chunk = (chunk / 2).max(1);
            }
        }
        kept
    }
}

/// What a finding is anchored to, for reproduction during minimization.
enum Target {
    /// A per-configuration lint key (code + site); messages are excluded
    /// because they can embed configuration-specific token lists.
    Lint(LintKey),
    /// A composition failure, keyed by its rendered error.
    ComposeError(String),
}

/// Map a per-configuration lint code to the SW5xx family code that
/// aggregates it, or `None` for codes certify does not track (notes like
/// SW102/SW015, and the model-level SW2xx which do not vary per config).
fn family_code(code: Code) -> Option<Code> {
    Some(match code {
        Code::ShadowedTokenRule | Code::SkipRuleConflict | Code::BadTokenPattern => {
            Code::InteractionTokenCollision
        }
        Code::Ll1Conflict | Code::ResidualLookaheadAmbiguity => Code::InteractionLl1Conflict,
        Code::UnreachableNonterminal | Code::UnreferencedToken => Code::ConfigDependentDeadSurface,
        Code::DirectLeftRecursion
        | Code::LeftRecursionCycle
        | Code::UnproductiveNonterminal
        | Code::UndefinedNonterminal
        | Code::UnknownTokenReference => Code::InteractionGrammarDefect,
        _ => return None,
    })
}

/// Certify one family scope against a set of baseline configurations
/// (typically the preset dialects). Findings present in any baseline are
/// subtracted — certify reports only what the per-dialect sweep *cannot* see.
pub fn certify_scope(
    scope: &FamilyScope,
    baselines: &[Configuration],
    opts: &CertifyOptions,
) -> ModelCertification {
    let mut cx = Certifier::new(scope);
    let scope_root = scope.scope_model.root().name.clone();

    // Seed the sampler with the baselines' restriction to the scope, so the
    // preset dialects always count toward pairwise coverage.
    let seeds: Vec<Configuration> = baselines
        .iter()
        .filter_map(|b| {
            let restricted =
                Configuration::of(b.iter().filter(|n| cx.scope_names.contains(*n)));
            (restricted.contains(&scope_root)
                && scope.scope_model.validate(&restricted).is_ok())
            .then_some(restricted)
        })
        .collect();

    let sample = solve::enumerate_or_sample(&scope.scope_model, &seeds, opts.limit, opts.force_sample);

    // Baseline keys: findings every preset already shows are family noise,
    // not interaction faults.
    let mut baseline_keys: BTreeSet<LintKey> = BTreeSet::new();
    let mut baseline_errors: BTreeSet<String> = BTreeSet::new();
    for b in baselines {
        match cx.compose_and_lint(b) {
            Ok(keys) => baseline_keys.extend(keys.keys().cloned()),
            Err(msg) => {
                baseline_errors.insert(msg);
            }
        }
    }

    struct Pending {
        code: Code,
        underlying: Option<Code>,
        site: String,
        detail: String,
        witness: Configuration,
    }

    let mut analyzed = 0usize;
    let mut unliftable = 0usize;
    let mut seen: BTreeSet<LintKey> = BTreeSet::new();
    let mut seen_errors: BTreeSet<String> = BTreeSet::new();
    let mut pending: Vec<Pending> = Vec::new();

    for config in &sample.configs {
        let Some(full) = cx.lift(config) else {
            unliftable += 1;
            continue;
        };
        analyzed += 1;
        match cx.compose_and_lint(&full) {
            Err(msg) => {
                if baseline_errors.contains(&msg) || !seen_errors.insert(msg.clone()) {
                    continue;
                }
                pending.push(Pending {
                    code: Code::FamilyCompositionFailure,
                    underlying: None,
                    site: "composition".to_string(),
                    detail: msg,
                    witness: config.clone(),
                });
            }
            Ok(keys) => {
                for ((ucode, site), msg) in keys {
                    let key = (ucode, site.clone());
                    if baseline_keys.contains(&key) || !seen.insert(key) {
                        continue;
                    }
                    pending.push(Pending {
                        code: family_code(ucode).expect("only family-relevant keys cached"),
                        underlying: Some(ucode),
                        site,
                        detail: msg,
                        witness: config.clone(),
                    });
                }
            }
        }
    }

    let mut findings: Vec<CertifyFinding> = pending
        .into_iter()
        .map(|p| {
            let vars: Vec<String> = p
                .witness
                .iter()
                .filter(|n| !cx.skeleton.contains(n))
                .map(str::to_string)
                .collect();
            let target = match p.underlying {
                Some(u) => Target::Lint((u, p.site.clone())),
                None => Target::ComposeError(p.detail.clone()),
            };
            let presence = cx.minimize(&target, vars);
            CertifyFinding {
                code: p.code,
                underlying: p.underlying,
                site: p.site,
                presence,
                witness: p.witness,
                detail: p.detail,
            }
        })
        .collect();

    if let Some(cov) = &sample.coverage {
        if !cov.complete() {
            let examples: Vec<String> = cov.uncovered.iter().take(3).map(|c| c.to_string()).collect();
            findings.push(CertifyFinding {
                code: Code::SampledCoverageShortfall,
                underlying: None,
                site: format!("model `{}`", scope.subject),
                presence: Vec::new(),
                witness: Configuration::new(),
                detail: format!(
                    "pairwise coverage {}/{} under limit {}: {} combination(s) unexercised (e.g. {})",
                    cov.covered,
                    cov.required,
                    opts.limit,
                    cov.uncovered.len(),
                    examples.join("; ")
                ),
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.code, &a.site, &a.presence).cmp(&(b.code, &b.site, &b.presence))
    });

    ModelCertification {
        subject: scope.subject.clone(),
        exact: sample.exact,
        total: sample.total,
        enumerated: sample.configs.len(),
        analyzed,
        unliftable,
        coverage: sample.coverage,
        findings,
    }
}

/// Certify one diagram of the SQL:2003 catalog against the preset dialects.
/// Returns `None` for an unknown diagram name.
pub fn certify_catalog_model(name: &str, opts: &CertifyOptions) -> Option<ModelCertification> {
    let cat = sqlweave_sql_features::catalog();
    let scope_model = if name == cat.model().name() {
        cat.model().subtree(FeatureId::ROOT)
    } else {
        cat.diagram(name)?
    };
    // Statement-class diagrams are lifted on top of the minimal query
    // dialect (the same base the feature sweep uses); the full model needs
    // no base.
    let base = if name == cat.model().name() {
        Configuration::new()
    } else {
        Configuration::of(["query_statement", "select_sublist"])
    };
    let scope = FamilyScope {
        subject: name.to_string(),
        model: cat.model(),
        registry: cat.registry(),
        start: "sql_script".to_string(),
        scope_model,
        base,
    };
    let baselines: Vec<Configuration> = Dialect::ALL.iter().map(|d| d.configuration()).collect();
    Some(certify_scope(&scope, &baselines, opts))
}

/// Certify the default model set (see [`DEFAULT_MODELS`]).
pub fn certify_default(opts: &CertifyOptions) -> Vec<ModelCertification> {
    DEFAULT_MODELS
        .iter()
        .map(|name| certify_catalog_model(name, opts).expect("default models exist in the catalog"))
        .collect()
}

/// Serialize certifications as a `sqlweave-certify/v1` document.
///
/// `configs_total` is a decimal **string** (or null): the count is u128 and
/// must survive parsers that read numbers as f64.
pub fn certification_json(certs: &[ModelCertification], limit: usize) -> String {
    let models: Vec<String> = certs
        .iter()
        .map(|c| {
            let total = match c.total {
                Some(n) => json::string(&n.to_string()),
                None => "null".to_string(),
            };
            let coverage = match &c.coverage {
                None => "null".to_string(),
                Some(cov) => format!(
                    "{{\"variables\":{},\"covered\":{},\"required\":{},\"proven_invalid\":{},\"uncovered\":{}}}",
                    cov.variables,
                    cov.covered,
                    cov.required,
                    cov.proven_invalid,
                    cov.uncovered.len()
                ),
            };
            let findings: Vec<String> = c
                .findings
                .iter()
                .map(|f| {
                    let underlying = match f.underlying {
                        Some(u) => json::string(u.id()),
                        None => "null".to_string(),
                    };
                    let presence: Vec<String> =
                        f.presence.iter().map(|p| json::string(p)).collect();
                    format!(
                        "{{\"code\":{},\"severity\":{},\"underlying\":{},\"site\":{},\"presence\":[{}],\"witness\":{},\"detail\":{}}}",
                        json::string(f.code.id()),
                        json::string(&f.code.severity().to_string()),
                        underlying,
                        json::string(&f.site),
                        presence.join(","),
                        json::string(&f.witness.to_string()),
                        json::string(&f.detail)
                    )
                })
                .collect();
            format!(
                "{{\"model\":{},\"mode\":{},\"configs_total\":{},\"enumerated\":{},\"analyzed\":{},\"unliftable\":{},\"coverage\":{},\"findings\":[{}]}}",
                json::string(&c.subject),
                json::string(if c.exact { "exact" } else { "sampled" }),
                total,
                c.enumerated,
                c.analyzed,
                c.unliftable,
                coverage,
                findings.join(",")
            )
        })
        .collect();
    format!(
        "{{\"schema\":{},\"limit\":{},\"models\":[{}]}}",
        json::string(CERTIFY_SCHEMA),
        limit,
        models.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlweave_feature_model::ModelBuilder;

    /// root ── mandatory `base`, optional `alpha`/`beta`/`gamma`.
    fn mini_model() -> FeatureModel {
        let mut b = ModelBuilder::new("mini");
        let r = b.root();
        b.mandatory(r, "base");
        b.optional(r, "alpha");
        b.optional(r, "beta");
        b.optional(r, "gamma");
        b.build().unwrap()
    }

    fn scope<'a>(model: &'a FeatureModel, registry: &'a FeatureRegistry) -> FamilyScope<'a> {
        FamilyScope {
            subject: "mini".to_string(),
            model,
            registry,
            start: "s".to_string(),
            scope_model: model.subtree(FeatureId::ROOT),
            base: Configuration::new(),
        }
    }

    fn baseline(model: &FeatureModel, extra: &[&str]) -> Configuration {
        complete(
            model,
            &Configuration::of(extra.iter().map(|s| s.to_string())),
        )
        .unwrap()
    }

    #[test]
    fn sw501_composition_failure_with_minimized_presence() {
        // alpha and beta define the same token name with different patterns:
        // each composes alone, together the pipeline rejects the pair.
        let model = mini_model();
        let mut reg = FeatureRegistry::new();
        reg.register("base", "grammar base; s : CORE ;", "tokens base; CORE = kw;")
            .unwrap();
        reg.register("alpha", "", "tokens alpha; CLASH = /aa/;").unwrap();
        reg.register("beta", "", "tokens beta; CLASH = /bb/;").unwrap();
        reg.register("gamma", "", "").unwrap();
        let cert = certify_scope(
            &scope(&model, &reg),
            &[baseline(&model, &["alpha"]), baseline(&model, &["beta"])],
            &CertifyOptions::default(),
        );
        assert!(cert.exact);
        assert_eq!(cert.enumerated, 8);
        assert_eq!(cert.analyzed, 8);
        let f = cert
            .findings
            .iter()
            .find(|f| f.code == Code::FamilyCompositionFailure)
            .expect("SW501 reported");
        assert_eq!(f.presence, vec!["alpha", "beta"]);
        assert!(cert.has_errors());
    }

    #[test]
    fn sw502_interaction_token_collision() {
        // Two equal patterns under different names shadow each other only
        // when co-selected; gamma rides along in the first (sorted) witness
        // and must be minimized away.
        let model = mini_model();
        let mut reg = FeatureRegistry::new();
        reg.register("base", "grammar base; s : CORE ;", "tokens base; CORE = kw;")
            .unwrap();
        reg.register(
            "alpha",
            "grammar alpha; s : ALPHA ;",
            "tokens alpha; ALPHA = /ab/;",
        )
        .unwrap();
        reg.register(
            "beta",
            "grammar beta; s : BETA CORE ;",
            "tokens beta; BETA = /ab/;",
        )
        .unwrap();
        reg.register("gamma", "", "").unwrap();
        let cert = certify_scope(
            &scope(&model, &reg),
            &[baseline(&model, &["alpha"]), baseline(&model, &["beta"])],
            &CertifyOptions::default(),
        );
        let f = cert
            .findings
            .iter()
            .find(|f| f.code == Code::InteractionTokenCollision)
            .expect("SW502 reported");
        assert_eq!(f.underlying, Some(Code::ShadowedTokenRule));
        assert_eq!(f.presence, vec!["alpha", "beta"]);
        assert!(f.witness.contains("gamma"), "sorted witness rides gamma");
    }

    #[test]
    fn sw503_interaction_ll1_conflict() {
        // Both optional alternatives start with SHARED: the conflict exists
        // only when alpha and beta are co-selected.
        let model = mini_model();
        let mut reg = FeatureRegistry::new();
        reg.register(
            "base",
            "grammar base; s : CORE ;",
            "tokens base; CORE = kw; SHARED = kw;",
        )
        .unwrap();
        reg.register("alpha", "grammar alpha; s : SHARED CORE ;", "").unwrap();
        reg.register("beta", "grammar beta; s : SHARED SHARED ;", "").unwrap();
        reg.register("gamma", "", "").unwrap();
        let cert = certify_scope(
            &scope(&model, &reg),
            &[baseline(&model, &["alpha"]), baseline(&model, &["beta"])],
            &CertifyOptions::default(),
        );
        let f = cert
            .findings
            .iter()
            .find(|f| f.code == Code::InteractionLl1Conflict)
            .expect("SW503 reported");
        assert_eq!(f.underlying, Some(Code::Ll1Conflict));
        assert_eq!(f.presence, vec!["alpha", "beta"]);
    }

    #[test]
    fn sw504_config_dependent_dead_surface() {
        // alpha defines a helper production only beta references: with alpha
        // alone the helper is dead grammar surface.
        let model = mini_model();
        let mut reg = FeatureRegistry::new();
        reg.register("base", "grammar base; s : CORE ;", "tokens base; CORE = kw;")
            .unwrap();
        reg.register(
            "alpha",
            "grammar alpha; helper : CORE CORE ;",
            "",
        )
        .unwrap();
        reg.register("beta", "grammar beta; s : helper ;", "").unwrap();
        reg.register("gamma", "", "").unwrap();
        let cert = certify_scope(
            &scope(&model, &reg),
            &[baseline(&model, &[])],
            &CertifyOptions::default(),
        );
        let f = cert
            .findings
            .iter()
            .find(|f| f.code == Code::ConfigDependentDeadSurface)
            .expect("SW504 reported");
        assert_eq!(f.underlying, Some(Code::UnreachableNonterminal));
        assert_eq!(f.presence, vec!["alpha"]);
        // With beta co-selected the helper is reachable, so the defect is
        // config-dependent, not family-wide.
        assert!(!f.presence.contains(&"beta".to_string()));
    }

    #[test]
    fn sw505_sampled_coverage_shortfall_is_reported() {
        let model = mini_model();
        let mut reg = FeatureRegistry::new();
        reg.register("base", "grammar base; s : CORE ;", "tokens base; CORE = kw;")
            .unwrap();
        for f in ["alpha", "beta", "gamma"] {
            reg.register(f, "", "").unwrap();
        }
        let opts = CertifyOptions {
            limit: 2,
            force_sample: true,
        };
        let cert = certify_scope(&scope(&model, &reg), &[], &opts);
        assert!(!cert.exact);
        let f = cert
            .findings
            .iter()
            .find(|f| f.code == Code::SampledCoverageShortfall)
            .expect("SW505 reported");
        assert!(f.detail.contains("under limit 2"), "{}", f.detail);
        let cov = cert.coverage.as_ref().unwrap();
        assert!(!cov.complete());
    }

    #[test]
    fn sw506_interaction_grammar_defect() {
        // beta references a nonterminal nothing defines.
        let model = mini_model();
        let mut reg = FeatureRegistry::new();
        reg.register("base", "grammar base; s : CORE ;", "tokens base; CORE = kw;")
            .unwrap();
        reg.register("alpha", "", "").unwrap();
        reg.register("beta", "grammar beta; s : CORE ghost ;", "").unwrap();
        reg.register("gamma", "", "").unwrap();
        let cert = certify_scope(
            &scope(&model, &reg),
            &[baseline(&model, &[])],
            &CertifyOptions::default(),
        );
        let f = cert
            .findings
            .iter()
            .find(|f| f.code == Code::InteractionGrammarDefect)
            .expect("SW506 reported");
        assert_eq!(f.underlying, Some(Code::UndefinedNonterminal));
        assert_eq!(f.presence, vec!["beta"]);
    }

    #[test]
    fn baseline_findings_are_subtracted() {
        // The same shadowing defect, but one baseline already co-selects
        // alpha and beta: certify must stay silent about what lint sees.
        let model = mini_model();
        let mut reg = FeatureRegistry::new();
        reg.register("base", "grammar base; s : CORE ;", "tokens base; CORE = kw;")
            .unwrap();
        reg.register(
            "alpha",
            "grammar alpha; s : ALPHA ;",
            "tokens alpha; ALPHA = /ab/;",
        )
        .unwrap();
        reg.register(
            "beta",
            "grammar beta; s : BETA CORE ;",
            "tokens beta; BETA = /ab/;",
        )
        .unwrap();
        reg.register("gamma", "", "").unwrap();
        let cert = certify_scope(
            &scope(&model, &reg),
            &[baseline(&model, &["alpha", "beta"])],
            &CertifyOptions::default(),
        );
        assert!(
            cert.findings.is_empty(),
            "baseline-visible findings must be subtracted: {:?}",
            cert.findings
        );
    }

    #[test]
    fn certification_json_round_trips() {
        let model = mini_model();
        let mut reg = FeatureRegistry::new();
        reg.register("base", "grammar base; s : CORE ;", "tokens base; CORE = kw;")
            .unwrap();
        reg.register("alpha", "", "tokens alpha; CLASH = /aa/;").unwrap();
        reg.register("beta", "", "tokens beta; CLASH = /bb/;").unwrap();
        reg.register("gamma", "", "").unwrap();
        let cert = certify_scope(&scope(&model, &reg), &[], &CertifyOptions::default());
        let doc = certification_json(std::slice::from_ref(&cert), DEFAULT_LIMIT);
        let v = json::parse(&doc).expect("valid json");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(CERTIFY_SCHEMA)
        );
        let models = v.get("models").and_then(|m| m.as_arr()).unwrap();
        assert_eq!(models.len(), 1);
        let m = &models[0];
        assert_eq!(m.get("mode").and_then(|s| s.as_str()), Some("exact"));
        // u128 totals are strings, not numbers.
        assert_eq!(m.get("configs_total").and_then(|s| s.as_str()), Some("8"));
        let findings = m.get("findings").and_then(|f| f.as_arr()).unwrap();
        assert!(findings
            .iter()
            .any(|f| f.get("code").and_then(|c| c.as_str()) == Some("SW501")));
    }

    #[test]
    fn render_text_names_mode_and_presence() {
        let model = mini_model();
        let mut reg = FeatureRegistry::new();
        reg.register("base", "grammar base; s : CORE ;", "tokens base; CORE = kw;")
            .unwrap();
        reg.register("alpha", "", "tokens alpha; CLASH = /aa/;").unwrap();
        reg.register("beta", "", "tokens beta; CLASH = /bb/;").unwrap();
        reg.register("gamma", "", "").unwrap();
        let cert = certify_scope(&scope(&model, &reg), &[], &CertifyOptions::default());
        let text = cert.render_text();
        assert!(text.contains("mode: exact"), "{text}");
        assert!(text.contains("under {alpha, beta}"), "{text}");
        assert!(text.contains("SW501"), "{text}");
    }
}
