//! The end-to-end flow: feature model × configuration → composed grammar →
//! parser.
//!
//! This is the two-stage process of the paper's Section 3: the first stage
//! (decomposition) produced the model and the registry; [`Pipeline`] runs
//! the second stage — validate the feature instance description, derive the
//! composition sequence, compose sub-grammars and token files, and generate
//! the parser.

use crate::compose::{compose_grammars, CompositionTrace};
use crate::error::PipelineError;
use crate::registry::{FeatureArtifact, FeatureRegistry};
use crate::sequence::composition_sequence;
use sqlweave_feature_model::{Configuration, FeatureModel};
use sqlweave_grammar::ir::Grammar;
use sqlweave_lexgen::tokenset::TokenSet;
use sqlweave_parser_rt::engine::Parser;

/// A composition result, ready to become a parser.
#[derive(Debug)]
pub struct Composed {
    /// Name of the composed dialect (pipeline name).
    pub name: String,
    /// The composed grammar.
    pub grammar: Grammar,
    /// The composed token set.
    pub tokens: TokenSet,
    /// Step-by-step record of rule applications.
    pub trace: CompositionTrace,
    /// The composition sequence that was used.
    pub sequence: Vec<String>,
}

impl Composed {
    /// Build the parser.
    pub fn into_parser(self) -> Result<Parser, PipelineError> {
        Ok(Parser::new(self.grammar, &self.tokens)?)
    }

    /// Build a parser without consuming the composition record.
    pub fn parser(&self) -> Result<Parser, PipelineError> {
        Ok(Parser::new(self.grammar.clone(), &self.tokens)?)
    }
}

/// A reusable model + registry pair with a designated start symbol.
pub struct Pipeline<'a> {
    model: &'a FeatureModel,
    registry: &'a FeatureRegistry,
    start: String,
    name: String,
}

impl<'a> Pipeline<'a> {
    /// Create a pipeline whose composed grammars start at the nonterminal
    /// named after the model root.
    pub fn new(model: &'a FeatureModel, registry: &'a FeatureRegistry) -> Self {
        Pipeline {
            start: model.name().to_string(),
            name: model.name().to_string(),
            model,
            registry,
        }
    }

    /// Override the start symbol of composed grammars.
    pub fn with_start(mut self, start: &str) -> Self {
        self.start = start.to_string();
        self
    }

    /// Name composed dialects (defaults to the model name).
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// The feature model driving this pipeline.
    pub fn model(&self) -> &FeatureModel {
        self.model
    }

    /// The artifact registry.
    pub fn registry(&self) -> &FeatureRegistry {
        self.registry
    }

    /// Validate, sequence, and compose one configuration.
    pub fn compose(&self, config: &Configuration) -> Result<Composed, PipelineError> {
        self.model.validate(config)?;
        let sequence = composition_sequence(self.model, config, self.registry)?;
        let artifacts: Vec<&FeatureArtifact> = sequence
            .iter()
            .filter_map(|f| self.registry.get(f))
            .collect();
        let (grammar, tokens, trace) =
            compose_grammars(&self.name, &self.start, &artifacts)?;
        Ok(Composed {
            name: self.name.clone(),
            grammar,
            tokens,
            trace,
            sequence,
        })
    }

    /// Convenience: compose and build the default parser in one step.
    pub fn parser_for(&self, config: &Configuration) -> Result<Parser, PipelineError> {
        self.compose(config)?.into_parser()
    }

    /// Convenience: auto-complete a partial selection, then compose and
    /// build. Mirrors the user flow the paper sketches ("when a user
    /// selects different features, the required parser is created").
    pub fn parser_for_selection<I, S>(&self, features: I) -> Result<Parser, PipelineError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let partial = Configuration::of(features);
        let config = self.model.complete(&partial).map_err(PipelineError::InvalidConfiguration)?;
        self.parser_for(&config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlweave_feature_model::ModelBuilder;

    /// The paper's worked example: Figures 1 + 2 wired to sub-grammars.
    fn setup() -> (FeatureModel, FeatureRegistry) {
        let mut b = ModelBuilder::new("query_specification");
        let root = b.root();
        let sq = b.optional(root, "set_quantifier");
        b.xor(sq, &["all", "distinct"]);
        let sl = b.mandatory(root, "select_list");
        b.mandatory(sl, "select_sublist");
        let te = b.mandatory(root, "table_expression");
        b.mandatory(te, "from");
        b.optional(te, "where");
        b.optional(te, "group_by");
        b.optional(te, "having");
        b.requires("having", "group_by");
        let model = b.build().unwrap();

        let mut r = FeatureRegistry::new();
        r.register(
            "query_specification",
            "grammar query_specification;
             query_specification : SELECT select_list table_expression ;",
            "tokens query_specification; SELECT = kw;",
        )
        .unwrap();
        r.register(
            "set_quantifier",
            "grammar set_quantifier;
             query_specification : SELECT set_quantifier? select_list table_expression ;
             set_quantifier : ;",
            "",
        )
        .unwrap();
        r.register(
            "all",
            "grammar all; set_quantifier : ALL ;",
            "tokens all; ALL = kw;",
        )
        .unwrap();
        r.register(
            "distinct",
            "grammar distinct; set_quantifier : DISTINCT ;",
            "tokens distinct; DISTINCT = kw;",
        )
        .unwrap();
        r.register(
            "select_list",
            "grammar select_list; select_list : select_sublist ;",
            "",
        )
        .unwrap();
        r.register(
            "select_sublist",
            "grammar select_sublist; select_sublist : IDENT ;",
            "tokens select_sublist; IDENT = /[a-z][a-z0-9_]*/; WS = skip /[ \\t\\r\\n]+/;",
        )
        .unwrap();
        r.register(
            "table_expression",
            "grammar table_expression; table_expression : from_clause ;",
            "",
        )
        .unwrap();
        r.register(
            "from",
            "grammar from; from_clause : FROM IDENT ;",
            "tokens from; FROM = kw;",
        )
        .unwrap();
        r.register(
            "where",
            "grammar where;
             table_expression : from_clause where_clause? ;
             where_clause : WHERE IDENT EQ IDENT ;",
            "tokens where; WHERE = kw; EQ = \"=\";",
        )
        .unwrap();
        r.register(
            "group_by",
            "grammar group_by;
             table_expression : from_clause where_clause? group_by_clause? ;
             group_by_clause : GROUP BY IDENT ;",
            "tokens group_by; GROUP = kw; BY = kw;",
        )
        .unwrap();
        r.register(
            "having",
            "grammar having;
             table_expression : from_clause where_clause? group_by_clause? having_clause? ;
             having_clause : HAVING IDENT EQ IDENT ;",
            "tokens having; HAVING = kw;",
        )
        .unwrap();
        (model, r)
    }

    #[test]
    fn minimal_instance_parses_exactly_its_features() {
        let (model, registry) = setup();
        let pipeline = Pipeline::new(&model, &registry);
        let config = Configuration::of([
            "query_specification",
            "select_list",
            "select_sublist",
            "table_expression",
            "from",
        ]);
        let parser = pipeline.parser_for(&config).unwrap();
        assert!(parser.parse("SELECT a FROM t").is_ok());
        // Where was not selected: must be rejected.
        assert!(parser.parse("SELECT a FROM t WHERE a = b").is_err());
        // Set quantifier was not selected.
        assert!(parser.parse("SELECT DISTINCT a FROM t").is_err());
    }

    #[test]
    fn extended_instance_accepts_more() {
        let (model, registry) = setup();
        let pipeline = Pipeline::new(&model, &registry);
        let config = Configuration::of([
            "query_specification",
            "set_quantifier",
            "distinct",
            "select_list",
            "select_sublist",
            "table_expression",
            "from",
            "where",
        ]);
        let parser = pipeline.parser_for(&config).unwrap();
        assert!(parser.parse("SELECT a FROM t").is_ok());
        assert!(parser.parse("SELECT DISTINCT a FROM t WHERE a = b").is_ok());
        // ALL was not selected (xor picked distinct).
        assert!(parser.parse("SELECT ALL a FROM t").is_err());
    }

    #[test]
    fn invalid_configuration_rejected() {
        let (model, registry) = setup();
        let pipeline = Pipeline::new(&model, &registry);
        // having requires group_by
        let config = Configuration::of([
            "query_specification",
            "select_list",
            "select_sublist",
            "table_expression",
            "from",
            "having",
        ]);
        assert!(matches!(
            pipeline.compose(&config),
            Err(PipelineError::InvalidConfiguration(_))
        ));
    }

    #[test]
    fn selection_autocompletes() {
        let (model, registry) = setup();
        let pipeline = Pipeline::new(&model, &registry);
        // Just ask for `where`; completion pulls in the skeleton.
        let parser = pipeline.parser_for_selection(["where"]).unwrap();
        assert!(parser.parse("SELECT a FROM t WHERE x = y").is_ok());
    }

    #[test]
    fn having_composes_after_group_by() {
        let (model, registry) = setup();
        let pipeline = Pipeline::new(&model, &registry);
        let config = Configuration::of([
            "query_specification",
            "select_list",
            "select_sublist",
            "table_expression",
            "from",
            "where",
            "group_by",
            "having",
        ]);
        let composed = pipeline.compose(&config).unwrap();
        let gb = composed.sequence.iter().position(|f| f == "group_by").unwrap();
        let hv = composed.sequence.iter().position(|f| f == "having").unwrap();
        assert!(gb < hv);
        let parser = composed.into_parser().unwrap();
        assert!(parser
            .parse("SELECT a FROM t WHERE a = b GROUP BY c HAVING d = e")
            .is_ok());
        // HAVING without GROUP BY is syntactically allowed by this grammar
        // (both clauses optional); the *feature* constraint is what forbids
        // selecting having without group_by.
        assert!(parser.parse("SELECT a FROM t HAVING d = e").is_ok());
    }

    #[test]
    fn trace_describes_replacements() {
        let (model, registry) = setup();
        let pipeline = Pipeline::new(&model, &registry);
        let config = Configuration::of([
            "query_specification",
            "set_quantifier",
            "all",
            "select_list",
            "select_sublist",
            "table_expression",
            "from",
        ]);
        let composed = pipeline.compose(&config).unwrap();
        // set_quantifier? merged into the base production (R4), and the
        // `all` leaf replaced the epsilon set_quantifier body (R1).
        assert!(composed.trace.count("R4") >= 1, "\n{}", composed.trace.table());
        assert!(composed.trace.count("R1") >= 1, "\n{}", composed.trace.table());
    }

    #[test]
    fn composed_grammar_is_closed() {
        let (model, registry) = setup();
        let pipeline = Pipeline::new(&model, &registry);
        let config = model.complete(&Configuration::of(["where", "distinct"])).unwrap();
        let composed = pipeline.compose(&config).unwrap();
        assert!(
            composed.grammar.undefined_nonterminals().is_empty(),
            "undefined: {:?}",
            composed.grammar.undefined_nonterminals()
        );
    }
}
