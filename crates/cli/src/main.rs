//! `sqlweave` — command-line interface to the SQL parser product line.
//!
//! This is the interactive tooling the paper leaves as future work ("we are
//! creating an implementation model and a user interface presenting various
//! SQL statements and their features"): list and render feature diagrams,
//! compose dialects from feature selections, parse statements against a
//! dialect, and emit generated parser source.
//!
//! ```text
//! sqlweave features [DIAGRAM]          list diagrams / render one as ASCII
//! sqlweave census                      per-diagram feature census
//! sqlweave compose FEATURE...          compose features, print the grammar
//! sqlweave parse --dialect NAME SQL    parse a statement (CST + AST)
//! sqlweave parse --recover ... SQL     parse with error recovery (multi-error)
//! sqlweave check --dialect NAME SQL    accept/reject only (exit code)
//! sqlweave lex --dialect NAME SQL      dump the token stream (kind, span, text)
//! sqlweave format --dialect NAME SQL   reformat a script via the AST
//! sqlweave generate FEATURE...         emit standalone Rust parser source
//! sqlweave dialects                    list preset dialects with sizes
//! sqlweave lint [TARGET...]            static analysis with diagnostic codes
//! sqlweave lint --sql 'SQL'            semantic lint (name resolution rules)
//! sqlweave lineage --dialect NAME SQL  table/column lineage for a script
//! sqlweave analyze [--all-dialects]    LL(k) conflict classification report
//! sqlweave certify [--dialect-model N] family-based product-line certification
//! ```

use sqlweave_dialects::Dialect;
use sqlweave_grammar::lookahead::{analyze_lookahead, LookaheadAnalysis, Outcome, K_MAX};
use sqlweave_feature_model::analysis::census;
use sqlweave_feature_model::render;
use sqlweave_lint::json;
use sqlweave_sql_features::{catalog, DIAGRAMS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         sqlweave features [DIAGRAM] [--format text|json]\n  \
         sqlweave census\n  \
         sqlweave dialects [--format text|json]\n  \
         sqlweave compose FEATURE...\n  \
         sqlweave parse [--recover] [--format text|json] --dialect NAME 'SQL'\n  \
         sqlweave parse --stdin [--recover] [--format text|json] [--dialect NAME]\n  \
         sqlweave check --dialect NAME 'SQL'\n  \
         sqlweave lex [--format text|json] --dialect NAME 'SQL'\n  \
         sqlweave format --dialect NAME 'SQL'\n  \
         sqlweave generate FEATURE...\n  \
         sqlweave lint [--format text|json] --all-dialects\n  \
         sqlweave lint [--format text|json] --dialect NAME\n  \
         sqlweave lint [--format text|json] --grammar FILE [--tokens FILE]\n  \
         sqlweave lint [--format text|json] FEATURE...\n  \
         sqlweave lint [--dialect NAME] [--schema FILE] --sql 'SQL'\n  \
         sqlweave lint --codes [CODE,...]\n  \
         sqlweave lineage [--dialect NAME] [--schema FILE] [--format text|json] 'SQL'\n  \
         sqlweave lineage [--format text|json] [--check FILE] [--write FILE]\n  \
         sqlweave analyze [--dialect NAME | --all-dialects] [--lookahead K]\n  \
         sqlweave analyze ... [--format text|json] [--check FILE] [--write FILE]\n  \
         sqlweave certify [--dialect-model NAME] [--limit N] [--sample pairwise]\n  \
         sqlweave certify ... [--format text|json] [--check FILE] [--write FILE]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, args)) = args.split_first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "features" => cmd_features(args),
        "census" => cmd_census(args),
        "dialects" => cmd_dialects(args),
        "compose" => cmd_compose(args),
        "parse" => cmd_parse(args, true),
        "check" => cmd_parse(args, false),
        "lex" => cmd_lex(args),
        "format" => cmd_format(args),
        "generate" => cmd_generate(args),
        "lint" => cmd_lint(args),
        "lineage" => cmd_lineage(args),
        "analyze" => cmd_analyze(args),
        "certify" => cmd_certify(args),
        _ => Err(Fail::Usage),
    };
    match result {
        Ok(code) => code,
        Err(Fail::Usage) => usage(),
        Err(Fail::Exit(code, message)) => {
            eprintln!("{message}");
            ExitCode::from(code)
        }
    }
}

/// Why a subcommand stopped before its verdict.
enum Fail {
    /// Malformed arguments: print the usage text and exit 2.
    Usage,
    /// A message for stderr and the exit code that goes with it.
    Exit(u8, String),
}

/// A bare message reports a failure of the command's work: exit 1.
impl From<String> for Fail {
    fn from(message: String) -> Self {
        Fail::Exit(1, message)
    }
}

/// A pipeline error (a dialect whose parser cannot be built) is reported
/// verbatim: exit 1.
impl From<sqlweave_core::PipelineError> for Fail {
    fn from(e: sqlweave_core::PipelineError) -> Self {
        Fail::Exit(1, e.to_string())
    }
}

/// Exit 0 when the command's verdict is clean, 1 otherwise.
fn verdict(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Takes {
    /// A switch: `--recover`.
    Nothing,
    /// The next argument, whatever it is: `--dialect NAME`.
    Value,
    /// The next argument unless there is none or it is a flag: `--codes [LIST]`.
    MaybeValue,
}

/// An argument is a flag when it starts with `--` and holds no whitespace,
/// so SQL that opens with a `--` comment stays a positional.
fn is_flag(arg: &str) -> bool {
    arg.starts_with("--") && !arg.contains(char::is_whitespace)
}

/// One subcommand's arguments, split by [`parse_args`].
struct Args {
    /// The declared flags given, in command-line order.
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
    /// `--format json` (the last `--format` wins; `text` is the default).
    json: bool,
}

/// Split `args` by the flags a subcommand declares in `spec`. An
/// undeclared flag, a missing value, a `--format` other than `text` or
/// `json`, or more than `max_positionals` positionals is a usage error.
fn parse_args(
    args: &[String],
    spec: &[(&'static str, Takes)],
    max_positionals: usize,
) -> Result<Args, Fail> {
    let mut parsed = Args {
        flags: Vec::new(),
        positionals: Vec::new(),
        json: false,
    };
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        if !is_flag(arg) {
            if parsed.positionals.len() == max_positionals {
                return Err(Fail::Usage);
            }
            parsed.positionals.push(arg.clone());
            continue;
        }
        let &(flag, takes) = spec.iter().find(|(f, _)| f == arg).ok_or(Fail::Usage)?;
        let value = match takes {
            Takes::Nothing => None,
            Takes::Value => Some(rest.next().ok_or(Fail::Usage)?.clone()),
            Takes::MaybeValue => rest.next_if(|v| !is_flag(v)).cloned(),
        };
        if flag == "--format" {
            parsed.json = match value.as_deref() {
                Some("json") => true,
                Some("text") => false,
                _ => return Err(Fail::Usage),
            };
        }
        parsed.flags.push((flag, value));
    }
    Ok(parsed)
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// Every value given to `flag`, in command-line order.
    fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags
            .iter()
            .filter(move |(f, _)| *f == flag)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// The last value given to `flag`.
    fn value<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.values(flag).last()
    }

    /// `flag`'s value as a number; one that does not parse is a usage error.
    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, Fail> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| Fail::Usage))
            .transpose()
    }

    /// `flag`'s value as a count of at least one.
    fn positive(&self, flag: &str) -> Result<Option<usize>, Fail> {
        match self.num(flag)? {
            Some(0) => Err(Fail::Usage),
            n => Ok(n),
        }
    }

    /// `--dialect NAME`, resolved among the presets.
    fn dialect(&self) -> Result<Option<Dialect>, Fail> {
        let Some(name) = self.value("--dialect") else {
            return Ok(None);
        };
        match Dialect::ALL.into_iter().find(|d| d.name() == name) {
            Some(d) => Ok(Some(d)),
            None => Err(
                format!("unknown dialect `{name}`; run `sqlweave dialects` for the list").into(),
            ),
        }
    }

    fn positional(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Write a JSON document and its newline to `path`, noting it on stderr.
fn write_doc(path: &str, doc: &str) -> Result<(), Fail> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// The golden-inventory workflow of `analyze`, `lineage` and `certify`:
/// `--write FILE` refreshes the checked-in `doc`, `report` goes to stdout,
/// and `--check FILE` then fails the run when `doc` drifted from the file.
fn golden_gate(args: &Args, doc: &str, report: &str, inventory: &str) -> Result<(), Fail> {
    if let Some(path) = args.value("--write") {
        write_doc(path, doc)?;
    }
    print!("{report}");
    if let Some(path) = args.value("--check") {
        if read(path)?.trim_end() != doc {
            return Err(format!(
                "{inventory} inventory drifted from `{path}`; \
                 rerun with `--write {path}` and review the diff"
            )
            .into());
        }
        eprintln!("inventory matches {path}");
    }
    Ok(())
}

/// Complete a feature selection against the catalog and compose it; an
/// empty selection is a usage error.
fn compose(features: &[String]) -> Result<sqlweave_core::pipeline::Composed, Fail> {
    if features.is_empty() {
        return Err(Fail::Usage);
    }
    let cat = catalog();
    let config = cat
        .complete(features.iter().cloned())
        .map_err(|e| format!("invalid selection: {e}"))?;
    Ok(cat
        .pipeline()
        .compose(&config)
        .map_err(|e| format!("composition failed: {e}"))?)
}

/// Resolve a `--codes` filter list against the catalog. Unknown or
/// misspelled codes are a usage error (exit 2) with the valid codes
/// listed — silently filtering everything away hides typos.
fn parse_code_filter(list: &str) -> Result<Vec<sqlweave_lint::Code>, String> {
    let mut out = Vec::new();
    for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match sqlweave_lint::Code::ALL
            .iter()
            .find(|c| c.id().eq_ignore_ascii_case(item))
        {
            Some(&c) => out.push(c),
            None => {
                let valid: Vec<&str> =
                    sqlweave_lint::Code::ALL.iter().map(|c| c.id()).collect();
                return Err(format!(
                    "unknown diagnostic code `{item}`; valid codes: {}",
                    valid.join(", ")
                ));
            }
        }
    }
    if out.is_empty() {
        return Err("`--codes` filter selects no codes".to_string());
    }
    Ok(out)
}

/// Apply a `--codes` filter to each report, keeping only the named codes.
fn filter_reports(
    reports: Vec<sqlweave_lint::LintReport>,
    keep: &[sqlweave_lint::Code],
) -> Vec<sqlweave_lint::LintReport> {
    reports
        .into_iter()
        .map(|r| {
            let mut out = sqlweave_lint::LintReport::new(&r.subject);
            out.extend(
                r.diagnostics
                    .into_iter()
                    .filter(|d| keep.contains(&d.code)),
            );
            out
        })
        .collect()
}

/// Render reports in the selected format and turn findings into an exit
/// code: 0 clean (notes/warnings allowed), 1 if any error-level diagnostic.
fn emit_lint_reports(reports: &[sqlweave_lint::LintReport], json: bool) -> ExitCode {
    if json {
        println!("{}", sqlweave_lint::json::reports(reports));
    } else {
        for r in reports {
            print!("{r}");
        }
    }
    let errors: usize = reports
        .iter()
        .map(|r| r.count(sqlweave_lint::Severity::Error))
        .sum();
    if errors > 0 && !json {
        eprintln!("lint failed: {errors} error(s)");
    }
    verdict(errors == 0)
}

/// Load a `sqlweave-schema/v1` catalog file for the semantic passes.
fn load_schema(path: &str) -> Result<sqlweave_sema::SchemaCatalog, String> {
    sqlweave_sema::SchemaCatalog::from_json(&read(path)?)
        .map_err(|e| format!("cannot parse schema `{path}`: {e}"))
}

/// Name resolution over `sql` under `--dialect` (default `full`) and an
/// optional `--schema` catalog: the front half of `lint --sql` and
/// `lineage SQL`.
fn analyze_sql(args: &Args, sql: &str) -> Result<(Dialect, sqlweave_sema::Analysis), Fail> {
    let dialect = args.dialect()?.unwrap_or(Dialect::Full);
    let schema = args.value("--schema").map(load_schema).transpose()?;
    let caps = sqlweave_sema::ResolverCaps::for_dialect(dialect);
    let analysis = sqlweave_sema::analyze(sql, dialect, &caps, schema.as_ref())
        .map_err(|e| format!("rejected by `{}`: {e}", dialect.name()))?;
    Ok((dialect, analysis))
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, Fail> {
    let args = parse_args(
        args,
        &[
            ("--format", Takes::Value),
            ("--all-dialects", Takes::Nothing),
            ("--codes", Takes::MaybeValue),
            ("--dialect", Takes::Value),
            ("--grammar", Takes::Value),
            ("--tokens", Takes::Value),
            ("--schema", Takes::Value),
            ("--sql", Takes::Value),
        ],
        usize::MAX,
    )?;

    // Bare `--codes` prints the catalog; `--codes LIST` filters the output.
    if args
        .flags
        .iter()
        .any(|(f, v)| *f == "--codes" && v.is_none())
    {
        println!("{:<6} {:<8} {:<14} description", "code", "severity", "layer");
        for c in sqlweave_lint::Code::ALL {
            println!(
                "{:<6} {:<8} {:<14} {}",
                c.id(),
                c.severity().as_str(),
                c.layer().as_str(),
                c.title()
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let filter = match args.value("--codes") {
        Some(list) => Some(parse_code_filter(list).map_err(|e| Fail::Exit(2, e))?),
        None => None,
    };
    let emit = |reports: Vec<sqlweave_lint::LintReport>| {
        let reports = match &filter {
            Some(keep) => filter_reports(reports, keep),
            None => reports,
        };
        Ok(emit_lint_reports(&reports, args.json))
    };

    if let Some(sql) = args.value("--sql") {
        let (dialect, analysis) = analyze_sql(&args, sql)?;
        let mut report = sqlweave_lint::LintReport::new(format!("{}:script", dialect.name()));
        report.extend(analysis.diagnostics);
        return emit(vec![report]);
    }

    if args.has("--all-dialects") {
        let reports =
            sqlweave_lint::lint_all_dialects().map_err(|e| format!("composition failed: {e}"))?;
        return emit(reports);
    }

    if let Some(gfile) = args.value("--grammar") {
        let grammar = sqlweave_grammar::dsl::parse_grammar(&read(gfile)?)
            .map_err(|e| format!("cannot parse grammar `{gfile}`: {e}"))?;
        let report = match args.value("--tokens") {
            Some(tfile) => {
                let tokens = sqlweave_grammar::dsl::parse_tokens(&read(tfile)?)
                    .map_err(|e| format!("cannot parse tokens `{tfile}`: {e}"))?;
                sqlweave_lint::lint_pair(gfile, &grammar, &tokens)
            }
            None => sqlweave_lint::lint_grammar(gfile, &grammar),
        };
        return emit(vec![report]);
    }

    if let Some(dialect) = args.dialect()? {
        let report =
            sqlweave_lint::lint_dialect(dialect).map_err(|e| format!("composition failed: {e}"))?;
        return emit(vec![report]);
    }

    let composed = compose(&args.positionals)?;
    emit(vec![sqlweave_lint::lint_composed(&composed)])
}

/// Name resolution + lineage over a script (`sqlweave lineage`). With a
/// SQL argument: analyze it under one dialect and print the
/// `sqlweave-lineage/v1` document (or the text rendering). Without one:
/// sweep the per-dialect fixture scripts into the golden inventory that
/// `--write` refreshes and `--check` gates CI on — the same workflow as
/// `analyze --check`.
fn cmd_lineage(args: &[String]) -> Result<ExitCode, Fail> {
    let args = parse_args(
        args,
        &[
            ("--format", Takes::Value),
            ("--dialect", Takes::Value),
            ("--schema", Takes::Value),
            ("--check", Takes::Value),
            ("--write", Takes::Value),
        ],
        1,
    )?;
    let gated = args.has("--check") || args.has("--write");
    if let Some(sql) = args.positional() {
        if gated {
            return Err(Fail::Usage);
        }
        let (dialect, analysis) = analyze_sql(&args, sql)?;
        if args.json {
            println!("{}", sqlweave_sema::lineage_json(dialect.name(), &analysis));
        } else {
            print!("{}", sqlweave_sema::lineage_text(dialect.name(), &analysis));
            for d in &analysis.diagnostics {
                println!("  {d}");
            }
        }
        return Ok(ExitCode::SUCCESS);
    }
    if !gated || args.has("--dialect") || args.has("--schema") {
        return Err(Fail::Usage);
    }
    // Inventory mode: every dialect's fixture script, resolved under that
    // dialect's own capabilities, no external catalog (the fixtures carry
    // their DDL).
    let mut entries: Vec<(String, sqlweave_sema::Analysis)> = Vec::new();
    for (dialect, script) in sqlweave_sema::fixtures::all() {
        let caps = sqlweave_sema::ResolverCaps::for_dialect(dialect);
        let analysis = sqlweave_sema::analyze(script, dialect, &caps, None)
            .map_err(|e| format!("{}: fixture rejected: {e}", dialect.name()))?;
        entries.push((dialect.name().to_string(), analysis));
    }
    let doc = sqlweave_sema::inventory_json(&entries);
    let report = if args.json {
        format!("{doc}\n")
    } else {
        String::new()
    };
    golden_gate(&args, &doc, &report, "lineage")?;
    Ok(ExitCode::SUCCESS)
}

/// Run the static LL(k) lookahead pass on one dialect's composed grammar.
fn analyze_one(dialect: Dialect, k: usize) -> Result<LookaheadAnalysis, String> {
    let composed = dialect
        .composed()
        .map_err(|e| format!("composition failed: {e}"))?;
    let analysis = sqlweave_grammar::analysis::analyze(&composed.grammar)
        .map_err(|e| format!("grammar analysis failed: {e:?}"))?;
    Ok(analyze_lookahead(&analysis, k))
}

/// The `sqlweave-lookahead/v1` document: the per-dialect conflict
/// inventory that CI pins as a golden file (`--check`).
fn lookahead_json(k: usize, dialects: &[(String, LookaheadAnalysis)]) -> String {
    use sqlweave_lint::json::escape;
    let mut s = String::new();
    s.push_str("{\"schema\":\"sqlweave-lookahead/v1\",");
    s.push_str(&format!("\"k\":{k},\"dialects\":["));
    for (di, (name, la)) in dialects.iter().enumerate() {
        if di > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"dialect\":\"{}\",\"resolved\":{},\"residual\":{},\"saturated\":{},\"decisions\":[",
            escape(name),
            la.resolved(),
            la.residual(),
            la.saturated()
        ));
        for (i, d) in la.decisions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let toks: Vec<String> = d.conflict_tokens.iter().map(|t| json::string(t)).collect();
            s.push_str(&format!(
                "{{\"production\":\"{}\",\"synthetic\":{},\"conflict_tokens\":[{}],",
                escape(&d.production),
                d.synthetic,
                toks.join(",")
            ));
            match &d.outcome {
                Outcome::Resolved { k, entries } => {
                    s.push_str(&format!(
                        "\"status\":\"resolved\",\"k\":{k},\"entries\":{}}}",
                        entries.len()
                    ));
                }
                Outcome::Residual {
                    alternatives: (a, b),
                    witness,
                    witness_eof,
                } => {
                    s.push_str(&format!(
                        "\"status\":\"residual\",\"alternatives\":[{a},{b}],\"witness\":\"{}\"}}",
                        escape(&sqlweave_grammar::lookahead::witness_display(
                            witness,
                            *witness_eof
                        ))
                    ));
                }
                Outcome::Saturated => s.push_str("\"status\":\"saturated\"}"),
            }
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

fn lookahead_text(k: usize, dialects: &[(String, LookaheadAnalysis)]) -> String {
    let mut s = format!("lookahead analysis (k={k})\n");
    let (mut resolved, mut residual, mut saturated) = (0, 0, 0);
    for (name, la) in dialects {
        resolved += la.resolved();
        residual += la.residual();
        saturated += la.saturated();
        if la.decisions.is_empty() {
            s.push_str(&format!("dialect `{name}`: no LL(1) conflicts\n"));
            continue;
        }
        s.push_str(&format!(
            "dialect `{name}`: {} decision(s): {} resolved, {} residual, {} saturated\n",
            la.decisions.len(),
            la.resolved(),
            la.residual(),
            la.saturated()
        ));
        for d in &la.decisions {
            s.push_str(&format!("  `{}`: {}\n", d.production, d.summary()));
        }
    }
    s.push_str(&format!(
        "TOTAL: {resolved} resolved, {residual} residual, {saturated} saturated\n"
    ));
    s
}

/// Static LL(k) conflict classification over dialect grammars: a human
/// report, the `sqlweave-lookahead/v1` JSON document, and the golden-file
/// workflow (`--write` refreshes the inventory, `--check` gates CI on it).
fn cmd_analyze(args: &[String]) -> Result<ExitCode, Fail> {
    let args = parse_args(
        args,
        &[
            ("--format", Takes::Value),
            ("--all-dialects", Takes::Nothing),
            ("--dialect", Takes::Value),
            ("--lookahead", Takes::Value),
            ("--check", Takes::Value),
            ("--write", Takes::Value),
        ],
        0,
    )?;
    let lookahead = args.positive("--lookahead")?.unwrap_or(K_MAX);
    if args.has("--all-dialects") && args.has("--dialect") {
        return Err(Fail::Usage);
    }
    let targets = match args.dialect()? {
        Some(d) => vec![d],
        None => Dialect::ALL.to_vec(),
    };
    let mut results: Vec<(String, LookaheadAnalysis)> = Vec::new();
    for d in targets {
        let la = analyze_one(d, lookahead).map_err(|e| format!("{}: {e}", d.name()))?;
        results.push((d.name().to_string(), la));
    }
    let doc = lookahead_json(lookahead.min(K_MAX), &results);
    let report = if args.json {
        format!("{doc}\n")
    } else {
        lookahead_text(lookahead.min(K_MAX), &results)
    };
    golden_gate(&args, &doc, &report, "conflict")?;
    Ok(ExitCode::SUCCESS)
}

/// Build the diagram listing, or report the first name in `names` that
/// the catalog cannot resolve. `DIAGRAMS` and the catalog are maintained
/// separately, so a missing entry is a registration bug — the caller
/// turns it into a diagnostic instead of a mid-listing panic.
fn features_listing(
    cat: &sqlweave_sql_features::Catalog,
    names: &[&str],
) -> Result<String, String> {
    let mut out = format!("{} feature diagrams:\n", names.len());
    for d in names {
        let model = cat.diagram(d).ok_or_else(|| (*d).to_string())?;
        out.push_str(&format!("  {:<28} {:>4} features\n", d, model.len()));
    }
    Ok(out)
}

const CERTIFY_FLAGS: &[(&str, Takes)] = &[
    ("--format", Takes::Value),
    ("--dialect-model", Takes::Value),
    ("--limit", Takes::Value),
    ("--sample", Takes::Value),
    ("--check", Takes::Value),
    ("--write", Takes::Value),
];

/// `--limit N` (at least one) and `--sample pairwise`.
fn certify_options(args: &Args) -> Result<sqlweave_lint::certify::CertifyOptions, Fail> {
    let force_sample = match args.value("--sample") {
        None => false,
        Some("pairwise") => true,
        Some(_) => return Err(Fail::Usage),
    };
    Ok(sqlweave_lint::certify::CertifyOptions {
        limit: args
            .positive("--limit")?
            .unwrap_or(sqlweave_lint::certify::DEFAULT_LIMIT),
        force_sample,
    })
}

fn cmd_certify(args: &[String]) -> Result<ExitCode, Fail> {
    use sqlweave_lint::certify;

    let args = parse_args(args, CERTIFY_FLAGS, 0)?;
    let opts = certify_options(&args)?;
    let certs = if args.has("--dialect-model") {
        args.values("--dialect-model")
            .map(|name| {
                certify::certify_catalog_model(name, &opts).ok_or_else(|| {
                    format!("unknown diagram `{name}`; run `sqlweave features` for the list")
                })
            })
            .collect::<Result<Vec<_>, _>>()?
    } else {
        certify::certify_default(&opts)
    };

    let doc = certify::certification_json(&certs, opts.limit);
    let report = if args.json {
        format!("{doc}\n")
    } else {
        certs.iter().map(|c| c.render_text()).collect()
    };
    golden_gate(&args, &doc, &report, "certification")?;
    // Outside golden-gating, error-severity findings fail the run — that is
    // the certification verdict.
    let gated = args.has("--check") || args.has("--write");
    Ok(verdict(gated || !certs.iter().any(|c| c.has_errors())))
}

/// Schema identifier for `sqlweave features --format json`.
const FEATURES_SCHEMA: &str = "sqlweave-features/v1";
/// Schema identifier for `sqlweave dialects --format json`.
const DIALECTS_SCHEMA: &str = "sqlweave-dialects/v1";

/// The flags of `features` and `dialects`.
const LISTING_FLAGS: &[(&str, Takes)] = &[("--format", Takes::Value)];

/// The diagram census as a `sqlweave-features/v1` document. Exact
/// configuration counts are serialized as decimal strings (they are u128);
/// uncountable spaces are null. `Err` carries the name of a registered
/// diagram that is missing from the catalog (a build-time invariant, but
/// surfaced as a diagnostic rather than a panic).
fn features_json(
    cat: &sqlweave_sql_features::Catalog,
    names: &[&str],
) -> Result<String, String> {
    let mut diagrams = Vec::new();
    for d in names {
        let Some(model) = cat.diagram(d) else {
            return Err((*d).to_string());
        };
        let c = census(&model);
        let configurations = c
            .configurations
            .map(|n| json::string(&n.to_string()))
            .unwrap_or_else(|| "null".into());
        diagrams.push(format!(
            "{{\"name\":{},\"features\":{},\"depth\":{},\"constraints\":{},\"configurations\":{}}}",
            json::string(&c.diagram),
            c.features,
            c.depth,
            c.constraints,
            configurations
        ));
    }
    Ok(format!(
        "{{\"schema\":{},\"diagrams\":[{}]}}",
        json::string(FEATURES_SCHEMA),
        diagrams.join(",")
    ))
}

/// One diagram's tree as a `sqlweave-features/v1` document.
fn diagram_json(model: &sqlweave_feature_model::FeatureModel) -> String {
    let features: Vec<String> = model
        .iter()
        .map(|(_, f)| {
            let parent = f
                .parent
                .map(|p| json::string(&model.feature(p).name))
                .unwrap_or_else(|| "null".into());
            let optionality = if f.optionality.is_mandatory() {
                "mandatory"
            } else {
                "optional"
            };
            format!(
                "{{\"name\":{},\"parent\":{},\"optionality\":{},\"grouped\":{}}}",
                json::string(&f.name),
                parent,
                json::string(optionality),
                f.is_grouped()
            )
        })
        .collect();
    format!(
        "{{\"schema\":{},\"diagram\":{},\"features\":[{}]}}",
        json::string(FEATURES_SCHEMA),
        json::string(model.name()),
        features.join(",")
    )
}

fn cmd_features(args: &[String]) -> Result<ExitCode, Fail> {
    let args = parse_args(args, LISTING_FLAGS, 1)?;
    let cat = catalog();
    let unregistered = |missing: String| {
        let message = format!(
            "internal error: diagram `{missing}` is registered in DIAGRAMS \
             but missing from the catalog"
        );
        Fail::Exit(2, message)
    };
    let out = match args.positional() {
        Some(name) => {
            let model = cat.diagram(name).ok_or_else(|| {
                format!("unknown diagram `{name}`; run `sqlweave features` for the list")
            })?;
            if args.json {
                format!("{}\n", diagram_json(&model))
            } else {
                render::ascii(&model)
            }
        }
        None if args.json => features_json(cat, DIAGRAMS).map_err(unregistered)? + "\n",
        None => features_listing(cat, DIAGRAMS).map_err(unregistered)?,
    };
    print!("{out}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_census(args: &[String]) -> Result<ExitCode, Fail> {
    parse_args(args, &[], 0)?;
    let cat = catalog();
    let mut total = 0usize;
    println!("{:<28} {:>8} {:>6} {:>11} {:>15}", "diagram", "features", "depth", "constraints", "configurations");
    for model in cat.diagrams() {
        let c = census(&model);
        total += c.features;
        println!(
            "{:<28} {:>8} {:>6} {:>11} {:>15}",
            c.diagram,
            c.features,
            c.depth,
            c.constraints,
            c.configurations
                .map(|n| n.to_string())
                .unwrap_or_else(|| "(huge)".into())
        );
    }
    println!("TOTAL: {} diagrams, {total} features", DIAGRAMS.len());
    Ok(ExitCode::SUCCESS)
}

/// Preset dialect statistics as a `sqlweave-dialects/v1` document.
fn dialects_json() -> Result<String, String> {
    let mut rows = Vec::new();
    for d in Dialect::ALL {
        let p = d.parser().map_err(|e| format!("{}: {e}", d.name()))?;
        let s = p.stats();
        rows.push(format!(
            "{{\"dialect\":{},\"features\":{},\"productions\":{},\"tokens\":{},\"dfa_states\":{},\"byte_classes\":{}}}",
            json::string(d.name()),
            d.configuration().len(),
            s.productions,
            s.token_rules,
            s.dfa_states,
            s.byte_classes
        ));
    }
    Ok(format!(
        "{{\"schema\":{},\"dialects\":[{}]}}",
        json::string(DIALECTS_SCHEMA),
        rows.join(",")
    ))
}

fn cmd_dialects(args: &[String]) -> Result<ExitCode, Fail> {
    let args = parse_args(args, LISTING_FLAGS, 0)?;
    if args.json {
        println!("{}", dialects_json()?);
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "{:<10} {:>9} {:>12} {:>8} {:>11} {:>13}",
        "dialect", "features", "productions", "tokens", "DFA states", "byte classes"
    );
    for d in Dialect::ALL {
        let parser = d.parser().map_err(|e| format!("{}: {e}", d.name()))?;
        let s = parser.stats();
        println!(
            "{:<10} {:>9} {:>12} {:>8} {:>11} {:>13}",
            d.name(),
            d.configuration().len(),
            s.productions,
            s.token_rules,
            s.dfa_states,
            s.byte_classes
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compose(args: &[String]) -> Result<ExitCode, Fail> {
    let composed = compose(&parse_args(args, &[], usize::MAX)?.positionals)?;
    eprintln!(
        "-- {} features composed in sequence; {} productions, {} tokens",
        composed.sequence.len(),
        composed.grammar.productions().len(),
        composed.tokens.len()
    );
    print!("{}", sqlweave_grammar::print::to_dsl(&composed.grammar));
    Ok(ExitCode::SUCCESS)
}

/// The `sqlweave-diagnostics/v1` document: every diagnostic from a
/// resilient parse, in source order, with enough structure for editors
/// and CI annotators (byte offset, line/column, kind, expected set).
fn diagnostics_json(
    dialect: &str,
    errors: &[sqlweave_parser_rt::ParseError],
) -> String {
    use sqlweave_lint::json::escape;
    let entries: Vec<String> = errors
        .iter()
        .map(|e| {
            let expected: Vec<String> = e.expected.iter().map(|t| json::string(t)).collect();
            let found = match &e.found {
                Some((kind, text)) => {
                    format!("{{\"kind\":\"{}\",\"text\":\"{}\"}}", escape(kind), escape(text))
                }
                None => "null".to_string(),
            };
            let kind = if e.lexical.is_some() { "lexical" } else { "syntax" };
            format!(
                "{{\"message\":\"{}\",\"kind\":\"{kind}\",\"at\":{},\"line\":{},\"column\":{},\
                 \"expected\":[{}],\"found\":{found}}}",
                escape(&e.to_string()),
                e.at,
                e.line,
                e.column,
                expected.join(",")
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"sqlweave-diagnostics/v1\",\"dialect\":\"{}\",\"count\":{},\
         \"diagnostics\":[{}]}}",
        escape(dialect),
        errors.len(),
        entries.join(",")
    )
}

/// `parse --recover`: panic-mode recovery over the whole script. Text
/// mode prints the full-coverage tree then one rustc-style block per
/// diagnostic; `--format json` emits the `sqlweave-diagnostics/v1`
/// document. Exit 0 when clean, 1 when any diagnostic was reported.
fn cmd_parse_recover(dialect: Dialect, sql: &str, format_json: bool) -> Result<ExitCode, Fail> {
    let parser = dialect.parser()?;
    let mut session = parser.session();
    let outcome = session.parse_resilient(sql);
    if format_json {
        println!("{}", diagnostics_json(dialect.name(), &outcome.errors));
    } else {
        println!("-- concrete syntax tree --");
        print!("{}", outcome.tree.pretty());
        if !outcome.errors.is_empty() {
            println!("-- {} diagnostic(s) --", outcome.errors.len());
            for e in &outcome.errors {
                print!("{}", e.render(sql));
            }
        }
    }
    Ok(verdict(outcome.errors.is_empty()))
}

/// Batch mode for `parse --stdin`: every non-empty line of stdin is one
/// statement, and all of them run through ONE recycled [`ParseSession`] —
/// the buffer-reuse path the library documents, exercised end-to-end by
/// the CLI instead of paying a fresh process (and parser build) per
/// statement. `--recover` routes each line through the *incremental*
/// session: the document is opened once and every line replaces it via the
/// fallible [`ParseSession::try_apply_edit`], reading diagnostics straight
/// off the lazy [`sqlweave_parser_rt::EditOutcome`] without ever
/// materializing a tree (`--format json` then emits one
/// `sqlweave-diagnostics/v1` document per line). A structured
/// [`sqlweave_parser_rt::EditError`] — a CLI bug, since the CLI computes
/// the ranges — is reported as a diagnostic with exit code 2 instead of a
/// panic. The default is the strict accept/reject contract.
fn cmd_parse_stdin(dialect: Dialect, recover: bool, format_json: bool) -> Result<ExitCode, Fail> {
    use std::io::Read as _;
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| format!("cannot read stdin: {e}"))?;
    let parser = dialect.parser()?;
    let mut session = parser.session();
    if recover {
        session.open_document("");
    }
    let mut doc_len = 0usize;
    let mut total = 0usize;
    let mut rejected = 0usize;
    for (lineno, line) in input.lines().enumerate() {
        let sql = line.trim();
        if sql.is_empty() {
            continue;
        }
        total += 1;
        if recover {
            let outcome = session.try_apply_edit(0..doc_len, sql).map_err(|e| {
                Fail::Exit(
                    2,
                    format!(
                        "internal error applying line {} as an edit: {e}",
                        lineno + 1
                    ),
                )
            })?;
            doc_len = sql.len();
            if !outcome.errors.is_empty() {
                rejected += 1;
            }
            if format_json {
                println!("{}", diagnostics_json(dialect.name(), &outcome.errors));
            } else if outcome.errors.is_empty() {
                println!("line {}: ok", lineno + 1);
            } else {
                println!("line {}: {} diagnostic(s)", lineno + 1, outcome.errors.len());
                for e in outcome.errors.iter() {
                    print!("{}", e.render(sql));
                }
            }
        } else {
            match session.parse_tree(sql) {
                Ok(tree) => {
                    println!("line {}: ok ({} tokens)", lineno + 1, tree.tokens().len())
                }
                Err(e) => {
                    rejected += 1;
                    println!("line {}: rejected: {e}", lineno + 1);
                }
            }
        }
    }
    eprintln!("{total} statement(s) through one session, {rejected} rejected");
    Ok(verdict(rejected == 0))
}

fn cmd_parse(args: &[String], verbose: bool) -> Result<ExitCode, Fail> {
    let args = parse_args(
        args,
        &[
            ("--dialect", Takes::Value),
            ("--format", Takes::Value),
            ("--recover", Takes::Nothing),
            ("--stdin", Takes::Nothing),
        ],
        1,
    )?;
    let (recover, stdin) = (args.has("--recover"), args.has("--stdin"));
    let sql = args.positional();
    // `--recover`, `--format`, and `--stdin` belong to `parse`; `check`
    // keeps its strict accept/reject contract. Only recovery has a
    // diagnostics document to format, and batch mode reads its SQL from
    // stdin instead of an argument.
    if ((recover || stdin || args.json) && !verbose)
        || (args.json && !recover)
        || stdin == sql.is_some()
    {
        return Err(Fail::Usage);
    }
    let dialect = args.dialect()?.unwrap_or(Dialect::Full);
    let Some(sql) = sql else {
        return cmd_parse_stdin(dialect, recover, args.json);
    };
    if recover {
        return cmd_parse_recover(dialect, sql, args.json);
    }
    let parser = dialect.parser()?;
    let mut session = parser.session();
    let tree = session
        .parse_tree(sql)
        .map_err(|e| format!("rejected by `{}`: {e}", dialect.name()))?;
    if verbose {
        println!("-- concrete syntax tree --");
        print!("{}", tree.pretty());
        match sqlweave_sql_ast::lower::lower_tree(&tree) {
            Ok(stmts) => {
                println!("-- printed from the AST --");
                for s in &stmts {
                    println!("{}", sqlweave_sql_ast::print::statement(s));
                }
            }
            Err(e) => eprintln!("(lowering failed: {e})"),
        }
    } else {
        println!("accepted by `{}`", dialect.name());
    }
    Ok(ExitCode::SUCCESS)
}

/// Dump a statement's token stream exactly as the dialect's compiled
/// scanner produces it — the lexical ground truth the differential suites
/// assert against, exposed for debugging token-rule composition. Skip
/// tokens (whitespace, comments) are consumed, not shown, matching what
/// the parser sees. `--format json` emits the `sqlweave-lex/v1` document.
fn cmd_lex(args: &[String]) -> Result<ExitCode, Fail> {
    let args = parse_args(
        args,
        &[("--dialect", Takes::Value), ("--format", Takes::Value)],
        1,
    )?;
    let sql = args.positional().ok_or(Fail::Usage)?;
    let dialect = args.dialect()?.unwrap_or(Dialect::Full);
    let parser = dialect.parser()?;
    let scanner = parser.scanner();
    let toks = scanner
        .scan(sql)
        .map_err(|e| format!("rejected by `{}`: {e}", dialect.name()))?;
    if args.json {
        use sqlweave_lint::json::escape;
        let entries: Vec<String> = toks
            .iter()
            .map(|t| {
                format!(
                    "{{\"kind\":\"{}\",\"start\":{},\"end\":{},\"text\":\"{}\"}}",
                    escape(scanner.name(t.kind)),
                    t.start,
                    t.end,
                    escape(t.text(sql))
                )
            })
            .collect();
        println!(
            "{{\"schema\":\"sqlweave-lex/v1\",\"dialect\":\"{}\",\"tokens\":[{}]}}",
            escape(dialect.name()),
            entries.join(",")
        );
    } else {
        println!("{:<16} {:>5} {:>5}  text", "kind", "start", "end");
        for t in &toks {
            println!(
                "{:<16} {:>5} {:>5}  {}",
                scanner.name(t.kind),
                t.start,
                t.end,
                t.text(sql)
            );
        }
        println!(
            "{} token(s) via {} byte classes ({} DFA states)",
            toks.len(),
            scanner.byte_classes(),
            scanner.dfa_states()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The "SQL:2003 preprocessor" use of the product line: parse a script with
/// a dialect and print it back normalized from the AST.
fn cmd_format(args: &[String]) -> Result<ExitCode, Fail> {
    let args = parse_args(args, &[("--dialect", Takes::Value)], 1)?;
    let sql = args.positional().ok_or(Fail::Usage)?;
    let dialect = args.dialect()?.unwrap_or(Dialect::Full);
    let parser = dialect.parser()?;
    let mut session = parser.session();
    let tree = session
        .parse_tree(sql)
        .map_err(|e| format!("rejected by `{}`: {e}", dialect.name()))?;
    let stmts =
        sqlweave_sql_ast::lower::lower_tree(&tree).map_err(|e| format!("lowering failed: {e}"))?;
    for s in &stmts {
        println!("{};", sqlweave_sql_ast::print::statement(s));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_generate(args: &[String]) -> Result<ExitCode, Fail> {
    let composed = compose(&parse_args(args, &[], usize::MAX)?.positionals)?;
    let src = sqlweave_parser_rt::codegen::generate(&composed.grammar, &composed.tokens)
        .map_err(|e| format!("codegen failed: {e}"))?;
    print!("{src}");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_json_round_trips_with_schema_and_counts() {
        let doc = features_json(catalog(), DIAGRAMS).expect("all registered diagrams resolve");
        let v = sqlweave_lint::json::parse(&doc).expect("valid json");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(FEATURES_SCHEMA)
        );
        let diagrams = v.get("diagrams").and_then(|d| d.as_arr()).unwrap();
        assert_eq!(diagrams.len(), DIAGRAMS.len());
        let first = &diagrams[0];
        assert_eq!(first.get("name").and_then(|s| s.as_str()), Some("sql_2003"));
        // The full model's space is uncountable under the split cap: null,
        // while countable diagrams carry the exact count as a string.
        assert!(first.get("configurations").is_some());
        let countable = diagrams.iter().find(|d| {
            d.get("name").and_then(|s| s.as_str()) == Some("order_by")
        });
        assert_eq!(
            countable
                .and_then(|d| d.get("configurations"))
                .and_then(|c| c.as_str()),
            Some("4")
        );
    }

    #[test]
    fn diagram_json_lists_the_tree_with_parents() {
        let model = catalog().diagram("order_by").unwrap();
        let doc = diagram_json(&model);
        let v = sqlweave_lint::json::parse(&doc).expect("valid json");
        assert_eq!(
            v.get("diagram").and_then(|s| s.as_str()),
            Some("order_by")
        );
        let features = v.get("features").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(features.len(), model.len());
        let root = &features[0];
        assert!(root.get("parent").and_then(|p| p.as_str()).is_none());
    }

    #[test]
    fn dialects_json_covers_every_preset() {
        let doc = dialects_json().expect("presets build");
        let v = sqlweave_lint::json::parse(&doc).expect("valid json");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(DIALECTS_SCHEMA)
        );
        let dialects = v.get("dialects").and_then(|d| d.as_arr()).unwrap();
        assert_eq!(dialects.len(), Dialect::ALL.len());
        for (row, d) in dialects.iter().zip(Dialect::ALL) {
            assert_eq!(
                row.get("dialect").and_then(|s| s.as_str()),
                Some(d.name())
            );
            assert!(row.get("productions").and_then(|n| n.as_num()).unwrap() > 0.0);
        }
    }

    #[test]
    fn listing_and_certify_args_parse_and_reject() {
        let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // `features` takes one optional diagram name.
        let ok = |v: &[&str]| {
            let args = parse_args(&strings(v), LISTING_FLAGS, 1).ok()?;
            Some((args.positional().map(String::from), args.json))
        };
        assert_eq!(ok(&[]), Some((None, false)));
        assert_eq!(
            ok(&["order_by", "--format", "json"]),
            Some((Some("order_by".into()), true))
        );
        assert_eq!(ok(&["--format", "yaml"]), None);
        assert_eq!(ok(&["a", "b"]), None);

        let cargs = |v: &[&str]| {
            let args = parse_args(&strings(v), CERTIFY_FLAGS, 0).ok()?;
            let opts = certify_options(&args).ok()?;
            let models: Vec<String> = args.values("--dialect-model").map(String::from).collect();
            Some((models, opts, args.json))
        };
        let (models, opts, format_json) = cargs(&[
            "--dialect-model",
            "group_by",
            "--limit",
            "16",
            "--sample",
            "pairwise",
            "--format",
            "json",
        ])
        .unwrap();
        assert_eq!(models, vec!["group_by"]);
        assert_eq!(opts.limit, 16);
        assert!(opts.force_sample && format_json);
        assert!(cargs(&["--limit", "0"]).is_none());
        assert!(cargs(&["--sample", "random"]).is_none());
        let (models, _, _) = cargs(&["--dialect-model", "a", "--dialect-model", "b"]).unwrap();
        assert_eq!(models, vec!["a", "b"]);
    }

    #[test]
    fn features_listing_covers_every_registered_diagram() {
        let listing = features_listing(catalog(), DIAGRAMS).unwrap();
        assert!(listing.starts_with(&format!("{} feature diagrams:", DIAGRAMS.len())));
        for d in DIAGRAMS {
            assert!(listing.contains(d), "{d} missing from listing");
        }
    }

    #[test]
    fn features_listing_reports_unregistered_diagram_instead_of_panicking() {
        let err = features_listing(catalog(), &["query_specification", "not_a_diagram"])
            .unwrap_err();
        assert_eq!(err, "not_a_diagram");
    }

    #[test]
    fn diagnostics_json_is_well_formed_and_typed() {
        let p = Dialect::Pico.parser().unwrap();
        let mut s = p.session();
        // `~` is unlexable in pico (skipping it leaves statement 1
        // well-formed); statement 2 is a pure syntax error.
        let outcome = s.parse_resilient("SELECT a ~ FROM t; SELECT FROM u");
        let doc = diagnostics_json("pico", &outcome.errors);
        let v = sqlweave_lint::json::parse(&doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(sqlweave_lint::json::Value::as_str),
            Some("sqlweave-diagnostics/v1")
        );
        let diags = v.get("diagnostics").and_then(sqlweave_lint::json::Value::as_arr).unwrap();
        assert_eq!(diags.len() as f64, v.get("count").unwrap().as_num().unwrap());
        let kinds: Vec<&str> = diags
            .iter()
            .map(|d| d.get("kind").and_then(sqlweave_lint::json::Value::as_str).unwrap())
            .collect();
        assert_eq!(kinds, ["lexical", "syntax"], "{doc}");
        for d in diags {
            assert!(d.get("message").is_some() && d.get("line").is_some());
            assert!(d.get("at").unwrap().as_num().is_some());
        }
    }

    #[test]
    fn diagnostics_json_empty_on_clean_input() {
        let doc = diagnostics_json("core", &[]);
        assert!(doc.contains("\"count\":0"), "{doc}");
        assert!(doc.contains("\"diagnostics\":[]"), "{doc}");
    }
}
