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
//! sqlweave bench [--json]              corpus throughput per dialect × engine
//! ```

use sqlweave_dialects::Dialect;
use sqlweave_grammar::lookahead::{analyze_lookahead, LookaheadAnalysis, Outcome, K_MAX};
use sqlweave_feature_model::analysis::census;
use sqlweave_feature_model::render;
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
         sqlweave certify ... [--format text|json] [--check FILE] [--write FILE]\n  \
         sqlweave bench [--json] [--recover] [--dialect NAME] [--iters N] [--lookahead K]\n  \
         sqlweave bench ... [--corpus-mb N] [--edits N] [--out FILE]\n  \
         sqlweave bench ... [--baseline FILE] [--tolerance-pct N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    match cmd {
        "features" => cmd_features(&args[1..]),
        "census" => cmd_census(),
        "dialects" => cmd_dialects(&args[1..]),
        "compose" => cmd_compose(&args[1..]),
        "parse" => cmd_parse(&args[1..], true),
        "check" => cmd_parse(&args[1..], false),
        "lex" => cmd_lex(&args[1..]),
        "format" => cmd_format(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "lineage" => cmd_lineage(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "certify" => cmd_certify(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        _ => usage(),
    }
}

/// Parsed `lint` arguments.
struct LintArgs {
    format_json: bool,
    all_dialects: bool,
    /// `--codes` with no value: print the catalog.
    codes: bool,
    /// `--codes SW001,SW4xx`: restrict output to these codes.
    code_filter: Option<String>,
    dialect: Option<String>,
    grammar_file: Option<String>,
    tokens_file: Option<String>,
    schema_file: Option<String>,
    sql: Option<String>,
    features: Vec<String>,
}

fn parse_lint_args(args: &[String]) -> Option<LintArgs> {
    let mut parsed = LintArgs {
        format_json: false,
        all_dialects: false,
        codes: false,
        code_filter: None,
        dialect: None,
        grammar_file: None,
        tokens_file: None,
        schema_file: None,
        sql: None,
        features: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("json") => parsed.format_json = true,
                    Some("text") => parsed.format_json = false,
                    _ => return None,
                }
                i += 2;
            }
            "--all-dialects" => {
                parsed.all_dialects = true;
                i += 1;
            }
            "--codes" => {
                // Value form filters; bare form prints the catalog. A
                // following flag (or nothing) means the bare form.
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        parsed.code_filter = Some(v.clone());
                        i += 2;
                    }
                    _ => {
                        parsed.codes = true;
                        i += 1;
                    }
                }
            }
            "--dialect" => {
                parsed.dialect = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--grammar" => {
                parsed.grammar_file = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--tokens" => {
                parsed.tokens_file = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--schema" => {
                parsed.schema_file = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--sql" => {
                parsed.sql = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            flag if flag.starts_with("--") => return None,
            _ => {
                parsed.features.push(args[i].clone());
                i += 1;
            }
        }
    }
    Some(parsed)
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
    if errors > 0 {
        if !json {
            eprintln!("lint failed: {errors} error(s)");
        }
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Load a `sqlweave-schema/v1` catalog file for the semantic passes.
fn load_schema(path: &str) -> Result<sqlweave_sema::SchemaCatalog, String> {
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    sqlweave_sema::SchemaCatalog::from_json(&src)
        .map_err(|e| format!("cannot parse schema `{path}`: {e}"))
}

/// Semantic lint over a SQL script: parse with the dialect's composed
/// parser, run the resolver, and report the SW4xx findings.
fn lint_sql(
    dialect: Dialect,
    sql: &str,
    schema: Option<&sqlweave_sema::SchemaCatalog>,
) -> Result<sqlweave_lint::LintReport, String> {
    let caps = sqlweave_sema::ResolverCaps::for_dialect(dialect);
    let analysis = sqlweave_sema::analyze(sql, dialect, &caps, schema)
        .map_err(|e| format!("rejected by `{}`: {e}", dialect.name()))?;
    let mut report = sqlweave_lint::LintReport::new(format!("{}:script", dialect.name()));
    report.extend(analysis.diagnostics);
    Ok(report)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let Some(parsed) = parse_lint_args(args) else {
        return usage();
    };

    if parsed.codes {
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
        return ExitCode::SUCCESS;
    }

    let filter = match &parsed.code_filter {
        Some(list) => match parse_code_filter(list) {
            Ok(codes) => Some(codes),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let emit = |reports: Vec<sqlweave_lint::LintReport>| {
        let reports = match &filter {
            Some(keep) => filter_reports(reports, keep),
            None => reports,
        };
        emit_lint_reports(&reports, parsed.format_json)
    };

    if let Some(sql) = &parsed.sql {
        let dialect = match &parsed.dialect {
            Some(name) => match Dialect::ALL.iter().find(|d| d.name() == *name) {
                Some(&d) => d,
                None => {
                    eprintln!("unknown dialect `{name}`; run `sqlweave dialects` for the list");
                    return ExitCode::FAILURE;
                }
            },
            None => Dialect::Full,
        };
        let schema = match &parsed.schema_file {
            Some(path) => match load_schema(path) {
                Ok(cat) => Some(cat),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        return match lint_sql(dialect, sql, schema.as_ref()) {
            Ok(report) => emit(vec![report]),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    if parsed.all_dialects {
        return match sqlweave_lint::lint_all_dialects() {
            Ok(reports) => emit(reports),
            Err(e) => {
                eprintln!("composition failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(gfile) = &parsed.grammar_file {
        let grammar_src = match std::fs::read_to_string(gfile) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read `{gfile}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let grammar = match sqlweave_grammar::dsl::parse_grammar(&grammar_src) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("cannot parse grammar `{gfile}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let report = match &parsed.tokens_file {
            Some(tfile) => {
                let tokens_src = match std::fs::read_to_string(tfile) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("cannot read `{tfile}`: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match sqlweave_grammar::dsl::parse_tokens(&tokens_src) {
                    Ok(tokens) => sqlweave_lint::lint_pair(gfile, &grammar, &tokens),
                    Err(e) => {
                        eprintln!("cannot parse tokens `{tfile}`: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => sqlweave_lint::lint_grammar(gfile, &grammar),
        };
        return emit(vec![report]);
    }

    if let Some(name) = &parsed.dialect {
        let Some(&dialect) = Dialect::ALL.iter().find(|d| d.name() == *name) else {
            eprintln!("unknown dialect `{name}`; run `sqlweave dialects` for the list");
            return ExitCode::FAILURE;
        };
        return match sqlweave_lint::lint_dialect(dialect) {
            Ok(report) => emit(vec![report]),
            Err(e) => {
                eprintln!("composition failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if parsed.features.is_empty() {
        return usage();
    }
    let cat = catalog();
    let config = match cat.complete(parsed.features.iter().cloned()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid selection: {e}");
            return ExitCode::FAILURE;
        }
    };
    let composed = match cat.pipeline().compose(&config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("composition failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    emit(vec![sqlweave_lint::lint_composed(&composed)])
}

/// Parsed `lineage` arguments.
struct LineageArgs {
    format_json: bool,
    dialect: Option<String>,
    schema_file: Option<String>,
    check: Option<String>,
    write: Option<String>,
    sql: Option<String>,
}

fn parse_lineage_args(args: &[String]) -> Option<LineageArgs> {
    let mut parsed = LineageArgs {
        format_json: false,
        dialect: None,
        schema_file: None,
        check: None,
        write: None,
        sql: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("json") => parsed.format_json = true,
                    Some("text") => parsed.format_json = false,
                    _ => return None,
                }
                i += 2;
            }
            "--dialect" => {
                parsed.dialect = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--schema" => {
                parsed.schema_file = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--check" => {
                parsed.check = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--write" => {
                parsed.write = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            flag if flag.starts_with("--") => return None,
            _ => {
                if parsed.sql.is_some() {
                    return None;
                }
                parsed.sql = Some(args[i].clone());
                i += 1;
            }
        }
    }
    Some(parsed)
}

/// Name resolution + lineage over a script (`sqlweave lineage`). With a
/// SQL argument: analyze it under one dialect and print the
/// `sqlweave-lineage/v1` document (or the text rendering). Without one:
/// sweep the per-dialect fixture scripts into the golden inventory that
/// `--write` refreshes and `--check` gates CI on — the same workflow as
/// `analyze --check`.
fn cmd_lineage(args: &[String]) -> ExitCode {
    let Some(parsed) = parse_lineage_args(args) else {
        return usage();
    };
    if let Some(sql) = &parsed.sql {
        if parsed.check.is_some() || parsed.write.is_some() {
            return usage();
        }
        let dialect = match &parsed.dialect {
            Some(name) => match Dialect::ALL.iter().find(|d| d.name() == *name) {
                Some(&d) => d,
                None => {
                    eprintln!("unknown dialect `{name}`; run `sqlweave dialects` for the list");
                    return ExitCode::FAILURE;
                }
            },
            None => Dialect::Full,
        };
        let schema = match &parsed.schema_file {
            Some(path) => match load_schema(path) {
                Ok(cat) => Some(cat),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        let caps = sqlweave_sema::ResolverCaps::for_dialect(dialect);
        let analysis = match sqlweave_sema::analyze(sql, dialect, &caps, schema.as_ref()) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("rejected by `{}`: {e}", dialect.name());
                return ExitCode::FAILURE;
            }
        };
        if parsed.format_json {
            println!("{}", sqlweave_sema::lineage_json(dialect.name(), &analysis));
        } else {
            print!("{}", sqlweave_sema::lineage_text(dialect.name(), &analysis));
            for d in &analysis.diagnostics {
                println!("  {d}");
            }
        }
        return ExitCode::SUCCESS;
    }
    if parsed.check.is_none() && parsed.write.is_none() {
        return usage();
    }
    if parsed.dialect.is_some() || parsed.schema_file.is_some() {
        return usage();
    }
    // Inventory mode: every dialect's fixture script, resolved under that
    // dialect's own capabilities, no external catalog (the fixtures carry
    // their DDL).
    let mut entries: Vec<(String, sqlweave_sema::Analysis)> = Vec::new();
    for (dialect, script) in sqlweave_sema::fixtures::all() {
        let caps = sqlweave_sema::ResolverCaps::for_dialect(dialect);
        match sqlweave_sema::analyze(script, dialect, &caps, None) {
            Ok(a) => entries.push((dialect.name().to_string(), a)),
            Err(e) => {
                eprintln!("{}: fixture rejected: {e}", dialect.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let doc = sqlweave_sema::inventory_json(&entries);
    if let Some(path) = &parsed.write {
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if parsed.format_json {
        println!("{doc}");
    }
    if let Some(path) = &parsed.check {
        let golden = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        if golden.trim_end() != doc {
            eprintln!(
                "lineage inventory drifted from `{path}`; \
                 rerun with `--write {path}` and review the diff"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("inventory matches {path}");
    }
    ExitCode::SUCCESS
}

/// Parsed `analyze` arguments.
struct AnalyzeArgs {
    format_json: bool,
    all_dialects: bool,
    dialect: Option<String>,
    lookahead: usize,
    check: Option<String>,
    write: Option<String>,
}

fn parse_analyze_args(args: &[String]) -> Option<AnalyzeArgs> {
    let mut parsed = AnalyzeArgs {
        format_json: false,
        all_dialects: false,
        dialect: None,
        lookahead: K_MAX,
        check: None,
        write: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("json") => parsed.format_json = true,
                    Some("text") => parsed.format_json = false,
                    _ => return None,
                }
                i += 2;
            }
            "--all-dialects" => {
                parsed.all_dialects = true;
                i += 1;
            }
            "--dialect" => {
                parsed.dialect = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--lookahead" => {
                let k: usize = args.get(i + 1).and_then(|s| s.parse().ok())?;
                if k == 0 {
                    return None;
                }
                parsed.lookahead = k;
                i += 2;
            }
            "--check" => {
                parsed.check = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--write" => {
                parsed.write = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            _ => return None,
        }
    }
    Some(parsed)
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
            let toks: Vec<String> = d
                .conflict_tokens
                .iter()
                .map(|t| format!("\"{}\"", escape(t)))
                .collect();
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
fn cmd_analyze(args: &[String]) -> ExitCode {
    let Some(parsed) = parse_analyze_args(args) else {
        return usage();
    };
    if parsed.all_dialects && parsed.dialect.is_some() {
        return usage();
    }
    let targets: Vec<Dialect> = match &parsed.dialect {
        Some(name) => {
            let Some(&d) = Dialect::ALL.iter().find(|d| d.name() == *name) else {
                eprintln!("unknown dialect `{name}`; run `sqlweave dialects` for the list");
                return ExitCode::FAILURE;
            };
            vec![d]
        }
        None => Dialect::ALL.to_vec(),
    };
    let mut results: Vec<(String, LookaheadAnalysis)> = Vec::new();
    for d in targets {
        match analyze_one(d, parsed.lookahead) {
            Ok(la) => results.push((d.name().to_string(), la)),
            Err(e) => {
                eprintln!("{}: {e}", d.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let doc = lookahead_json(parsed.lookahead.min(K_MAX), &results);
    if let Some(path) = &parsed.write {
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if parsed.format_json {
        println!("{doc}");
    } else {
        print!("{}", lookahead_text(parsed.lookahead.min(K_MAX), &results));
    }
    if let Some(path) = &parsed.check {
        let golden = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        if golden.trim_end() != doc {
            eprintln!(
                "conflict inventory drifted from `{path}`; \
                 rerun with `--write {path}` and review the diff"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("inventory matches {path}");
    }
    ExitCode::SUCCESS
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

/// Parsed `certify` arguments.
struct CertifyArgs {
    format_json: bool,
    models: Vec<String>,
    limit: usize,
    force_sample: bool,
    check: Option<String>,
    write: Option<String>,
}

fn parse_certify_args(args: &[String]) -> Option<CertifyArgs> {
    let mut parsed = CertifyArgs {
        format_json: false,
        models: Vec::new(),
        limit: sqlweave_lint::certify::DEFAULT_LIMIT,
        force_sample: false,
        check: None,
        write: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("json") => parsed.format_json = true,
                    Some("text") => parsed.format_json = false,
                    _ => return None,
                }
                i += 2;
            }
            "--dialect-model" => {
                parsed.models.push(args.get(i + 1)?.clone());
                i += 2;
            }
            "--limit" => {
                parsed.limit = args.get(i + 1)?.parse().ok().filter(|n| *n > 0)?;
                i += 2;
            }
            "--sample" => {
                if args.get(i + 1).map(String::as_str) != Some("pairwise") {
                    return None;
                }
                parsed.force_sample = true;
                i += 2;
            }
            "--check" => {
                parsed.check = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--write" => {
                parsed.write = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            _ => return None,
        }
    }
    Some(parsed)
}

fn cmd_certify(args: &[String]) -> ExitCode {
    use sqlweave_lint::certify;

    let Some(parsed) = parse_certify_args(args) else {
        return usage();
    };
    let opts = certify::CertifyOptions {
        limit: parsed.limit,
        force_sample: parsed.force_sample,
    };
    let certs = if parsed.models.is_empty() {
        certify::certify_default(&opts)
    } else {
        let mut certs = Vec::new();
        for name in &parsed.models {
            match certify::certify_catalog_model(name, &opts) {
                Some(c) => certs.push(c),
                None => {
                    eprintln!(
                        "unknown diagram `{name}`; run `sqlweave features` for the list"
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        certs
    };

    let doc = certify::certification_json(&certs, parsed.limit);
    if parsed.format_json {
        println!("{doc}");
    } else {
        for c in &certs {
            print!("{}", c.render_text());
        }
    }
    if let Some(path) = &parsed.write {
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = &parsed.check {
        let golden = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        if golden.trim_end() != doc {
            eprintln!(
                "certification inventory drifted from `{path}`; \
                 rerun with `--write {path}` and review the diff"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("inventory matches {path}");
        return ExitCode::SUCCESS;
    }
    // Outside golden-gating, error-severity findings fail the run — that is
    // the certification verdict.
    if parsed.write.is_none() && certs.iter().any(|c| c.has_errors()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Schema identifier for `sqlweave features --format json`.
const FEATURES_SCHEMA: &str = "sqlweave-features/v1";
/// Schema identifier for `sqlweave dialects --format json`.
const DIALECTS_SCHEMA: &str = "sqlweave-dialects/v1";

fn json_str(s: &str) -> String {
    format!("\"{}\"", sqlweave_lint::json::escape(s))
}

/// Parse a trailing `[NAME] [--format text|json]` argument list shared by
/// `features` and `dialects`. Returns `(positional, json)`.
fn parse_listing_args(args: &[String]) -> Option<(Option<String>, bool)> {
    let mut positional = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("json") => json = true,
                    Some("text") => json = false,
                    _ => return None,
                }
                i += 2;
            }
            flag if flag.starts_with("--") => return None,
            name => {
                if positional.replace(name.to_string()).is_some() {
                    return None;
                }
                i += 1;
            }
        }
    }
    Some((positional, json))
}

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
            .map(|n| json_str(&n.to_string()))
            .unwrap_or_else(|| "null".into());
        diagrams.push(format!(
            "{{\"name\":{},\"features\":{},\"depth\":{},\"constraints\":{},\"configurations\":{}}}",
            json_str(&c.diagram),
            c.features,
            c.depth,
            c.constraints,
            configurations
        ));
    }
    Ok(format!(
        "{{\"schema\":{},\"diagrams\":[{}]}}",
        json_str(FEATURES_SCHEMA),
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
                .map(|p| json_str(&model.feature(p).name))
                .unwrap_or_else(|| "null".into());
            let optionality = if f.optionality.is_mandatory() {
                "mandatory"
            } else {
                "optional"
            };
            format!(
                "{{\"name\":{},\"parent\":{},\"optionality\":{},\"grouped\":{}}}",
                json_str(&f.name),
                parent,
                json_str(optionality),
                f.is_grouped()
            )
        })
        .collect();
    format!(
        "{{\"schema\":{},\"diagram\":{},\"features\":[{}]}}",
        json_str(FEATURES_SCHEMA),
        json_str(model.name()),
        features.join(",")
    )
}

fn cmd_features(args: &[String]) -> ExitCode {
    let Some((diagram, json)) = parse_listing_args(args) else {
        return usage();
    };
    let cat = catalog();
    match diagram.as_deref() {
        None if json => match features_json(cat, DIAGRAMS) {
            Ok(doc) => {
                println!("{doc}");
                ExitCode::SUCCESS
            }
            Err(missing) => {
                eprintln!(
                    "internal error: diagram `{missing}` is registered in DIAGRAMS \
                     but missing from the catalog"
                );
                ExitCode::from(2)
            }
        },
        None => match features_listing(cat, DIAGRAMS) {
            Ok(listing) => {
                print!("{listing}");
                ExitCode::SUCCESS
            }
            Err(missing) => {
                eprintln!(
                    "internal error: diagram `{missing}` is registered in DIAGRAMS \
                     but missing from the catalog"
                );
                ExitCode::from(2)
            }
        },
        Some(name) => match cat.diagram(name) {
            Some(model) => {
                if json {
                    println!("{}", diagram_json(&model));
                } else {
                    print!("{}", render::ascii(&model));
                }
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown diagram `{name}`; run `sqlweave features` for the list");
                ExitCode::FAILURE
            }
        },
    }
}

fn cmd_census() -> ExitCode {
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
    ExitCode::SUCCESS
}

/// Preset dialect statistics as a `sqlweave-dialects/v1` document.
fn dialects_json() -> Result<String, String> {
    let mut rows = Vec::new();
    for d in Dialect::ALL {
        let p = d.parser().map_err(|e| format!("{}: {e}", d.name()))?;
        let s = p.stats();
        rows.push(format!(
            "{{\"dialect\":{},\"features\":{},\"productions\":{},\"tokens\":{},\"dfa_states\":{},\"byte_classes\":{}}}",
            json_str(d.name()),
            d.configuration().len(),
            s.productions,
            s.token_rules,
            s.dfa_states,
            s.byte_classes
        ));
    }
    Ok(format!(
        "{{\"schema\":{},\"dialects\":[{}]}}",
        json_str(DIALECTS_SCHEMA),
        rows.join(",")
    ))
}

fn cmd_dialects(args: &[String]) -> ExitCode {
    let Some((positional, json)) = parse_listing_args(args) else {
        return usage();
    };
    if positional.is_some() {
        return usage();
    }
    if json {
        return match dialects_json() {
            Ok(doc) => {
                println!("{doc}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "{:<10} {:>9} {:>12} {:>8} {:>11} {:>13}",
        "dialect", "features", "productions", "tokens", "DFA states", "byte classes"
    );
    for d in Dialect::ALL {
        match d.parser() {
            Ok(p) => {
                let s = p.stats();
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
            Err(e) => {
                eprintln!("{}: {e}", d.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_compose(features: &[String]) -> ExitCode {
    if features.is_empty() {
        return usage();
    }
    let cat = catalog();
    let config = match cat.complete(features.iter().cloned()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid selection: {e}");
            return ExitCode::FAILURE;
        }
    };
    let composed = match cat.pipeline().compose(&config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("composition failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "-- {} features composed in sequence; {} productions, {} tokens",
        composed.sequence.len(),
        composed.grammar.productions().len(),
        composed.tokens.len()
    );
    print!("{}", sqlweave_grammar::print::to_dsl(&composed.grammar));
    ExitCode::SUCCESS
}

/// Resolve `--dialect NAME` plus the trailing SQL argument.
fn dialect_and_sql(args: &[String]) -> Option<(Dialect, String)> {
    let mut dialect = Dialect::Full;
    let mut sql = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--dialect" {
            let name = args.get(i + 1)?;
            dialect = *Dialect::ALL.iter().find(|d| d.name() == *name)?;
            i += 2;
        } else {
            sql = Some(args[i].clone());
            i += 1;
        }
    }
    Some((dialect, sql?))
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
            let expected: Vec<String> =
                e.expected.iter().map(|t| format!("\"{}\"", escape(t))).collect();
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
fn cmd_parse_recover(dialect: Dialect, sql: &str, format_json: bool) -> ExitCode {
    let parser = match dialect.parser() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
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
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
fn cmd_parse_stdin(dialect: Dialect, recover: bool, format_json: bool) -> ExitCode {
    use std::io::Read as _;
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("cannot read stdin: {e}");
        return ExitCode::FAILURE;
    }
    let parser = match dialect.parser() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
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
            let outcome = match session.try_apply_edit(0..doc_len, sql) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("internal error applying line {} as an edit: {e}", lineno + 1);
                    return ExitCode::from(2);
                }
            };
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
    if rejected == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_parse(args: &[String], verbose: bool) -> ExitCode {
    let mut recover = false;
    let mut format_json = false;
    let mut stdin_batch = false;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--recover" => {
                recover = true;
                i += 1;
            }
            "--stdin" => {
                stdin_batch = true;
                i += 1;
            }
            "--format" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("json") => format_json = true,
                    Some("text") => format_json = false,
                    _ => return usage(),
                }
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    // `--recover`, `--format`, and `--stdin` belong to `parse`; `check`
    // keeps its strict accept/reject contract.
    if (recover || format_json || stdin_batch) && !verbose {
        return usage();
    }
    if stdin_batch {
        // Batch mode reads statements from stdin; the only positional
        // argument that still makes sense is the dialect selector.
        let mut dialect = Dialect::Full;
        let mut i = 0;
        while i < rest.len() {
            if rest[i] == "--dialect" {
                let Some(name) = rest.get(i + 1) else {
                    return usage();
                };
                let Some(&d) = Dialect::ALL.iter().find(|d| d.name() == *name) else {
                    eprintln!("unknown dialect `{name}`; run `sqlweave dialects` for the list");
                    return ExitCode::FAILURE;
                };
                dialect = d;
                i += 2;
            } else {
                return usage();
            }
        }
        if format_json && !recover {
            return usage();
        }
        return cmd_parse_stdin(dialect, recover, format_json);
    }
    let Some((dialect, sql)) = dialect_and_sql(&rest) else {
        return usage();
    };
    if recover {
        return cmd_parse_recover(dialect, &sql, format_json);
    }
    if format_json {
        return usage();
    }
    let parser = match dialect.parser() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut session = parser.session();
    match session.parse_tree(&sql) {
        Ok(tree) => {
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rejected by `{}`: {e}", dialect.name());
            ExitCode::FAILURE
        }
    }
}

/// Dump a statement's token stream exactly as the dialect's compiled
/// scanner produces it — the lexical ground truth the differential suites
/// assert against, exposed for debugging token-rule composition. Skip
/// tokens (whitespace, comments) are consumed, not shown, matching what
/// the parser sees. `--format json` emits the `sqlweave-lex/v1` document.
fn cmd_lex(args: &[String]) -> ExitCode {
    let mut format_json = false;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--format" {
            match args.get(i + 1).map(String::as_str) {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                _ => return usage(),
            }
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    let Some((dialect, sql)) = dialect_and_sql(&rest) else {
        return usage();
    };
    let parser = match dialect.parser() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let scanner = parser.scanner();
    let toks = match scanner.scan(&sql) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rejected by `{}`: {e}", dialect.name());
            return ExitCode::FAILURE;
        }
    };
    if format_json {
        use sqlweave_lint::json::escape;
        let entries: Vec<String> = toks
            .iter()
            .map(|t| {
                format!(
                    "{{\"kind\":\"{}\",\"start\":{},\"end\":{},\"text\":\"{}\"}}",
                    escape(scanner.name(t.kind)),
                    t.start,
                    t.end,
                    escape(t.text(&sql))
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
                t.text(&sql)
            );
        }
        println!(
            "{} token(s) via {} byte classes ({} DFA states)",
            toks.len(),
            scanner.byte_classes(),
            scanner.dfa_states()
        );
    }
    ExitCode::SUCCESS
}

/// The "SQL:2003 preprocessor" use of the product line: parse a script with
/// a dialect and print it back normalized from the AST.
fn cmd_format(args: &[String]) -> ExitCode {
    let Some((dialect, sql)) = dialect_and_sql(args) else {
        return usage();
    };
    let parser = match dialect.parser() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut session = parser.session();
    let tree = match session.parse_tree(&sql) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rejected by `{}`: {e}", dialect.name());
            return ExitCode::FAILURE;
        }
    };
    match sqlweave_sql_ast::lower::lower_tree(&tree) {
        Ok(stmts) => {
            for s in &stmts {
                println!("{};", sqlweave_sql_ast::print::statement(s));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lowering failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Corpus throughput sweep over dialect × engine × parse API. `--json`
/// emits the `sqlweave-bench-parser/v8` document (already validated by the
/// runner); the default is a human-readable table with the backtrack-rate
/// column plus one lex-stage block per dialect (the B6/B9 scanner
/// ablation) and one `sema` row per pair (the B8 parse + name-resolution
/// pipeline). `--lookahead K` caps the runtime dispatch depth (the B5
/// ablation knob; `1` reproduces the seed backtracking engine).
/// `--recover` adds the B7 recovery rows (faulty-script throughput,
/// diagnostic counts, clean-input overhead) to the text table; the JSON
/// document always carries them. `--corpus-mb N` additionally lexes an
/// N-MiB script generated from each dialect's own grammar weights with
/// the vector/compiled/interval substrates — the steady-state throughput
/// sweep of Experiment B9 (`corpus_lex` in the JSON document).
/// `--edits N` runs the B11 keystroke-latency ablation: N single-token
/// edits applied through one incremental `ParseSession` on a generated
/// script (`--corpus-mb` sizes it, default 4 MiB), reporting p50/p99
/// apply latency — plus the median cost of materializing the tree after
/// an edit, which the lazy outcome keeps off the keystroke path —
/// against the from-scratch reparse of the same document
/// (`incremental` in the JSON document).
/// `--baseline FILE` (JSON mode, needs `--corpus-mb` or `--edits`) gates
/// the fresh document against a checked-in one: the CI tripwire fails the
/// run when the compiled or vector scanner loses more than
/// `--tolerance-pct` (default 25) of the baseline's corpus throughput,
/// when the vector-over-compiled speedup flattens by the same margin, or
/// when the incremental `speedup_p50`, tail apply latency, or tree
/// materialization cost collapses toward full-reparse cost.
fn cmd_bench(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut recover = false;
    let mut iters = 200usize;
    let mut dialects: Vec<Dialect> = Dialect::ALL.to_vec();
    let mut out: Option<String> = None;
    let mut lookahead: Option<usize> = None;
    let mut corpus_mb = 0usize;
    let mut edits = 0usize;
    let mut baseline: Option<String> = None;
    let mut tolerance_pct = 25.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--recover" => {
                recover = true;
                i += 1;
            }
            "--lookahead" => {
                let Some(k) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                lookahead = Some(k);
                i += 2;
            }
            "--iters" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                iters = n;
                i += 2;
            }
            "--corpus-mb" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                corpus_mb = n;
                i += 2;
            }
            "--edits" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                edits = n;
                i += 2;
            }
            "--dialect" => {
                let Some(name) = args.get(i + 1) else {
                    return usage();
                };
                let Some(&d) = Dialect::ALL.iter().find(|d| d.name() == *name) else {
                    eprintln!("unknown dialect `{name}`; run `sqlweave dialects` for the list");
                    return ExitCode::FAILURE;
                };
                dialects = vec![d];
                i += 2;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                out = Some(path.clone());
                i += 2;
            }
            "--baseline" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                baseline = Some(path.clone());
                i += 2;
            }
            "--tolerance-pct" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                tolerance_pct = n;
                i += 2;
            }
            _ => return usage(),
        }
    }
    if iters == 0 {
        eprintln!("--iters must be at least 1");
        return ExitCode::FAILURE;
    }
    if baseline.is_some() && (!json || (corpus_mb == 0 && edits == 0)) {
        eprintln!(
            "--baseline requires --json and --corpus-mb N or --edits N (it compares corpus_lex rates and incremental speedups)"
        );
        return ExitCode::FAILURE;
    }
    if json {
        let doc =
            sqlweave_bench::runner::run_full(&dialects, iters, lookahead, corpus_mb, edits);
        match &out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                    eprintln!("cannot write `{path}`: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
            None => println!("{doc}"),
        }
        if let Some(path) = &baseline {
            let base = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read baseline `{path}`: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match sqlweave_bench::runner::compare_with_baseline(&doc, &base, tolerance_pct) {
                Ok(regressions) if regressions.is_empty() => {
                    eprintln!("baseline check passed (tolerance {tolerance_pct:.0}%)");
                }
                Ok(regressions) => {
                    for r in &regressions {
                        eprintln!("regression: {r}");
                    }
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("baseline check failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<10} {:<13} {:<11} {:>11} {:>13} {:>8} {:>8}",
        "dialect", "engine", "api", "stmts/sec", "tokens/sec", "vs seed", "bt-rate"
    );
    for &d in &dialects {
        for mode in [
            sqlweave_parser_rt::EngineMode::Backtracking,
            sqlweave_parser_rt::EngineMode::Ll1Table,
        ] {
            let r = match lookahead {
                Some(k) => sqlweave_bench::runner::bench_pair_with_lookahead(d, mode, iters, k),
                None => sqlweave_bench::runner::bench_pair(d, mode, iters),
            };
            for a in &r.apis {
                println!(
                    "{:<10} {:<13} {:<11} {:>11.0} {:>13.0} {:>7.2}x {:>8.4}",
                    r.dialect,
                    r.engine,
                    a.api,
                    a.statements_per_sec,
                    a.tokens_per_sec,
                    a.speedup_vs_seed,
                    r.backtrack_rate
                );
            }
            for l in &r.lex {
                println!(
                    "{:<10} {:<13} {:<11} {:>11} {:>13.0} {:>7.2}x {:>8}",
                    r.dialect,
                    "lex",
                    l.scanner,
                    format!("{:.1} MB/s", l.mbytes_per_sec),
                    l.tokens_per_sec,
                    l.speedup_vs_interval,
                    format!("bc={}", r.byte_classes)
                );
            }
            // The B8 row: parse + name-resolution throughput and its cost
            // relative to the bare `event_tree` parse.
            println!(
                "{:<10} {:<13} {:<11} {:>11.0} {:>13} {:>7.2}x {:>8}",
                r.dialect,
                r.engine,
                "sema",
                r.sema.statements_per_sec,
                format!("{} edges", r.sema.column_edges),
                r.sema.overhead_vs_parse,
                "resolve"
            );
            if recover {
                // The B7 row: faulty-script throughput, total diagnostics
                // over the error-density corpus, and the clean-input
                // overhead of the resilient driver vs `event_tree`.
                println!(
                    "{:<10} {:<13} {:<11} {:>11.0} {:>13} {:>7.2}x {:>8}",
                    r.dialect,
                    r.engine,
                    "recover",
                    r.recovery.scripts_per_sec,
                    format!("{} errors", r.recovery.errors),
                    r.recovery.clean_overhead,
                    format!("n={}", r.recovery.scripts)
                );
            }
        }
    }
    // The B9 steady-state rows: scanner throughput over a generated
    // multi-MiB script, per dialect (no engine column — lexing is
    // engine-independent).
    if corpus_mb > 0 {
        for &d in &dialects {
            let c = sqlweave_bench::runner::bench_lex_corpus(d, corpus_mb, 5);
            for l in &c.scanners {
                println!(
                    "{:<10} {:<13} {:<11} {:>11} {:>13.0} {:>7.2}x {:>8}",
                    c.dialect,
                    format!("corpus-{}mb", c.mebibytes),
                    l.scanner,
                    format!("{:.1} MB/s", l.mbytes_per_sec),
                    l.tokens_per_sec,
                    l.speedup_vs_interval,
                    c.simd_level
                );
            }
        }
    }
    // The B11 keystroke-latency rows: single-token edits through one
    // incremental session per dialect × engine pair vs a from-scratch
    // reparse of the same script.
    if edits > 0 {
        let mb = if corpus_mb > 0 { corpus_mb } else { 4 };
        for &d in &dialects {
            for mode in
                [sqlweave_parser_rt::EngineMode::Backtracking, sqlweave_parser_rt::EngineMode::Ll1Table]
            {
                let r = sqlweave_bench::runner::bench_incremental(d, mode, mb, edits);
                println!(
                    "{:<10} {:<13} {:<11} {:>11} {:>13} {:>13} {:>7.0}x {:>8}",
                    r.dialect,
                    r.engine,
                    format!("edit-{mb}mb"),
                    format!("{:.0} us p50", r.apply_edit_us_p50),
                    format!("{:.0} us p99", r.apply_edit_us_p99),
                    format!("{:.0} us mat", r.materialize_us_p50),
                    r.speedup_p50,
                    format!("n={}", r.edits)
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_generate(features: &[String]) -> ExitCode {
    if features.is_empty() {
        return usage();
    }
    let cat = catalog();
    let config = match cat.complete(features.iter().cloned()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid selection: {e}");
            return ExitCode::FAILURE;
        }
    };
    let composed = match cat.pipeline().compose(&config) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("composition failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match sqlweave_parser_rt::codegen::generate(&composed.grammar, &composed.tokens) {
        Ok(src) => {
            print!("{src}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("codegen failed: {e}");
            ExitCode::FAILURE
        }
    }
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
        let ok = |v: &[&str]| parse_listing_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(ok(&[]), Some((None, false)));
        assert_eq!(
            ok(&["order_by", "--format", "json"]),
            Some((Some("order_by".into()), true))
        );
        assert_eq!(ok(&["--format", "yaml"]), None);
        assert_eq!(ok(&["a", "b"]), None);

        let cargs = |v: &[&str]| parse_certify_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let parsed = cargs(&[
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
        assert_eq!(parsed.models, vec!["group_by"]);
        assert_eq!(parsed.limit, 16);
        assert!(parsed.force_sample && parsed.format_json);
        assert!(cargs(&["--limit", "0"]).is_none());
        assert!(cargs(&["--sample", "random"]).is_none());
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
