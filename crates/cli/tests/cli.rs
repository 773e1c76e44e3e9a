//! End-to-end tests of the `sqlweave` CLI binary.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sqlweave"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn no_args_prints_usage() {
    let o = run(&[]);
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("usage"));
}

#[test]
fn features_lists_diagrams() {
    let o = run(&["features"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("query_specification"));
    assert!(out.contains("table_expression"));
    assert!(out.contains("45 feature diagrams"));
}

#[test]
fn features_renders_figure2() {
    let o = run(&["features", "table_expression"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("[m] From"), "{out}");
    assert!(out.contains("[o] Where"), "{out}");
    assert!(out.contains("having requires group_by"), "{out}");
}

#[test]
fn features_unknown_diagram_fails() {
    let o = run(&["features", "nonsense"]);
    assert_eq!(o.status.code(), Some(1));
}

#[test]
fn census_reports_totals() {
    let o = run(&["census"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("45 diagrams"));
}

#[test]
fn dialects_prints_size_table() {
    let o = run(&["dialects"]);
    assert!(o.status.success());
    let out = stdout(&o);
    for d in ["pico", "tiny", "scql", "core", "warehouse", "full"] {
        assert!(out.contains(d), "{out}");
    }
}

#[test]
fn compose_prints_grammar() {
    let o = run(&["compose", "query_statement", "select_sublist", "where"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("grammar sql_2003;"), "{out}");
    assert!(out.contains("where_clause : WHERE search_condition"), "{out}");
}

#[test]
fn compose_rejects_unknown_feature() {
    let o = run(&["compose", "warp_drive"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stderr(&o).contains("invalid selection"));
}

#[test]
fn check_accepts_and_rejects() {
    let ok = run(&["check", "--dialect", "tiny", "SELECT nodeid FROM sensors SAMPLE PERIOD 10"]);
    assert!(ok.status.success(), "{}", stderr(&ok));

    let bad = run(&["check", "--dialect", "tiny", "SELECT a AS b FROM t"]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(stderr(&bad).contains("rejected"));

    let unknown = run(&["check", "--dialect", "nosuch", "SELECT a FROM t"]);
    assert_eq!(unknown.status.code(), Some(1));
    assert!(stderr(&unknown).contains("unknown dialect `nosuch`"), "{}", stderr(&unknown));
    // A misspelled flag is not SQL, and neither is a second script.
    assert_eq!(run(&["check", "--dialect", "core", "--recovr"]).status.code(), Some(2));
    assert_eq!(run(&["check", "--dialect", "core", "SELECT a FROM t", "SELECT b FROM u"]).status.code(), Some(2));
}

#[test]
fn parse_prints_cst_and_ast() {
    let o = run(&["parse", "--dialect", "core", "SELECT a FROM t WHERE a = 1"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("concrete syntax tree"), "{out}");
    assert!(out.contains("query_specification"), "{out}");
    assert!(out.contains("SELECT a FROM t WHERE a = 1"), "{out}");
}

#[test]
fn parse_recover_reports_every_error_with_carets() {
    let o = run(&[
        "parse",
        "--recover",
        "--dialect",
        "core",
        "SELECT a FROM t; SELECT FROM u; DELETE FROM v",
    ]);
    // Diagnostics were reported, so the exit code is 1 — but the tree and
    // every error still print.
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("concrete syntax tree"), "{out}");
    assert!(out.contains("error"), "{out}");
    assert!(out.contains("1 diagnostic(s)"), "{out}");
    assert!(out.contains("--> line 1, column"), "{out}");
    assert!(out.contains("^"), "{out}");
    // The good statements still parsed around the bad one.
    assert!(out.contains("query_specification"), "{out}");
    assert!(out.contains("delete_statement"), "{out}");
}

#[test]
fn parse_recover_clean_input_exits_zero() {
    let o = run(&["parse", "--recover", "--dialect", "core", "SELECT a FROM t"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("concrete syntax tree"), "{out}");
    assert!(!out.contains("diagnostic"), "{out}");
}

#[test]
fn parse_recover_json_emits_diagnostics_document() {
    let o = run(&[
        "parse",
        "--recover",
        "--format",
        "json",
        "--dialect",
        "core",
        "SELECT FROM t; SELECT FROM u",
    ]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.starts_with("{\"schema\":\"sqlweave-diagnostics/v1\""), "{out}");
    assert!(out.contains("\"dialect\":\"core\""), "{out}");
    assert!(out.contains("\"count\":2"), "{out}");
    assert!(out.contains("\"kind\":\"syntax\""), "{out}");
    assert!(out.contains("\"expected\":["), "{out}");
}

#[test]
fn parse_recover_flags_rejected_elsewhere() {
    // `check` keeps its strict contract; `--format` without `--recover`
    // has nothing to format.
    assert_eq!(run(&["check", "--recover", "--dialect", "core", "SELECT a FROM t"]).status.code(), Some(2));
    assert_eq!(
        run(&["parse", "--format", "json", "--dialect", "core", "SELECT a FROM t"]).status.code(),
        Some(2)
    );
    assert_eq!(
        run(&["parse", "--recover", "--format", "yaml", "--dialect", "core", "x"]).status.code(),
        Some(2)
    );
    assert_eq!(run(&["parse", "--dialect", "core", "SELECT a FROM t", "--stdln"]).status.code(), Some(2));
    let unknown = run(&["parse", "--dialect", "nosuch", "SELECT a FROM t"]);
    assert_eq!(unknown.status.code(), Some(1));
    assert!(stderr(&unknown).contains("unknown dialect `nosuch`"), "{}", stderr(&unknown));
    // The subcommands without flags reject every flag, `census` any
    // argument, and `bench` is no subcommand at all.
    for args in [
        &["census", "--bogus"][..],
        &["census", "where"],
        &["compose", "query_statement", "--bogus"],
        &["generate", "--bogus", "query_statement"],
        &["bench", "--dialect", "pico"],
    ] {
        let o = run(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(stderr(&o).contains("usage"), "{args:?}: {}", stderr(&o));
    }
}

fn run_with_stdin(args: &[&str], input: &str) -> Output {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sqlweave"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Ignore EPIPE: a child that rejects its flags exits (closing stdin)
    // before reading it, racing this write.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes());
    child.wait_with_output().expect("binary exits")
}

#[test]
fn parse_stdin_batches_through_one_session() {
    let o = run_with_stdin(
        &["parse", "--stdin", "--dialect", "core"],
        "SELECT a FROM t\n\nSELECT b FROM u WHERE b = 1\n",
    );
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("line 1: ok"), "{out}");
    assert!(out.contains("line 3: ok"), "{out}");
    assert!(stderr(&o).contains("2 statement(s) through one session, 0 rejected"));
}

#[test]
fn parse_stdin_strict_rejects_and_fails() {
    let o = run_with_stdin(
        &["parse", "--stdin", "--dialect", "core"],
        "SELECT a FROM t\nSELECT FROM\n",
    );
    assert_eq!(o.status.code(), Some(1));
    let out = stdout(&o);
    assert!(out.contains("line 1: ok"), "{out}");
    assert!(out.contains("line 2: rejected:"), "{out}");
    assert!(stderr(&o).contains("2 statement(s) through one session, 1 rejected"));
}

#[test]
fn parse_stdin_recover_renders_diagnostics() {
    let o = run_with_stdin(
        &["parse", "--stdin", "--recover", "--dialect", "core"],
        "SELECT FROM t\n",
    );
    assert_eq!(o.status.code(), Some(1));
    let out = stdout(&o);
    assert!(out.contains("line 1: 1 diagnostic(s)"), "{out}");
    assert!(out.contains('^'), "{out}");
}

#[test]
fn parse_stdin_recover_json_emits_document_per_line() {
    let o = run_with_stdin(
        &["parse", "--stdin", "--recover", "--format", "json", "--dialect", "core"],
        "SELECT a FROM t\nSELECT FROM\n",
    );
    assert_eq!(o.status.code(), Some(1));
    let out = stdout(&o);
    assert_eq!(out.matches("sqlweave-diagnostics/v1").count(), 2, "{out}");
}

#[test]
fn parse_stdin_rejects_json_without_recover() {
    let o = run_with_stdin(&["parse", "--stdin", "--format", "json"], "SELECT 1\n");
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("usage"));
}

#[test]
fn format_normalizes_scripts() {
    let o = run(&[
        "format",
        "--dialect",
        "core",
        "select   A , b   from T where a=1 ; commit ;",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("SELECT A, b FROM T WHERE a = 1;"), "{out}");
    assert!(out.contains("COMMIT;"), "{out}");
}

#[test]
fn generate_emits_rust_source() {
    let o = run(&["generate", "query_statement", "select_sublist"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("pub enum TokenKind"), "{out}");
    assert!(out.contains("fn parse_sql_script"), "{out}");
}

#[test]
fn generate_is_deterministic() {
    let args = ["generate", "query_statement", "select_sublist"];
    let (a, b) = (run(&args), run(&args));
    assert!(a.status.success() && b.status.success());
    assert!(
        a.stdout == b.stdout,
        "two runs of `generate` printed different source"
    );
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn lint_all_dialects_is_error_free() {
    let o = run(&["lint", "--all-dialects"]);
    assert!(o.status.success(), "{}\n{}", stdout(&o), stderr(&o));
    let out = stdout(&o);
    // one report per dialect plus the catalog
    for subject in ["feature-model catalog", "pico", "tiny", "scql", "core", "warehouse", "full"] {
        assert!(out.contains(&format!("lint: {subject}")), "{out}");
    }
    assert!(out.contains("0 error(s)"), "{out}");
}

#[test]
fn lint_broken_fixture_fails_with_codes() {
    let o = run(&[
        "lint",
        "--grammar",
        &fixture("broken.grammar"),
        "--tokens",
        &fixture("broken.tokens"),
    ]);
    assert_eq!(o.status.code(), Some(1), "{}", stdout(&o));
    let out = stdout(&o);
    assert!(out.contains("error[SW002]"), "{out}"); // expr : expr PLUS term
    assert!(out.contains("error[SW101]"), "{out}"); // ABC shadowed by IDENT
    assert!(out.contains("error[SW302]"), "{out}"); // MISSING not in token set
    assert!(out.contains("warning[SW004]"), "{out}"); // orphan unreachable
    assert!(stderr(&o).contains("lint failed"), "{}", stderr(&o));
}

#[test]
fn lint_clean_fixture_succeeds() {
    let o = run(&[
        "lint",
        "--grammar",
        &fixture("clean.grammar"),
        "--tokens",
        &fixture("clean.tokens"),
    ]);
    assert!(o.status.success(), "{}", stdout(&o));
    assert!(stdout(&o).contains("0 error(s)"), "{}", stdout(&o));
}

#[test]
fn lint_json_output_is_structured() {
    let o = run(&["lint", "--format", "json", "--dialect", "pico"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.starts_with("{\"schema\":\"sqlweave-lint/v2\""), "{out}");
    assert!(out.contains("\"subject\":\"pico\""), "{out}");
    assert!(out.contains("\"code\":\"SW001\""), "{out}");
    assert!(out.contains("\"errors\":0"), "{out}");
    // v2 carries a span member on every diagnostic (null for structural
    // diagnostics, which have no source text to anchor to).
    assert!(out.contains("\"span\":null"), "{out}");
}

#[test]
fn lint_json_exit_code_still_reflects_errors() {
    let o = run(&[
        "lint",
        "--format",
        "json",
        "--grammar",
        &fixture("broken.grammar"),
        "--tokens",
        &fixture("broken.tokens"),
    ]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stdout(&o).contains("\"code\":\"SW002\""), "{}", stdout(&o));
}

#[test]
fn lint_feature_selection() {
    let o = run(&["lint", "query_statement", "select_sublist", "where"]);
    assert!(o.status.success(), "{}\n{}", stdout(&o), stderr(&o));
    assert!(stdout(&o).contains("0 error(s)"), "{}", stdout(&o));
}

#[test]
fn lint_unknown_dialect_fails() {
    let o = run(&["lint", "--dialect", "nonsense"]);
    assert_eq!(o.status.code(), Some(1));
    assert!(stderr(&o).contains("unknown dialect"));
}

#[test]
fn lint_codes_prints_catalog() {
    let o = run(&["lint", "--codes"]);
    assert!(o.status.success());
    let out = stdout(&o);
    for code in ["SW001", "SW101", "SW201", "SW301"] {
        assert!(out.contains(code), "{out}");
    }
    assert!(out.contains("LL(1) prediction conflict"), "{out}");
}

#[test]
fn lint_without_target_prints_usage() {
    let o = run(&["lint"]);
    assert_eq!(o.status.code(), Some(2));
}

#[test]
fn lint_codes_filter_keeps_only_requested() {
    // Pico's report carries SW001 plus notes; filtering to SW001 drops
    // everything else but keeps the report wrapper.
    let o = run(&["lint", "--codes", "SW001", "--format", "json", "--dialect", "pico"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("\"code\":\"SW001\""), "{out}");
    assert!(!out.contains("\"severity\":\"note\""), "{out}");
}

#[test]
fn lint_codes_unknown_code_is_rejected() {
    let o = run(&["lint", "--codes", "SW999", "--dialect", "pico"]);
    assert_eq!(o.status.code(), Some(2), "{}", stderr(&o));
    let err = stderr(&o);
    assert!(err.contains("unknown diagnostic code `SW999`"), "{err}");
    // The diagnostic lists the valid catalog, semantic codes included.
    assert!(err.contains("SW001") && err.contains("SW405"), "{err}");
}

#[test]
fn lint_sql_fires_semantic_rules() {
    // SW404 (unused CTE) is a warning: reported, but exit stays 0.
    let o = run(&["lint", "--sql", "WITH w AS (SELECT a FROM t) SELECT b FROM t"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("warning[SW404]"), "{out}");
    assert!(out.contains("cte `w`"), "{out}");
}

#[test]
fn lint_sql_with_schema_reports_unknown_column() {
    let o = run(&[
        "lint",
        "--format",
        "json",
        "--schema",
        &fixture("schema.json"),
        "--sql",
        "SELECT nope FROM t",
    ]);
    // SW402 is an error, so the exit code flips.
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("\"code\":\"SW402\""), "{out}");
    // Semantic diagnostics carry byte spans into the script.
    assert!(out.contains("\"span\":{\"start\":7,\"end\":11}"), "{out}");
}

#[test]
fn lex_dumps_token_stream() {
    let o = run(&["lex", "--dialect", "core", "SELECT a FROM t"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("SELECT               0     6  SELECT"), "{out}");
    assert!(out.contains("IDENT               14    15  t"), "{out}");
    // skip tokens are consumed, not listed
    assert!(!out.contains("WS"), "{out}");
    assert!(out.contains("4 token(s) via"), "{out}");
    assert!(out.contains("byte classes"), "{out}");
}

#[test]
fn lex_json_matches_fixture() {
    // The fixture pins kinds, byte spans, and UTF-8 slicing (the literal
    // holds a two-byte scalar, so `end` jumps by 8 over 7 chars).
    let o = run(&[
        "lex",
        "--format",
        "json",
        "--dialect",
        "core",
        "SELECT a, b FROM t WHERE a = 'héllo'",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let expected = std::fs::read_to_string(fixture("lex_core.json")).unwrap();
    assert_eq!(stdout(&o).trim_end(), expected.trim_end());
}

#[test]
fn lex_rejects_bad_input_and_flags() {
    let o = run(&["lex", "--dialect", "pico", "SELECT ?"]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    assert!(stderr(&o).contains("rejected by `pico`"), "{}", stderr(&o));
    assert!(stderr(&o).contains("line 1, column 8"), "{}", stderr(&o));
    assert_eq!(run(&["lex", "--dialect", "core"]).status.code(), Some(2));
    assert_eq!(run(&["lex", "--format", "yaml", "--dialect", "core", "SELECT 1"]).status.code(), Some(2));
    assert_eq!(run(&["lex", "--dialect", "core", "SELECT 1", "SELECT 2"]).status.code(), Some(2));
    for cmd in ["lex", "format"] {
        let o = run(&[cmd, "--dialect", "nosuch", "SELECT 1"]);
        assert_eq!(o.status.code(), Some(1), "{cmd}");
        assert!(stderr(&o).contains("unknown dialect `nosuch`"), "{cmd}: {}", stderr(&o));
    }
}

fn golden(name: &str) -> String {
    format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyze_classifies_all_dialect_conflicts() {
    let o = run(&["analyze", "--all-dialects"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.starts_with("lookahead analysis (k=3)"), "{out}");
    for d in ["pico", "tiny", "scql", "core", "warehouse", "full"] {
        assert!(out.contains(&format!("dialect `{d}`")), "{out}");
    }
    assert!(out.contains("resolvable with k=2 lookahead"), "{out}");
    assert!(out.contains("residual ambiguity"), "{out}");
    // every decision is classified: nothing saturates at the default depth
    assert!(out.contains(", 0 saturated\n"), "{out}");
    assert!(out.lines().last().unwrap().starts_with("TOTAL:"), "{out}");
}

#[test]
fn analyze_single_dialect_report() {
    let o = run(&["analyze", "--dialect", "tiny"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("dialect `tiny`"), "{out}");
    assert!(out.contains("`aggregate_function`"), "{out}");
    assert!(!out.contains("dialect `full`"), "{out}");
}

#[test]
fn analyze_json_document_has_schema() {
    let o = run(&["analyze", "--dialect", "pico", "--format", "json"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.starts_with("{\"schema\":\"sqlweave-lookahead/v1\""), "{out}");
    assert!(out.contains("\"production\":\"sql_script__star1\""), "{out}");
    assert!(out.contains("\"status\":\"resolved\""), "{out}");
}

#[test]
fn analyze_matches_checked_in_inventory() {
    let o = run(&["analyze", "--all-dialects", "--check", &golden("lookahead_conflicts.json")]);
    assert!(o.status.success(), "{}\n{}", stdout(&o), stderr(&o));
    assert!(stderr(&o).contains("inventory matches"), "{}", stderr(&o));
}

#[test]
fn analyze_check_detects_drift() {
    // A depth-1 analysis classifies every conflict as residual, so the
    // inventory cannot match the checked-in k=3 document.
    let o = run(&[
        "analyze",
        "--all-dialects",
        "--lookahead",
        "1",
        "--check",
        &golden("lookahead_conflicts.json"),
    ]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    assert!(stderr(&o).contains("drifted"), "{}", stderr(&o));
    assert!(stdout(&o).contains("0 resolved"), "{}", stdout(&o));
}

#[test]
fn analyze_rejects_bad_flags() {
    assert_eq!(run(&["analyze", "--lookahead", "zero"]).status.code(), Some(2));
    assert_eq!(run(&["analyze", "--bogus"]).status.code(), Some(2));
    assert_eq!(
        run(&["analyze", "--dialect", "pico", "--all-dialects"]).status.code(),
        Some(2)
    );
}

#[test]
fn lineage_json_traces_insert_select() {
    // The acceptance-criteria shape: CTE + correlated subquery +
    // INSERT ... SELECT in one script, column lineage back to base tables.
    let o = run(&[
        "lineage",
        "--dialect",
        "full",
        "--format",
        "json",
        "CREATE TABLE orders (id INT, region VARCHAR(10), total INT); \
         WITH regional AS (SELECT region, SUM(total) AS total FROM orders GROUP BY region) \
         SELECT r.region FROM regional AS r \
         WHERE EXISTS (SELECT o.id FROM orders AS o WHERE o.region = r.region); \
         INSERT INTO orders (id) SELECT id FROM orders",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.starts_with("{\"schema\":\"sqlweave-lineage/v1\""), "{out}");
    assert!(out.contains("\"dialect\":\"full\""), "{out}");
    // The CTE's aggregate column traces to the base table.
    assert!(out.contains("\"to\":\"regional.total\""), "{out}");
    assert!(out.contains("\"from\":[\"orders.total\"]"), "{out}");
    // The INSERT target receives lineage edges too.
    assert!(out.contains("\"kind\":\"insert\""), "{out}");
    assert!(out.contains("\"to\":\"orders.id\""), "{out}");
    // Every edge carries a span object.
    assert!(out.contains("\"span\":{\"start\":"), "{out}");
}

#[test]
fn lineage_text_mode_summarizes_statements() {
    let o = run(&["lineage", "--dialect", "core", "SELECT a, b FROM t"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("lineage: dialect core"), "{out}");
    assert!(out.contains("1 statement(s)"), "{out}");
    assert!(out.contains("reads t"), "{out}");
}

#[test]
fn lineage_matches_checked_in_inventory() {
    let o = run(&["lineage", "--check", &golden("lineage_inventory.json")]);
    assert!(o.status.success(), "{}\n{}", stdout(&o), stderr(&o));
    assert!(stderr(&o).contains("inventory matches"), "{}", stderr(&o));
}

#[test]
fn lineage_check_detects_drift() {
    // Any well-formed JSON file that is not the lineage inventory drifts.
    let o = run(&["lineage", "--check", &golden("lookahead_conflicts.json")]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    assert!(stderr(&o).contains("drifted"), "{}", stderr(&o));
}

#[test]
fn lineage_rejects_bad_flags() {
    // Inventory mode needs --check or --write; SQL mode forbids them.
    assert_eq!(run(&["lineage"]).status.code(), Some(2));
    assert_eq!(run(&["lineage", "--check", "x.json", "SELECT a FROM t"]).status.code(), Some(2));
    // Per-dialect knobs only make sense with an explicit script.
    assert_eq!(run(&["lineage", "--dialect", "core", "--check", "x.json"]).status.code(), Some(2));
    assert_eq!(run(&["lineage", "--format", "yaml", "SELECT a FROM t"]).status.code(), Some(2));
    // SQL that opens with a `--` comment is a script, not a flag.
    let o = run(&["lineage", "--dialect", "core", "-- note\nSELECT a FROM t"]);
    assert!(o.status.success(), "{}", stderr(&o));
}
