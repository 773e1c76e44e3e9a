//! Parse-error quality across dialects: positions, expected sets, lexical
//! errors, and the feature-boundary property that error messages reflect
//! only *selected* features.

use sqlweave_bench::parser;
use sqlweave::dialects::Dialect;

#[test]
fn positions_are_line_and_column_accurate() {
    let p = parser(Dialect::Core);
    let err = p
        .parse("SELECT a\nFROM t\nWHERE a = = 1")
        .unwrap_err();
    assert_eq!(err.line, 3, "{err}");
    assert_eq!(err.column, 11, "{err}");
    assert_eq!(err.found.as_ref().unwrap().1, "=");
}

#[test]
fn expected_sets_reflect_grammar_position() {
    let p = parser(Dialect::Core);
    // after a complete select-sublist, the legal continuations include
    // COMMA (more columns) and FROM
    let err = p.parse("SELECT a b c FROM t").unwrap_err();
    assert!(err.expected.contains("COMMA"), "{err}");
    assert!(err.expected.contains("FROM"), "{err}");
}

#[test]
fn lexical_errors_are_distinguished() {
    let p = parser(Dialect::Core);
    let err = p.parse("SELECT a FROM t WHERE a = $1").unwrap_err();
    assert!(err.lexical.is_some(), "{err}");
    assert!(err.to_string().contains("'$'"), "{err}");
}

#[test]
fn unterminated_string_is_a_lexical_error() {
    let p = parser(Dialect::Core);
    let err = p.parse("SELECT a FROM t WHERE s = 'oops").unwrap_err();
    assert!(err.lexical.is_some(), "{err}");
}

#[test]
fn expected_sets_exclude_unselected_features() {
    // In pico (no set_quantifier), the error after SELECT must NOT suggest
    // DISTINCT; in full it may.
    let pico = parser(Dialect::Pico);
    let err = pico.parse("SELECT FROM t").unwrap_err();
    assert!(
        !err.expected.contains("DISTINCT"),
        "pico suggested an unselected feature: {err}"
    );
    assert!(err.expected.contains("IDENT"), "{err}");

    let full = parser(Dialect::Full);
    let err = full.parse("SELECT FROM t").unwrap_err();
    assert!(err.expected.contains("DISTINCT"), "{err}");
}

#[test]
fn keywords_of_unselected_features_lex_as_identifiers() {
    // `epoch` is a keyword only when the sensor features are selected: in
    // pico it is a perfectly good column name.
    let pico = parser(Dialect::Pico);
    assert!(pico.parse("SELECT epoch FROM t").is_ok());
    // In tiny it is reserved, so the same statement fails.
    let tiny = parser(Dialect::Tiny);
    assert!(tiny.parse("SELECT epoch FROM t").is_err());
}

#[test]
fn farthest_failure_wins_over_earlier_alternatives() {
    // The parser must report the deepest failure point, not the first
    // alternative that failed.
    let p = parser(Dialect::Core);
    let err = p
        .parse("SELECT a FROM t WHERE a IN (1, 2, )")
        .unwrap_err();
    // error at the `)` after the dangling comma, not back at `IN`
    assert_eq!(err.found.as_ref().unwrap().1, ")", "{err}");
}

#[test]
fn eof_errors_name_the_missing_piece() {
    let p = parser(Dialect::Core);
    let err = p.parse("SELECT a FROM t WHERE").unwrap_err();
    assert!(err.found.is_none());
    assert!(
        err.expected.iter().any(|t| t == "IDENT" || t == "NUMBER"),
        "{err}"
    );
}

#[test]
fn multiline_scripts_report_correct_statement() {
    let p = parser(Dialect::Full);
    let err = p
        .parse("SELECT a FROM t;\nDELETE FROM;\nCOMMIT;")
        .unwrap_err();
    assert_eq!(err.line, 2, "{err}");
}
