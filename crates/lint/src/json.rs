//! Minimal JSON support for `--format json` output.
//!
//! The build environment has no crates.io access, so instead of `serde_json`
//! this module hand-rolls the two halves the linter needs: string-escaping
//! emitters used by [`crate::diag::LintReport`] serialization, and a small
//! recursive-descent parser used by tests (and any consumer that wants to
//! read reports back) to validate that emitted output is well-formed.

use crate::diag::{Diagnostic, LintReport, Severity};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape `s` as the contents of a JSON string literal (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `s` as a quoted JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Serialize one diagnostic as a JSON object. The `span` member is an
/// object with byte offsets when the diagnostic anchors to source text,
/// `null` for structural diagnostics over composed artifacts.
pub fn diagnostic(d: &Diagnostic) -> String {
    let span = match d.span {
        Some((start, end)) => format!("{{\"start\":{start},\"end\":{end}}}"),
        None => "null".to_string(),
    };
    format!(
        "{{\"code\":{},\"severity\":{},\"layer\":{},\"site\":{},\"message\":{},\"span\":{span}}}",
        string(d.code.id()),
        string(d.severity().as_str()),
        string(d.layer().as_str()),
        string(&d.site),
        string(&d.message)
    )
}

/// Serialize a full report: subject, per-severity summary, diagnostics.
pub fn report(r: &LintReport) -> String {
    let diags: Vec<String> = r.diagnostics.iter().map(diagnostic).collect();
    format!(
        "{{\"subject\":{},\"summary\":{{\"errors\":{},\"warnings\":{},\"notes\":{}}},\"diagnostics\":[{}]}}",
        string(&r.subject),
        r.count(Severity::Error),
        r.count(Severity::Warning),
        r.count(Severity::Note),
        diags.join(",")
    )
}

/// Schema identifier carried by the combined lint document. `v2` added the
/// per-diagnostic `span` member (byte offsets or `null`).
pub const LINT_SCHEMA: &str = "sqlweave-lint/v2";

/// Serialize several reports (the `--all-dialects` sweep) with a combined
/// summary.
pub fn reports(rs: &[LintReport]) -> String {
    let items: Vec<String> = rs.iter().map(report).collect();
    let errors: usize = rs.iter().map(|r| r.count(Severity::Error)).sum();
    let warnings: usize = rs.iter().map(|r| r.count(Severity::Warning)).sum();
    let notes: usize = rs.iter().map(|r| r.count(Severity::Note)).sum();
    format!(
        "{{\"schema\":\"{LINT_SCHEMA}\",\"summary\":{{\"errors\":{errors},\"warnings\":{warnings},\"notes\":{notes}}},\"reports\":[{}]}}",
        items.join(",")
    )
}

/// A parsed JSON value (subset sufficient for lint reports: no exponent
/// syntax is produced by the emitter, though the parser accepts integers
/// and simple decimals).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Numbers (stored as f64; lint output only emits non-negative ints).
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Value>),
    /// Object (sorted map; lint output has no duplicate keys).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member access.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String contents, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array contents, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric value, if a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (rejects trailing garbage).
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(v)
}

fn err(at: usize, message: &str) -> ParseError {
    ParseError {
        at,
        message: message.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{}`", c as char)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => Err(err(*pos, "expected a value")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(err(*pos, &format!("expected `{lit}`")))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && (b[*pos].is_ascii_digit() || b[*pos] == b'.') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| err(start, "bad number"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err(err(*pos, "unterminated string"));
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err(err(*pos, "unterminated escape"));
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        *pos += 4;
                        // Surrogate pairs are not emitted by this crate;
                        // reject rather than mis-decode.
                        let c = char::from_u32(hex)
                            .ok_or_else(|| err(*pos, "surrogate \\u escape"))?;
                        out.push(c);
                    }
                    _ => return Err(err(*pos - 1, "unknown escape")),
                }
            }
            c if c < 0x20 => return Err(err(*pos - 1, "control character in string")),
            _ => {
                // Re-attach multi-byte UTF-8 sequences.
                let char_start = *pos - 1;
                let width = utf8_width(c);
                let end = char_start + width;
                let s = b
                    .get(char_start..end)
                    .and_then(|seq| std::str::from_utf8(seq).ok())
                    .ok_or_else(|| err(char_start, "invalid UTF-8"))?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;

    #[test]
    fn escaping_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}é—ü";
        let json = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&json).unwrap(), Value::Str(nasty.to_string()));
    }

    #[test]
    fn report_emits_valid_json() {
        let mut r = LintReport::new("demo \"dialect\"");
        r.extend([Diagnostic::new(
            Code::Ll1Conflict,
            "production `s`",
            "line1\nline2",
        )]);
        let v = parse(&report(&r)).unwrap();
        assert_eq!(v.get("subject").unwrap().as_str(), Some("demo \"dialect\""));
        let diags = v.get("diagnostics").unwrap().as_arr().unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("code").unwrap().as_str(), Some("SW001"));
        assert_eq!(diags[0].get("severity").unwrap().as_str(), Some("warning"));
        assert_eq!(
            diags[0].get("message").unwrap().as_str(),
            Some("line1\nline2")
        );
        let summary = v.get("summary").unwrap();
        assert_eq!(summary.get("warnings").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn multi_report_summary_sums() {
        let mut a = LintReport::new("a");
        a.extend([Diagnostic::new(Code::DeadFeature, "f", "m")]);
        let b = LintReport::new("b");
        let v = parse(&reports(&[a, b])).unwrap();
        assert_eq!(
            v.get("summary").unwrap().get("errors").unwrap().as_num(),
            Some(1.0)
        );
        assert_eq!(v.get("reports").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn parser_accepts_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , true , null , { } ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1], Value::Bool(true));
        assert_eq!(arr[2], Value::Null);
    }
}
