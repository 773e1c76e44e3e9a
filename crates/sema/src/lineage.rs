//! Lineage serialization: the `sqlweave-lineage/v1` JSON document and the
//! human-readable text rendering behind `sqlweave lineage`.

use sqlweave_lint::json::string;

use crate::resolve::{Analysis, StatementLineage};

/// Identifier carried by every lineage JSON document.
pub const LINEAGE_SCHEMA: &str = "sqlweave-lineage/v1";

fn span_json(span: (usize, usize)) -> String {
    format!("{{\"start\":{},\"end\":{}}}", span.0, span.1)
}

fn statement_json(s: &StatementLineage) -> String {
    let target = match &s.target {
        Some(t) => string(t),
        None => "null".to_string(),
    };
    let reads: Vec<String> = s
        .reads
        .iter()
        .map(|r| format!("{{\"table\":{},\"span\":{}}}", string(&r.table), span_json(r.span)))
        .collect();
    let columns: Vec<String> = s
        .columns
        .iter()
        .map(|c| {
            let from: Vec<String> = c.from.iter().map(|f| string(f)).collect();
            format!(
                "{{\"to\":{},\"from\":[{}],\"span\":{}}}",
                string(&c.to),
                from.join(","),
                span_json(c.span)
            )
        })
        .collect();
    format!(
        "{{\"index\":{},\"kind\":{},\"target\":{},\"span\":{},\"reads\":[{}],\"columns\":[{}]}}",
        s.index,
        string(s.kind),
        target,
        span_json(s.span),
        reads.join(","),
        columns.join(",")
    )
}

fn statements_json(a: &Analysis) -> String {
    let stmts: Vec<String> = a.statements.iter().map(statement_json).collect();
    format!("[{}]", stmts.join(","))
}

/// Serialize one dialect's analysis as a standalone lineage document:
///
/// ```json
/// {"schema":"sqlweave-lineage/v1","dialect":"full","statements":[...]}
/// ```
pub fn lineage_json(dialect: &str, analysis: &Analysis) -> String {
    format!(
        "{{\"schema\":\"{LINEAGE_SCHEMA}\",\"dialect\":{},\"statements\":{}}}",
        string(dialect),
        statements_json(analysis)
    )
}

/// Serialize a per-dialect sweep (the golden `lineage --check` inventory):
/// one `dialects` entry per `(dialect, analysis)` pair, in input order.
pub fn inventory_json(entries: &[(String, Analysis)]) -> String {
    let items: Vec<String> = entries
        .iter()
        .map(|(d, a)| {
            format!("{{\"dialect\":{},\"statements\":{}}}", string(d), statements_json(a))
        })
        .collect();
    format!("{{\"schema\":\"{LINEAGE_SCHEMA}\",\"dialects\":[{}]}}", items.join(","))
}

/// Render an analysis as an indented text report (the default `lineage`
/// output format).
pub fn lineage_text(dialect: &str, analysis: &Analysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "lineage: dialect {dialect}, {} statement(s), {} diagnostic(s)",
        analysis.statements.len(),
        analysis.diagnostics.len()
    );
    for s in &analysis.statements {
        let target = s.target.as_deref().unwrap_or("-");
        let _ = writeln!(
            out,
            "  [{}] {} target={} span={}..{}",
            s.index, s.kind, target, s.span.0, s.span.1
        );
        for r in &s.reads {
            let _ = writeln!(out, "      reads {} @{}..{}", r.table, r.span.0, r.span.1);
        }
        for c in &s.columns {
            let from = if c.from.is_empty() {
                "(no column sources)".to_string()
            } else {
                c.from.join(", ")
            };
            let _ = writeln!(out, "      {} <- {}", c.to, from);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{ColumnEdge, TableRead};
    use sqlweave_lint::json;

    fn sample() -> Analysis {
        Analysis {
            statements: vec![StatementLineage {
                index: 0,
                kind: "insert",
                target: Some("t".to_string()),
                span: (0, 30),
                reads: vec![TableRead { table: "u".to_string(), span: (20, 21) }],
                columns: vec![ColumnEdge {
                    to: "t.a".to_string(),
                    from: vec!["u.a".to_string()],
                    span: (7, 8),
                }],
            }],
            diagnostics: Vec::new(),
        }
    }

    #[test]
    fn json_document_is_well_formed() {
        let doc = lineage_json("full", &sample());
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(LINEAGE_SCHEMA));
        assert_eq!(v.get("dialect").unwrap().as_str(), Some("full"));
        let stmts = v.get("statements").unwrap().as_arr().unwrap();
        assert_eq!(stmts.len(), 1);
        let cols = stmts[0].get("columns").unwrap().as_arr().unwrap();
        assert_eq!(cols[0].get("to").unwrap().as_str(), Some("t.a"));
        assert_eq!(
            cols[0].get("span").unwrap().get("start").unwrap().as_num(),
            Some(7.0)
        );
        assert_eq!(
            stmts[0].get("reads").unwrap().as_arr().unwrap()[0]
                .get("table")
                .unwrap()
                .as_str(),
            Some("u")
        );
    }

    #[test]
    fn inventory_wraps_per_dialect() {
        let doc = inventory_json(&[
            ("pico".to_string(), Analysis::default()),
            ("full".to_string(), sample()),
        ]);
        let v = json::parse(&doc).unwrap();
        let ds = v.get("dialects").unwrap().as_arr().unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].get("dialect").unwrap().as_str(), Some("pico"));
        assert!(ds[0].get("statements").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn text_rendering_lists_edges() {
        let text = lineage_text("full", &sample());
        assert!(text.contains("dialect full, 1 statement(s)"));
        assert!(text.contains("reads u @20..21"));
        assert!(text.contains("t.a <- u.a"));
    }
}
