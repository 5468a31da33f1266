//! SARIF 2.1.0 rendering of a scan [`Report`], so CI can attach the
//! findings to diffs.
//!
//! One run, one driver (`dck-analyze`), the full lint catalog as
//! `rules` (registry order, `ruleIndex` pointing into it), and one
//! `result` per surviving finding with a `physicalLocation` and the
//! source snippet in the region. The vendored value tree preserves
//! insertion order and the document is built in a fixed order, so the
//! output is golden-file stable.

use crate::diagnostics::{Report, Severity};
use crate::lints::catalog;
use serde::{Map, Value};

/// SARIF severity levels for our three severities.
fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Deny => "error",
        Severity::Warn => "warning",
        Severity::Allow => "note",
    }
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k, v);
    }
    Value::Object(m)
}

fn text_obj(text: &str) -> Value {
    obj(vec![("text", s(text))])
}

/// Renders `report` as a SARIF 2.1.0 document (pretty JSON, trailing
/// newline).
///
/// # Errors
/// Propagates the serializer error (practically unreachable for this
/// plain data structure).
pub fn render(report: &Report) -> Result<String, String> {
    let rules_src = catalog();
    let rules: Vec<Value> = rules_src
        .iter()
        .map(|info| {
            obj(vec![
                ("id", s(info.name)),
                ("shortDescription", text_obj(info.description)),
                (
                    "defaultConfiguration",
                    obj(vec![("level", s(level(info.default_severity)))]),
                ),
                ("help", text_obj(info.explanation.rationale)),
            ])
        })
        .collect();
    let results: Vec<Value> = report
        .findings
        .iter()
        .map(|f| {
            let mut region = vec![
                ("startLine", Value::U64(u64::from(f.line))),
                ("startColumn", Value::U64(u64::from(f.col))),
            ];
            if !f.snippet.is_empty() {
                region.push(("snippet", text_obj(&f.snippet)));
            }
            let location = obj(vec![(
                "physicalLocation",
                obj(vec![
                    ("artifactLocation", obj(vec![("uri", s(&f.path))])),
                    ("region", obj(region)),
                ]),
            )]);
            let mut fields = vec![
                ("ruleId", s(&f.lint)),
                ("level", s(level(f.severity))),
                ("message", text_obj(&f.message)),
                ("locations", Value::Array(vec![location])),
            ];
            if let Some(ri) = rules_src.iter().position(|i| i.name == f.lint) {
                fields.push(("ruleIndex", Value::U64(ri as u64)));
            }
            obj(fields)
        })
        .collect();
    let doc = obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        (
            "runs",
            Value::Array(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("dck-analyze")),
                            ("rules", Value::Array(rules)),
                        ]),
                    )]),
                ),
                ("results", Value::Array(results)),
                (
                    "invocations",
                    Value::Array(vec![obj(vec![(
                        "executionSuccessful",
                        Value::Bool(report.is_clean()),
                    )])]),
                ),
            ])]),
        ),
    ]);
    serde_json::to_string_pretty(&doc)
        .map(|mut s| {
            s.push('\n');
            s
        })
        .map_err(|e| format!("cannot serialize SARIF: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Finding;

    fn report() -> Report {
        Report {
            findings: vec![Finding {
                lint: "panic-safety".into(),
                severity: Severity::Deny,
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                col: 7,
                message: "`.unwrap()` in library code".into(),
                snippet: "x.unwrap();".into(),
            }],
            files_scanned: 1,
            suppressed: 0,
            stale_allows: vec![],
            unjustified_allows: vec![],
            drifted_allows: vec![],
            unresolved_mods: vec![],
        }
    }

    #[test]
    fn sarif_has_schema_version_rules_and_results() {
        let rendered = render(&report()).unwrap();
        let v: Value = serde_json::from_str(&rendered).unwrap();
        assert_eq!(v["version"].as_str(), Some("2.1.0"));
        assert!(v["$schema"].as_str().unwrap().contains("sarif-2.1.0"));
        let run = &v["runs"][0];
        assert_eq!(run["tool"]["driver"]["name"].as_str(), Some("dck-analyze"));
        // Every registered lint appears as a rule with a help text.
        let rules = run["tool"]["driver"]["rules"].as_array().unwrap();
        assert_eq!(rules.len(), catalog().len());
        assert!(rules
            .iter()
            .all(|r| !r["help"]["text"].as_str().unwrap().is_empty()));
        let res = &run["results"][0];
        assert_eq!(res["ruleId"].as_str(), Some("panic-safety"));
        assert_eq!(res["level"].as_str(), Some("error"));
        let loc = &res["locations"][0]["physicalLocation"];
        assert_eq!(
            loc["artifactLocation"]["uri"].as_str(),
            Some("crates/x/src/lib.rs")
        );
        assert_eq!(loc["region"]["startLine"].as_u64(), Some(3));
        assert_eq!(
            loc["region"]["snippet"]["text"].as_str(),
            Some("x.unwrap();")
        );
        // ruleIndex points at the matching catalog entry.
        let ri = res["ruleIndex"].as_u64().unwrap() as usize;
        assert_eq!(rules[ri]["id"].as_str(), Some("panic-safety"));
        assert_eq!(
            run["invocations"][0]["executionSuccessful"].as_bool(),
            Some(false)
        );
    }

    #[test]
    fn clean_report_has_empty_results() {
        let mut r = report();
        r.findings.clear();
        let rendered = render(&r).unwrap();
        let v: Value = serde_json::from_str(&rendered).unwrap();
        assert_eq!(v["runs"][0]["results"].as_array().unwrap().len(), 0);
        assert_eq!(
            v["runs"][0]["invocations"][0]["executionSuccessful"].as_bool(),
            Some(true)
        );
    }
}
