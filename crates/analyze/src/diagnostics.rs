//! Findings, severities and the scan report with its two renderings
//! (human `file:line:col` diagnostics and machine JSON).

use serde::{Deserialize, Serialize};
use std::fmt;

/// How seriously a lint's findings are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Severity {
    /// Findings are dropped entirely.
    Allow,
    /// Findings are reported but do not fail the scan.
    Warn,
    /// Findings fail the scan unless baselined in `analyze.toml`.
    Deny,
}

impl Severity {
    /// Parses `allow` / `warn` / `deny`.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One lint hit at a source location.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Finding {
    /// The lint that fired.
    pub lint: String,
    /// Effective severity (default, possibly overridden by config).
    pub severity: Severity,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} [{}] {}",
            self.path, self.line, self.col, self.severity, self.lint, self.message
        )
    }
}

/// The outcome of a workspace scan, after config and baseline.
#[derive(Debug, Serialize, Deserialize)]
pub struct Report {
    /// Surviving findings (allow-severity dropped, baselined removed),
    /// sorted by path, line, column.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by baseline `[[allow]]` entries.
    pub suppressed: usize,
    /// Baseline entries that matched nothing — stale entries fail the
    /// scan so the baseline can only shrink honestly.
    pub stale_allows: Vec<String>,
    /// Baseline entries without a written justification — these fail
    /// the scan: every suppression must say *why*.
    pub unjustified_allows: Vec<String>,
    /// Baseline entries recognised by content whose `line` anchor
    /// names another line than their finding's, each naming the current
    /// line. These fail the scan: an anchor must not go stale silently.
    #[serde(default)]
    pub drifted_allows: Vec<String>,
    /// `mod` declarations the walker could not resolve.
    pub unresolved_mods: Vec<String>,
}

impl Report {
    /// Deny-severity findings that survived the baseline.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count()
    }

    /// Warn-severity findings.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// True when the scan passes: no live deny findings, no stale,
    /// unjustified or drifted baseline entries.
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
            && self.stale_allows.is_empty()
            && self.unjustified_allows.is_empty()
            && self.drifted_allows.is_empty()
    }

    /// Human rendering: one `file:line:col` diagnostic per finding
    /// with its source snippet, then a summary line.
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
            if !f.snippet.is_empty() {
                out.push_str("    ");
                out.push_str(&f.snippet);
                out.push('\n');
            }
        }
        for s in &self.stale_allows {
            out.push_str(&format!(
                "analyze.toml: stale allow entry matches nothing: {s}\n"
            ));
        }
        for s in &self.unjustified_allows {
            out.push_str(&format!(
                "analyze.toml: allow entry needs a justification: {s}\n"
            ));
        }
        for s in &self.drifted_allows {
            out.push_str(&format!(
                "analyze.toml: allow entry anchor drifted: {s}; update its `line`\n"
            ));
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// The one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} files scanned: {} deny, {} warn, {} baselined{}",
            self.files_scanned,
            self.deny_count(),
            self.warn_count(),
            self.suppressed,
            if self.is_clean() { " — clean" } else { "" }
        )
    }

    /// Machine rendering (pretty JSON, trailing newline).
    ///
    /// # Errors
    /// Propagates the serializer error (practically unreachable for
    /// this plain data structure).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| format!("cannot serialize report: {e}"))
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    /// A message naming what failed to parse.
    pub fn from_json(s: &str) -> Result<Report, String> {
        serde_json::from_str(s).map_err(|e| format!("invalid report JSON: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(sev: Severity) -> Finding {
        Finding {
            lint: "panic-safety".into(),
            severity: sev,
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            message: "`unwrap()` in library code".into(),
            snippet: "x.unwrap();".into(),
        }
    }

    #[test]
    fn display_is_file_line_col() {
        assert_eq!(
            finding(Severity::Deny).to_string(),
            "crates/x/src/lib.rs:3:7: deny [panic-safety] `unwrap()` in library code"
        );
    }

    #[test]
    fn clean_logic() {
        let mut r = Report {
            findings: vec![finding(Severity::Warn)],
            files_scanned: 1,
            suppressed: 0,
            stale_allows: vec![],
            unjustified_allows: vec![],
            drifted_allows: vec![],
            unresolved_mods: vec![],
        };
        assert!(r.is_clean(), "warnings alone stay clean");
        r.findings.push(finding(Severity::Deny));
        assert!(!r.is_clean());
        r.findings.clear();
        r.stale_allows.push("x".into());
        assert!(!r.is_clean(), "stale baseline entries fail the scan");
    }

    #[test]
    fn json_round_trip() {
        let r = Report {
            findings: vec![finding(Severity::Deny)],
            files_scanned: 2,
            suppressed: 1,
            stale_allows: vec![],
            unjustified_allows: vec![],
            drifted_allows: vec![],
            unresolved_mods: vec![],
        };
        let back = Report::from_json(&r.to_json().unwrap()).unwrap();
        assert_eq!(back.findings.len(), 1);
        assert_eq!(back.findings[0].severity, Severity::Deny);
        assert_eq!(back.suppressed, 1);
    }
}
