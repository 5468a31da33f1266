//! `analyze.toml`: severity overrides and the justified baseline.
//!
//! The build environment has no registry access, so this module
//! includes a deliberately small TOML-subset parser covering exactly
//! what the config needs: `[section]` tables, `[[section]]` arrays of
//! tables, `key = "string" | integer | true | false`, and `#`
//! comments. Unknown keys and sections are rejected loudly — a typo in
//! a lint name must not silently disable enforcement.

use crate::diagnostics::{Finding, Severity};
use std::collections::BTreeMap;

/// How far a `snippet_hash`-keyed entry's `line` anchor may sit from
/// the finding and still be recognised as its entry. A recognised
/// entry whose anchor is off by any amount fails the scan, naming the
/// finding's current line, so an anchor never goes stale silently.
pub const LINE_FUZZ: u32 = 10;

/// One baseline entry: a justified suppression of current findings.
///
/// The durable key is `(path, lint, snippet_hash)` with `line` as an
/// anchor that must name the finding's line (see [`LINE_FUZZ`]); an
/// entry with neither covers the whole file. A `line` without a
/// `snippet_hash` is a config error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Lint name the entry applies to.
    pub lint: String,
    /// Workspace-relative path; a trailing `*` makes it a prefix match
    /// (`crates/experiments/*`).
    pub path: String,
    /// Line anchor of a `snippet_hash` entry: recognised within
    /// ±[`LINE_FUZZ`] lines, and the scan fails unless it is exact.
    pub line: Option<u32>,
    /// FNV-1a hash (16 hex digits) of the whitespace-normalized source
    /// line the finding sits on — the content key that survives
    /// unrelated edits shifting line numbers.
    pub snippet_hash: Option<String>,
    /// Why this finding is acceptable. Required: an empty
    /// justification fails the scan.
    pub justification: String,
}

impl AllowEntry {
    /// Does this entry suppress `f`?
    pub fn matches(&self, f: &Finding) -> bool {
        if self.lint != f.lint {
            return false;
        }
        let path_ok = match self.path.strip_suffix('*') {
            Some(prefix) => f.path.starts_with(prefix),
            None => f.path == self.path,
        };
        if !path_ok {
            return false;
        }
        match &self.snippet_hash {
            // Content key: hash must match, the line anchor (if any)
            // within the window that recognises it.
            Some(h) => {
                *h == snippet_hash(&f.snippet)
                    && self.line.is_none_or(|l| l.abs_diff(f.line) <= LINE_FUZZ)
            }
            // Whole file (a bare `line` is rejected when parsing).
            None => self.line.is_none(),
        }
    }

    /// Short description for stale/unjustified messages.
    pub fn describe(&self) -> String {
        match self.line {
            Some(l) => format!("[{}] {}:{l}", self.lint, self.path),
            None => format!("[{}] {}", self.lint, self.path),
        }
    }
}

/// FNV-1a (64-bit) over the whitespace-normalized snippet — the same
/// hash the checkpoint fingerprints use, rendered as 16 hex digits.
/// Normalization trims the line and collapses internal whitespace
/// runs, so re-indentation does not re-key the baseline either.
pub fn snippet_hash(snippet: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut pending_space = false;
    for part in snippet.split_whitespace() {
        if pending_space {
            h ^= u64::from(b' ');
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        for &b in part.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        pending_space = true;
    }
    format!("{h:016x}")
}

/// Parsed `analyze.toml`.
#[derive(Debug, Default)]
pub struct AnalyzeConfig {
    /// Per-lint severity overrides from `[severity]`.
    pub severity: BTreeMap<String, Severity>,
    /// Baseline entries from `[[allow]]`.
    pub allow: Vec<AllowEntry>,
}

impl AnalyzeConfig {
    /// Parses the config text.
    ///
    /// # Errors
    /// A `line N: ...` message for the first malformed construct.
    pub fn from_toml(text: &str) -> Result<AnalyzeConfig, String> {
        let mut cfg = AnalyzeConfig::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let n = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                let name = name.trim();
                if name != "allow" {
                    return Err(format!("line {n}: unknown array of tables [[{name}]]"));
                }
                cfg.allow.push(AllowEntry {
                    lint: String::new(),
                    path: String::new(),
                    line: None,
                    snippet_hash: None,
                    justification: String::new(),
                });
                section = "allow".into();
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let name = name.trim();
                if name != "severity" {
                    return Err(format!("line {n}: unknown section [{name}]"));
                }
                section = name.into();
                continue;
            }
            let (key, value) = split_key_value(line)
                .ok_or_else(|| format!("line {n}: expected `key = value`, got `{line}`"))?;
            match section.as_str() {
                "severity" => {
                    let sev = value
                        .as_str()
                        .and_then(Severity::parse)
                        .ok_or_else(|| format!("line {n}: severity must be allow|warn|deny"))?;
                    cfg.severity.insert(key.to_string(), sev);
                }
                "allow" => {
                    let entry = cfg
                        .allow
                        .last_mut()
                        .ok_or_else(|| format!("line {n}: key outside [[allow]]"))?;
                    match key {
                        "lint" => {
                            entry.lint = value
                                .as_str()
                                .ok_or_else(|| format!("line {n}: lint must be a string"))?
                                .to_string();
                        }
                        "path" => {
                            entry.path = value
                                .as_str()
                                .ok_or_else(|| format!("line {n}: path must be a string"))?
                                .to_string();
                        }
                        "line" => {
                            entry.line = Some(
                                value
                                    .as_int()
                                    .ok_or_else(|| format!("line {n}: line must be an integer"))?,
                            );
                        }
                        "snippet_hash" => {
                            let h = value.as_str().ok_or_else(|| {
                                format!("line {n}: snippet_hash must be a string")
                            })?;
                            if h.len() != 16 || !h.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(format!(
                                    "line {n}: snippet_hash must be 16 hex digits"
                                ));
                            }
                            entry.snippet_hash = Some(h.to_ascii_lowercase());
                        }
                        "justification" => {
                            entry.justification = value
                                .as_str()
                                .ok_or_else(|| format!("line {n}: justification must be a string"))?
                                .to_string();
                        }
                        other => {
                            return Err(format!("line {n}: unknown [[allow]] key `{other}`"));
                        }
                    }
                }
                _ => return Err(format!("line {n}: key `{key}` outside any section")),
            }
        }
        for e in &cfg.allow {
            if e.lint.is_empty() || e.path.is_empty() {
                return Err(format!(
                    "[[allow]] entry needs both `lint` and `path` (got {})",
                    e.describe()
                ));
            }
            if e.line.is_some() && e.snippet_hash.is_none() {
                return Err(format!(
                    "[[allow]] entry {} has a `line` but no `snippet_hash` (run `dck lint baseline`)",
                    e.describe()
                ));
            }
        }
        Ok(cfg)
    }

    /// Renders `[[allow]]` entries for `findings` — the starting point
    /// for a new baseline, keyed by content hash with the line as a
    /// fuzzy anchor. Justifications are left empty on purpose: the
    /// scan refuses them until a human writes the reason down.
    pub fn baseline_toml(findings: &[Finding]) -> String {
        let mut out = String::new();
        for f in findings {
            out.push_str("[[allow]]\n");
            out.push_str(&format!("lint = \"{}\"\n", f.lint));
            out.push_str(&format!("path = \"{}\"\n", f.path));
            out.push_str(&format!("line = {}\n", f.line));
            out.push_str(&format!(
                "snippet_hash = \"{}\"\n",
                snippet_hash(&f.snippet)
            ));
            out.push_str("justification = \"\"\n\n");
        }
        out
    }
}

/// A parsed scalar value.
enum Value {
    Str(String),
    Int(i64),
    Bool(#[allow(dead_code)] bool),
}

impl Value {
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_int(&self) -> Option<u32> {
        match self {
            Value::Int(i) => u32::try_from(*i).ok(),
            _ => None,
        }
    }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits `key = value`, parsing the value as string/int/bool.
fn split_key_value(line: &str) -> Option<(&str, Value)> {
    let eq = line.find('=')?;
    let key = line[..eq].trim();
    let raw = line[eq + 1..].trim();
    if key.is_empty() || raw.is_empty() {
        return None;
    }
    let value = if let Some(stripped) = raw.strip_prefix('"') {
        let body = stripped.strip_suffix('"')?;
        let mut s = String::with_capacity(body.len());
        let mut escaped = false;
        for c in body.chars() {
            if escaped {
                s.push(match c {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else {
                s.push(c);
            }
        }
        Value::Str(s)
    } else if raw == "true" {
        Value::Bool(true)
    } else if raw == "false" {
        Value::Bool(false)
    } else {
        Value::Int(raw.parse().ok()?)
    };
    Some((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# severity overrides
[severity]
slice-index = "allow"   # trailing comment
float-eq = "deny"

[[allow]]
lint = "panic-safety"
path = "crates/simcore/src/par.rs"
justification = "worker panics must propagate"

[[allow]]
lint = "sentinel-value"
path = "crates/core/src/opt.rs"
line = 91
snippet_hash = "04dd9e0f97a73a61"
justification = "minimizer-internal +inf, never escapes"
"#;

    #[test]
    fn parses_sections_and_arrays() {
        let cfg = AnalyzeConfig::from_toml(SAMPLE).unwrap();
        assert_eq!(cfg.severity["slice-index"], Severity::Allow);
        assert_eq!(cfg.severity["float-eq"], Severity::Deny);
        assert_eq!(cfg.allow.len(), 2);
        assert_eq!(cfg.allow[0].line, None);
        assert_eq!(cfg.allow[1].line, Some(91));
        assert!(cfg.allow[1].justification.contains("minimizer"));
    }

    #[test]
    fn entry_matching_exact_prefix_and_line() {
        let f = Finding {
            lint: "panic-safety".into(),
            severity: Severity::Deny,
            path: "crates/experiments/src/validate.rs".into(),
            line: 10,
            col: 1,
            message: String::new(),
            snippet: String::new(),
        };
        let mut e = AllowEntry {
            lint: "panic-safety".into(),
            path: "crates/experiments/*".into(),
            line: None,
            snippet_hash: None,
            justification: "x".into(),
        };
        assert!(e.matches(&f));
        e.path = "crates/experiments/src/validate.rs".into();
        assert!(e.matches(&f));
        // A line anchor needs the content key beside it.
        e.line = Some(10);
        assert!(!e.matches(&f));
        e.snippet_hash = Some(snippet_hash(""));
        assert!(e.matches(&f));
        e.line = Some(10 + LINE_FUZZ + 1);
        assert!(!e.matches(&f));
        e.line = Some(10);
        e.lint = "float-eq".into();
        assert!(!e.matches(&f));
    }

    #[test]
    fn rejects_unknown_constructs() {
        assert!(AnalyzeConfig::from_toml("[lints]\nx = \"deny\"").is_err());
        assert!(AnalyzeConfig::from_toml("[severity]\nx = \"fatal\"").is_err());
        assert!(AnalyzeConfig::from_toml("[[allow]]\nbogus = 1").is_err());
        assert!(AnalyzeConfig::from_toml("loose = 1").is_err());
        assert!(
            AnalyzeConfig::from_toml("[[allow]]\nlint = \"x\"").is_err(),
            "path required"
        );
    }

    #[test]
    fn baseline_emission_round_trips() {
        let f = Finding {
            lint: "panic-safety".into(),
            severity: Severity::Deny,
            path: "crates/x/src/a.rs".into(),
            line: 7,
            col: 2,
            message: String::new(),
            snippet: String::new(),
        };
        let toml = AnalyzeConfig::baseline_toml(std::slice::from_ref(&f));
        let cfg = AnalyzeConfig::from_toml(&toml).unwrap();
        assert_eq!(cfg.allow.len(), 1);
        assert!(cfg.allow[0].matches(&f));
        assert!(cfg.allow[0].justification.is_empty(), "human must fill it");
    }

    #[test]
    fn snippet_hash_normalizes_whitespace() {
        assert_eq!(
            snippet_hash("  x .unwrap( ) ; "),
            snippet_hash("x .unwrap( ) ;"),
            "leading/trailing whitespace is ignored"
        );
        assert_eq!(
            snippet_hash("let a\t=  b;"),
            snippet_hash("let a = b;"),
            "internal runs collapse to one space"
        );
        assert_ne!(snippet_hash("let a = b;"), snippet_hash("let a = c;"));
        assert_eq!(snippet_hash("x").len(), 16);
    }

    #[test]
    fn hash_keyed_entry_matches_fuzzily_by_content() {
        let f = |line: u32, snippet: &str| Finding {
            lint: "panic-safety".into(),
            severity: Severity::Deny,
            path: "crates/x/src/a.rs".into(),
            line,
            col: 1,
            message: String::new(),
            snippet: snippet.into(),
        };
        let e = AllowEntry {
            lint: "panic-safety".into(),
            path: "crates/x/src/a.rs".into(),
            line: Some(100),
            snippet_hash: Some(snippet_hash("cfg.build().expect(\"validated\");")),
            justification: "x".into(),
        };
        // Same content, shifted by < LINE_FUZZ: still recognised (the
        // scan then fails on the drift, see tests/baseline_rekey.rs).
        assert!(e.matches(&f(100, "cfg.build().expect(\"validated\");")));
        assert!(e.matches(&f(109, "  cfg.build().expect(\"validated\");")));
        assert!(e.matches(&f(91, "cfg.build().expect(\"validated\");")));
        // Outside the window, or different content: not suppressed.
        assert!(!e.matches(&f(111, "cfg.build().expect(\"validated\");")));
        assert!(!e.matches(&f(100, "other.unwrap();")));
    }

    #[test]
    fn hash_without_anchor_matches_anywhere_in_file() {
        let e = AllowEntry {
            lint: "panic-safety".into(),
            path: "crates/x/src/a.rs".into(),
            line: None,
            snippet_hash: Some(snippet_hash("boom.unwrap();")),
            justification: "x".into(),
        };
        let f = Finding {
            lint: "panic-safety".into(),
            severity: Severity::Deny,
            path: "crates/x/src/a.rs".into(),
            line: 4242,
            col: 1,
            message: String::new(),
            snippet: "boom.unwrap();".into(),
        };
        assert!(e.matches(&f));
    }

    #[test]
    fn a_line_needs_a_snippet_hash() {
        let err = AnalyzeConfig::from_toml(
            "[[allow]]\nlint = \"x\"\npath = \"y\"\nline = 7\njustification = \"j\"",
        )
        .unwrap_err();
        assert!(
            err.contains("[x] y:7") && err.contains("snippet_hash"),
            "{err}"
        );
        let with_hash = AnalyzeConfig::from_toml(
            "[[allow]]\nlint = \"x\"\npath = \"y\"\nline = 7\nsnippet_hash = \"0123456789abcDEF\"\njustification = \"j\"",
        )
        .unwrap();
        assert_eq!(
            with_hash.allow[0].snippet_hash.as_deref(),
            Some("0123456789abcdef"),
            "hash is case-normalized"
        );
        assert!(AnalyzeConfig::from_toml(
            "[[allow]]\nlint = \"x\"\npath = \"y\"\nsnippet_hash = \"xyz\"\njustification = \"j\"",
        )
        .is_err());
        let whole_file = AnalyzeConfig::from_toml(
            "[[allow]]\nlint = \"x\"\npath = \"y\"\njustification = \"j\"",
        )
        .unwrap();
        assert_eq!(whole_file.allow[0].line, None);
    }

    #[test]
    fn baseline_emission_uses_the_hash_key() {
        let f = Finding {
            lint: "panic-safety".into(),
            severity: Severity::Deny,
            path: "crates/x/src/a.rs".into(),
            line: 7,
            col: 2,
            message: String::new(),
            snippet: "v.unwrap();".into(),
        };
        let toml = AnalyzeConfig::baseline_toml(std::slice::from_ref(&f));
        assert!(toml.contains(&format!(
            "snippet_hash = \"{}\"",
            snippet_hash("v.unwrap();")
        )));
        let cfg = AnalyzeConfig::from_toml(&toml).unwrap();
        assert!(cfg.allow[0].matches(&f));
        assert_eq!(cfg.allow[0].line, Some(f.line));
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = AnalyzeConfig::from_toml(
            "[[allow]]\nlint = \"x\"\npath = \"y\"\njustification = \"uses # inside\"",
        )
        .unwrap();
        assert_eq!(cfg.allow[0].justification, "uses # inside");
    }
}
