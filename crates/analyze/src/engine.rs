//! The scan driver: walk the workspace, run every per-file lint, then
//! build the symbol index + call graph once and run the workspace
//! lints over them, apply the config's severity overrides and
//! justified baseline, and produce a [`Report`].

use crate::callgraph::CallGraph;
use crate::config::AnalyzeConfig;
use crate::diagnostics::{Finding, Report, Severity};
use crate::lints::{registry, workspace_registry};
use crate::symbols::SymbolIndex;
use crate::walker::walk_workspace;
use std::path::Path;

/// Scans the workspace under `root` with `config`.
///
/// # Errors
/// An I/O error message naming the path that failed.
pub fn scan(root: &Path, config: &AnalyzeConfig) -> Result<Report, String> {
    let ws = walk_workspace(root)?;
    let lints = registry();
    let mut findings: Vec<Finding> = Vec::new();
    for file in &ws.files {
        for lint in &lints {
            lint.check(file, &mut findings);
        }
    }
    // Workspace pass: one index + graph build shared by every
    // inter-procedural lint.
    let index = SymbolIndex::build(&ws);
    let graph = CallGraph::build(&ws, &index);
    for lint in workspace_registry() {
        lint.check(&ws, &index, &graph, &mut findings);
    }
    // Config severity overrides, then drop allow-severity findings.
    for f in &mut findings {
        if let Some(&sev) = config.severity.get(&f.lint) {
            f.severity = sev;
        }
    }
    findings.retain(|f| f.severity != Severity::Allow);
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.lint).cmp(&(&b.path, b.line, b.col, &b.lint)));

    // Baseline: suppress matching findings and track, per entry, the
    // first line it matched and whether an anchored entry matched any
    // finding on its anchor line (else it has drifted).
    let mut uses: Vec<Option<(u32, bool)>> = vec![None; config.allow.len()];
    let mut suppressed = 0usize;
    findings.retain(|f| {
        let mut hit = false;
        for (entry, used) in config.allow.iter().zip(uses.iter_mut()) {
            if entry.matches(f) {
                let on_anchor = entry.line.is_none_or(|l| l == f.line);
                let (_, anchored) = used.get_or_insert((f.line, false));
                *anchored |= on_anchor;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        }
        !hit
    });
    let drifted_allows = config
        .allow
        .iter()
        .zip(&uses)
        .filter_map(|(e, used)| match used {
            Some((line, false)) => Some(format!("{} now sits on line {line}", e.describe())),
            _ => None,
        })
        .collect();
    let stale_allows = config
        .allow
        .iter()
        .zip(&uses)
        .filter(|(_, used)| used.is_none())
        .map(|(e, _)| e.describe())
        .collect();
    let unjustified_allows = config
        .allow
        .iter()
        .filter(|e| e.justification.trim().is_empty())
        .map(|e| e.describe())
        .collect();

    Ok(Report {
        findings,
        files_scanned: ws.files.len(),
        suppressed,
        stale_allows,
        unjustified_allows,
        drifted_allows,
        unresolved_mods: ws.unresolved_mods,
    })
}

/// Builds and renders the resolved call graph for `dck lint --graph`.
///
/// # Errors
/// An I/O error message naming the path that failed.
pub fn dump_call_graph(root: &Path) -> Result<String, String> {
    let ws = walk_workspace(root)?;
    let index = SymbolIndex::build(&ws);
    let graph = CallGraph::build(&ws, &index);
    Ok(graph.dump(&ws, &index))
}

/// Loads `analyze.toml` from `root` (an absent file is an empty
/// config) and scans.
///
/// # Errors
/// A config-parse or I/O error message.
pub fn scan_with_config_file(root: &Path) -> Result<Report, String> {
    let config_path = root.join("analyze.toml");
    let config = match std::fs::read_to_string(&config_path) {
        Ok(text) => AnalyzeConfig::from_toml(&text)
            .map_err(|e| format!("{}: {e}", config_path.display()))?,
        Err(_) => AnalyzeConfig::default(),
    };
    scan(root, &config)
}
