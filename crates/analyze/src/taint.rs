//! Determinism taint: does a nondeterministic source transitively
//! reach a fingerprinted output surface?
//!
//! The per-file `nondeterminism` lint flags *every* wall-clock or
//! hash-order token; this workspace lint asks the sharper question the
//! replay guarantee actually depends on: is the nondeterminism inside
//! a function that a **sink** — `run_sweep*`, the checkpoint snapshot
//! writers, serve's response encoders — can call? A benchmark
//! timing harness reading `Instant` is noise; the same read inside a
//! function `run_sweep` calls is a broken fingerprint.
//!
//! Sources (token-level, same conservatism as the per-file lint):
//! `Instant`, `SystemTime`, `HashMap`/`HashSet`, `thread::current`,
//! and OS entropy (`thread_rng`, `from_entropy`, `RandomState`,
//! `OsRng`, `getrandom`).
//!
//! The diagnostic carries the full sink→source call path so the
//! reader can audit every hop; one finding per source token, anchored
//! at the source, using the shortest path from the
//! alphabetically-first sink that reaches it.

use crate::callgraph::{CallGraph, Direction};
use crate::diagnostics::{Finding, Severity};
use crate::lexer::TokenKind;
use crate::lints::{Explanation, Source, WorkspaceLint};
use crate::symbols::{FnDef, SymbolIndex};
use crate::walker::Workspace;
use std::collections::BTreeMap;

/// The workspace determinism-taint lint.
pub struct DeterminismTaint;

/// One nondeterministic token inside a fn body.
struct SourceSite {
    fn_id: usize,
    file: usize,
    line: u32,
    col: u32,
    what: &'static str,
    token: String,
}

impl WorkspaceLint for DeterminismTaint {
    fn name(&self) -> &'static str {
        "determinism-taint"
    }
    fn description(&self) -> &'static str {
        "nondeterministic source reachable from a fingerprinted output surface (run_sweep*, snapshot writers, serve encoders)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "Every headline guarantee in this workspace — bit-identical sweeps \
                        across worker counts, checkpoint fingerprints that survive \
                        kill-and-resume, byte-stable serve responses — assumes the value a \
                        sink computes is a pure function of its seeded inputs. A wall-clock \
                        read, hash-order iteration, or OS-entropy draw anywhere in the call \
                        tree below run_sweep*, the snapshot writers, or the serve encoders \
                        silently voids that assumption; the per-file nondeterminism lint \
                        cannot see the call tree, so this lint walks the workspace call \
                        graph and reports the full source-to-sink path.",
            bad: "fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 } // called by run_sweep",
            good: "fn stamp(tick: u64) -> u64 { tick } // caller threads a seeded/logical clock through",
        }
    }
    fn check(
        &self,
        ws: &Workspace,
        index: &SymbolIndex,
        graph: &CallGraph,
        findings: &mut Vec<Finding>,
    ) {
        let sources = collect_sources(ws, index);
        if sources.is_empty() {
            return;
        }
        // fn id -> indices into `sources`.
        let mut by_fn: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in sources.iter().enumerate() {
            by_fn.entry(s.fn_id).or_default().push(i);
        }
        // Per source site: the best (shortest, then first-sink) chain.
        let mut best: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut sinks: Vec<usize> = (0..index.fns.len())
            .filter(|&id| sink_kind(ws, &index.fns[id]).is_some())
            .collect();
        sinks.sort_by_key(|&id| index.fns[id].qual());
        for &sink in &sinks {
            let walk = graph.search(index, Direction::Callees, [(sink, ())], |(), _| ());
            for &s in &walk.order {
                let Some(site_ids) = by_fn.get(&s.0) else {
                    continue;
                };
                let chain = walk.chain(s);
                for &si in site_ids {
                    if best.get(&si).is_none_or(|c| chain.len() < c.len()) {
                        best.insert(si, chain.clone());
                    }
                }
            }
        }
        let mut hits: Vec<(&SourceSite, Vec<usize>)> = best
            .iter()
            .map(|(&si, chain)| (&sources[si], chain.clone()))
            .collect();
        hits.sort_by_key(|(s, _)| (ws.files[s.file].rel.clone(), s.line, s.col));
        for (site, chain) in hits {
            let sink = chain[0];
            let kind = sink_kind(ws, &index.fns[sink]).unwrap_or("output surface");
            let path_str: Vec<String> = chain.iter().map(|&f| index.fns[f].qual()).collect();
            let message = format!(
                "{} `{}` in `{}` is reachable from {} `{}`; call path: {}",
                site.what,
                site.token,
                index.fns[site.fn_id].qual(),
                kind,
                index.fns[sink].qual(),
                path_str.join(" -> "),
            );
            findings.push(Finding::new(
                self.name(),
                self.default_severity(),
                &ws.files[site.file],
                site.line,
                site.col,
                message,
            ));
        }
    }
}

/// What makes `f` a fingerprinted output surface, if anything.
fn sink_kind(ws: &Workspace, f: &FnDef) -> Option<&'static str> {
    if f.name.starts_with("run_sweep") {
        return Some("sweep engine");
    }
    let rel = ws.files[f.file].rel.as_str();
    if rel.ends_with("checkpoint.rs") && (f.name.contains("snapshot") || f.name == "encode") {
        return Some("checkpoint snapshot writer");
    }
    if f.crate_name == "serve"
        && (f.name == "dispatch" || f.name == "answer_line" || f.name.ends_with("_payload"))
    {
        return Some("serve response encoder");
    }
    None
}

/// Nondeterministic tokens inside each indexed fn body.
fn collect_sources(ws: &Workspace, index: &SymbolIndex) -> Vec<SourceSite> {
    let mut out = Vec::new();
    for (fn_id, f) in index.fns.iter().enumerate() {
        let Some((a, b)) = f.body else { continue };
        let file = &ws.files[f.file];
        let toks = &file.tokens;
        let code = file.live_code(a..b + 1);
        for (k, &i) in code.iter().enumerate() {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let (what, token) = match Source::of(&t.text) {
                Some(source) => (source.what(), t.text.clone()),
                // `thread::current()` — thread identity.
                None if t.text == "current"
                    && k >= 2
                    && toks[code[k - 1]].is_punct("::")
                    && toks[code[k - 2]].is_ident("thread") =>
                {
                    ("thread identity", "thread::current".into())
                }
                None => continue,
            };
            out.push(SourceSite {
                fn_id,
                file: f.file,
                line: t.line,
                col: t.col,
                what,
                token,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::run_workspace_lint;

    fn run(src: &str) -> Vec<Finding> {
        run_workspace_lint(&DeterminismTaint, src)
    }

    #[test]
    fn source_reachable_from_sink_is_reported_with_path() {
        let src = "fn stamp() -> u64 { let t = Instant::now(); 0 }\n\
                   fn middle() -> u64 { stamp() }\n\
                   pub fn run_sweep_x() -> u64 { middle() }";
        let hits = run(src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("run_sweep_x"));
        assert!(hits[0]
            .message
            .contains("x::run_sweep_x -> x::middle -> x::stamp"));
        assert_eq!(hits[0].severity, Severity::Deny);
    }

    #[test]
    fn source_not_reachable_from_any_sink_is_quiet() {
        let src = "fn harness() { let t = Instant::now(); run_sweep_x(); }\n\
                   pub fn run_sweep_x() -> u64 { 0 }";
        assert!(run(src).is_empty(), "caller-side timing is not taint");
    }

    #[test]
    fn source_inside_the_sink_itself_fires() {
        let hits = run("pub fn run_sweep_x() -> u64 { let m = HashMap::new(); 0 }");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("hash-order"));
    }

    #[test]
    fn thread_identity_needs_the_qualified_path() {
        let src = "fn current() -> u8 { 1 }\n\
                   pub fn run_sweep_x() -> u8 { current() }";
        assert!(
            run(src).is_empty(),
            "a local fn named current is not thread::current"
        );
        let hits = run("pub fn run_sweep_x() -> u64 { let id = thread::current().id(); 0 }");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("thread identity"));
    }
}
