//! Panic reachability and lock discipline — the two inter-procedural
//! lints that pin the PR-5 containment contract and the PR-7
//! "compute misses outside the lock" invariant.
//!
//! **panic-reachability** starts from every closure root the call
//! graph collected (`parallel_for_ordered` / `parallel_map_fold` work
//! units, `thread::spawn` / `scope.spawn` closures) and searches callee
//! edges, tracking whether a `catch_unwind` sits on the path. A
//! transitive `unwrap`/`expect`/`panic!`/`unreachable!` site is
//! *contained* when every path to it crosses a guard (work-unit roots
//! are contained by construction — `simcore::par` wraps unit
//! execution), *escaping* otherwise. An
//! escaping panic site denies; a contained one warns. Escaping
//! indexing sites warn, aggregated one-per-function; contained
//! indexing is left to the per-file `slice-index` inventory.
//!
//! **lock-discipline** finds `.lock()` calls whose guard is live —
//! let-bound to end of block, bound by `if let`/`while let`/`match`
//! into the following block, or a temporary alive for the rest of the
//! statement — and denies any call under the guard that can reach
//! compute (`run_sweep*`, `estimate_*`): the fns a search over caller
//! edges from those entry points reaches. `.lock().ok().and_then(...)`
//! accessor chains are scanned only to their statement end, which is
//! exactly the scope the guard temporary lives for.

use crate::callgraph::{catch_unwind_ranges, CallGraph, Direction, RootKind};
use crate::diagnostics::{Finding, Severity};
use crate::lexer::{matching_punct, next_code, prev_code, Token, TokenKind};
use crate::lints::{panic_site, Explanation, PanicKind, WorkspaceLint};
use crate::symbols::SymbolIndex;
use crate::walker::{Context, SourceFile, Workspace};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// panic-reachability
// ---------------------------------------------------------------------

/// The workspace panic-reachability lint.
pub struct PanicReachability;

/// One potential panic site inside a fn body.
struct PanicSite {
    fn_id: usize,
    file: usize,
    tok: usize,
    line: u32,
    col: u32,
    kind: PanicKind,
    label: String,
}

/// How a root reaches a fn (or site): with or without a guard on the
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    Contained,
    Escaping,
}

impl WorkspaceLint for PanicReachability {
    fn name(&self) -> &'static str {
        "panic-reachability"
    }
    fn description(&self) -> &'static str {
        "panic sites transitively reachable from pool work units or spawned threads, contained-vs-escaping"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "PR-5's containment contract is that a panicking work unit is caught \
                        by catch_unwind inside simcore::par, retried once in place, and surfaces as \
                        a typed PoolError — but that only holds for panics raised *inside* \
                        the work-unit closure. A panic site reachable from a spawned thread \
                        with no catch_unwind on the path tears the worker down and, under \
                        std::thread::scope, re-raises at join. This lint walks the call \
                        graph from every closure root and reports each transitive panic \
                        site, saying whether the PR-5 guard actually covers it.",
            bad: "scope.spawn(|| handle(conn.unwrap()));  // an Err tears down the worker",
            good: "scope.spawn(|| { let _ = catch_unwind(AssertUnwindSafe(|| handle_checked(conn))); });",
        }
    }
    fn check(
        &self,
        ws: &Workspace,
        index: &SymbolIndex,
        graph: &CallGraph,
        findings: &mut Vec<Finding>,
    ) {
        let sites = collect_panic_sites(ws, index);
        let mut by_fn: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in sites.iter().enumerate() {
            by_fn.entry(s.fn_id).or_default().push(i);
        }
        // Per site: the strongest reach over every root, with the root
        // description and fn-chain that achieved it.
        let mut reached: BTreeMap<usize, (Reach, String, Vec<usize>)> = BTreeMap::new();
        for root in &graph.roots {
            let root_contained = root.kind == RootKind::WorkUnit;
            let owner = root
                .caller
                .map(|c| index.fns[c].qual())
                .unwrap_or_else(|| "<top level>".into());
            let what = match root.kind {
                RootKind::WorkUnit => "work unit",
                RootKind::Thread => "thread",
            };
            let desc = format!(
                "{what} spawned in `{owner}` ({}:{})",
                ws.files[root.file].rel, root.line
            );
            // Sites lexically inside the closure argument itself.
            let guards = catch_unwind_ranges(&ws.files[root.file].tokens);
            for (si, s) in sites.iter().enumerate() {
                if s.file == root.file && root.range.0 <= s.tok && s.tok <= root.range.1 {
                    let guarded =
                        root_contained || guards.iter().any(|&(a, b)| a <= s.tok && s.tok <= b);
                    record(&mut reached, si, reach_of(guarded), &desc, vec![]);
                }
            }
            // Search from the first hops out of the closure; only edges
            // out of the *enclosing* fn count, as the closure body is
            // attributed to it. The tag is "escaping": no guard yet.
            let starts = graph
                .edges_in_range(root.file, root.range)
                .into_iter()
                .map(|ei| &graph.edges[ei])
                .filter(|e| root.caller.is_none() || Some(e.caller) == root.caller)
                .map(|e| (e.callee, !root_contained && !e.guarded));
            let walk = graph.search(index, Direction::Callees, starts, |esc, e| {
                esc && !e.guarded
            });
            for &(f, esc) in &walk.order {
                if let Some(site_ids) = by_fn.get(&f) {
                    let chain = walk.chain((f, esc));
                    for &si in site_ids {
                        record(&mut reached, si, reach_of(!esc), &desc, chain.clone());
                    }
                }
            }
        }
        emit_panic_findings(self, ws, index, &sites, &reached, findings);
    }
}

fn reach_of(guarded: bool) -> Reach {
    if guarded {
        Reach::Contained
    } else {
        Reach::Escaping
    }
}

/// Keeps the strongest (escaping beats contained) reach per site.
fn record(
    reached: &mut BTreeMap<usize, (Reach, String, Vec<usize>)>,
    si: usize,
    r: Reach,
    desc: &str,
    chain: Vec<usize>,
) {
    let stronger = match reached.get(&si) {
        None => true,
        Some((cur, _, _)) => *cur == Reach::Contained && r == Reach::Escaping,
    };
    if stronger {
        reached.insert(si, (r, desc.to_string(), chain));
    }
}

fn emit_panic_findings(
    lint: &PanicReachability,
    ws: &Workspace,
    index: &SymbolIndex,
    sites: &[PanicSite],
    reached: &BTreeMap<usize, (Reach, String, Vec<usize>)>,
    findings: &mut Vec<Finding>,
) {
    // Escaping indexing aggregates one finding per fn.
    let mut index_seen: BTreeMap<usize, usize> = BTreeMap::new();
    for (&si, (reach, _, _)) in reached.iter() {
        if sites[si].kind == PanicKind::Index && *reach == Reach::Escaping {
            *index_seen.entry(sites[si].fn_id).or_insert(0) += 1;
        }
    }
    let mut index_emitted: BTreeMap<usize, bool> = BTreeMap::new();
    let mut ordered: Vec<usize> = reached.keys().copied().collect();
    ordered.sort_by_key(|&si| {
        (
            ws.files[sites[si].file].rel.clone(),
            sites[si].line,
            sites[si].col,
        )
    });
    for si in ordered {
        let (reach, desc, chain) = &reached[&si];
        let s = &sites[si];
        let via = if chain.is_empty() {
            "directly in the closure body".to_string()
        } else {
            format!(
                "via {}",
                chain
                    .iter()
                    .map(|&f| index.fns[f].qual())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            )
        };
        let (severity, verdict) = match (s.kind, reach) {
            (PanicKind::Index, Reach::Contained) => continue, // slice-index inventories these
            (PanicKind::Index, Reach::Escaping) => {
                if index_emitted.insert(s.fn_id, true).is_some() {
                    continue;
                }
                (Severity::Warn, "no catch_unwind on the path")
            }
            (_, Reach::Escaping) => (Severity::Deny, "no catch_unwind on the path"),
            (_, Reach::Contained) if desc.starts_with("work unit") => (
                Severity::Warn,
                "contained by catch_unwind (retried once in place, then a typed PoolError)",
            ),
            (_, Reach::Contained) => (
                Severity::Warn,
                "contained by catch_unwind (the thread survives the panic)",
            ),
        };
        let extra = if s.kind == PanicKind::Index {
            let n = index_seen.get(&s.fn_id).copied().unwrap_or(1);
            if n > 1 {
                format!(" ({n} indexing sites in this fn)")
            } else {
                String::new()
            }
        } else {
            String::new()
        };
        let message = format!(
            "{} in `{}` is reachable from {} {}; {}{}",
            s.label,
            index.fns[s.fn_id].qual(),
            desc,
            via,
            verdict,
            extra
        );
        let file = &ws.files[s.file];
        findings.push(Finding::new(
            lint.name(),
            severity,
            file,
            s.line,
            s.col,
            message,
        ));
    }
}

/// Every `.unwrap()`/`.expect(`/`panic!`/`unreachable!`/indexing site
/// inside an indexed fn body.
fn collect_panic_sites(ws: &Workspace, index: &SymbolIndex) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for (fn_id, f) in index.fns.iter().enumerate() {
        let Some((a, b)) = f.body else { continue };
        let file = &ws.files[f.file];
        let code = file.live_code(a..b + 1);
        for (k, &i) in code.iter().enumerate() {
            let Some(kind) = panic_site(&file.tokens, &code, k) else {
                continue;
            };
            let t = &file.tokens[i];
            let label = match kind {
                PanicKind::Call => format!("`.{}()`", t.text),
                PanicKind::Macro => format!("`{}!`", t.text),
                PanicKind::Index => "bracket indexing".to_string(),
            };
            out.push(PanicSite {
                fn_id,
                file: f.file,
                tok: i,
                line: t.line,
                col: t.col,
                kind,
                label,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------

/// The workspace lock-discipline lint.
pub struct LockDiscipline;

impl WorkspaceLint for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }
    fn description(&self) -> &'static str {
        "call that reaches compute (run_sweep*/estimate_*) while a MutexGuard from .lock() is live"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "PR-7's serve cache computes misses *outside* the CellCache mutex: \
                        the guard is taken twice, briefly — once to probe, once to insert — \
                        so a multi-second Monte-Carlo sweep never serialises every other \
                        worker behind the lock. Holding any MutexGuard across a call into \
                        compute re-introduces exactly that convoy; this lint finds .lock() \
                        guards (let-bound, if/while-let-bound, match-bound, or statement \
                        temporaries) and denies calls under them that can reach \
                        run_sweep*/estimate_*.",
            bad: "let mut c = cache.lock().unwrap();\nlet cell = run_sweep_cell(&spec);  // computed under the lock\nc.insert(key, cell);",
            good: "let hit = cache.lock().ok().and_then(|mut c| c.get(&key));\nlet cell = run_sweep_cell(&spec);  // computed with no guard live\nif let Ok(mut c) = cache.lock() { c.insert(key, cell); }",
        }
    }
    fn check(
        &self,
        ws: &Workspace,
        index: &SymbolIndex,
        graph: &CallGraph,
        findings: &mut Vec<Finding>,
    ) {
        // Fns that are, or can reach, a compute entry point.
        let entries = (0..index.fns.len())
            .filter(|&f| {
                let name = &index.fns[f].name;
                name.starts_with("run_sweep") || name.starts_with("estimate_")
            })
            .map(|f| (f, ()));
        let mut compute = vec![false; index.fns.len()];
        for (f, ()) in graph
            .search(index, Direction::Callers, entries, |(), _| ())
            .order
        {
            compute[f] = true;
        }
        for (fi, file) in ws.files.iter().enumerate() {
            if file.context != Context::Lib {
                continue;
            }
            check_file(self, index, graph, &compute, fi, file, findings);
        }
    }
}

/// How far a `.lock()` guard stays live.
struct GuardScope {
    /// Token range (exclusive of the lock call itself) to scan.
    range: (usize, usize),
    /// Line of the lock call, for the diagnostic.
    line: u32,
}

#[allow(clippy::too_many_arguments)]
fn check_file(
    lint: &LockDiscipline,
    index: &SymbolIndex,
    graph: &CallGraph,
    compute: &[bool],
    fi: usize,
    file: &SourceFile,
    findings: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("lock")) || file.is_exempt(i) {
            continue;
        }
        if !prev_code(toks, i).is_some_and(|p| toks[p].is_punct(".")) {
            continue;
        }
        let Some(open) = next_code(toks, i + 1).filter(|&o| toks[o].is_punct("(")) else {
            continue;
        };
        let Some(close) = matching_punct(toks, open, "(", ")") else {
            continue;
        };
        let Some(scope) = guard_scope(toks, i, close) else {
            continue;
        };
        // Any call edge inside the scope whose callee reaches compute.
        for e in graph.edges.iter() {
            if e.file != fi || e.tok <= scope.range.0 || e.tok > scope.range.1 {
                continue;
            }
            if !compute[e.callee] {
                continue;
            }
            let message = format!(
                "`{}` reaches compute while the MutexGuard from `.lock()` on line {} is still live; compute misses outside the lock, then re-lock to insert",
                index.fns[e.callee].qual(),
                scope.line
            );
            let severity = lint.default_severity();
            findings.push(Finding::new(
                lint.name(),
                severity,
                file,
                e.line,
                e.col,
                message,
            ));
        }
    }
}

/// Determines the live range of the guard produced by the `.lock()`
/// whose name token is at `lock_idx` and closing paren at `close`.
///
/// Returns `None` when no scope could be established (malformed code).
fn guard_scope(toks: &[Token], lock_idx: usize, close: usize) -> Option<GuardScope> {
    let line = toks[lock_idx].line;
    // Walk the forward method chain: `.unwrap()`, `.expect(...)` and
    // `?` pass the guard through; any other method (`.ok()`,
    // `.and_then(...)`, ...) consumes it into a non-guard value, so a
    // `let` binding after such a chain binds that value, not the
    // guard — the guard is then a temporary alive only to the end of
    // the statement.
    let mut j = close;
    let mut consumed = false;
    while let Some(n) = next_code(toks, j + 1) {
        if toks[n].is_punct("?") {
            j = n;
            continue;
        }
        if toks[n].is_punct(".") {
            let Some(m) = next_code(toks, n + 1) else {
                break;
            };
            if toks[m].is_ident("unwrap") || toks[m].is_ident("expect") {
                if let Some(o) = next_code(toks, m + 1) {
                    if toks[o].is_punct("(") {
                        if let Some(c2) = matching_punct(toks, o, "(", ")") {
                            j = c2;
                            continue;
                        }
                    }
                }
            }
            consumed = true;
            break;
        }
        break;
    }
    // Statement end: first `;` after the lock call at delimiter depth
    // relative zero (brace bodies of `match` skipped via depth).
    let stmt_end = forward_stmt_end(toks, close + 1);
    if consumed {
        return Some(GuardScope {
            range: (close, stmt_end),
            line,
        });
    }
    // Statement start form: scan backwards for the nearest `;`/`{`/`}`
    // at relative depth 0, then classify the first code tokens.
    let (form_start, boundary) = backward_stmt_start(toks, lock_idx)?;
    let first = next_code(toks, form_start).filter(|&j| j < lock_idx)?;
    let second = next_code(toks, first + 1).filter(|&j| j < lock_idx);
    let is_let = toks[first].is_ident("let");
    let is_if_while_let = (toks[first].is_ident("if") || toks[first].is_ident("while"))
        && second.is_some_and(|s| toks[s].is_ident("let"));
    let is_match =
        toks[first].is_ident("match") || (form_start..lock_idx).any(|j| toks[j].is_ident("match"));
    if is_if_while_let || (is_match && !is_let) {
        // Guard lives for the `{ ... }` that follows the condition /
        // scrutinee.
        let body_open = (close + 1..toks.len()).find(|&j| toks[j].is_punct("{"))?;
        let body_close = matching_punct(toks, body_open, "{", "}")?;
        return Some(GuardScope {
            range: (body_open, body_close),
            line,
        });
    }
    if is_let {
        // Bound until the end of the enclosing block.
        let block_close = enclosing_block_close(toks, boundary, lock_idx)?;
        return Some(GuardScope {
            range: (close, block_close),
            line,
        });
    }
    // Temporary: lives to the end of the statement.
    Some(GuardScope {
        range: (close, stmt_end),
        line,
    })
}

/// First `;` at relative depth 0 after `from` (or the last token).
fn forward_stmt_end(toks: &[Token], from: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return j;
                    }
                }
                ";" if depth == 0 => return j,
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Nearest statement boundary before `i` at relative depth 0; returns
/// (first token index after the boundary, boundary index).
fn backward_stmt_start(toks: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    for j in (0..i).rev() {
        let t = &toks[j];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" => depth -= 1,
            "{" => {
                if depth == 0 {
                    return Some((j + 1, j));
                }
                depth -= 1;
            }
            ";" if depth == 0 => return Some((j + 1, j)),
            _ => {}
        }
        if depth < 0 {
            return Some((j + 1, j));
        }
    }
    Some((0, 0))
}

/// The close brace of the block enclosing `i`, found by resuming the
/// backward scan from the statement boundary until the unmatched `{`.
fn enclosing_block_close(toks: &[Token], boundary: usize, i: usize) -> Option<usize> {
    let mut depth = 0i32;
    for j in (0..=boundary.min(i)).rev() {
        let t = &toks[j];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" => depth -= 1,
            "{" => {
                if depth == 0 {
                    return matching_punct(toks, j, "{", "}");
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::run_workspace_lint;

    fn run_reach(src: &str) -> Vec<Finding> {
        run_workspace_lint(&PanicReachability, src)
    }

    fn run_lock(src: &str) -> Vec<Finding> {
        run_workspace_lint(&LockDiscipline, src)
    }

    #[test]
    fn escaping_thread_panic_denies_contained_pool_panic_warns() {
        let src = "fn risky(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn threaded(s: &S) { s.spawn(|| risky(None)); }\n\
                   fn pooled() { parallel_for_ordered(0, 1, |i| risky(None), |_, _| {}); }";
        let hits = run_reach(src);
        assert_eq!(hits.len(), 1, "one site, strongest reach wins: {hits:?}");
        assert_eq!(hits[0].severity, Severity::Deny);
        assert!(hits[0].message.contains("no catch_unwind"));
        assert!(hits[0].message.contains("x::risky"));
    }

    #[test]
    fn pool_only_reach_is_contained_warn() {
        let src = "fn risky(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn pooled() { parallel_map_fold(0, 1, |i| risky(None)); }";
        let hits = run_reach(src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Warn);
        assert!(hits[0].message.contains("contained by catch_unwind"));
    }

    #[test]
    fn catch_unwind_inside_the_thread_contains() {
        let src = "fn risky() { panic!(\"boom\") }\n\
                   fn threaded(s: &S) { s.spawn(|| { let _ = catch_unwind(AssertUnwindSafe(|| risky())); }); }";
        let hits = run_reach(src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Warn, "{hits:?}");
    }

    #[test]
    fn unreached_panic_sites_are_not_reported() {
        let src = "fn risky() { panic!(\"boom\") }\nfn plain() { risky(); }";
        assert!(
            run_reach(src).is_empty(),
            "no closure root, no reachability"
        );
    }

    #[test]
    fn site_directly_in_closure_body_is_found() {
        let src = "fn threaded(s: &S, x: Option<u8>) { s.spawn(move || { x.unwrap(); }); }";
        let hits = run_reach(src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("directly in the closure body"));
        assert_eq!(hits[0].severity, Severity::Deny);
    }

    #[test]
    fn lock_let_bound_guard_over_compute_denies() {
        let src = "fn run_sweep_cell() -> u8 { 0 }\n\
                   fn bad(cache: &M) {\n  let mut c = cache.lock().unwrap();\n  let v = run_sweep_cell();\n  c.insert(v);\n}";
        let hits = run_lock(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("run_sweep_cell"));
        assert!(hits[0].message.contains("line 3"));
    }

    #[test]
    fn lock_probe_then_compute_outside_is_clean() {
        let src = "fn run_sweep_cell() -> u8 { 0 }\n\
                   fn good(cache: &M) {\n  let hit = cache.lock().ok().and_then(|mut c| c.get(0));\n  let v = run_sweep_cell();\n  if let Ok(mut c) = cache.lock() { c.insert(v); }\n}";
        assert!(run_lock(src).is_empty());
    }

    #[test]
    fn if_let_guard_scope_is_the_following_block() {
        let src = "fn run_sweep_cell() -> u8 { 0 }\n\
                   fn bad(cache: &M) {\n  if let Ok(mut c) = cache.lock() { c.insert(run_sweep_cell()); }\n}";
        let hits = run_lock(src);
        assert_eq!(hits.len(), 1);
        let outside = "fn run_sweep_cell() -> u8 { 0 }\n\
                   fn good(cache: &M) {\n  if let Ok(mut c) = cache.lock() { c.touch(); }\n  run_sweep_cell();\n}";
        assert!(run_lock(outside).is_empty());
    }

    #[test]
    fn match_bound_guard_inner_block_does_not_leak() {
        // The worker_loop shape: guard bound inside an inner block,
        // compute called after the block ends.
        let src = "fn run_sweep_cell() -> u8 { 0 }\n\
                   fn good(rx: &M) {\n  let msg = {\n    let guard = match rx.lock() { Ok(g) => g, Err(_) => return };\n    guard.recv()\n  };\n  run_sweep_cell();\n}";
        assert!(run_lock(src).is_empty(), "guard dies with the inner block");
    }

    #[test]
    fn temporary_guard_compute_in_same_statement_denies() {
        let src = "fn run_sweep_cell() -> u8 { 0 }\n\
                   fn bad(cache: &M) {\n  cache.lock().unwrap().insert(run_sweep_cell());\n}";
        let hits = run_lock(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn guard_over_a_call_reaching_compute_two_hops_away_denies() {
        let src = "fn estimate_waste() -> u8 { 0 }\n\
                   fn middle() -> u8 { estimate_waste() }\n\
                   fn outer() -> u8 { middle() }\n\
                   fn bad(cache: &M) {\n  let mut c = cache.lock().unwrap();\n  c.insert(outer());\n}";
        let hits = run_lock(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.starts_with("`x::outer` reaches compute"));
        assert_eq!(hits[0].line, 6);
    }

    #[test]
    fn guard_over_a_fn_compute_calls_is_clean() {
        // `helper` is a callee of compute, not a caller: reach runs
        // along caller edges from the compute entry points only.
        let src = "fn helper() -> u8 { 0 }\n\
                   fn run_sweep_cell() -> u8 { helper() }\n\
                   fn fine(cache: &M) {\n  let mut c = cache.lock().unwrap();\n  c.insert(helper());\n}";
        assert!(run_lock(src).is_empty());
    }

    #[test]
    fn non_compute_calls_under_guard_are_fine() {
        let src = "fn helper() -> u8 { 0 }\n\
                   fn fine(cache: &M) {\n  let mut c = cache.lock().unwrap();\n  c.insert(helper());\n}";
        assert!(run_lock(src).is_empty());
    }
}
