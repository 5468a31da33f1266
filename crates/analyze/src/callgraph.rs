//! Conservative call graph over the symbol index.
//!
//! Call sites are recognised lexically (`name(`, `path::name(`,
//! `.name(`, with turbofish skipped) and resolved by convention, never
//! by type:
//!
//! * **Qualified** calls (`queries::waste`, `CellCache::get`,
//!   `dck_sim::run_sweep`, `crate::foo`, `Self::new`) keep only the
//!   candidates whose module, `impl` type, or crate matches the
//!   qualifier; a path rooted at `std`/`core`/`alloc` is external and
//!   produces no edge.
//! * **Method** calls (`.name(`) keep only `self`-taking candidates,
//!   preferring ones in the caller's own crate when any exist.
//! * **Bare** calls prefer same-file candidates, then same-crate, then
//!   the whole workspace.
//!
//! Ambiguity keeps *every* surviving candidate (over-approximation);
//! an empty candidate set drops the edge (under-approximation for
//! externals, trait objects, and fn-typed parameters). Both choices
//! are deliberate: downstream lints must not miss a real path through
//! ambiguity, and must not chase `std::mem::take` into a local `take`.
//!
//! Each edge records whether the call token sits lexically inside a
//! `catch_unwind(...)` argument list — the containment boundary the
//! panic-reachability lint distinguishes on. Closures handed to
//! `thread::spawn`/`scope.spawn` and to the `parallel_map_*` pool
//! entry points are collected as [`ClosureRoot`]s: the escape points
//! where a new thread of control starts.

use crate::lexer::{Token, TokenKind};
use crate::symbols::{matching_punct, FnDef, SymbolIndex};
use crate::walker::{Context, SourceFile, Workspace};

/// One resolved call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Calling fn (id into [`SymbolIndex::fns`]).
    pub caller: usize,
    /// Called fn (id into [`SymbolIndex::fns`]).
    pub callee: usize,
    /// File of the call site.
    pub file: usize,
    /// Token index of the callee name at the call site.
    pub tok: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
    /// True when the call token is inside `catch_unwind(...)`.
    pub guarded: bool,
}

/// What kind of thread-of-control a closure root starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// A work-unit closure handed to a `parallel_map_*` pool entry
    /// point; `simcore::par` wraps unit execution in `catch_unwind`.
    WorkUnit,
    /// A closure handed to `thread::spawn`/`scope.spawn`; nothing
    /// contains a panic unless the closure does so itself.
    Thread,
}

/// A closure argument that starts a new thread of control.
#[derive(Debug, Clone)]
pub struct ClosureRoot {
    /// Containment semantics of the spawning primitive.
    pub kind: RootKind,
    /// File of the spawn/pool call site.
    pub file: usize,
    /// Fn enclosing the spawn/pool call site, when attributable.
    pub caller: Option<usize>,
    /// Token range (inclusive) of the spawning call's argument parens;
    /// the closure body lives inside it.
    pub range: (usize, usize),
    /// 1-based line of the spawning call.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Every resolved edge, in deterministic (file, token) order.
    pub edges: Vec<Edge>,
    /// Closure roots (pool work units and spawned threads).
    pub roots: Vec<ClosureRoot>,
    out: Vec<Vec<usize>>,
}

const POOL_ENTRY_POINTS: [&str; 2] = ["parallel_map_indexed", "parallel_map_fold"];

/// Idents that look like calls when followed by `(` but are keywords.
const KEYWORDS: [&str; 18] = [
    "if", "while", "match", "return", "for", "loop", "in", "as", "move", "ref", "let", "else",
    "unsafe", "await", "yield", "fn", "use", "mod",
];

fn is_code(t: &Token) -> bool {
    !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
}

impl CallGraph {
    /// Builds the graph for every library-context file.
    pub fn build(ws: &Workspace, index: &SymbolIndex) -> CallGraph {
        let mut edges = Vec::new();
        let mut roots = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            if file.context != Context::Lib {
                continue;
            }
            scan_file(index, fi, file, &mut edges, &mut roots);
        }
        let mut out = vec![Vec::new(); index.fns.len()];
        for (ei, e) in edges.iter().enumerate() {
            out[e.caller].push(ei);
        }
        CallGraph { edges, roots, out }
    }

    /// Edge ids leaving `caller`.
    pub fn callees(&self, caller: usize) -> &[usize] {
        self.out.get(caller).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Edges whose call site lies inside the token `range` of `file` —
    /// the first hops out of a closure root.
    pub fn edges_in_range(&self, file: usize, range: (usize, usize)) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.file == file && range.0 <= e.tok && e.tok <= range.1)
            .map(|(i, _)| i)
            .collect()
    }

    /// Deterministic text dump for `dck lint --graph`.
    pub fn dump(&self, ws: &Workspace, index: &SymbolIndex) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "# dck-analyze call graph: {} fns, {} edges, {} closure roots\n",
            index.fns.len(),
            self.edges.len(),
            self.roots.len()
        ));
        let mut order: Vec<usize> = (0..index.fns.len()).collect();
        order.sort_by_key(|&i| (index.fns[i].qual(), index.fns[i].line));
        for &fid in &order {
            let f = &index.fns[fid];
            s.push_str(&format!("{} ({})\n", f.qual(), site(ws, f)));
            let mut outs: Vec<&Edge> = self
                .callees(fid)
                .iter()
                .map(|&ei| &self.edges[ei])
                .collect();
            outs.sort_by_key(|e| (index.fns[e.callee].qual(), e.line, e.col));
            for e in outs {
                let callee = &index.fns[e.callee];
                let guard = if e.guarded { " [guarded]" } else { "" };
                s.push_str(&format!(
                    "  -> {} ({}:{}){}\n",
                    callee.qual(),
                    ws.files[e.file].rel,
                    e.line,
                    guard
                ));
            }
        }
        if !self.roots.is_empty() {
            s.push_str("# closure roots\n");
            let mut rs: Vec<&ClosureRoot> = self.roots.iter().collect();
            rs.sort_by_key(|r| (ws.files[r.file].rel.clone(), r.line));
            for r in rs {
                let kind = match r.kind {
                    RootKind::WorkUnit => "work-unit",
                    RootKind::Thread => "thread",
                };
                let owner = r
                    .caller
                    .map(|c| index.fns[c].qual())
                    .unwrap_or_else(|| "<top level>".into());
                s.push_str(&format!(
                    "root [{kind}] in {} at {}:{}\n",
                    owner, ws.files[r.file].rel, r.line
                ));
            }
        }
        s
    }
}

fn site(ws: &Workspace, f: &FnDef) -> String {
    format!("{}:{}", ws.files[f.file].rel, f.line)
}

/// The shape of one recognised call site.
struct CallSite<'a> {
    name: &'a str,
    tok: usize,
    /// Path segments before the name (`["dck_sim"]`, `["std","mem"]`).
    path: Vec<&'a str>,
    is_method: bool,
    paren_open: usize,
}

fn scan_file(
    index: &SymbolIndex,
    fi: usize,
    file: &SourceFile,
    edges: &mut Vec<Edge>,
    roots: &mut Vec<ClosureRoot>,
) {
    let toks = &file.tokens;
    let guard_ranges = catch_unwind_ranges(toks);
    let mut i = 0;
    while i < toks.len() {
        if !is_code(&toks[i]) || toks[i].kind != TokenKind::Ident || file.is_exempt(i) {
            i += 1;
            continue;
        }
        let Some(call) = call_site_at(toks, i) else {
            i += 1;
            continue;
        };
        let caller = index.enclosing_fn(fi, i);
        record_roots(fi, &call, caller, toks, roots);
        if let Some(caller) = caller {
            let guarded = guard_ranges.iter().any(|&(a, b)| a <= i && i <= b);
            for callee in resolve(index, file, fi, caller, &call) {
                edges.push(Edge {
                    caller,
                    callee,
                    file: fi,
                    tok: i,
                    line: toks[i].line,
                    col: toks[i].col,
                    guarded,
                });
            }
        }
        i += 1;
    }
}

/// Parses a call site whose name ident sits at `i`, or `None`.
fn call_site_at(toks: &[Token], i: usize) -> Option<CallSite<'_>> {
    let name = toks[i].text.as_str();
    if KEYWORDS.contains(&name) {
        return None;
    }
    // Definition, not a call.
    if prev_code(toks, i).is_some_and(|p| toks[p].is_ident("fn")) {
        return None;
    }
    // `name(`, `name::<T>(`; `name!` is a macro.
    let mut j = next_code_idx(toks, i + 1)?;
    if toks[j].is_punct("::") {
        // Possible turbofish `::<...>(`.
        let lt = next_code_idx(toks, j + 1)?;
        if !toks[lt].is_punct("<") {
            return None; // longer path — the *last* segment forms the call
        }
        let gt = matching_angle(toks, lt)?;
        j = next_code_idx(toks, gt + 1)?;
    }
    if !toks[j].is_punct("(") {
        return None;
    }
    let paren_open = j;
    // Walk the qualifier chain backwards: `a::b::name` / `.name`.
    let mut path = Vec::new();
    let mut is_method = false;
    let mut back = prev_code(toks, i);
    if let Some(p) = back {
        if toks[p].is_punct(".") {
            is_method = true;
        }
    }
    while let Some(p) = back {
        if !toks[p].is_punct("::") {
            break;
        }
        let seg = prev_code(toks, p)?;
        // `>::name` (qualified generics) ends the simple chain.
        if toks[seg].kind != TokenKind::Ident {
            break;
        }
        path.push(toks[seg].text.as_str());
        back = prev_code(toks, seg);
    }
    path.reverse();
    Some(CallSite {
        name,
        tok: i,
        path,
        is_method,
        paren_open,
    })
}

/// Applies the convention resolution rules; empty = external/unknown.
fn resolve(
    index: &SymbolIndex,
    file: &SourceFile,
    fi: usize,
    caller: usize,
    call: &CallSite<'_>,
) -> Vec<usize> {
    let cands = index.candidates(call.name);
    if cands.is_empty() {
        return Vec::new();
    }
    if call.is_method {
        let methods: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| index.fns[id].has_self)
            .collect();
        let same_crate: Vec<usize> = methods
            .iter()
            .copied()
            .filter(|&id| index.fns[id].crate_name == file.crate_name)
            .collect();
        return if same_crate.is_empty() {
            methods
        } else {
            same_crate
        };
    }
    if let Some(&root) = call.path.first() {
        if matches!(root, "std" | "core" | "alloc") {
            return Vec::new();
        }
        let qual = *call.path.last().unwrap_or(&root);
        let filtered: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| {
                let f = &index.fns[id];
                match qual {
                    "crate" => f.crate_name == file.crate_name,
                    "self" => f.file == fi,
                    "Self" => f.impl_type.is_some() && f.impl_type == index.fns[caller].impl_type,
                    q => {
                        f.module == q
                            || f.impl_type.as_deref() == Some(q)
                            || crate_matches(&f.crate_name, q)
                    }
                }
            })
            .collect();
        return filtered;
    }
    // Bare call: same file, then same crate, then anywhere.
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| index.fns[id].file == fi)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| index.fns[id].crate_name == file.crate_name)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    cands.to_vec()
}

/// `dck_sim` / `dck-sim` qualifiers match the `sim` crate directory.
fn crate_matches(crate_name: &str, qual: &str) -> bool {
    qual == crate_name
        || qual.strip_prefix("dck_").is_some_and(|q| q == crate_name)
        || qual.strip_prefix("dck-").is_some_and(|q| q == crate_name)
}

/// Spawn/pool call sites become closure roots.
fn record_roots(
    fi: usize,
    call: &CallSite<'_>,
    caller: Option<usize>,
    toks: &[Token],
    roots: &mut Vec<ClosureRoot>,
) {
    let kind = if POOL_ENTRY_POINTS.contains(&call.name) {
        RootKind::WorkUnit
    } else if call.name == "spawn" {
        RootKind::Thread
    } else {
        return;
    };
    let Some(close) = matching_punct(toks, call.paren_open, "(", ")") else {
        return;
    };
    roots.push(ClosureRoot {
        kind,
        file: fi,
        caller,
        range: (call.paren_open, close),
        line: toks[call.tok].line,
    });
}

/// Token ranges of `catch_unwind(...)` argument lists.
fn catch_unwind_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("catch_unwind") {
            continue;
        }
        let Some(open) = next_code_idx(toks, i + 1) else {
            continue;
        };
        if !toks[open].is_punct("(") {
            continue;
        }
        if let Some(close) = matching_punct(toks, open, "(", ")") {
            out.push((open, close));
        }
    }
    out
}

fn next_code_idx(toks: &[Token], from: usize) -> Option<usize> {
    (from..toks.len()).find(|&i| is_code(&toks[i]))
}

fn prev_code(toks: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&p| is_code(&toks[p]))
}

/// Matching `>` for the `<` at `open`, tolerating shift tokens.
fn matching_angle(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if !is_code(t) {
            continue;
        }
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            _ => continue,
        }
        if depth <= 0 {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::test_file;

    fn graph_for(src: &str) -> (Workspace, SymbolIndex, CallGraph) {
        let ws = Workspace {
            files: vec![test_file(src, Context::Lib, false)],
            crate_roots: vec![],
            unresolved_mods: vec![],
        };
        let index = SymbolIndex::build(&ws);
        let graph = CallGraph::build(&ws, &index);
        (ws, index, graph)
    }

    fn edge_names(index: &SymbolIndex, graph: &CallGraph) -> Vec<(String, String, bool)> {
        graph
            .edges
            .iter()
            .map(|e| {
                (
                    index.fns[e.caller].name.clone(),
                    index.fns[e.callee].name.clone(),
                    e.guarded,
                )
            })
            .collect()
    }

    #[test]
    fn bare_calls_resolve_same_file_first() {
        let (_, index, graph) = graph_for("fn a() { b(); }\nfn b() {}");
        assert_eq!(
            edge_names(&index, &graph),
            vec![("a".into(), "b".into(), false)]
        );
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (_, _, graph) = graph_for("fn a() { println!(\"x\"); if (true) {} return (); }");
        assert!(graph.edges.is_empty());
    }

    #[test]
    fn std_paths_produce_no_edges() {
        let (_, _, graph) = graph_for("fn take() {}\nfn a(v: &mut u8) { std::mem::take(v); }");
        assert!(graph.edges.is_empty());
    }

    #[test]
    fn qualified_calls_filter_by_impl_type() {
        let src = "struct A; struct B;\n\
                   impl A { fn new() -> A { A } }\n\
                   impl B { fn new() -> B { B } }\n\
                   fn mk() { A::new(); }";
        let (_, index, graph) = graph_for(src);
        let names = edge_names(&index, &graph);
        assert_eq!(names.len(), 1);
        assert_eq!(
            index.fns[graph.edges[0].callee].impl_type.as_deref(),
            Some("A")
        );
        assert_eq!(names[0].0, "mk");
    }

    #[test]
    fn method_calls_only_hit_self_takers() {
        let src = "struct S;\n\
                   impl S { fn get(&self) -> u8 { 1 } }\n\
                   fn get() -> u8 { 2 }\n\
                   fn use_it(s: &S) { s.get(); }";
        let (_, index, graph) = graph_for(src);
        assert_eq!(graph.edges.len(), 1);
        assert!(index.fns[graph.edges[0].callee].has_self);
    }

    #[test]
    fn catch_unwind_marks_edges_guarded() {
        let src = "fn risky() {}\n\
                   fn safe() { let _ = catch_unwind(AssertUnwindSafe(|| risky())); }\n\
                   fn unsafe_path() { risky(); }";
        let (_, index, graph) = graph_for(src);
        let names = edge_names(&index, &graph);
        assert!(names.contains(&("safe".into(), "risky".into(), true)));
        assert!(names.contains(&("unsafe_path".into(), "risky".into(), false)));
    }

    #[test]
    fn turbofish_is_still_a_call() {
        let src =
            "fn parse<T>(s: &str) -> T { todo_() }\nfn todo_() {}\nfn a() { parse::<u64>(\"1\"); }";
        let (_, index, graph) = graph_for(src);
        assert!(edge_names(&index, &graph).contains(&("a".into(), "parse".into(), false)));
    }

    #[test]
    fn spawn_and_pool_sites_become_roots() {
        let src = "fn work() {}\n\
                   fn pooled() { parallel_map_indexed(0, 1, |i| work()); }\n\
                   fn threaded(s: &S) { s.spawn(|| work()); }";
        let (_, _, graph) = graph_for(src);
        assert_eq!(graph.roots.len(), 2);
        assert_eq!(graph.roots[0].kind, RootKind::WorkUnit);
        assert_eq!(graph.roots[1].kind, RootKind::Thread);
        // Both roots see the `work()` edge inside their parens.
        for r in &graph.roots {
            assert_eq!(graph.edges_in_range(r.file, r.range).len(), 1);
        }
    }

    #[test]
    fn longer_paths_resolve_by_final_qualifier() {
        let src = "fn helper() {}\nfn a() { crate::helper(); }\nfn b() { self::helper(); }";
        let (_, index, graph) = graph_for(src);
        let names = edge_names(&index, &graph);
        assert!(names.contains(&("a".into(), "helper".into(), false)));
        assert!(names.contains(&("b".into(), "helper".into(), false)));
    }
}
