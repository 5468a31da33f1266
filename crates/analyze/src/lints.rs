//! The lint registry: seven domain lints for a codebase whose headline
//! guarantees are bit-identical replay and bounded failure behavior.
//!
//! Every lint is a token-pattern matcher over [`SourceFile`]s — no
//! syntax tree, no type information. That makes each lint a fast,
//! transparent heuristic: false negatives are possible (and fine);
//! false positives are handled by fixing the code or writing a
//! justified baseline entry in `analyze.toml`.

use crate::callgraph::CallGraph;
use crate::diagnostics::{Finding, Severity};
use crate::lexer::{Token, TokenKind};
use crate::symbols::SymbolIndex;
use crate::walker::{Context, SourceFile, Workspace};

/// The rationale and worked examples behind a lint, rendered by
/// `dck lint --explain`. Registering a lint without one is impossible
/// (the trait requires it) and registering one with empty text fails
/// the `every_lint_has_an_explanation` test.
#[derive(Debug, Clone, Copy)]
pub struct Explanation {
    /// One paragraph: why the lint exists in *this* codebase.
    pub rationale: &'static str,
    /// A short snippet the lint accepts.
    pub good: &'static str,
    /// A short snippet the lint rejects.
    pub bad: &'static str,
}

/// A single per-file lint pass.
pub trait Lint {
    /// Stable kebab-case name used in config and baselines.
    fn name(&self) -> &'static str;
    /// One-line description for `--help`-style listings.
    fn description(&self) -> &'static str;
    /// Severity when `analyze.toml` does not override it.
    fn default_severity(&self) -> Severity;
    /// Rationale and examples for `dck lint --explain`.
    fn explanation(&self) -> Explanation;
    /// Appends findings for `file`. Severity on emitted findings is
    /// the default; the engine applies config overrides afterwards.
    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>);
}

/// A workspace-level lint pass: sees the whole workspace plus the
/// symbol index and call graph the engine built once.
pub trait WorkspaceLint {
    /// Stable kebab-case name used in config and baselines.
    fn name(&self) -> &'static str;
    /// One-line description for `--help`-style listings.
    fn description(&self) -> &'static str;
    /// Severity when `analyze.toml` does not override it.
    fn default_severity(&self) -> Severity;
    /// Rationale and examples for `dck lint --explain`.
    fn explanation(&self) -> Explanation;
    /// Appends findings over the whole workspace.
    fn check(
        &self,
        ws: &Workspace,
        index: &SymbolIndex,
        graph: &CallGraph,
        findings: &mut Vec<Finding>,
    );
}

/// All per-file lints, in reporting order.
pub fn registry() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(Nondeterminism),
        Box::new(PanicSafety),
        Box::new(SliceIndex),
        Box::new(FloatEq),
        Box::new(SentinelValue),
        Box::new(ForbidUnsafe),
        Box::new(TodoMarkers),
    ]
}

/// All workspace-level lints, in reporting order.
pub fn workspace_registry() -> Vec<Box<dyn WorkspaceLint>> {
    vec![
        Box::new(crate::taint::DeterminismTaint),
        Box::new(crate::reachability::PanicReachability),
        Box::new(crate::reachability::LockDiscipline),
    ]
}

/// Registry-backed description of one lint, per-file or workspace.
pub struct LintInfo {
    /// Stable kebab-case name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Severity when the config does not override it.
    pub default_severity: Severity,
    /// Rationale and examples.
    pub explanation: Explanation,
    /// True for workspace-level (call-graph) lints.
    pub workspace: bool,
}

/// Every registered lint, per-file then workspace, in registry order.
pub fn catalog() -> Vec<LintInfo> {
    let mut out: Vec<LintInfo> = registry()
        .iter()
        .map(|l| LintInfo {
            name: l.name(),
            description: l.description(),
            default_severity: l.default_severity(),
            explanation: l.explanation(),
            workspace: false,
        })
        .collect();
    out.extend(workspace_registry().iter().map(|l| LintInfo {
        name: l.name(),
        description: l.description(),
        default_severity: l.default_severity(),
        explanation: l.explanation(),
        workspace: true,
    }));
    out
}

/// Indices of live library tokens: non-comment, outside test-exempt
/// regions. Returns an empty list for non-`Lib` contexts, which is how
/// most lints exempt tests, benches and examples wholesale.
fn live_lib_code(file: &SourceFile) -> Vec<usize> {
    if file.context != Context::Lib {
        return Vec::new();
    }
    file.live_code(0..file.tokens.len())
}

fn emit(
    lint: &dyn Lint,
    file: &SourceFile,
    tok: &Token,
    message: String,
    findings: &mut Vec<Finding>,
) {
    let severity = lint.default_severity();
    findings.push(Finding::new(
        lint.name(),
        severity,
        file,
        tok.line,
        tok.col,
        message,
    ));
}

// ---------------------------------------------------------------------
// The site classifier shared by the per-file and workspace lints
// ---------------------------------------------------------------------

/// What kind of panic site a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PanicKind {
    /// `.unwrap()` / `.expect(...)`.
    Call,
    /// `panic!` / `unreachable!`.
    Macro,
    /// Bracket indexing.
    Index,
}

/// Keywords that can directly precede `[` without it being indexing.
const INDEX_KEYWORDS: [&str; 10] = [
    "return", "break", "in", "if", "else", "match", "as", "mut", "ref", "move",
];

/// Classifies the live code token `code[k]` of `toks` as a panic site.
pub(crate) fn panic_site(toks: &[Token], code: &[usize], k: usize) -> Option<PanicKind> {
    let t = &toks[code[k]];
    let prev = k.checked_sub(1).map(|p| &toks[code[p]]);
    let next = code.get(k + 1).map(|&j| &toks[j]);
    match t.text.as_str() {
        "unwrap" | "expect"
            if t.kind == TokenKind::Ident
                && prev.is_some_and(|p| p.is_punct("."))
                && next.is_some_and(|n| n.is_punct("(")) =>
        {
            Some(PanicKind::Call)
        }
        // Exclude `core::panic::...` paths and the
        // `#[panic_handler]`-style idents: require `name!`.
        "panic" | "unreachable"
            if t.kind == TokenKind::Ident
                && next.is_some_and(|n| n.is_punct("!"))
                && !prev.is_some_and(|p| p.is_punct("::")) =>
        {
            Some(PanicKind::Macro)
        }
        // `xs[...]`, `f()[...]`, `xs[i][j]` — but not attributes
        // (`#[...]`), macro brackets (`vec![...]`), array types or
        // literals (`: [u8; 4]`, `= [a, b]`, `return [..]`).
        "[" if t.kind == TokenKind::Punct
            && prev.is_some_and(|p| {
                (p.kind == TokenKind::Ident && !INDEX_KEYWORDS.contains(&p.text.as_str()))
                    || p.is_punct(")")
                    || p.is_punct("]")
            }) =>
        {
            Some(PanicKind::Index)
        }
        _ => None,
    }
}

/// A nondeterministic source an ident names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// `Instant` / `SystemTime`.
    WallClock,
    /// `HashMap` / `HashSet`.
    HashOrder,
    /// `thread_rng`, `from_entropy`, `RandomState`, `OsRng`, `getrandom`.
    Entropy,
}

impl Source {
    /// The source the ident `name` names, if any.
    pub(crate) fn of(name: &str) -> Option<Source> {
        match name {
            "Instant" | "SystemTime" => Some(Source::WallClock),
            "HashMap" | "HashSet" => Some(Source::HashOrder),
            "thread_rng" | "from_entropy" | "RandomState" | "OsRng" | "getrandom" => {
                Some(Source::Entropy)
            }
            _ => None,
        }
    }

    /// What reading the source does, for diagnostics.
    pub(crate) fn what(self) -> &'static str {
        match self {
            Source::WallClock => "wall-clock read",
            Source::HashOrder => "hash-order iteration",
            Source::Entropy => "OS entropy",
        }
    }
}

/// (1) Sources of nondeterminism: hash-order iteration, wall-clock
/// reads, and hand-rolled threading outside `simcore::par`.
struct Nondeterminism;

/// The one file allowed to spawn threads: the workspace's fork/join
/// substrate, whose map-fold is bit-identical across worker counts.
const PAR_SUBSTRATE: &str = "crates/simcore/src/par.rs";

impl Lint for Nondeterminism {
    fn name(&self) -> &'static str {
        "nondeterminism"
    }
    fn description(&self) -> &'static str {
        "HashMap/HashSet iteration order, wall-clock reads, threading outside simcore::par"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "The repo's headline guarantee is bit-identical replay: the same \
                        seed and spec must produce byte-for-byte the same sweep, \
                        checkpoint fingerprint, and serve response on every run and every \
                        worker count. Hash-order iteration, wall-clock reads, and ad-hoc \
                        threading each inject host state into that computation. BTree \
                        collections iterate deterministically, logical clocks replay, and \
                        simcore::par is the one audited place where threads may exist.",
            bad: "let mut by_node = HashMap::new(); // iteration order varies per process",
            good: "let mut by_node = BTreeMap::new(); // deterministic iteration, stable output",
        }
    }
    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        let code = live_lib_code(file);
        for (k, &i) in code.iter().enumerate() {
            let t = &file.tokens[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let next = code.get(k + 1).map(|&j| &file.tokens[j]);
            let after = code.get(k + 2).map(|&j| &file.tokens[j]);
            let message = match Source::of(&t.text) {
                Some(Source::HashOrder) => format!(
                    "`{}` iterates in nondeterministic order; use `BTree{}` (or justify in analyze.toml)",
                    t.text,
                    t.text.trim_start_matches("Hash")
                ),
                Some(Source::WallClock) => format!(
                    "`{}` reads the wall clock; results depending on it are not replayable",
                    t.text
                ),
                // `thread::spawn` / `thread::scope`: thread-count
                // dependent reductions live in simcore::par only.
                None if t.text == "thread"
                    && file.rel != PAR_SUBSTRATE
                    && next.is_some_and(|t| t.is_punct("::"))
                    && after.is_some_and(|t| t.is_ident("spawn") || t.is_ident("scope")) =>
                {
                    "raw threading outside `simcore::par`; reductions must be bit-identical across worker counts".to_string()
                }
                _ => continue,
            };
            emit(self, file, t, message, findings);
        }
    }
}

/// (2) Silent panic paths in library code.
struct PanicSafety;

impl Lint for PanicSafety {
    fn name(&self) -> &'static str {
        "panic-safety"
    }
    fn description(&self) -> &'static str {
        "unwrap()/expect()/panic!/unreachable! in library code (tests and benches exempt)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "A panic in library code turns a recoverable input problem into a \
                        process abort — and in this workspace, into a torn-down pool \
                        worker or serve thread. Every fallible model operation returns \
                        Result<_, ModelError> instead; the few justified expects (e.g. \
                        configurations already validated by build()?) carry a written \
                        baseline entry in analyze.toml.",
            bad: "let p = PlatformParams::new(c, r, mtbf).unwrap();",
            good: "let p = PlatformParams::new(c, r, mtbf)?; // caller decides what failure means",
        }
    }
    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        let code = live_lib_code(file);
        for (k, &i) in code.iter().enumerate() {
            let t = &file.tokens[i];
            let message = match panic_site(&file.tokens, &code, k) {
                Some(PanicKind::Call) => format!(
                    "`.{}()` panics in library code; return a `Result` (e.g. `ModelError`) instead",
                    t.text
                ),
                Some(PanicKind::Macro) => format!("`{}!` aborts the process from library code; return an error or restructure the invariant", t.text),
                _ => continue,
            };
            emit(self, file, t, message, findings);
        }
    }
}

/// (3) Slice/array indexing, which panics out of bounds.
struct SliceIndex;

impl Lint for SliceIndex {
    fn name(&self) -> &'static str {
        "slice-index"
    }
    fn description(&self) -> &'static str {
        "bracket indexing in library code panics out of bounds; prefer get()/first()/iterators"
    }
    fn default_severity(&self) -> Severity {
        // Advisory by default: indexing under a proven invariant is
        // idiomatic. The lint surfaces the sites for review.
        Severity::Warn
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "xs[i] panics when the index is out of bounds, which is a hidden \
                        panic path with all the consequences panic-safety describes. \
                        Indexing under a locally provable invariant (chunk arithmetic, \
                        fixed-size tables) is idiomatic Rust, so this lint only warns — \
                        it is an inventory for review, not a gate.",
            bad: "let last = xs[xs.len() - 1]; // panics on empty input",
            good: "let Some(last) = xs.last() else { return Err(ModelError::Empty) };",
        }
    }
    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        let code = live_lib_code(file);
        for (k, &i) in code.iter().enumerate() {
            if panic_site(&file.tokens, &code, k) == Some(PanicKind::Index) {
                emit(
                    self,
                    file,
                    &file.tokens[i],
                    "bracket indexing panics out of bounds; prefer `get()` or an iterator"
                        .to_string(),
                    findings,
                );
            }
        }
    }
}

/// (4) `==`/`!=` on floating-point expressions.
struct FloatEq;

impl Lint for FloatEq {
    fn name(&self) -> &'static str {
        "float-eq"
    }
    fn description(&self) -> &'static str {
        "== / != on floating-point expressions; use an epsilon or total_cmp"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "== and != on floats are exact-bit comparisons: 0.1 + 0.2 != 0.3, \
                        and NaN != NaN, so equality tests encode accidents of rounding, \
                        not the numeric property the author meant. The same trap hides \
                        inside assert_eq!/assert_ne! with float operands. Compare against \
                        an epsilon, a range, or — when bit-identity *is* the contract, as \
                        in the replay tests — compare to_bits() explicitly.",
            bad: "if waste == 0.0 { ... }  assert_eq!(a, 0.25_f64);",
            good: "if waste.abs() < EPS { ... }  assert_eq!(a.to_bits(), b.to_bits());",
        }
    }
    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        let code = live_lib_code(file);
        for (k, &i) in code.iter().enumerate() {
            let t = &file.tokens[i];
            if t.is_punct("==") || t.is_punct("!=") {
                // Heuristic: a float literal or f32/f64 path within two
                // code tokens of the comparison marks it floating-point.
                let window = k.saturating_sub(2)..=(k + 2).min(code.len().saturating_sub(1));
                let floaty = window
                    .map(|w| &file.tokens[code[w]])
                    .any(|n| n.kind == TokenKind::Float || n.is_ident("f32") || n.is_ident("f64"));
                if floaty {
                    emit(
                        self,
                        file,
                        t,
                        format!(
                            "`{}` on floating point is exact-bit comparison; use an epsilon, a range, or `total_cmp`",
                            t.text
                        ),
                        findings,
                    );
                }
                continue;
            }
            // `assert_eq!(..)` / `assert_ne!(..)` with a float operand:
            // a float literal or f32/f64 path anywhere in the macro's
            // argument parens. `to_bits()` comparisons carry no float
            // token, which is exactly the blessed alternative.
            if (t.is_ident("assert_eq") || t.is_ident("assert_ne"))
                && code
                    .get(k + 1)
                    .is_some_and(|&j| file.tokens[j].is_punct("!"))
            {
                let Some(&open) = code.get(k + 2) else {
                    continue;
                };
                if !file.tokens[open].is_punct("(") {
                    continue;
                }
                let mut depth = 0usize;
                let mut floaty = false;
                for &j in &code[k + 2..] {
                    let n = &file.tokens[j];
                    if n.is_punct("(") {
                        depth += 1;
                    } else if n.is_punct(")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if n.kind == TokenKind::Float || n.is_ident("f32") || n.is_ident("f64") {
                        floaty = true;
                    }
                }
                if floaty {
                    emit(
                        self,
                        file,
                        t,
                        format!(
                            "`{}!` with float operands is exact-bit comparison; assert against an epsilon or compare `to_bits()`",
                            t.text
                        ),
                        findings,
                    );
                }
            }
        }
    }
}

/// (5) `f64::INFINITY` / `f64::NAN` sentinels in the model crate — the
/// class of bug `waste_at_phi` had before it returned `Result`.
struct SentinelValue;

impl Lint for SentinelValue {
    fn name(&self) -> &'static str {
        "sentinel-value"
    }
    fn description(&self) -> &'static str {
        "f64::INFINITY/NAN sentinels in crates/core; encode failure as Result instead"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "waste_at_phi once returned f64::INFINITY to mean \"infeasible\" and \
                        a caller averaged it into a real estimate. In the model crate, a \
                        float that can be an error code will eventually be mistaken for a \
                        value — failure must be a Result so the type system refuses to \
                        add it to a mean. The surviving INFINITY sites are running-minimum \
                        seeds and limit values inside optimizers, each with a baseline \
                        justification saying so.",
            bad: "fn waste(p: f64) -> f64 { if p <= 0.0 { f64::INFINITY } else { ... } }",
            good: "fn waste(p: f64) -> Result<f64, ModelError> { if p <= 0.0 { Err(ModelError::Infeasible) } else { ... } }",
        }
    }
    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if !file.rel.starts_with("crates/core/") {
            return;
        }
        let code = live_lib_code(file);
        for (k, &i) in code.iter().enumerate() {
            let t = &file.tokens[i];
            if !(t.is_ident("f64") || t.is_ident("f32")) {
                continue;
            }
            let next = code.get(k + 1).map(|&j| &file.tokens[j]);
            let name = code.get(k + 2).map(|&j| &file.tokens[j]);
            if next.is_some_and(|n| n.is_punct("::"))
                && name.is_some_and(|n| {
                    n.is_ident("INFINITY") || n.is_ident("NEG_INFINITY") || n.is_ident("NAN")
                })
            {
                let name = name.map(|n| n.text.clone()).unwrap_or_default();
                emit(
                    self,
                    file,
                    t,
                    format!(
                        "`{}::{name}` sentinel in model code; prefer `Result`/`ModelError` so errors cannot be mistaken for values",
                        t.text
                    ),
                    findings,
                );
            }
        }
    }
}

/// (6) Every crate root must carry `#![forbid(unsafe_code)]`.
struct ForbidUnsafe;

impl Lint for ForbidUnsafe {
    fn name(&self) -> &'static str {
        "forbid-unsafe"
    }
    fn description(&self) -> &'static str {
        "every crate root must carry #![forbid(unsafe_code)]"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "Every numerical claim this workspace makes rests on the compiler's \
                        memory-safety guarantees; one unsafe block anywhere voids them \
                        quietly. Requiring #![forbid(unsafe_code)] at every crate root \
                        makes the guarantee structural: forbid (unlike deny) cannot be \
                        overridden further down the tree, so the check is one attribute \
                        per crate instead of an audit per PR.",
            bad: "//! My crate docs\npub mod model;  // root without the attribute",
            good: "//! My crate docs\n#![forbid(unsafe_code)]\npub mod model;",
        }
    }
    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        if !file.is_crate_root {
            return;
        }
        let code: Vec<&Token> = file.tokens.iter().filter(|t| t.is_code()).collect();
        let has = code.windows(8).any(|w| {
            w[0].is_punct("#")
                && w[1].is_punct("!")
                && w[2].is_punct("[")
                && w[3].is_ident("forbid")
                && w[4].is_punct("(")
                && w[5].is_ident("unsafe_code")
                && w[6].is_punct(")")
                && w[7].is_punct("]")
        });
        if !has {
            let message = format!(
                "crate `{}` root lacks `#![forbid(unsafe_code)]`",
                file.crate_name
            );
            findings.push(Finding {
                snippet: String::new(),
                ..Finding::new(self.name(), self.default_severity(), file, 1, 1, message)
            });
        }
    }
}

/// (7) Unfinished-work markers: `todo!`/`unimplemented!` macros and
/// deferred-work comment tags in library code.
struct TodoMarkers;

impl Lint for TodoMarkers {
    fn name(&self) -> &'static str {
        "todo-markers"
    }
    fn description(&self) -> &'static str {
        "todo!/unimplemented! and TODO/FIXME/XXX comments in library code"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn explanation(&self) -> Explanation {
        Explanation {
            rationale: "todo!() in library code is a panic with a nicer name, and TODO \
                        comments are work the diff claims is done but is not. Either \
                        finish the work in the same PR or record it where it will be \
                        scheduled (ROADMAP.md), not where it will be forgotten. Tests \
                        and benches are exempt: scaffolding there is visible in runs.",
            bad: "pub fn resume(path: &Path) -> Snapshot { todo!() } // TODO: handle v2",
            good:
                "pub fn resume(path: &Path) -> Result<Snapshot, ModelError> { decode(read(path)?) }",
        }
    }
    fn check(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        let code = live_lib_code(file);
        for (k, &i) in code.iter().enumerate() {
            let t = &file.tokens[i];
            if (t.is_ident("todo") || t.is_ident("unimplemented"))
                && code
                    .get(k + 1)
                    .is_some_and(|&j| file.tokens[j].is_punct("!"))
            {
                emit(
                    self,
                    file,
                    t,
                    format!("`{}!` placeholder in library code", t.text),
                    findings,
                );
            }
        }
        if file.context != Context::Lib {
            return;
        }
        for (i, t) in file.tokens.iter().enumerate() {
            if t.is_code() || file.is_exempt(i) {
                continue;
            }
            for marker in ["TODO", "FIXME", "XXX"] {
                if t.text.contains(marker) {
                    emit(
                        self,
                        file,
                        t,
                        format!("`{marker}` comment marks unfinished work; finish it or file it"),
                        findings,
                    );
                    break;
                }
            }
        }
    }
}

/// Test-only driver: runs one workspace lint over a one-file workspace.
#[cfg(test)]
pub(crate) fn run_workspace_lint(lint: &dyn WorkspaceLint, src: &str) -> Vec<Finding> {
    let ws = crate::walker::test_workspace(src);
    let index = SymbolIndex::build(&ws);
    let graph = CallGraph::build(&ws, &index);
    let mut out = Vec::new();
    lint.check(&ws, &index, &graph, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::test_file;

    fn run_lint(name: &str, src: &str, ctx: Context) -> Vec<Finding> {
        let file = test_file(src, ctx, false);
        let mut out = Vec::new();
        for lint in registry() {
            if lint.name() == name {
                lint.check(&file, &mut out);
            }
        }
        out
    }

    #[test]
    fn nondeterminism_flags_hash_and_clock_but_not_tests() {
        let src = "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }";
        let hits = run_lint("nondeterminism", src, Context::Lib);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].message.contains("BTreeMap"));
        assert!(run_lint("nondeterminism", src, Context::Test).is_empty());
    }

    #[test]
    fn nondeterminism_flags_thread_spawn_and_scope() {
        let hits = run_lint(
            "nondeterminism",
            "fn f() { std::thread::spawn(|| {}); thread::scope(|s| {}); }",
            Context::Lib,
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn panic_safety_patterns() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); unreachable!(); }";
        let hits = run_lint("panic-safety", src, Context::Lib);
        assert_eq!(hits.len(), 4);
        // unwrap_or / expect_err are different methods; a comment or
        // string mentioning unwrap() is not code.
        let clean = "fn f() { x.unwrap_or(0); x.unwrap_or_else(f); /* x.unwrap() */ let s = \"panic!(no)\"; }";
        assert!(run_lint("panic-safety", clean, Context::Lib).is_empty());
        assert!(run_lint("panic-safety", src, Context::Bench).is_empty());
    }

    #[test]
    fn slice_index_heuristics() {
        let hits = run_lint(
            "slice-index",
            "fn f() { let a = xs[i]; let b = f()[0]; }",
            Context::Lib,
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].severity, Severity::Warn);
        let clean = "#[derive(Debug)]\nfn g() { let t: [u8; 4] = [0; 4]; let v = vec![1, 2]; }";
        assert!(run_lint("slice-index", clean, Context::Lib).is_empty());
    }

    #[test]
    fn float_eq_window() {
        let hits = run_lint(
            "float-eq",
            "fn f(a: f64) { if a == 0.0 {} if 1.5 != a {} if n == 3 {} }",
            Context::Lib,
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn float_eq_catches_asserts_with_float_operands() {
        let hits = run_lint(
            "float-eq",
            "fn f(a: f64, b: f64) { assert_eq!(a, 0.25); assert_ne!(b, 1.0f64); }",
            Context::Lib,
        );
        assert_eq!(hits.len(), 2);
        assert!(hits[0].message.contains("assert_eq"));
        assert!(hits[1].message.contains("assert_ne"));
    }

    #[test]
    fn float_eq_blesses_to_bits_asserts() {
        let clean = "fn f(a: F, b: F) { assert_eq!(a.to_bits(), b.to_bits()); assert_eq!(n, 3); }";
        assert!(run_lint("float-eq", clean, Context::Lib).is_empty());
    }

    #[test]
    fn every_lint_has_an_explanation() {
        for info in catalog() {
            let e = info.explanation;
            assert!(
                !e.rationale.trim().is_empty(),
                "lint `{}` has no rationale",
                info.name
            );
            assert!(
                e.rationale.split_whitespace().count() >= 25,
                "lint `{}` rationale is not a paragraph",
                info.name
            );
            assert!(
                !e.good.trim().is_empty(),
                "lint `{}` has no good example",
                info.name
            );
            assert!(
                !e.bad.trim().is_empty(),
                "lint `{}` has no bad example",
                info.name
            );
        }
    }

    #[test]
    fn catalog_covers_both_registries_with_unique_names() {
        let cat = catalog();
        assert_eq!(cat.len(), registry().len() + workspace_registry().len());
        let mut names: Vec<&str> = cat.iter().map(|i| i.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len(), "duplicate lint names");
        assert!(cat
            .iter()
            .any(|i| i.name == "determinism-taint" && i.workspace));
        assert!(cat.iter().any(|i| i.name == "float-eq" && !i.workspace));
    }

    #[test]
    fn sentinel_only_in_core() {
        let src = "fn f() -> f64 { f64::INFINITY }";
        let mut file = test_file(src, Context::Lib, false);
        file.rel = "crates/core/src/waste.rs".into();
        let mut out = Vec::new();
        if let Some(l) = registry().iter().find(|l| l.name() == "sentinel-value") {
            l.check(&file, &mut out);
        }
        assert_eq!(out.len(), 1);
        // Same code outside crates/core is not this lint's business.
        assert!(run_lint("sentinel-value", src, Context::Lib).is_empty());
    }

    #[test]
    fn forbid_unsafe_checks_roots_only() {
        let with = "#![forbid(unsafe_code)]\npub fn x() {}";
        let without = "//! docs\npub fn x() {}";
        let root_ok = test_file(with, Context::Lib, true);
        let root_bad = test_file(without, Context::Lib, true);
        let non_root = test_file(without, Context::Lib, false);
        let lint = registry().into_iter().find(|l| l.name() == "forbid-unsafe");
        let lint = lint.as_deref().expect("registered");
        let mut out = Vec::new();
        lint.check(&root_ok, &mut out);
        assert!(out.is_empty());
        lint.check(&root_bad, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        lint.check(&non_root, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn todo_markers_in_macros_and_comments() {
        let hits = run_lint(
            "todo-markers",
            "fn f() { todo!() }\n// TODO: finish\nfn g() { unimplemented!() }",
            Context::Lib,
        );
        assert_eq!(hits.len(), 3);
    }
}
