//! Workspace discovery and module walking.
//!
//! The walker finds crates by filesystem convention — the workspace
//! root (if it has a `src/`) plus every `crates/*` directory with a
//! `src/` — so it needs no manifest parser and never wanders into
//! `vendor/`, `target/` or `results/`. From each crate it collects the
//! compilation roots (`src/lib.rs`, `src/main.rs`, `tests/*.rs`,
//! `benches/*.rs`, `examples/*.rs`) and follows `mod name;`
//! declarations to reach every file the compiler would, classifying
//! each by [`Context`] so lints can exempt test code.

use crate::lexer::{lex, matching_punct, Token, TokenKind};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// How a file is compiled, which decides which lints apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
#[serde(rename_all = "lowercase")]
pub enum Context {
    /// Library or binary code: ships to users, all lints apply.
    Lib,
    /// Integration test (`tests/*.rs` and its modules).
    Test,
    /// Benchmark target.
    Bench,
    /// Example target.
    Example,
}

/// One lexed source file plus everything a lint needs to know about it.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (stable across hosts).
    pub rel: String,
    /// Name of the owning crate (directory name; `dck` for the root).
    pub crate_name: String,
    /// Compilation context.
    pub context: Context,
    /// True for `src/lib.rs` / `src/main.rs` of a crate.
    pub is_crate_root: bool,
    /// The full source text.
    pub text: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Token-index ranges (half-open) covered by `#[cfg(test)]` items
    /// or `#[test]` functions; most lints skip findings inside them.
    exempt: Vec<(usize, usize)>,
}

impl SourceFile {
    /// True when token `i` lies inside a test-exempt region.
    pub fn is_exempt(&self, i: usize) -> bool {
        self.exempt.iter().any(|&(a, b)| a <= i && i < b)
    }

    /// Indices of the live code tokens in `range`: not comments, not
    /// inside a test-exempt region.
    pub(crate) fn live_code(&self, range: std::ops::Range<usize>) -> Vec<usize> {
        (range.start..range.end.min(self.tokens.len()))
            .filter(|&i| self.tokens[i].is_code() && !self.is_exempt(i))
            .collect()
    }

    /// The trimmed source line `line` (1-based), for diagnostics.
    pub fn snippet(&self, line: u32) -> &str {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .unwrap_or("")
            .trim()
    }
}

/// The scanned workspace: every reachable source file.
#[derive(Debug)]
pub struct Workspace {
    /// All files, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// Crate names with their root file (`lib.rs` preferred), used by
    /// whole-crate lints such as `forbid-unsafe`.
    pub crate_roots: Vec<(String, String)>,
    /// `mod` declarations whose file could not be found (often
    /// `cfg`-gated); surfaced so a broken walker is visible.
    pub unresolved_mods: Vec<String>,
}

/// Walks the workspace under `root`.
///
/// # Errors
/// An I/O failure reading a discovered file, with its path.
pub fn walk_workspace(root: &Path) -> Result<Workspace, String> {
    let mut crate_dirs: Vec<(String, PathBuf)> = Vec::new();
    if root.join("src").is_dir() {
        crate_dirs.push((root_crate_name(root), root.to_path_buf()));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut subdirs: Vec<PathBuf> = read_dir_sorted(&crates_dir)?;
        subdirs.retain(|d| d.join("src").is_dir());
        for d in subdirs {
            let name = d
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            crate_dirs.push((name, d));
        }
    }

    let mut files = Vec::new();
    let mut crate_roots = Vec::new();
    let mut unresolved = Vec::new();
    let mut visited: BTreeSet<PathBuf> = BTreeSet::new();
    for (crate_name, dir) in &crate_dirs {
        let mut roots: Vec<(PathBuf, Context, bool)> = Vec::new();
        for (file, is_lib_root) in [("src/lib.rs", true), ("src/main.rs", true)] {
            let p = dir.join(file);
            if p.is_file() {
                roots.push((p, Context::Lib, is_lib_root));
            }
        }
        for (subdir, ctx) in [
            ("tests", Context::Test),
            ("benches", Context::Bench),
            ("examples", Context::Example),
        ] {
            let d = dir.join(subdir);
            if d.is_dir() {
                for p in read_dir_sorted(&d)? {
                    if p.extension().is_some_and(|e| e == "rs") {
                        roots.push((p, ctx, false));
                    }
                }
            }
        }
        let mut registered_root = false;
        for (path, ctx, is_root) in roots {
            let is_crate_root = is_root && !registered_root;
            if is_crate_root {
                registered_root = true;
                crate_roots.push((crate_name.clone(), rel_path(root, &path)));
            }
            walk_module_tree(
                root,
                crate_name,
                &path,
                ctx,
                is_crate_root,
                &mut files,
                &mut visited,
                &mut unresolved,
            )?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(Workspace {
        files,
        crate_roots,
        unresolved_mods: unresolved,
    })
}

/// The root crate's name from its `Cargo.toml` (first `name = "..."`),
/// falling back to the directory name.
fn root_crate_name(root: &Path) -> String {
    if let Ok(manifest) = std::fs::read_to_string(root.join("Cargo.toml")) {
        for line in manifest.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    let v = v.trim().trim_matches('"');
                    if !v.is_empty() {
                        return v.to_string();
                    }
                }
            }
        }
    }
    root.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "root".to_string())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[allow(clippy::too_many_arguments)]
fn walk_module_tree(
    root: &Path,
    crate_name: &str,
    path: &Path,
    ctx: Context,
    is_crate_root: bool,
    files: &mut Vec<SourceFile>,
    visited: &mut BTreeSet<PathBuf>,
    unresolved: &mut Vec<String>,
) -> Result<(), String> {
    if !visited.insert(path.to_path_buf()) {
        return Ok(());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let tokens = lex(&text);
    let exempt = test_exempt_regions(&tokens);
    let children = child_modules(&tokens);
    let file = SourceFile {
        rel: rel_path(root, path),
        crate_name: crate_name.to_string(),
        context: ctx,
        is_crate_root,
        text,
        tokens,
        exempt,
    };
    files.push(file);

    // `mod m;` in `lib.rs` / `main.rs` / `mod.rs` resolves next to the
    // file; in `name.rs` it resolves under `name/`.
    let file_name = path.file_name().map(|n| n.to_string_lossy().into_owned());
    let base = if matches!(file_name.as_deref(), Some("lib.rs" | "main.rs" | "mod.rs")) {
        path.parent().map(Path::to_path_buf)
    } else {
        path.parent()
            .zip(path.file_stem())
            .map(|(p, stem)| p.join(stem))
    };
    let Some(base) = base else { return Ok(()) };
    for m in children {
        let flat = base.join(format!("{m}.rs"));
        let nested = base.join(&m).join("mod.rs");
        let child = if flat.is_file() {
            flat
        } else if nested.is_file() {
            nested
        } else {
            unresolved.push(format!("{}: mod {m}", rel_path(root, path)));
            continue;
        };
        walk_module_tree(
            root, crate_name, &child, ctx, false, files, visited, unresolved,
        )?;
    }
    Ok(())
}

/// Out-of-line child modules: every `mod name ;` token triple.
fn child_modules(tokens: &[Token]) -> Vec<String> {
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let mut out = Vec::new();
    for w in code.windows(3) {
        if w[0].is_ident("mod") && w[1].kind == TokenKind::Ident && w[2].is_punct(";") {
            out.push(w[1].text.trim_start_matches("r#").to_string());
        }
    }
    out
}

/// Token ranges covered by `#[cfg(test)]` items and `#[test]`-style
/// functions (any attribute whose last path segment is `test`,
/// covering `#[test]` and `#[proptest]`-like wrappers).
fn test_exempt_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(attr_end) = matching_punct(tokens, i + 1, "[", "]") else {
            break;
        };
        if attribute_is_test(&tokens[i + 2..attr_end]) {
            // Skip any further attributes, then the item itself.
            let mut j = attr_end + 1;
            while j < tokens.len()
                && tokens[j].is_punct("#")
                && tokens.get(j + 1).is_some_and(|t| t.is_punct("["))
            {
                match matching_punct(tokens, j + 1, "[", "]") {
                    Some(e) => j = e + 1,
                    None => break,
                }
            }
            let item_end = item_extent(tokens, j);
            if out.last().is_some_and(|&(_, b)| attr_start < b) {
                // Nested inside an already-exempt region; extend it.
                if let Some(last) = out.last_mut() {
                    last.1 = last.1.max(item_end);
                }
            } else {
                out.push((attr_start, item_end));
            }
            i = item_end;
        } else {
            i = attr_end + 1;
        }
    }
    out
}

/// Does the attribute body mark test-only code? Matches `cfg(test)`
/// (any `cfg(...)` mentioning `test`) and `...test]` paths.
fn attribute_is_test(body: &[Token]) -> bool {
    if body.first().is_some_and(|t| t.is_ident("cfg")) {
        // `cfg(not(test))` gates *live* code; anything else naming
        // `test` (plain, `any`, `all`) gates test-only code.
        return body.iter().any(|t| t.is_ident("test")) && !body.iter().any(|t| t.is_ident("not"));
    }
    body.last().is_some_and(|t| t.is_ident("test"))
}

/// Index just past the item starting at `start`: through the matching
/// `}` of its first body brace, or past the terminating `;`.
fn item_extent(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => {
                    if let Some(end) = matching_punct(tokens, i, "{", "}") {
                        return end + 1;
                    }
                    return tokens.len();
                }
                ";" if depth == 0 => return i + 1,
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Test-only constructor: a lexed in-memory file with exempt regions
/// computed, used by the lint unit tests.
#[cfg(test)]
pub(crate) fn test_file(src: &str, context: Context, is_crate_root: bool) -> SourceFile {
    let tokens = lex(src);
    let exempt = test_exempt_regions(&tokens);
    SourceFile {
        rel: "crates/x/src/lib.rs".into(),
        crate_name: "x".into(),
        context,
        is_crate_root,
        text: src.into(),
        tokens,
        exempt,
    }
}

/// Test-only constructor: a workspace of one library file.
#[cfg(test)]
pub(crate) fn test_workspace(src: &str) -> Workspace {
    Workspace {
        files: vec![test_file(src, Context::Lib, false)],
        crate_roots: vec![],
        unresolved_mods: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_from(src: &str) -> SourceFile {
        test_file(src, Context::Lib, false)
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn b() { y.unwrap(); }\n}\nfn c() {}";
        let f = file_from(src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.is_exempt(unwraps[0]), "library unwrap is live");
        assert!(f.is_exempt(unwraps[1]), "test-module unwrap is exempt");
        let c = f.tokens.iter().position(|t| t.is_ident("c")).unwrap();
        assert!(!f.is_exempt(c), "code after the test module is live");
    }

    #[test]
    fn test_fn_attribute_is_exempt() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn live() { y.unwrap(); }";
        let f = file_from(src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert!(f.is_exempt(unwraps[0]));
        assert!(!f.is_exempt(unwraps[1]));
    }

    #[test]
    fn cfg_test_use_item_is_exempt_to_semicolon() {
        let src = "#[cfg(test)]\nuse proptest::prelude::*;\nfn live() {}";
        let f = file_from(src);
        let live = f.tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!f.is_exempt(live));
    }

    #[test]
    fn other_attributes_are_not_exempt() {
        let src = "#[derive(Debug)]\nstruct S { x: u8 }\nfn live() { v.unwrap(); }";
        let f = file_from(src);
        let u = f.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!f.is_exempt(u));
    }

    #[test]
    fn child_modules_found() {
        let mods = child_modules(&lex(
            "pub mod alpha;\nmod beta;\nmod inline { }\n// mod nope;",
        ));
        assert_eq!(mods, vec!["alpha".to_string(), "beta".to_string()]);
    }
}
