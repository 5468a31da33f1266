//! Workspace-level symbol indexing over the hand-rolled lexer.
//!
//! The index finds every `fn` item the walker reached (library context
//! only, test-exempt regions excluded), records which `impl` block it
//! lives in and whether it takes `self`, and keys everything by bare
//! name so the call-graph layer can resolve call sites with the same
//! convention rules the walker uses for files — no `syn`, no type
//! information, deliberately conservative.
//!
//! What a symbol knows:
//!
//! * its crate (directory name), module (file stem), and `impl` type,
//!   which together drive qualified-path resolution (`queries::waste`,
//!   `CellCache::get`, `dck_sim::run_sweep`);
//! * the token range of its body, so call sites and panic/source
//!   tokens can be attributed to the innermost enclosing function;
//! * whether it takes `self`, so `.name(...)` method calls only ever
//!   resolve to methods.

use crate::lexer::{matching_punct, next_code, Token, TokenKind};
use crate::walker::{Context, SourceFile, Workspace};
use std::collections::BTreeMap;

/// One indexed function item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the defining file in [`Workspace::files`].
    pub file: usize,
    /// Owning crate (directory name; `dck` for the root crate).
    pub crate_name: String,
    /// Module name: the file stem (`sweep` for `src/sweep.rs`), or the
    /// crate name for `lib.rs`/`main.rs`/`mod.rs` roots.
    pub module: String,
    /// Bare function name.
    pub name: String,
    /// `impl` block type when the fn is an associated item.
    pub impl_type: Option<String>,
    /// True when the signature's first parameter is (a borrow of)
    /// `self` — i.e. the fn is callable as a method.
    pub has_self: bool,
    /// 1-based line of the fn name token.
    pub line: u32,
    /// 1-based column of the fn name token.
    pub col: u32,
    /// Inclusive token-index range of the body braces; `None` for a
    /// bodyless declaration (trait method signature).
    pub body: Option<(usize, usize)>,
}

impl FnDef {
    /// Human-readable qualified name: `crate::Type::name` or
    /// `crate::name`.
    pub fn qual(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}::{}", self.crate_name, t, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// The workspace symbol index: every reachable `fn`, keyed by name.
#[derive(Debug)]
pub struct SymbolIndex {
    /// All indexed functions, in file order then token order.
    pub fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
    /// Per-file list of fn ids sorted by body start, for enclosing-fn
    /// lookup.
    per_file: Vec<Vec<usize>>,
}

impl SymbolIndex {
    /// Builds the index over every library-context file.
    pub fn build(ws: &Workspace) -> SymbolIndex {
        let mut fns = Vec::new();
        let mut per_file = vec![Vec::new(); ws.files.len()];
        for (fi, file) in ws.files.iter().enumerate() {
            if file.context != Context::Lib {
                continue;
            }
            for def in index_file(file, fi) {
                per_file[fi].push(fns.len());
                fns.push(def);
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        SymbolIndex {
            fns,
            by_name,
            per_file,
        }
    }

    /// All fns sharing a bare name.
    pub fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The innermost fn whose body contains token `tok` of file `file`
    /// (nested items resolve to the nested fn).
    pub fn enclosing_fn(&self, file: usize, tok: usize) -> Option<usize> {
        self.per_file
            .get(file)?
            .iter()
            .copied()
            .filter(|&id| self.fns[id].body.is_some_and(|(a, b)| a <= tok && tok <= b))
            .min_by_key(|&id| {
                let (a, b) = self.fns[id].body.unwrap_or((0, usize::MAX));
                b - a
            })
    }
}

/// Scans one file for fn items, tracking `impl` blocks.
fn index_file(file: &SourceFile, fi: usize) -> Vec<FnDef> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    // Stack of (body close index, impl type) for impl blocks we are in.
    let mut impls: Vec<(usize, String)> = Vec::new();
    let module = module_name(file);
    for (i, t) in toks.iter().enumerate() {
        while impls.last().is_some_and(|&(end, _)| i > end) {
            impls.pop();
        }
        if t.is_ident("impl") {
            if let Some((ty, body_open)) = parse_impl_header(toks, i) {
                if let Some(body_close) = matching_punct(toks, body_open, "{", "}") {
                    impls.push((body_close, ty));
                }
            }
        } else if t.is_ident("fn") {
            // Keep scanning from the next token (not past the body) so
            // nested fns inside this body are indexed too.
            if let Some(def) = parse_fn(file, fi, toks, i, &impls, &module) {
                out.push(def);
            }
        }
    }
    out
}

/// The module name a qualified call would use for this file.
fn module_name(file: &SourceFile) -> String {
    let stem = file
        .rel
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    match stem {
        "lib" | "main" | "mod" => file.crate_name.clone(),
        other => other.to_string(),
    }
}

/// Parses `impl [<...>] Type {` / `impl [<...>] Trait for Type {`,
/// returning the implemented type name and the body-open brace index.
fn parse_impl_header(toks: &[Token], impl_idx: usize) -> Option<(String, usize)> {
    let mut angle = 0i32;
    let mut after_for: Option<String> = None;
    let mut first_ident: Option<String> = None;
    let mut saw_for = false;
    for (j, t) in toks.iter().enumerate().skip(impl_idx + 1) {
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "{" if angle <= 0 => {
                    let ty = after_for.or(first_ident)?;
                    return Some((ty, j));
                }
                ";" => return None, // `impl Trait for Type;` — not a block
                _ => {}
            },
            TokenKind::Ident if angle <= 0 => {
                if t.text == "for" {
                    saw_for = true;
                } else if t.text != "dyn" && t.text != "where" {
                    if saw_for {
                        if after_for.is_none() {
                            after_for = Some(t.text.clone());
                        }
                    } else if first_ident.is_none() {
                        first_ident = Some(t.text.clone());
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses the fn item whose `fn` keyword sits at `fn_idx`.
fn parse_fn(
    file: &SourceFile,
    fi: usize,
    toks: &[Token],
    fn_idx: usize,
    impls: &[(usize, String)],
    module: &str,
) -> Option<FnDef> {
    let name_idx = next_code(toks, fn_idx + 1)?;
    let name_tok = &toks[name_idx];
    if name_tok.kind != TokenKind::Ident {
        return None; // `fn(...)` pointer type
    }
    if file.is_exempt(name_idx) {
        return None; // test-only item
    }
    // Signature parens (skip generics between name and `(`).
    let mut j = name_idx + 1;
    let mut angle = 0i32;
    let paren_open = loop {
        let t = toks.get(j)?;
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "(" if angle <= 0 => break j,
                ";" | "{" => return None, // malformed
                _ => {}
            }
        }
        j += 1;
    };
    let paren_close = matching_punct(toks, paren_open, "(", ")")?;
    // `self` before the first top-level comma marks a method.
    let mut has_self = false;
    let mut depth = 0i32;
    for t in &toks[paren_open + 1..paren_close] {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "," if depth == 0 => break,
                _ => {}
            }
        } else if depth == 0 && t.is_ident("self") {
            has_self = true;
            break;
        }
    }
    // Body: the first `{` at paren/bracket depth 0 after the signature,
    // or `;` for a bodyless declaration.
    let mut body = None;
    let mut depth = 0i32;
    let mut k = paren_close + 1;
    while let Some(t) = toks.get(k) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let close = matching_punct(toks, k, "{", "}")?;
                    body = Some((k, close));
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        k += 1;
    }
    let impl_type = impls
        .iter()
        .rev()
        .find(|&&(end, _)| fn_idx <= end)
        .map(|(_, ty)| ty.clone());
    Some(FnDef {
        file: fi,
        crate_name: file.crate_name.clone(),
        module: module.to_string(),
        name: name_tok.text.trim_start_matches("r#").to_string(),
        impl_type,
        has_self,
        line: name_tok.line,
        col: name_tok.col,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::walker::test_file;

    fn index_src(src: &str) -> Vec<FnDef> {
        let f = test_file(src, Context::Lib, false);
        index_file(&f, 0)
    }

    #[test]
    fn free_fns_and_methods_are_distinguished() {
        let src = "pub fn free(x: u8) -> u8 { x }\n\
                   struct S;\n\
                   impl S {\n  pub fn method(&self) -> u8 { 1 }\n  fn assoc() -> u8 { 2 }\n}\n";
        let fns = index_src(src);
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].name, "free");
        assert!(!fns[0].has_self);
        assert_eq!(fns[1].name, "method");
        assert!(fns[1].has_self);
        assert_eq!(fns[1].impl_type.as_deref(), Some("S"));
        assert_eq!(fns[2].name, "assoc");
        assert!(!fns[2].has_self);
        assert_eq!(fns[2].impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn trait_impls_attribute_to_the_type_not_the_trait() {
        let src = "impl Display for Waste {\n  fn fmt(&self, f: &mut F) -> R { todo_ }\n}";
        let fns = index_src(src);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Waste"));
        assert!(fns[0].has_self);
    }

    #[test]
    fn generic_headers_and_where_clauses_survive() {
        let src = "impl<T: Clone> Runner<T> for Chunk<T> {\n\
                     fn drive<F>(&mut self, f: F) -> u8 where F: Fn(usize) -> u8 { f(0) }\n}\n\
                   pub fn run<A: Into<B>>(a: A) -> B { a.into() }";
        let fns = index_src(src);
        assert_eq!(fns[0].name, "drive");
        assert_eq!(fns[0].impl_type.as_deref(), Some("Chunk"));
        assert_eq!(fns[1].name, "run");
        assert!(fns[1].body.is_some());
    }

    #[test]
    fn bodyless_trait_signatures_have_no_body() {
        let fns = index_src("trait T {\n  fn sig(&self) -> u8;\n  fn with(&self) -> u8 { 1 }\n}");
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_none());
        assert!(fns[1].body.is_some());
    }

    #[test]
    fn test_exempt_fns_are_skipped() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}";
        let fns = index_src(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "live");
    }

    #[test]
    fn enclosing_fn_picks_the_innermost() {
        let src = "fn outer() {\n  fn inner() { mark(); }\n  inner();\n}";
        let ws = crate::walker::test_workspace(src);
        let idx = SymbolIndex::build(&ws);
        assert_eq!(idx.fns.len(), 2);
        let toks = lex(src);
        let mark = toks.iter().position(|t| t.is_ident("mark")).unwrap();
        let inner_call = toks.iter().rposition(|t| t.is_ident("inner")).unwrap();
        let mark_owner = idx.enclosing_fn(0, mark).unwrap();
        let call_owner = idx.enclosing_fn(0, inner_call).unwrap();
        assert_eq!(idx.fns[mark_owner].name, "inner");
        assert_eq!(idx.fns[call_owner].name, "outer");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let fns = index_src("fn real(cb: fn(u8) -> u8) -> u8 { cb(1) }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }
}
