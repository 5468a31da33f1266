//! A hand-rolled Rust lexer: good enough to drive token-pattern lints.
//!
//! The lexer understands everything a lint must never be confused by —
//! nested block comments, raw/byte strings, char literals vs
//! lifetimes, raw identifiers, float vs integer literals, multi-char
//! operators — and deliberately nothing more. It has no notion of
//! syntax trees; the lints pattern-match over the token stream.

/// The coarse classification a lint needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, `r#match`).
    Ident,
    /// Lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `1e-9`, `2.5f32`).
    Float,
    /// String, raw-string, byte-string or C-string literal.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// `// ...` comment, including doc comments (`///`, `//!`).
    LineComment,
    /// `/* ... */` comment, nesting-aware.
    BlockComment,
    /// Operator or delimiter; multi-char operators are one token.
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True when this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }

    /// True for tokens that carry code (not comments).
    pub(crate) fn is_code(&self) -> bool {
        !matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Index of the first code token at or after `from`.
pub(crate) fn next_code(toks: &[Token], from: usize) -> Option<usize> {
    (from..toks.len()).find(|&i| toks[i].is_code())
}

/// Index of the last code token before `i`.
pub(crate) fn prev_code(toks: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&p| toks[p].is_code())
}

/// Matching closer `r` for the opener `l` at `open`.
pub(crate) fn matching_punct(toks: &[Token], open: usize, l: &str, r: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(l) {
            depth += 1;
        } else if t.is_punct(r) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Multi-character operators, longest first so maximal munch works.
const OPERATORS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            // Count characters, not UTF-8 continuation bytes.
            self.col += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens. Whitespace is dropped; comments are kept
/// (the todo-marker lint reads them). Unterminated constructs are
/// tolerated: the rest of the file becomes one token, so a lint pass
/// never aborts on malformed input.
pub fn lex(src: &str) -> Vec<Token> {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(b) = c.peek(0) {
        let (line, col, start) = (c.line, c.col, c.pos);
        let kind = if b.is_ascii_whitespace() {
            c.bump();
            continue;
        } else if c.starts_with("//") {
            while let Some(b) = c.peek(0) {
                if b == b'\n' {
                    break;
                }
                c.bump();
            }
            TokenKind::LineComment
        } else if c.starts_with("/*") {
            c.bump();
            c.bump();
            let mut depth = 1usize;
            while depth > 0 && c.peek(0).is_some() {
                if c.starts_with("/*") {
                    depth += 1;
                    c.bump();
                    c.bump();
                } else if c.starts_with("*/") {
                    depth -= 1;
                    c.bump();
                    c.bump();
                } else {
                    c.bump();
                }
            }
            TokenKind::BlockComment
        } else if is_raw_string_start(&c) {
            lex_raw_string(&mut c);
            TokenKind::Str
        } else if b == b'r' && c.peek(1) == Some(b'#') && c.peek(2).is_some_and(is_ident_start) {
            // Raw identifier r#name.
            c.bump();
            c.bump();
            while c.peek(0).is_some_and(is_ident_continue) {
                c.bump();
            }
            TokenKind::Ident
        } else if b == b'b' && c.peek(1) == Some(b'\'') {
            c.bump();
            lex_char(&mut c);
            TokenKind::Char
        } else if b == b'b' && c.peek(1) == Some(b'"') {
            c.bump();
            lex_string(&mut c);
            TokenKind::Str
        } else if is_ident_start(b) {
            while c.peek(0).is_some_and(is_ident_continue) {
                c.bump();
            }
            TokenKind::Ident
        } else if b == b'\'' {
            // Lifetime or char literal. A lifetime is `'` followed by an
            // identifier *not* closed by another `'`.
            let mut i = 1;
            while c.peek(i).is_some_and(is_ident_continue) {
                i += 1;
            }
            if i > 1 && c.peek(i) != Some(b'\'') {
                c.bump();
                while c.peek(0).is_some_and(is_ident_continue) {
                    c.bump();
                }
                TokenKind::Lifetime
            } else {
                lex_char(&mut c);
                TokenKind::Char
            }
        } else if b == b'"' {
            lex_string(&mut c);
            TokenKind::Str
        } else if b.is_ascii_digit() {
            lex_number(&mut c)
        } else {
            let mut matched = false;
            for op in OPERATORS {
                if c.starts_with(op) {
                    for _ in 0..op.len() {
                        c.bump();
                    }
                    matched = true;
                    break;
                }
            }
            if !matched {
                c.bump();
            }
            TokenKind::Punct
        };
        out.push(Token {
            kind,
            text: src[start..c.pos].to_string(),
            line,
            col,
        });
    }
    out
}

/// `r"`, `r#"`, `br"`, `br#"`, `c"` ... — raw and prefixed strings.
fn is_raw_string_start(c: &Cursor<'_>) -> bool {
    let mut i = 0;
    if matches!(c.peek(0), Some(b'b' | b'c')) {
        i = 1;
    }
    if c.peek(i) != Some(b'r') {
        return false;
    }
    i += 1;
    while c.peek(i) == Some(b'#') {
        i += 1;
    }
    c.peek(i) == Some(b'"')
}

fn lex_raw_string(c: &mut Cursor<'_>) {
    while c.peek(0).is_some_and(|b| b != b'"') {
        c.bump();
    }
    // Count the opening hashes just consumed.
    let hashes = {
        let mut n = 0;
        let mut back = c.pos;
        while back > 0 && c.src[back - 1] == b'#' {
            n += 1;
            back -= 1;
        }
        n
    };
    c.bump(); // opening quote
    loop {
        match c.bump() {
            None => return,
            Some(b'"') => {
                let mut seen = 0;
                while seen < hashes && c.peek(0) == Some(b'#') {
                    c.bump();
                    seen += 1;
                }
                if seen == hashes {
                    return;
                }
            }
            Some(_) => {}
        }
    }
}

fn lex_string(c: &mut Cursor<'_>) {
    c.bump(); // opening quote
    loop {
        match c.bump() {
            None | Some(b'"') => return,
            Some(b'\\') => {
                c.bump();
            }
            Some(_) => {}
        }
    }
}

fn lex_char(c: &mut Cursor<'_>) {
    c.bump(); // opening quote
    loop {
        match c.bump() {
            None | Some(b'\'') => return,
            Some(b'\\') => {
                c.bump();
            }
            Some(_) => {}
        }
    }
}

fn lex_number(c: &mut Cursor<'_>) -> TokenKind {
    let mut float = false;
    // Radix prefixes never start a float.
    if c.peek(0) == Some(b'0') && matches!(c.peek(1), Some(b'x' | b'o' | b'b')) {
        c.bump();
        c.bump();
        while c.peek(0).is_some_and(is_ident_continue) {
            c.bump();
        }
        return TokenKind::Int;
    }
    while c.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
        c.bump();
    }
    // A `.` continues the number only when not `..` (range) and not a
    // method call on a literal (`1.max(2)`).
    if c.peek(0) == Some(b'.') && c.peek(1) != Some(b'.') && !c.peek(1).is_some_and(is_ident_start)
    {
        float = true;
        c.bump();
        while c.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            c.bump();
        }
    }
    // Exponent.
    if matches!(c.peek(0), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(c.peek(1), Some(b'+' | b'-')));
        if c.peek(1 + sign).is_some_and(|b| b.is_ascii_digit()) {
            float = true;
            c.bump();
            if sign == 1 {
                c.bump();
            }
            while c.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                c.bump();
            }
        }
    }
    // Type suffix (`u64`, `f32`, ...).
    let suffix_start = c.pos;
    while c.peek(0).is_some_and(is_ident_continue) {
        c.bump();
    }
    let suffix = &c.src[suffix_start..c.pos];
    if suffix == b"f32" || suffix == b"f64" {
        float = true;
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_keywords_and_raw_idents() {
        let k = kinds("fn r#match _x");
        assert_eq!(k[0], (TokenKind::Ident, "fn".into()));
        assert_eq!(k[1], (TokenKind::Ident, "r#match".into()));
        assert_eq!(k[2], (TokenKind::Ident, "_x".into()));
    }

    #[test]
    fn numbers_int_vs_float() {
        assert_eq!(kinds("42")[0].0, TokenKind::Int);
        assert_eq!(kinds("0xFF_u64")[0].0, TokenKind::Int);
        assert_eq!(kinds("1.0")[0].0, TokenKind::Float);
        assert_eq!(kinds("1e-9")[0].0, TokenKind::Float);
        assert_eq!(kinds("2f64")[0].0, TokenKind::Float);
        // `1..3` is int, dot-dot, int — not a float.
        let k = kinds("1..3");
        assert_eq!(k[0].0, TokenKind::Int);
        assert_eq!(k[1], (TokenKind::Punct, "..".into()));
        // Method call on a literal stays an int.
        assert_eq!(kinds("1.max(2)")[0], (TokenKind::Int, "1".into()));
        assert_eq!(kinds("1.5e3f32")[0].0, TokenKind::Float);
    }

    #[test]
    fn strings_and_chars_hide_their_contents() {
        let k = kinds(r#"let s = "a.unwrap() // not code";"#);
        assert_eq!(k[3].0, TokenKind::Str);
        assert_eq!(kinds("'\\n'")[0].0, TokenKind::Char);
        assert_eq!(kinds("b'x'")[0].0, TokenKind::Char);
        let k = kinds("r#\"raw \" inner\"# x");
        assert_eq!(k[0].0, TokenKind::Str);
        assert_eq!(k[1], (TokenKind::Ident, "x".into()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let k = kinds("&'a str");
        assert_eq!(k[1], (TokenKind::Lifetime, "'a".into()));
        assert_eq!(kinds("'x'")[0].0, TokenKind::Char);
        assert_eq!(kinds("'_")[0].0, TokenKind::Lifetime);
    }

    #[test]
    fn comments_nest_and_keep_text() {
        let k = kinds("/* outer /* inner */ still */ x // tail");
        assert_eq!(k[0].0, TokenKind::BlockComment);
        assert_eq!(k[1], (TokenKind::Ident, "x".into()));
        assert_eq!(k[2].0, TokenKind::LineComment);
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        let k = kinds("a::b == c != d ..= e");
        assert_eq!(k[1], (TokenKind::Punct, "::".into()));
        assert_eq!(k[3], (TokenKind::Punct, "==".into()));
        assert_eq!(k[5], (TokenKind::Punct, "!=".into()));
        assert_eq!(k[7], (TokenKind::Punct, "..=".into()));
    }

    #[test]
    fn positions_are_one_based_lines_and_cols() {
        let t = lex("ab\n  cd");
        assert_eq!((t[0].line, t[0].col), (1, 1));
        assert_eq!((t[1].line, t[1].col), (2, 3));
    }

    #[test]
    fn unterminated_input_does_not_hang() {
        assert!(!lex("\"open").is_empty());
        assert!(!lex("/* open").is_empty());
        assert!(!lex("r#\"open").is_empty());
    }
}
