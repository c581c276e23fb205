//! A hand-rolled Rust lexer, just deep enough for the call graph.
//!
//! The parser and the rules in this crate reason about *tokens*, never raw
//! text, so that a `panic!` or an `x[i]` inside a string literal can never
//! confuse them. The lexer therefore has to get the genuinely
//! tricky parts of Rust's surface syntax right:
//!
//! - raw strings with arbitrary `#` fences (`r##"…"##`), byte and raw-byte
//!   strings, and raw identifiers (`r#match`);
//! - nested block comments (`/* /* */ */`);
//! - lifetimes vs. char literals (`'a` vs `'a'` vs `'\u{1F980}'`);
//! - comments, which are kept as tokens because they carry the
//!   `// arc-lint:` directives (`decode-root`, `allow`, `bounded`).
//!
//! It does **not** build a full AST: [`crate::syntax`] pattern-matches
//! token windows plus per-line metadata, which is all the cone rules need
//! and keeps the engine dependency-free and fast.

/// Classification of a single token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, stored without `r#`).
    Ident,
    /// A lifetime such as `'a` or `'static` (stored with the leading `'`).
    Lifetime,
    /// Character literal, including byte chars (`'x'`, `b'\n'`).
    CharLit,
    /// String literal of any flavour (regular, raw, byte, raw byte). The
    /// stored text is the literal body *without* quotes or fences, so rules
    /// can compare contents directly.
    StrLit,
    /// Numeric literal (integers, floats, any radix, with suffixes).
    NumLit,
    /// `// …` comment, doc or not. Text includes the leading slashes.
    LineComment,
    /// `/* … */` comment (possibly spanning lines). Text includes delimiters.
    BlockComment,
    /// Any single punctuation character (`.`, `!`, `{`, …).
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for per-kind conventions).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based column of the token's first character.
    pub col: usize,
}

/// A lexing failure (unterminated literal or comment). The engine reports
/// these as findings instead of panicking — the lint gate must never abort
/// on malformed input, per the invariant it exists to enforce.
#[derive(Debug, Clone)]
pub struct LexError {
    /// 1-based line where the unterminated construct started.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn new(text: &str) -> Cursor {
        Cursor { chars: text.chars().collect(), pos: 0, line: 1, col: 1 }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        c
    }

    fn eat(&mut self, expected: char) -> bool {
        if self.peek() == Some(expected) {
            self.bump();
            true
        } else {
            false
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `text` into a token stream. Whitespace is dropped; comments are kept.
pub fn lex(text: &str) -> Result<Vec<Token>, LexError> {
    let mut cur = Cursor::new(text);
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' {
            match cur.peek_at(1) {
                Some('/') => {
                    out.push(lex_line_comment(&mut cur, line, col));
                    continue;
                }
                Some('*') => {
                    out.push(lex_block_comment(&mut cur, line, col)?);
                    continue;
                }
                _ => {}
            }
        }
        // Raw strings / byte strings / C strings / raw identifiers start with
        // `r`, `b`, or `c` and must be recognized before generic identifier
        // lexing.
        if (c == 'r' || c == 'b' || c == 'c')
            && lex_prefixed_literal(&mut cur, &mut out, line, col)?
        {
            continue;
        }
        if c == '"' {
            out.push(lex_string(&mut cur, line, col)?);
            continue;
        }
        if c == '\'' {
            out.push(lex_quote(&mut cur, line, col)?);
            continue;
        }
        if c.is_ascii_digit() {
            out.push(lex_number(&mut cur, line, col));
            continue;
        }
        if is_ident_start(c) {
            out.push(lex_ident(&mut cur, line, col));
            continue;
        }
        cur.bump();
        out.push(Token { kind: TokKind::Punct, text: c.to_string(), line, col });
    }
    Ok(out)
}

fn lex_line_comment(cur: &mut Cursor, line: usize, col: usize) -> Token {
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    Token { kind: TokKind::LineComment, text, line, col }
}

fn lex_block_comment(cur: &mut Cursor, line: usize, col: usize) -> Result<Token, LexError> {
    let mut text = String::new();
    let mut depth = 0usize;
    loop {
        match (cur.peek(), cur.peek_at(1)) {
            (Some('/'), Some('*')) => {
                depth += 1;
                text.push('/');
                text.push('*');
                cur.bump();
                cur.bump();
            }
            (Some('*'), Some('/')) => {
                depth -= 1;
                text.push('*');
                text.push('/');
                cur.bump();
                cur.bump();
                if depth == 0 {
                    return Ok(Token { kind: TokKind::BlockComment, text, line, col });
                }
            }
            (Some(_), _) => {
                if let Some(c) = cur.bump() {
                    text.push(c);
                }
            }
            (None, _) => {
                return Err(LexError { line, message: "unterminated block comment".into() });
            }
        }
    }
}

/// Handle `r"…"`, `r#"…"#`, `b"…"`, `b'…'`, `br#"…"#`, `c"…"`, `cr#"…"#`
/// and raw identifiers. Returns `Ok(true)` when a token was produced,
/// `Ok(false)` when the `r`/`b`/`c` is just the start of an ordinary
/// identifier.
fn lex_prefixed_literal(
    cur: &mut Cursor,
    out: &mut Vec<Token>,
    line: usize,
    col: usize,
) -> Result<bool, LexError> {
    let c = cur.peek().unwrap_or(' ');
    // How many chars of prefix before a possible fence/quote?
    let (skip, raw) = match (c, cur.peek_at(1)) {
        ('r', Some('"')) | ('r', Some('#')) => (1, true),
        ('b', Some('"')) | ('c', Some('"')) => (1, false),
        ('b', Some('\'')) => {
            // Byte char literal: consume `b`, then lex as a quote literal.
            cur.bump();
            let tok = lex_quote(cur, line, col)?;
            out.push(tok);
            return Ok(true);
        }
        ('b', Some('r')) | ('c', Some('r')) => match cur.peek_at(2) {
            Some('"') | Some('#') => (2, true),
            _ => return Ok(false),
        },
        _ => return Ok(false),
    };
    if raw {
        // Count the `#` fence, then require `"`. `r#ident` (raw identifier)
        // has ident chars after a single `#` instead of a quote.
        let mut fence = 0usize;
        while cur.peek_at(skip + fence) == Some('#') {
            fence += 1;
        }
        if cur.peek_at(skip + fence) != Some('"') {
            if fence == 1 && skip == 1 {
                // Raw identifier `r#match`: skip the prefix, lex the ident.
                cur.bump();
                cur.bump();
                let tok = lex_ident(cur, line, col);
                out.push(tok);
                return Ok(true);
            }
            return Ok(false);
        }
        for _ in 0..skip + fence + 1 {
            cur.bump();
        }
        let mut text = String::new();
        loop {
            match cur.peek() {
                Some('"') => {
                    // A closing quote must be followed by `fence` hashes.
                    let mut matched = true;
                    for i in 0..fence {
                        if cur.peek_at(1 + i) != Some('#') {
                            matched = false;
                            break;
                        }
                    }
                    if matched {
                        for _ in 0..fence + 1 {
                            cur.bump();
                        }
                        out.push(Token { kind: TokKind::StrLit, text, line, col });
                        return Ok(true);
                    }
                    text.push('"');
                    cur.bump();
                }
                Some(_) => {
                    if let Some(ch) = cur.bump() {
                        text.push(ch);
                    }
                }
                None => {
                    return Err(LexError { line, message: "unterminated raw string".into() });
                }
            }
        }
    } else {
        // Byte string `b"…"` / C string `c"…"`: skip the prefix, lex like a
        // normal string.
        cur.bump();
        let tok = lex_string(cur, line, col)?;
        out.push(tok);
        Ok(true)
    }
}

fn lex_string(cur: &mut Cursor, line: usize, col: usize) -> Result<Token, LexError> {
    cur.bump(); // opening quote
    let mut text = String::new();
    loop {
        match cur.bump() {
            Some('"') => return Ok(Token { kind: TokKind::StrLit, text, line, col }),
            Some('\\') => {
                text.push('\\');
                if let Some(esc) = cur.bump() {
                    text.push(esc);
                }
            }
            Some(c) => text.push(c),
            None => return Err(LexError { line, message: "unterminated string literal".into() }),
        }
    }
}

/// Disambiguate `'a` (lifetime) from `'a'` / `'\n'` / `'é'` (char literal).
fn lex_quote(cur: &mut Cursor, line: usize, col: usize) -> Result<Token, LexError> {
    cur.bump(); // the opening `'`
    match cur.peek() {
        Some('\\') => {
            // Escaped char literal: consume the backslash and the escaped
            // char unconditionally (so `'\''` does not close on the escaped
            // quote), then scan to the closing quote (covers `'\u{…}'`).
            let mut text = String::from("'");
            for _ in 0..2 {
                if let Some(c) = cur.bump() {
                    text.push(c);
                }
            }
            while let Some(c) = cur.bump() {
                text.push(c);
                if c == '\'' {
                    return Ok(Token { kind: TokKind::CharLit, text, line, col });
                }
            }
            Err(LexError { line, message: "unterminated char literal".into() })
        }
        Some(c) if is_ident_start(c) => {
            // Could be `'a'` (char) or `'a` / `'static` (lifetime): scan the
            // identifier, then look for a closing quote.
            let mut text = String::from("'");
            while let Some(c) = cur.peek() {
                if is_ident_continue(c) {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            if cur.eat('\'') {
                text.push('\'');
                Ok(Token { kind: TokKind::CharLit, text, line, col })
            } else {
                Ok(Token { kind: TokKind::Lifetime, text, line, col })
            }
        }
        Some(c) => {
            // Single non-identifier char such as `'('` or `'é'`.
            cur.bump();
            if cur.eat('\'') {
                Ok(Token { kind: TokKind::CharLit, text: format!("'{c}'"), line, col })
            } else {
                Err(LexError { line, message: "unterminated char literal".into() })
            }
        }
        None => Err(LexError { line, message: "dangling quote at end of file".into() }),
    }
}

fn lex_number(cur: &mut Cursor, line: usize, col: usize) -> Token {
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c.is_alphanumeric() || c == '_' {
            text.push(c);
            cur.bump();
            // Allow an exponent sign directly after `e`/`E` in float syntax.
            if (c == 'e' || c == 'E') && matches!(cur.peek(), Some('+') | Some('-')) {
                // Only if a digit follows the sign — `1e-3` yes, `1e - x` no.
                if cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
                    if let Some(sign) = cur.bump() {
                        text.push(sign);
                    }
                }
            }
        } else if c == '.' && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
            // Fractional part; `1..n` range syntax keeps the dot as punct.
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    Token { kind: TokKind::NumLit, text, line, col }
}

fn lex_ident(cur: &mut Cursor, line: usize, col: usize) -> Token {
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if is_ident_continue(c) {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    Token { kind: TokKind::Ident, text, line, col }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).unwrap().into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a u8) { let c = 'a'; let d = '\\n'; let s = '_'; }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).map(|(_, t)| t.clone()).collect();
        let chars: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::CharLit).map(|(_, t)| t.clone()).collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        assert_eq!(chars, vec!["'a'", "'\\n'", "'_'"]);
    }

    #[test]
    fn escaped_quote_char_literal() {
        let toks = kinds("let q = '\\''; let l = 'a;");
        assert!(toks.contains(&(TokKind::CharLit, "'\\''".into())));
        assert!(toks.contains(&(TokKind::Lifetime, "'a".into())));
    }

    #[test]
    fn static_lifetime_and_unicode_char() {
        let toks = kinds("let x: &'static str = \"s\"; let c = 'é';");
        assert!(toks.contains(&(TokKind::Lifetime, "'static".into())));
        assert!(toks.contains(&(TokKind::CharLit, "'é'".into())));
    }

    #[test]
    fn raw_strings_with_fences() {
        let toks = kinds(r####"let a = r"x"; let b = r#"say "hi""#; let c = r##"#"##;"####);
        let strs: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::StrLit).map(|(_, t)| t.clone()).collect();
        assert_eq!(strs, vec!["x", "say \"hi\"", "#"]);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds("let a = b\"bytes\"; let c = b'x';");
        assert!(toks.contains(&(TokKind::StrLit, "bytes".into())));
        assert!(toks.contains(&(TokKind::CharLit, "'x'".into())));
    }

    #[test]
    fn raw_byte_strings_with_fences() {
        let toks = kinds(r####"let a = br"x"; let b = br#"say "hi""#;"####);
        let strs: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::StrLit).map(|(_, t)| t.clone()).collect();
        assert_eq!(strs, vec!["x", "say \"hi\""]);
    }

    #[test]
    fn c_strings_plain_and_raw() {
        let toks = kinds(r####"let a = c"nul-terminated"; let b = cr#"raw "c""#;"####);
        let strs: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::StrLit).map(|(_, t)| t.clone()).collect();
        assert_eq!(strs, vec!["nul-terminated", "raw \"c\""]);
        // A `;` inside a C string must not look like a statement boundary to
        // downstream rules.
        let toks = kinds("let a = c\"one; two\";");
        assert!(toks.contains(&(TokKind::StrLit, "one; two".into())));
    }

    #[test]
    fn c_and_cr_still_lex_as_identifiers() {
        let toks = kinds("let c = cr + 1; fn crate_fn(c: u8) {}");
        let idents: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokKind::Ident).map(|(_, t)| t.clone()).collect();
        assert!(idents.contains(&"c".to_string()));
        assert!(idents.contains(&"cr".to_string()));
        assert!(idents.contains(&"crate_fn".to_string()));
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#match = 1;");
        assert!(toks.contains(&(TokKind::Ident, "match".into())));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still outer */ fn f() {}");
        assert_eq!(toks[0].0, TokKind::BlockComment);
        assert!(toks[0].1.contains("inner"));
        assert!(toks.contains(&(TokKind::Ident, "fn".into())));
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        assert!(lex("/* never closed").is_err());
        assert!(lex("let s = \"open").is_err());
    }

    #[test]
    fn keywords_in_strings_are_not_idents() {
        let toks = kinds("let s = \"unsafe panic! unwrap()\";");
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "unsafe"));
        assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "panic"));
    }

    #[test]
    fn numbers_floats_and_ranges() {
        let toks = kinds("let a = 1.5e-3; let b = 0x1F; for i in 1..10 {}");
        assert!(toks.contains(&(TokKind::NumLit, "1.5e-3".into())));
        assert!(toks.contains(&(TokKind::NumLit, "0x1F".into())));
        // `1..10` must lex as number, punct, punct, number.
        assert!(toks.contains(&(TokKind::NumLit, "1".into())));
        assert!(toks.contains(&(TokKind::NumLit, "10".into())));
    }

    #[test]
    fn line_positions_are_tracked() {
        let toks = lex("a\nbb\n  ccc").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 1));
        assert_eq!((toks[2].line, toks[2].col), (3, 3));
    }
}
