//! Item-level syntax layer on the lexer: just enough structure for an
//! interprocedural analysis.
//!
//! [`parse_items`] recovers, from the token stream alone:
//!
//! - `fn` items (free functions, inherent/trait methods, trait default
//!   bodies, functions nested inside other bodies), each with its name,
//!   parameter names, body span, and — for methods — the self type of the
//!   innermost enclosing `impl`/`trait` block;
//! - call expressions (`path::to::fn(…)`) and method-call expressions
//!   (`recv.name(…)`), turbofish forms (`f::<T>(…)`, `recv.m::<T>(…)`)
//!   included, recorded as path segments for the call graph to resolve;
//! - panic sites (`panic!`- and `assert!`-family macros, `.unwrap()`,
//!   `.expect(…)`);
//! - index expressions (`expr[…]`, including range indexing, excluding the
//!   never-panicking full-range `expr[..]`);
//! - allocation sites whose size is an expression: `with_capacity(n)`,
//!   `.resize(n, v)`, `.reserve(n)` / `.reserve_exact(n)`, and
//!   `vec![x; n]`, with a token-level boundedness classification of `n`.
//!
//! This is **not** an AST and it performs no type or dataflow analysis;
//! every consumer over-approximates where the tokens are ambiguous (see
//! DESIGN.md §10 for the soundness caveats). Known blind spot: a function
//! passed as a value (`map(f)`) is not a call.
//!
//! Site-to-function assignment is innermost-wins: a panic inside a closure
//! belongs to the enclosing `fn`; a panic inside a `fn` nested in another
//! `fn` body belongs to the nested one.

use crate::context::FileCtx;
use crate::lexer::{TokKind, Token};

/// One `fn` item recovered from a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (raw-identifier prefix stripped by the lexer).
    pub name: String,
    /// Self type of the innermost enclosing `impl`/`trait` block, if any.
    pub self_ty: Option<String>,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the item sits in `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// Whether a `// arc-lint: decode-root` marker covers the item.
    pub is_decode_root: bool,
    /// Parameter identifier names (binding patterns only; destructured
    /// parameters contribute nothing).
    pub params: Vec<String>,
    /// Call and method-call expressions inside the body.
    pub calls: Vec<CallSite>,
    /// Panic-family sites inside the body.
    pub panics: Vec<PanicSite>,
    /// Index expressions inside the body.
    pub indexes: Vec<IndexSite>,
    /// Sized allocation sites inside the body.
    pub allocs: Vec<AllocSite>,
}

impl FnItem {
    /// Display name: `Type::name` for methods, `name` for free functions.
    pub fn display(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A call or method-call expression.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments as written (`["container", "unpack"]`, `["push"]`).
    /// `crate`/`self`/`super` segments are dropped; `Self` segments are
    /// kept verbatim and resolved by the call graph against the calling
    /// function's self type.
    pub path: Vec<String>,
    /// True for `recv.name(…)` receiver calls (path is the bare name).
    pub method: bool,
    /// 1-based line of the called name.
    pub line: usize,
}

/// A panic-family site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What fired: `panic!`, `unreachable!`, `.unwrap()`, `.expect()`, …
    pub what: String,
    /// 1-based line.
    pub line: usize,
}

/// An index expression `expr[…]`.
#[derive(Debug, Clone)]
pub struct IndexSite {
    /// 1-based line of the opening bracket.
    pub line: usize,
    /// The token directly before `[` (receiver identifier, or `)` / `]`
    /// for compound receivers) — used only in messages.
    pub receiver: String,
}

/// A sized allocation site.
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// 1-based line.
    pub line: usize,
    /// The allocating form: `with_capacity`, `resize`, `reserve`,
    /// `reserve_exact`, or `vec![…; n]`.
    pub what: String,
    /// Token-level boundedness of the size expression: true when the size
    /// is built only from literals and `ALL_CAPS` constants, or carries a
    /// clamping call (`.min(…)`, `.clamp(…)`) or measures existing data
    /// (`.len()`, `.capacity()`).
    pub size_is_bounded: bool,
    /// Short rendering of the size expression for messages.
    pub size_desc: String,
}

/// Keywords that can be directly followed by `(` without being calls.
const NON_CALL_KEYWORDS: [&str; 20] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "fn", "move", "ref", "mut", "where", "impl", "dyn", "use",
];

/// Keywords that *precede* an identifier in declaration or pattern
/// position: `fn name(…)`, `struct Name(…)`, `let Pat(…) = …` declare, they
/// don't call.
const DECL_KEYWORDS: [&str; 9] =
    ["fn", "struct", "enum", "union", "mod", "trait", "impl", "let", "dyn"];

/// Primitive type names never treated as value identifiers in size
/// expressions (they appear as cast targets: `n as usize`).
const PRIMITIVE_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Calls inside a size expression that make it bounded: clamps, and
/// measurements of data that already exists in memory.
const BOUNDING_CALLS: [&str; 4] = ["min", "clamp", "len", "capacity"];

/// Macros that abort in a release build. `debug_assert!` and friends are
/// left out: release builds compile them away, and release is what the
/// decode cone protects.
const PANIC_MACROS: [&str; 7] =
    ["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// An `impl`/`trait` scope: token span of the braced body plus self type.
struct Scope {
    open: usize,
    close: usize,
    self_ty: String,
}

/// Parse every `fn` item in the file. Items come back in source order.
pub fn parse_items(ctx: &FileCtx) -> Vec<FnItem> {
    let toks: Vec<&Token> = ctx
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let scopes = collect_scopes(&toks);
    let mut fns = collect_fns(ctx, &toks, &scopes);
    collect_sites(&toks, &mut fns);
    fns.into_iter().map(|f| f.item).collect()
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(c)
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Index of the matching close token for the open token at `open`
/// (`{`/`}`, `(`/`)`, `[`/`]`). Returns the last token index when the file
/// ends unbalanced (lint never aborts on odd input).
fn match_delim(toks: &[&Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if is_punct(toks[i], oc) {
            depth += 1;
        } else if is_punct(toks[i], cc) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Skip a generic parameter/argument list starting at `<`; returns the
/// index just past the matching `>`. `->` arrows do not close angles.
fn skip_angles(toks: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if is_punct(toks[i], '<') {
            depth += 1;
        } else if is_punct(toks[i], '>') {
            let arrow = i > 0 && is_punct(toks[i - 1], '-');
            if !arrow {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
        }
        i += 1;
    }
    toks.len()
}

/// Collect `impl`/`trait` scopes: brace spans and their self types. For
/// `impl Trait for Type` the self type is `Type` (the last path segment
/// before the body); for `impl Type` and `trait Name` it is the type/trait
/// name itself.
fn collect_scopes(toks: &[&Token]) -> Vec<Scope> {
    let mut scopes = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i];
        if !(is_ident(t, "impl") || is_ident(t, "trait")) {
            i += 1;
            continue;
        }
        // Item position only: `-> impl Trait`, `(impl Fn…)`, `: impl …` and
        // friends are type-position uses that must not open a scope. In
        // item position the previous token is a statement/item boundary or
        // a visibility/unsafety modifier.
        let item_position = match i.checked_sub(1).map(|p| toks[p]) {
            None => true,
            Some(p) => {
                is_punct(p, ';')
                    || is_punct(p, '{')
                    || is_punct(p, '}')
                    || is_punct(p, ']')
                    || is_punct(p, ')')
                    || is_ident(p, "pub")
                    || is_ident(p, "unsafe")
            }
        };
        if !item_position {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && is_punct(toks[j], '<') {
            j = skip_angles(toks, j);
        }
        // Walk to the body `{`, remembering the last type-path ident seen
        // at angle depth 0 (stopping updates at `where`). `for` restarts
        // the path: the self type of a trait impl is the implementing type.
        let mut last_ident: Option<String> = None;
        let mut frozen = false;
        while j < toks.len() {
            let tj = toks[j];
            if is_punct(tj, '{') {
                break;
            }
            if is_punct(tj, ';') {
                // `trait Alias = …;` or malformed — no body to scan.
                break;
            }
            if is_punct(tj, '<') {
                j = skip_angles(toks, j);
                continue;
            }
            if tj.kind == TokKind::Ident {
                if tj.text == "where" {
                    frozen = true;
                } else if tj.text == "for" {
                    last_ident = None;
                } else if !frozen {
                    last_ident = Some(tj.text.clone());
                }
            }
            j += 1;
        }
        if j < toks.len() && is_punct(toks[j], '{') {
            if let Some(ty) = last_ident {
                let close = match_delim(toks, j, '{', '}');
                scopes.push(Scope { open: j, close, self_ty: ty });
            }
            // Descend into the body: nested impls (e.g. inside fns) are
            // picked up by the continuing linear scan.
            i = j + 1;
            continue;
        }
        i = j + 1;
    }
    scopes
}

/// A parsed fn plus its body token span (used for site assignment).
struct ParsedFn {
    item: FnItem,
    /// Token span of the body braces, `open..=close`; `None` for bodyless
    /// trait-method declarations.
    body: Option<(usize, usize)>,
}

fn collect_fns(ctx: &FileCtx, toks: &[&Token], scopes: &[Scope]) -> Vec<ParsedFn> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(toks[i], "fn") {
            i += 1;
            continue;
        }
        // `fn(` is a function-pointer type, not an item.
        let Some(name_tok) = toks.get(i + 1) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let mut j = i + 2;
        if j < toks.len() && is_punct(toks[j], '<') {
            j = skip_angles(toks, j);
        }
        if !(j < toks.len() && is_punct(toks[j], '(')) {
            i += 1;
            continue;
        }
        let params_close = match_delim(toks, j, '(', ')');
        let params = collect_params(toks, j, params_close);
        // Scan past the return type / where clause to the body `{` (or a
        // terminating `;` for trait declarations). A `;` inside brackets
        // belongs to an array type (`-> [u8; 4]`), not to the item.
        let mut k = params_close + 1;
        let mut body = None;
        while k < toks.len() {
            if is_punct(toks[k], '{') {
                body = Some((k, match_delim(toks, k, '{', '}')));
                break;
            }
            if is_punct(toks[k], ';') {
                break;
            }
            if is_punct(toks[k], '[') {
                k = match_delim(toks, k, '[', ']');
            }
            k += 1;
        }
        let fn_pos = i;
        let line = toks[i].line;
        // Innermost enclosing impl/trait scope supplies the self type.
        let self_ty = scopes
            .iter()
            .filter(|s| s.open < fn_pos && fn_pos < s.close)
            .min_by_key(|s| s.close - s.open)
            .map(|s| s.self_ty.clone());
        fns.push(ParsedFn {
            item: FnItem {
                name,
                self_ty,
                file: ctx.rel.clone(),
                line,
                is_test: ctx.in_test_code(line),
                is_decode_root: has_decode_root_marker(ctx, line),
                params,
                calls: Vec::new(),
                panics: Vec::new(),
                indexes: Vec::new(),
                allocs: Vec::new(),
            },
            body,
        });
        // Continue scanning *inside* the signature/body so nested fns and
        // impls are found too.
        i += 2;
    }
    fns
}

/// Parameter binding names: idents directly followed by `:` at paren
/// depth 1 inside the parameter list (`self` and destructured patterns
/// contribute nothing).
fn collect_params(toks: &[&Token], open: usize, close: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i < close && i < toks.len() {
        if is_punct(toks[i], '(') {
            depth += 1;
        } else if is_punct(toks[i], ')') {
            depth = depth.saturating_sub(1);
        } else if depth == 1
            && toks[i].kind == TokKind::Ident
            && toks[i].text != "mut"
            && toks[i].text != "self"
            && toks.get(i + 1).is_some_and(|n| is_punct(n, ':'))
            && !toks.get(i + 2).is_some_and(|n| is_punct(n, ':'))
        {
            out.push(toks[i].text.clone());
        }
        i += 1;
    }
    out
}

/// Whether a `// arc-lint: decode-root` marker covers the `fn` on `line`:
/// trailing on the line itself, or anywhere in the contiguous block of
/// comment/attribute lines directly above.
fn has_decode_root_marker(ctx: &FileCtx, line: usize) -> bool {
    let marker = |text: &str| text.contains("arc-lint: decode-root");
    if marker(ctx.comment_on(line)) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if ctx.is_comment_line(l) {
            if marker(ctx.comment_on(l)) {
                return true;
            }
            continue;
        }
        if ctx.is_attr_line(l) {
            continue;
        }
        return false;
    }
    false
}

/// Index of the innermost fn whose body span contains token `pos`.
fn innermost_fn(fns: &[ParsedFn], pos: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (span length, idx)
    for (idx, f) in fns.iter().enumerate() {
        if let Some((open, close)) = f.body {
            if open < pos && pos < close {
                let len = close - open;
                if best.is_none_or(|(blen, _)| len < blen) {
                    best = Some((len, idx));
                }
            }
        }
    }
    best.map(|(_, idx)| idx)
}

/// One linear pass over the token stream, attributing every call, panic,
/// index, and allocation site to its innermost enclosing fn.
fn collect_sites(toks: &[&Token], fns: &mut [ParsedFn]) {
    for i in 0..toks.len() {
        let t = toks[i];
        let prev = i.checked_sub(1).and_then(|p| toks.get(p).copied());
        let next = toks.get(i + 1).copied();

        // Panic sites and macro allocs key off identifiers.
        if t.kind == TokKind::Ident {
            let next_is = |c: char| next.is_some_and(|n| is_punct(n, c));
            let prev_is_dot = prev.is_some_and(|p| is_punct(p, '.'));
            if PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
                push_site(fns, i, |f| {
                    f.panics.push(PanicSite { what: format!("{}!", t.text), line: t.line })
                });
                continue;
            }
            if (t.text == "unwrap" || t.text == "expect") && prev_is_dot && next_is('(') {
                push_site(fns, i, |f| {
                    f.panics.push(PanicSite { what: format!(".{}()", t.text), line: t.line })
                });
                // `.expect(…)` is still a call token-wise; no call edge is
                // wanted for it, so short-circuit here.
                continue;
            }
            // `vec![elem; n]` sized-macro allocation.
            if t.text == "vec" && next_is('!') && toks.get(i + 2).is_some_and(|n| is_punct(n, '['))
            {
                let open = i + 2;
                let close = match_delim(toks, open, '[', ']');
                if let Some(semi) = top_level_semicolon(toks, open, close) {
                    let (bounded, desc) = classify_size(toks, semi + 1, close);
                    push_site(fns, i, |f| {
                        f.allocs.push(AllocSite {
                            line: t.line,
                            what: "vec![…; n]".into(),
                            size_is_bounded: bounded,
                            size_desc: desc.clone(),
                        })
                    });
                }
                continue;
            }
            // Call expressions: `name(` or the turbofish `name::<T>(` that
            // is neither a keyword, a macro bang, nor an identifier in
            // declaration/pattern position (`fn name(…)`, `struct Name(…)`,
            // `let Pat(…) = …`).
            let prev_declares = prev.is_some_and(|p| DECL_KEYWORDS.contains(&p.text.as_str()));
            let callable = !NON_CALL_KEYWORDS.contains(&t.text.as_str()) && !prev_declares;
            if let Some(open) = call_args(toks, i).filter(|_| callable) {
                let method = prev_is_dot;
                let path = if method { vec![t.text.clone()] } else { path_segments(toks, i) };
                // Sized allocation calls double as alloc sites.
                match t.text.as_str() {
                    "with_capacity" | "reserve" | "reserve_exact" | "resize" | "resize_with" => {
                        let close = match_delim(toks, open, '(', ')');
                        let end = top_level_comma(toks, open, close).unwrap_or(close);
                        let (bounded, desc) = classify_size(toks, open + 1, end);
                        push_site(fns, i, |f| {
                            f.allocs.push(AllocSite {
                                line: t.line,
                                what: t.text.clone(),
                                size_is_bounded: bounded,
                                size_desc: desc.clone(),
                            })
                        });
                    }
                    _ => {}
                }
                push_site(fns, i, |f| {
                    f.calls.push(CallSite { path: path.clone(), method, line: t.line })
                });
                continue;
            }
        }

        // Index expressions: a `[` in postfix position. Attribute brackets
        // (`#[…]`) follow `#`, macro brackets follow `!`, array literals
        // and types follow other punctuation — none match.
        if is_punct(t, '[')
            && prev.is_some_and(|p| {
                p.kind == TokKind::Ident && !NON_CALL_KEYWORDS.contains(&p.text.as_str())
                    || is_punct(p, ')')
                    || is_punct(p, ']')
            })
        {
            let close = match_delim(toks, i, '[', ']');
            // `expr[..]` (full range) never panics; everything else —
            // point and partial-range indexing — can.
            let inner_is_full_range =
                close == i + 3 && is_punct(toks[i + 1], '.') && is_punct(toks[i + 2], '.');
            if !inner_is_full_range {
                let recv = prev.map(|p| p.text.clone()).unwrap_or_default();
                let receiver = if recv == ")" || recv == "]" { "<expr>".to_string() } else { recv };
                push_site(fns, i, |f| {
                    f.indexes.push(IndexSite { line: t.line, receiver: receiver.clone() })
                });
            }
        }
    }
}

fn push_site(fns: &mut [ParsedFn], pos: usize, apply: impl Fn(&mut FnItem)) {
    if let Some(idx) = innermost_fn_mut(fns, pos) {
        if let Some(f) = fns.get_mut(idx) {
            apply(&mut f.item);
        }
    }
}

fn innermost_fn_mut(fns: &[ParsedFn], pos: usize) -> Option<usize> {
    innermost_fn(fns, pos)
}

/// Index of the `(` that opens the argument list when the identifier at
/// `i` is called, as `name(…)` or with a turbofish, `name::<T>(…)`.
fn call_args(toks: &[&Token], i: usize) -> Option<usize> {
    let at = |k: usize, c: char| toks.get(k).is_some_and(|t| is_punct(t, c));
    let mut k = i + 1;
    if at(k, ':') && at(k + 1, ':') && at(k + 2, '<') {
        k = skip_angles(toks, k + 2);
    }
    at(k, '(').then_some(k)
}

/// Walk a qualified path backwards from the called name at `i`:
/// `a::b::name(` yields `["a", "b", "name"]`. `crate`/`self`/`super`
/// segments are dropped.
fn path_segments(toks: &[&Token], i: usize) -> Vec<String> {
    let mut rev = vec![toks[i].text.clone()];
    let mut j = i;
    while j >= 3
        && is_punct(toks[j - 1], ':')
        && is_punct(toks[j - 2], ':')
        && toks[j - 3].kind == TokKind::Ident
    {
        let seg = &toks[j - 3].text;
        if seg != "crate" && seg != "self" && seg != "super" {
            rev.push(seg.clone());
        }
        j -= 3;
    }
    rev.reverse();
    rev
}

/// Index of the first top-level `;` strictly inside `open..close`.
fn top_level_semicolon(toks: &[&Token], open: usize, close: usize) -> Option<usize> {
    scan_top_level(toks, open, close, ';')
}

/// Index of the first top-level `,` strictly inside `open..close`.
fn top_level_comma(toks: &[&Token], open: usize, close: usize) -> Option<usize> {
    scan_top_level(toks, open, close, ',')
}

fn scan_top_level(toks: &[&Token], open: usize, close: usize, what: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < close && i < toks.len() {
        let t = toks[i];
        if is_punct(t, '(') || is_punct(t, '[') || is_punct(t, '{') {
            depth += 1;
        } else if is_punct(t, ')') || is_punct(t, ']') || is_punct(t, '}') {
            depth = depth.saturating_sub(1);
        } else if depth == 1 && is_punct(t, what) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Token-level boundedness of a size expression in `from..to`.
///
/// Bounded when every identifier is an `ALL_CAPS` constant or a primitive
/// type (cast target), or when the expression carries a bounding call
/// (`.min(…)`, `.clamp(…)`, `.len()`, `.capacity()`). Anything else — a
/// parameter, a header-loaded local, arithmetic over either — is treated
/// as attacker-influenceable and must be guarded or annotated.
fn classify_size(toks: &[&Token], from: usize, to: usize) -> (bool, String) {
    let mut has_free_ident = false;
    let mut has_bounding_call = false;
    let mut desc = String::new();
    let mut i = from;
    while i < to && i < toks.len() {
        let t = toks[i];
        if desc.len() < 48 {
            if !desc.is_empty()
                && (t.kind == TokKind::Ident || t.kind == TokKind::NumLit)
                && !desc.ends_with(['.', ':', '('])
            {
                desc.push(' ');
            }
            desc.push_str(&t.text);
        } else if !desc.ends_with('…') {
            desc.push('…');
        }
        if t.kind == TokKind::Ident {
            let after_as = i > from && is_ident(toks[i - 1], "as");
            let is_call = toks.get(i + 1).is_some_and(|n| is_punct(n, '('));
            let all_caps = t.text.chars().all(|c| !c.is_lowercase());
            if is_call && BOUNDING_CALLS.contains(&t.text.as_str()) {
                has_bounding_call = true;
            } else if !(all_caps
                || after_as
                || PRIMITIVE_TYPES.contains(&t.text.as_str())
                || t.text == "as")
            {
                has_free_ident = true;
            }
        }
        i += 1;
    }
    (!has_free_ident || has_bounding_call, desc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<FnItem> {
        let ctx = FileCtx::build("test.rs".into(), src).unwrap();
        parse_items(&ctx)
    }

    #[test]
    fn free_fns_methods_and_trait_defaults() {
        let src = "fn free() {}\n\
                   impl Foo { fn m(&self) {} }\n\
                   impl Bar for Foo { fn n(&self) {} }\n\
                   trait T { fn d(&self) { helper(); } fn sig(&self); }\n";
        let f = items(src);
        let names: Vec<(String, Option<String>)> =
            f.iter().map(|x| (x.name.clone(), x.self_ty.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("m".into(), Some("Foo".into())),
                ("n".into(), Some("Foo".into())),
                ("d".into(), Some("T".into())),
                ("sig".into(), Some("T".into())),
            ]
        );
        // The trait default body's call is attributed to `d`.
        assert_eq!(f[3].calls.len(), 1);
        assert_eq!(f[3].calls[0].path, vec!["helper"]);
        // The bodyless signature has no sites.
        assert!(f[4].calls.is_empty());
    }

    #[test]
    fn generic_impls_resolve_the_implementing_type() {
        let src = "impl<'a, T: Clone> Wrapper<'a, T> where T: Default { fn g(&self) {} }\n\
                   impl<F: Fn() -> usize> Holder<F> { fn h(&self) {} }\n";
        let f = items(src);
        assert_eq!(f[0].self_ty.as_deref(), Some("Wrapper"));
        assert_eq!(f[1].self_ty.as_deref(), Some("Holder"));
    }

    #[test]
    fn nested_fns_and_impls_get_innermost_attribution() {
        let src = "fn outer() {\n\
                       inner_call();\n\
                       fn nested() { nested_call(); }\n\
                       struct G;\n\
                       impl Drop for G { fn drop(&mut self) { drop_call(); } }\n\
                   }\n";
        let f = items(src);
        let outer = f.iter().find(|x| x.name == "outer").unwrap();
        let nested = f.iter().find(|x| x.name == "nested").unwrap();
        let dropfn = f.iter().find(|x| x.name == "drop").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].path, vec!["inner_call"]);
        assert_eq!(nested.calls[0].path, vec!["nested_call"]);
        assert_eq!(dropfn.self_ty.as_deref(), Some("G"));
        assert_eq!(dropfn.calls[0].path, vec!["drop_call"]);
    }

    #[test]
    fn qualified_paths_and_method_calls() {
        let src = "fn f() { a::b::target(); recv.method(); crate::x::y(); Self::assoc(); }\n";
        let f = items(src);
        let paths: Vec<(Vec<String>, bool)> =
            f[0].calls.iter().map(|c| (c.path.clone(), c.method)).collect();
        assert_eq!(
            paths,
            vec![
                (vec!["a".into(), "b".into(), "target".into()], false),
                (vec!["method".into()], true),
                (vec!["x".into(), "y".into()], false),
                (vec!["Self".into(), "assoc".into()], false),
            ]
        );
    }

    #[test]
    fn panic_sites_cover_macros_and_methods() {
        let src = "fn f(v: Option<u8>) {\n\
                       v.unwrap();\n\
                       v.expect(\"msg\");\n\
                       panic!(\"boom\");\n\
                       unreachable!();\n\
                       let _ = v.unwrap_or(0);\n\
                       assert!(v.is_some());\n\
                       assert_eq!(v, None);\n\
                       assert_ne!(v, None);\n\
                       debug_assert!(v.is_some());\n\
                       debug_assert_eq!(v, None);\n\
                   }\n";
        let f = items(src);
        let whats: Vec<&str> = f[0].panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(
            whats,
            vec![
                ".unwrap()",
                ".expect()",
                "panic!",
                "unreachable!",
                "assert!",
                "assert_eq!",
                "assert_ne!"
            ]
        );
    }

    #[test]
    fn index_sites_skip_types_attrs_and_full_ranges() {
        let src = "#[derive(Debug)]\n\
                   fn f(v: &[u8], i: usize) -> u8 {\n\
                       let _t: [u8; 4] = [0; 4];\n\
                       let _all = &v[..];\n\
                       let _pre = &v[..i];\n\
                       let _m = vec![0u8; 4];\n\
                       v[i]\n\
                   }\n";
        let f = items(src);
        let lines: Vec<usize> = f[0].indexes.iter().map(|x| x.line).collect();
        // Only the partial range `v[..i]` and the point index `v[i]`.
        assert_eq!(lines, vec![5, 7]);
        assert_eq!(f[0].indexes[1].receiver, "v");
    }

    #[test]
    fn alloc_sites_classify_boundedness() {
        let src = "fn f(n: usize, data: &[u8]) {\n\
                       let mut a = Vec::with_capacity(n);\n\
                       let b: Vec<u8> = Vec::with_capacity(64);\n\
                       let c = vec![0u8; n * 8];\n\
                       let d = vec![0u8; MAX_SYMBOLS];\n\
                       let e = Vec::with_capacity(data.len());\n\
                       let g = Vec::with_capacity(n.min(4096));\n\
                       a.resize(n, 0u8);\n\
                       a.reserve(n as usize);\n\
                       let _ = (b, c, d, e, g);\n\
                   }\n";
        let f = items(src);
        let got: Vec<(String, bool)> =
            f[0].allocs.iter().map(|a| (a.what.clone(), a.size_is_bounded)).collect();
        assert_eq!(
            got,
            vec![
                ("with_capacity".into(), false),
                ("with_capacity".into(), true),
                ("vec![…; n]".into(), false),
                ("vec![…; n]".into(), true),
                ("with_capacity".into(), true),
                ("with_capacity".into(), true),
                ("resize".into(), false),
                ("reserve".into(), false),
            ]
        );
    }

    #[test]
    fn decode_root_marker_and_params() {
        let src = "// arc-lint: decode-root\n\
                   pub fn entry(bytes: &[u8], limit: u64) {}\n\
                   fn plain(x: usize) {}\n";
        let f = items(src);
        assert!(f[0].is_decode_root);
        assert_eq!(f[0].params, vec!["bytes", "limit"]);
        assert!(!f[1].is_decode_root);
        assert_eq!(f[1].params, vec!["x"]);
    }

    #[test]
    fn test_region_fns_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let f = items(src);
        assert!(!f[0].is_test);
        assert!(f[1].is_test);
    }
}
