//! The rule registry: ARC's resiliency invariants as token-level checks.
//!
//! Every rule has a stable key (used in suppressions and the baseline), a
//! path scope (which workspace files it audits), and a token walk. Rules
//! never look at raw text except through [`FileCtx`]'s per-line comment
//! metadata, so string/char literals can never trigger them.

use crate::context::FileCtx;
use crate::lexer::{TokKind, Token};

/// One rule violation at a specific source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule key (e.g. `unsafe-needs-safety`).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A lint rule: scope + token-level check.
pub trait Rule {
    /// Stable identifier used in suppressions, the baseline, and output.
    fn key(&self) -> &'static str;

    /// Whether this rule audits the file at workspace-relative `rel`.
    fn applies(&self, rel: &str) -> bool;

    /// Scan one file, appending findings (suppressions are filtered by the
    /// engine, not here).
    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>);
}

/// The default registry, in stable report order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(UnsafeNeedsSafety), Box::new(NoPanicInLib), Box::new(NoLossyCast)]
}

fn finding(rule: &dyn Rule, ctx: &FileCtx, line: usize, message: String) -> Finding {
    Finding { rule: rule.key(), file: ctx.rel.clone(), line, message }
}

/// True when `rel` is library source inside a workspace crate (or the root
/// facade crate) — the scope where panics and ad-hoc cfg gates are policed.
fn is_library_source(rel: &str) -> bool {
    (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/")
}

// ---------------------------------------------------------------------------
// unsafe-needs-safety
// ---------------------------------------------------------------------------

/// Every `unsafe` block, fn, or impl must be justified: either a
/// `// SAFETY:` comment in the contiguous comment/attribute block directly
/// above it (or trailing on the same line), or — for `unsafe fn`s — a
/// `# Safety` section in the doc comment.
pub struct UnsafeNeedsSafety;

impl Rule for UnsafeNeedsSafety {
    fn key(&self) -> &'static str {
        "unsafe-needs-safety"
    }

    fn applies(&self, rel: &str) -> bool {
        // Everywhere, tests included: the counting-allocator harnesses carry
        // `unsafe impl GlobalAlloc` and must document it too.
        rel.ends_with(".rs")
    }

    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        for t in &ctx.tokens {
            if !(t.kind == TokKind::Ident && t.text == "unsafe") {
                continue;
            }
            if has_safety_justification(ctx, t.line) {
                continue;
            }
            out.push(finding(
                self,
                ctx,
                t.line,
                "`unsafe` without an immediately preceding `// SAFETY:` comment".into(),
            ));
        }
    }
}

/// Walk upward from the line above `line` through the contiguous block of
/// comment and attribute lines; accept a `SAFETY:` marker anywhere in that
/// block (doc-comment `# Safety` headings included), or trailing on the
/// `unsafe` line itself.
fn has_safety_justification(ctx: &FileCtx, line: usize) -> bool {
    let marker = |text: &str| text.contains("SAFETY:") || text.contains("# Safety");
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

// ---------------------------------------------------------------------------
// no-panic-in-lib
// ---------------------------------------------------------------------------

/// The protection layer must never abort on the data it protects: library
/// code (non-test, inside `crates/*/src` or the root `src/`) may not call
/// `.unwrap()` / `.expect(…)` or invoke `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!`. Propagate through the crate's typed error enum, or
/// carry an `arc-lint: allow(no-panic-in-lib, <proof>)` for the provably
/// infallible cases.
pub struct NoPanicInLib;

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

impl Rule for NoPanicInLib {
    fn key(&self) -> &'static str {
        "no-panic-in-lib"
    }

    fn applies(&self, rel: &str) -> bool {
        // Binary targets may abort on startup/CLI errors; the invariant is
        // about code that other crates call with data they cannot lose.
        is_library_source(rel) && !rel.contains("/src/bin/") && !rel.ends_with("/main.rs")
    }

    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        let toks: Vec<&Token> = ctx
            .tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || ctx.in_test_code(t.line) {
                continue;
            }
            let next_is = |text: &str| {
                toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Punct && n.text == text)
            };
            let prev_is_dot =
                i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].text == ".";
            if PANIC_MACROS.contains(&t.text.as_str()) && next_is("!") {
                out.push(finding(
                    self,
                    ctx,
                    t.line,
                    format!("`{}!` aborts on the data it was asked to protect", t.text),
                ));
            } else if (t.text == "unwrap" || t.text == "expect") && prev_is_dot && next_is("(") {
                out.push(finding(
                    self,
                    ctx,
                    t.line,
                    format!(
                        "`.{}()` on a library path — propagate through the crate's error type",
                        t.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-lossy-cast
// ---------------------------------------------------------------------------

/// In the ECC and ZFP hot paths, `as` casts to narrower integer types
/// silently truncate — exactly the class of bug that turns a correctable
/// symbol into silent corruption. Use `try_into`/`try_from`, widen the
/// arithmetic, or carry an allow with the value-range proof.
pub struct NoLossyCast;

const NARROW_TARGETS: [&str; 6] = ["u8", "i8", "u16", "i16", "u32", "i32"];

impl Rule for NoLossyCast {
    fn key(&self) -> &'static str {
        "no-lossy-cast"
    }

    fn applies(&self, rel: &str) -> bool {
        rel.starts_with("crates/ecc/src/") || rel.starts_with("crates/zfp/src/")
    }

    fn check(&self, ctx: &FileCtx, out: &mut Vec<Finding>) {
        let toks: Vec<&Token> = ctx
            .tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || t.text != "as" || ctx.in_test_code(t.line) {
                continue;
            }
            let Some(target) = toks.get(i + 1) else { continue };
            if target.kind == TokKind::Ident && NARROW_TARGETS.contains(&target.text.as_str()) {
                out.push(finding(
                    self,
                    ctx,
                    t.line,
                    format!("narrowing `as {}` cast can silently truncate", target.text),
                ));
            }
        }
    }
}
