//! Per-file analysis context shared by the parser and the cone rules.
//!
//! They see a [`FileCtx`]: the token stream plus line-granular metadata —
//! which lines are comment-only or attribute-only, which lines sit inside
//! `#[cfg(test)]` / `#[test]` regions, what comment text each line carries,
//! and where `// arc-lint: allow(rule, reason)` suppressions apply.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, LexError, TokKind, Token};

/// A parsed inline suppression: `// arc-lint: allow(<rule>, <reason>)`.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule key the suppression targets.
    pub rule: String,
    /// Free-text justification (may be empty if the author omitted it).
    pub reason: String,
    /// Line the comment sits on; it covers this line and the next.
    pub line: usize,
}

/// A parsed bounds proof: `// arc-lint: bounded(<why>)`. Unlike `allow`,
/// which waives one named rule, `bounded` is a *semantic* claim — the index
/// or allocation size on the covered line cannot exceed its container or
/// budget — honored by both `decode-no-direct-index` and
/// `decode-bounded-alloc`.
#[derive(Debug, Clone)]
pub struct BoundsProof {
    /// Free-text proof of the bound (why the site cannot go out of range).
    pub reason: String,
    /// Line the comment sits on; it covers this line and the next.
    pub line: usize,
}

/// Everything the parser and the cone rules need to know about one source file.
pub struct FileCtx {
    /// Workspace-relative path with forward slashes (stable across OSes).
    pub rel: String,
    /// The token stream (comments included).
    pub tokens: Vec<Token>,
    /// Lines inside `#[cfg(test)]` items or `#[test]` functions.
    test_lines: BTreeSet<usize>,
    /// Lines whose only tokens are comments.
    comment_only: BTreeSet<usize>,
    /// Lines that begin an attribute (`#[…]` / `#![…]`), including every
    /// line a multi-line attribute spans.
    attr_lines: BTreeSet<usize>,
    /// Concatenated comment text per line (trailing comments included).
    comment_text: BTreeMap<usize, String>,
    /// Parsed `arc-lint: allow` suppressions.
    pub suppressions: Vec<Suppression>,
    /// Parsed `arc-lint: bounded` proofs.
    pub bounds_proofs: Vec<BoundsProof>,
}

impl FileCtx {
    /// Lex and analyze one file. `rel` must use forward slashes.
    pub fn build(rel: String, text: &str) -> Result<FileCtx, LexError> {
        let tokens = lex(text)?;
        let mut ctx = FileCtx {
            rel,
            tokens,
            test_lines: BTreeSet::new(),
            comment_only: BTreeSet::new(),
            attr_lines: BTreeSet::new(),
            comment_text: BTreeMap::new(),
            suppressions: Vec::new(),
            bounds_proofs: Vec::new(),
        };
        ctx.index_lines();
        ctx.index_test_regions();
        ctx.index_suppressions();
        Ok(ctx)
    }

    /// True if `line` is inside a `#[cfg(test)]` item or `#[test]` function.
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_lines.contains(&line)
    }

    /// True if every token on `line` is a comment.
    pub fn is_comment_line(&self, line: usize) -> bool {
        self.comment_only.contains(&line)
    }

    /// True if `line` is part of an attribute.
    pub fn is_attr_line(&self, line: usize) -> bool {
        self.attr_lines.contains(&line)
    }

    /// All comment text appearing on `line` (empty if none).
    pub fn comment_on(&self, line: usize) -> &str {
        self.comment_text.get(&line).map(String::as_str).unwrap_or("")
    }

    /// True when a suppression for `rule` covers `line` (the comment's own
    /// line or the line directly below it).
    pub fn is_suppressed(&self, rule: &str, line: usize) -> bool {
        self.suppressions.iter().any(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }

    /// True when a `bounded(<why>)` proof covers `line` (the comment's own
    /// line — trailing comments — or the line directly below it).
    pub fn is_bounded(&self, line: usize) -> bool {
        self.bounds_proofs.iter().any(|b| b.line == line || b.line + 1 == line)
    }

    fn index_lines(&mut self) {
        // Group token kinds per line to classify comment-only lines and
        // accumulate comment text.
        let mut kinds_by_line: BTreeMap<usize, Vec<TokKind>> = BTreeMap::new();
        for t in &self.tokens {
            kinds_by_line.entry(t.line).or_default().push(t.kind);
            if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                let entry = self.comment_text.entry(t.line).or_default();
                entry.push_str(&t.text);
                entry.push(' ');
            }
        }
        for (line, kinds) in &kinds_by_line {
            if kinds.iter().all(|k| matches!(k, TokKind::LineComment | TokKind::BlockComment)) {
                self.comment_only.insert(*line);
            }
        }
        // Attribute spans: a `#` punct followed by `[` (or `![`) opens an
        // attribute; every line up to the matching `]` is an attr line.
        let toks = &self.tokens;
        let mut i = 0;
        while i < toks.len() {
            if toks[i].kind == TokKind::Punct && toks[i].text == "#" {
                let mut j = i + 1;
                if j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "!" {
                    j += 1;
                }
                if j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "[" {
                    let mut depth = 0usize;
                    let mut k = j;
                    while k < toks.len() {
                        if toks[k].kind == TokKind::Punct {
                            match toks[k].text.as_str() {
                                "[" => depth += 1,
                                "]" => {
                                    depth = depth.saturating_sub(1);
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                        }
                        k += 1;
                    }
                    let end_line = toks.get(k).map(|t| t.line).unwrap_or(toks[i].line);
                    for l in toks[i].line..=end_line {
                        self.attr_lines.insert(l);
                    }
                    i = k + 1;
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Mark the line span of every item annotated `#[cfg(test)]` (in any
    /// position inside the cfg predicate, e.g. `cfg(all(test, unix))`) or
    /// `#[test]`: skip any further attributes, then brace-match the body.
    fn index_test_regions(&mut self) {
        let toks = &self.tokens;
        let mut i = 0;
        while i < toks.len() {
            if !(toks[i].kind == TokKind::Punct && toks[i].text == "#") {
                i += 1;
                continue;
            }
            let Some(open) = non_comment_after(toks, i) else {
                i += 1;
                continue;
            };
            if !(toks[open].kind == TokKind::Punct && toks[open].text == "[") {
                i += 1;
                continue;
            }
            // Scan the attribute tokens up to the matching `]`.
            let mut depth = 0usize;
            let mut k = open;
            let mut is_test_attr = false;
            let mut saw_cfg_or_bare = false;
            while k < toks.len() {
                let t = &toks[k];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident {
                    if t.text == "cfg" {
                        saw_cfg_or_bare = true;
                    }
                    if t.text == "test" {
                        // `#[test]` (bare, first ident) or `test` anywhere
                        // inside a `cfg(...)` predicate.
                        if saw_cfg_or_bare || k == open + 1 {
                            is_test_attr = true;
                        }
                    }
                }
                k += 1;
            }
            if !is_test_attr {
                i = k + 1;
                continue;
            }
            // Skip any further attributes, then find the item body `{ … }`
            // (or a terminating `;` for `mod name;` style items).
            let mut j = k + 1;
            while let Some(n) = non_comment_at_or_after(toks, j) {
                if toks[n].kind == TokKind::Punct && toks[n].text == "#" {
                    // Another attribute: jump past its closing `]`.
                    let mut d = 0usize;
                    let mut m = n;
                    while m < toks.len() {
                        if toks[m].kind == TokKind::Punct {
                            match toks[m].text.as_str() {
                                "[" => d += 1,
                                "]" => {
                                    d = d.saturating_sub(1);
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                        }
                        m += 1;
                    }
                    j = m + 1;
                    continue;
                }
                break;
            }
            // Find the opening brace of the item body.
            let mut m = j;
            let mut body_open = None;
            while m < toks.len() {
                if toks[m].kind == TokKind::Punct {
                    if toks[m].text == "{" {
                        body_open = Some(m);
                        break;
                    }
                    if toks[m].text == ";" {
                        // `#[cfg(test)] mod tests;` — the region is the
                        // referenced file, which is walked separately.
                        break;
                    }
                }
                m += 1;
            }
            if let Some(b) = body_open {
                let mut d = 0usize;
                let mut e = b;
                while e < toks.len() {
                    if toks[e].kind == TokKind::Punct {
                        match toks[e].text.as_str() {
                            "{" => d += 1,
                            "}" => {
                                d = d.saturating_sub(1);
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    e += 1;
                }
                let start = toks[i].line;
                let end = toks.get(e).map(|t| t.line).unwrap_or(start);
                for l in start..=end {
                    self.test_lines.insert(l);
                }
                i = e + 1;
                continue;
            }
            i = m + 1;
        }
    }

    /// Parse `arc-lint: allow(<rule>, <reason>)` and `arc-lint:
    /// bounded(<why>)` out of comment tokens. A single comment may carry
    /// several clauses.
    fn index_suppressions(&mut self) {
        for t in &self.tokens {
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            let Some(at) = t.text.find("arc-lint:") else { continue };
            let directive = &t.text[at + "arc-lint:".len()..];
            let mut rest = directive;
            while let Some(open) = rest.find("allow(") {
                let body = &rest[open + "allow(".len()..];
                let Some(close) = body.find(')') else { break };
                let clause = &body[..close];
                let (rule, reason) = match clause.split_once(',') {
                    Some((r, why)) => (r.trim(), why.trim()),
                    None => (clause.trim(), ""),
                };
                if !rule.is_empty() {
                    self.suppressions.push(Suppression {
                        rule: rule.to_string(),
                        reason: reason.to_string(),
                        line: t.line,
                    });
                }
                rest = &body[close + 1..];
            }
            let mut rest = directive;
            while let Some(open) = rest.find("bounded(") {
                let body = &rest[open + "bounded(".len()..];
                // The proof text may itself contain calls (`i < v.len()`),
                // so match the close paren by nesting depth, not first-hit.
                let Some(close) = matching_close(body) else { break };
                let reason = body[..close].trim();
                self.bounds_proofs.push(BoundsProof { reason: reason.to_string(), line: t.line });
                rest = &body[close + 1..];
            }
        }
    }
}

/// Byte index of the `)` closing an already-open paren group in `body`
/// (depth starts at 1), or `None` if the group never closes.
fn matching_close(body: &str) -> Option<usize> {
    let mut depth = 1usize;
    for (i, c) in body.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the first non-comment token strictly after `i`.
fn non_comment_after(toks: &[Token], i: usize) -> Option<usize> {
    non_comment_at_or_after(toks, i + 1)
}

/// Index of the first non-comment token at or after `i`.
fn non_comment_at_or_after(toks: &[Token], i: usize) -> Option<usize> {
    let mut j = i;
    while j < toks.len() {
        if !matches!(toks[j].kind, TokKind::LineComment | TokKind::BlockComment) {
            return Some(j);
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::build("test.rs".into(), src).unwrap()
    }

    #[test]
    fn cfg_test_mod_region_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let c = ctx(src);
        assert!(!c.in_test_code(1));
        assert!(c.in_test_code(2));
        assert!(c.in_test_code(3));
        assert!(c.in_test_code(4));
        assert!(c.in_test_code(5));
        assert!(!c.in_test_code(6));
    }

    #[test]
    fn test_fn_attribute_marks_its_body() {
        let src = "#[test]\nfn t() {\n    body();\n}\nfn lib() {}\n";
        let c = ctx(src);
        assert!(c.in_test_code(3));
        assert!(!c.in_test_code(5));
    }

    #[test]
    fn cfg_all_test_is_recognized() {
        let src = "#[cfg(all(test, unix))]\nmod tests {\n    fn t() {}\n}\n";
        let c = ctx(src);
        assert!(c.in_test_code(3));
    }

    #[test]
    fn cfg_feature_string_test_is_not_a_test_region() {
        let src = "#[cfg(feature = \"test\")]\nfn f() {\n    body();\n}\n";
        let c = ctx(src);
        assert!(!c.in_test_code(3));
    }

    #[test]
    fn comment_and_attr_line_classification() {
        let src = "// top comment\n#[derive(Debug)]\nstruct S; // trailing\n";
        let c = ctx(src);
        assert!(c.is_comment_line(1));
        assert!(c.is_attr_line(2));
        assert!(!c.is_comment_line(3));
        assert!(c.comment_on(3).contains("trailing"));
    }

    #[test]
    fn suppressions_cover_their_line_and_the_next() {
        let src = "// arc-lint: allow(decode-no-panic-transitive, length proven above)\nlet x = v.unwrap();\nlet y = w.unwrap();\n";
        let c = ctx(src);
        assert!(c.is_suppressed("decode-no-panic-transitive", 1));
        assert!(c.is_suppressed("decode-no-panic-transitive", 2));
        assert!(!c.is_suppressed("decode-no-panic-transitive", 3));
        assert!(!c.is_suppressed("other-rule", 2));
        assert_eq!(c.suppressions[0].reason, "length proven above");
    }

    #[test]
    fn bounded_proofs_cover_their_line_and_the_next() {
        let src = "let a = v[i]; // arc-lint: bounded(i < v.len() checked above)\nlet b = v[j];\nlet c = v[k];\n";
        let c = ctx(src);
        assert!(c.is_bounded(1));
        assert!(c.is_bounded(2));
        assert!(!c.is_bounded(3));
        assert_eq!(c.bounds_proofs[0].reason, "i < v.len() checked above");
    }
}
