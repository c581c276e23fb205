//! The driver: deterministic workspace walk, call-graph construction,
//! suppression filtering.
//!
//! A run lexes every file, parses items out of the file contexts
//! ([`crate::syntax`]), builds the workspace call graph
//! ([`crate::callgraph`]), takes every function marked
//! `// arc-lint: decode-root` as a root, and runs the transitive cone rules
//! ([`crate::cone`]) over the reachable set.
//!
//! Directory entries are sorted by name at every level, findings are
//! sorted by (file, line, rule), nodes are sorted by (file, line), and
//! BFS witnesses follow root order — two runs over the same tree, on any
//! machine, produce identical findings and cones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::cone::{self, Finding};
use crate::context::FileCtx;
use crate::syntax::parse_items;

/// Directory names never descended into. `fixtures` holds the lint crate's
/// own corpus of *intentional* violations; `vendor` is third-party shim
/// code; the rest is build/VCS output. A sub-directory that is a cargo
/// workspace of its own is skipped too — see [`is_workspace_root`].
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "results"];

/// Pseudo-rule key reported when a file cannot be lexed. It fails the gate
/// like any other rule.
pub const LEX_ERROR_RULE: &str = "lex-error";

/// Engine configuration.
pub struct Options {
    /// Restrict the call graph to library/binary source. Fixture tests turn
    /// this off to point the engine at an arbitrary directory.
    pub respect_filters: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options { respect_filters: true }
    }
}

/// Outcome of one engine run.
pub struct RunResult {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings silenced by `arc-lint: allow` comments (kept for reporting).
    pub suppressed: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The workspace call graph.
    pub graph: CallGraph,
    /// The decode cone: every node id reachable from a decode root, mapped
    /// to the label of the first root that reaches it.
    pub cone: BTreeMap<usize, String>,
}

/// Recursively collect `.rs` files under `root` in sorted order.
pub fn collect_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        entries.push(entry.path());
    }
    // Sort by file name at each level: the whole traversal — and therefore
    // every downstream report — is machine-independent.
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || is_workspace_root(&path) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// True when `dir` holds a `Cargo.toml` with a `[workspace]` table: the root
/// of another cargo workspace nested in this tree (a standalone benchmark
/// package, say), whose code is outside the graph and the gate. Member crates only *refer* to a workspace (`version.workspace =
/// true`), which is not a table header and does not match.
fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|manifest| {
        manifest.lines().map(str::trim).any(|l| l == "[workspace]" || l.starts_with("[workspace."))
    })
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// True when `rel` belongs in the call graph: crate library/binary source
/// (tests, benches, and example trees call decoders too, but hostile bytes
/// only *enter* through library code, and test fns are dropped anyway).
///
/// `crates/lint` itself is excluded: no workspace crate depends on
/// `arc-lint` (a leaf dev tool), so its functions cannot sit below a decode
/// root — but method-name over-approximation (`.build(…)`, `.parse(…)`)
/// would otherwise drag its internals into every cone. The
/// `nothing_outside_the_lint_crate_imports_it` integration test keeps this
/// exclusion honest.
fn is_graph_source(rel: &str) -> bool {
    if rel.starts_with("crates/lint/") {
        return false;
    }
    (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/")
}

/// Run the cone rules over every `.rs` file under `root`.
pub fn run(root: &Path, opts: &Options) -> Result<RunResult, String> {
    let files = collect_files(root)?;
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    // Contexts are retained for the graph (and for suppression filtering of
    // its findings at the end).
    let mut ctxs: BTreeMap<String, FileCtx> = BTreeMap::new();
    for path in &files {
        let rel = rel_path(root, path);
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        files_scanned += 1;
        match FileCtx::build(rel.clone(), &text) {
            Ok(ctx) => {
                ctxs.insert(rel, ctx);
            }
            Err(e) => {
                findings.push(Finding {
                    rule: LEX_ERROR_RULE,
                    file: rel,
                    line: e.line,
                    message: e.message,
                });
            }
        }
    }

    let mut items = Vec::new();
    for ctx in ctxs.values() {
        if opts.respect_filters && !is_graph_source(&ctx.rel) {
            continue;
        }
        items.extend(parse_items(ctx));
    }
    let graph = CallGraph::build(items);
    let cone = graph.reachable(&graph.marked_roots());
    cone::check_cone(&graph, &cone, &ctxs, &mut findings);

    // Lex-error findings have no context and pass through.
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        if ctxs.get(&f.file).is_some_and(|c| c.is_suppressed(f.rule, f.line)) {
            suppressed.push(f);
        } else {
            kept.push(f);
        }
    }
    kept.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    suppressed.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(RunResult { findings: kept, suppressed, files_scanned, graph, cone })
}
