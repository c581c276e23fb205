//! The driver: deterministic workspace walk, rule dispatch, call-graph
//! construction, suppression filtering.
//!
//! A run has two phases. Phase one lexes every file and applies the
//! token-level rules exactly as before. Phase two parses items out of the
//! retained file contexts ([`crate::syntax`]), builds the workspace call
//! graph ([`crate::callgraph`]), resolves the decode roots declared in
//! `lint-roots.toml` (plus `// arc-lint: decode-root` markers), and runs
//! the transitive cone rules ([`crate::cone`]) over the reachable set.
//!
//! Directory entries are sorted by name at every level, findings are
//! sorted by (file, line, rule), nodes are sorted by (file, line), and
//! BFS witnesses follow root declaration order — two runs over the same
//! tree, on any machine, produce identical findings, baselines, and
//! `--graph` dumps.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::cone;
use crate::context::FileCtx;
use crate::roots;
use crate::rules::{default_rules, Finding, Rule, Severity};
use crate::syntax::parse_items;

/// Directory names never descended into. `fixtures` holds the lint crate's
/// own corpus of *intentional* violations; `vendor` is third-party shim
/// code; the rest is build/VCS output. A sub-directory that is a cargo
/// workspace of its own is skipped too — see [`is_workspace_root`].
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "results"];

/// Pseudo-rule key reported when a file cannot be lexed. It participates in
/// the baseline like any other rule (an unparseable file is debt too).
pub const LEX_ERROR_RULE: &str = "lex-error";

/// Name of the committed root-declaration file, looked up under `--root`.
pub const ROOTS_FILE: &str = "lint-roots.toml";

/// Output format for the `--graph` reachability dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// Graphviz `digraph` text.
    Dot,
    /// Byte-stable JSON (nodes, edges, summary counters).
    Json,
}

/// Engine configuration.
pub struct Options {
    /// Apply each rule's path scope (`Rule::applies`) and restrict the call
    /// graph to library/binary source. Fixture tests turn this off to point
    /// the engine at an arbitrary directory.
    pub respect_filters: bool,
    /// Run only the rule with this key.
    pub only_rule: Option<String>,
    /// Also produce a reachability-cone dump in this format.
    pub graph: Option<GraphFormat>,
}

impl Default for Options {
    fn default() -> Options {
        Options { respect_filters: true, only_rule: None, graph: None }
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
    /// Number of functions in the decode cone (0 when the graph phase did
    /// not run).
    pub cone_size: usize,
    /// The `--graph` dump, when one was requested.
    pub graph_dump: Option<String>,
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
    // every downstream report and baseline — is machine-independent.
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
/// package, say), whose code is outside the graph, the baseline and the
/// gate. Member crates only *refer* to a workspace (`version.workspace =
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

/// Run the default rule set over every `.rs` file under `root`.
pub fn run(root: &Path, opts: &Options) -> Result<RunResult, String> {
    let rules = default_rules();
    let selected: Vec<&dyn Rule> = rules
        .iter()
        .filter(|r| opts.only_rule.as_deref().is_none_or(|k| k == r.key()))
        .map(|r| r.as_ref())
        .collect();
    let files = collect_files(root)?;
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    // Contexts are retained for the graph phase (and for suppression
    // filtering of cone findings at the end).
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
                    severity: Severity::Error,
                    file: rel,
                    line: e.line,
                    message: e.message,
                });
            }
        }
    }

    // Phase one: token-level rules, file by file.
    for ctx in ctxs.values() {
        for rule in &selected {
            if opts.respect_filters && !rule.applies(&ctx.rel) {
                continue;
            }
            rule.check(ctx, &mut findings);
        }
    }

    // Phase two: the call graph and the transitive decode-cone rules. Runs
    // unless `--rule` narrowed the run to a token-level rule.
    let cone_wanted = match opts.only_rule.as_deref() {
        None => true,
        Some(key) => cone::is_cone_rule(key),
    };
    let mut cone_size = 0usize;
    let mut graph_dump = None;
    if cone_wanted || opts.graph.is_some() {
        let mut items = Vec::new();
        for ctx in ctxs.values() {
            if opts.respect_filters && !is_graph_source(&ctx.rel) {
                continue;
            }
            items.extend(parse_items(ctx));
        }
        let graph = CallGraph::build(items);
        let root_ids = resolve_roots(root, &graph, &mut findings);
        let reachable = graph.reachable(&root_ids);
        cone_size = reachable.len();
        if cone_wanted {
            cone::check_cone(&graph, &reachable, &ctxs, opts.only_rule.as_deref(), &mut findings);
        }
        graph_dump = match opts.graph {
            Some(GraphFormat::Json) => Some(graph.cone_json(&reachable)),
            Some(GraphFormat::Dot) => Some(graph.cone_dot(&reachable)),
            None => None,
        };
    }

    // Suppression filtering over everything, file rules and cone rules
    // alike (lex-error findings have no context and pass through).
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
    Ok(RunResult { findings: kept, suppressed, files_scanned, cone_size, graph_dump })
}

/// Load `lint-roots.toml` (if present), resolve every spec plus every
/// `decode-root`-marked function, and return `(node id, witness label)`
/// pairs in declaration order. Parse errors and unresolved specs become
/// `lint-roots-error` findings — the gate must fail loudly when the cone
/// silently shrinks.
fn resolve_roots(
    root: &Path,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let path = root.join(ROOTS_FILE);
    if let Ok(text) = std::fs::read_to_string(&path) {
        match roots::parse(&text) {
            Ok(decls) => {
                for spec in &decls.specs {
                    let ids = graph.resolve_spec(&spec.text);
                    if ids.is_empty() {
                        findings.push(Finding {
                            rule: cone::LINT_ROOTS_ERROR,
                            severity: Severity::Error,
                            file: ROOTS_FILE.to_string(),
                            line: spec.line,
                            message: format!(
                                "root `{}` resolves to no workspace function — renamed or \
                                 removed entry point?",
                                spec.text
                            ),
                        });
                    }
                    for id in ids {
                        out.push((id, spec.text.clone()));
                    }
                }
            }
            Err(msg) => {
                findings.push(Finding {
                    rule: cone::LINT_ROOTS_ERROR,
                    severity: Severity::Error,
                    file: ROOTS_FILE.to_string(),
                    line: 1,
                    message: format!("malformed {ROOTS_FILE}: {msg}"),
                });
            }
        }
    }
    for id in graph.marked_roots() {
        let label = graph.nodes[id].item.display();
        out.push((id, label));
    }
    out
}
