//! Conservative workspace call graph and decode-root reachability.
//!
//! Built from the per-file [`FnItem`] lists that [`crate::syntax`]
//! recovers. Resolution is **conservative over-approximation**: where the
//! tokens cannot identify a unique callee, every plausible callee gets an
//! edge. An edge too many widens the decode cone and at worst demands an extra
//! annotation; an edge too few would let a panic hide below a decode entry
//! point. The resolution rules (DESIGN.md §10 documents the caveats):
//!
//! - **Method calls** `recv.name(…)` — no type information, so the call
//!   resolves to *every* workspace method named `name`.
//! - **Bare free calls** `name(…)` — every free function named `name`
//!   (locals shadowing a function, and closures called through a binding,
//!   also land here; both over-approximate).
//! - **Qualified calls** `a::b::name(…)` — methods whose self type equals
//!   the last qualifier, or free functions — in both cases the remaining
//!   qualifiers must appear, in order, in the callee's module path
//!   (subsequence match, so re-exports like `arc_core::arc_engine_decode`
//!   still resolve to `arc_core::engine::arc_engine_decode`).
//! - `Self::name(…)` resolves `Self` to the caller's impl self type.
//!
//! Module paths are derived from file paths: `crates/<c>/src/<m>.rs` maps
//! to `arc_<c>::<m>` (with `lib`/`main`/`mod` segments dropped), matching
//! the workspace's `arc-<c>` package naming.
//!
//! `#[cfg(test)]` functions are excluded from the graph entirely: test
//! code may panic, and a test calling `decode_range` must not pull the
//! test itself into the cone.

use std::collections::BTreeMap;

use crate::syntax::{CallSite, FnItem};

/// One function in the graph: the parsed item plus its module path.
pub struct FnNode {
    /// The parsed function.
    pub item: FnItem,
    /// Module path derived from the file path (crate name first).
    pub module_path: Vec<String>,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All non-test functions, sorted by (file, line) — index order is the
    /// node id order everywhere below.
    pub nodes: Vec<FnNode>,
    /// `edges[i]` = sorted, deduplicated callee ids of node `i`. A call
    /// that resolves to no workspace function (std/vendor calls, macros'
    /// internals) adds no edge, and neither does a function passed as a
    /// value, which the parser does not see as a call.
    pub edges: Vec<Vec<usize>>,
}

/// Derive a module path from a workspace-relative file path. Workspace
/// crates live at `crates/<dir>` and are named `arc-<dir>`, so their lib
/// target is `arc_<dir>`; the root facade crate at `src/` is `arc`. Paths
/// outside either shape (fixture trees) use their components verbatim.
pub fn module_path_for(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let mut out = Vec::new();
    let rest: &[&str] = if parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" {
        out.push(format!("arc_{}", parts[1].replace('-', "_")));
        &parts[3..]
    } else if parts.len() >= 2 && parts[0] == "src" {
        out.push("arc".to_string());
        &parts[1..]
    } else {
        &parts[..]
    };
    for comp in rest {
        let stem = comp.strip_suffix(".rs").unwrap_or(comp);
        if stem == "lib" || stem == "main" || stem == "mod" || stem == "bin" {
            continue;
        }
        out.push(stem.replace('-', "_"));
    }
    out
}

/// True when `quals` appears, in order, within `module_path` (subsequence
/// match). The empty qualifier list matches everything.
fn quals_match(quals: &[String], module_path: &[String]) -> bool {
    let mut mi = 0usize;
    for q in quals {
        let mut found = false;
        while mi < module_path.len() {
            if &module_path[mi] == q {
                found = true;
                mi += 1;
                break;
            }
            mi += 1;
        }
        if !found {
            return false;
        }
    }
    true
}

impl CallGraph {
    /// Build the graph from parsed items (test functions are dropped).
    pub fn build(mut items: Vec<FnItem>) -> CallGraph {
        items.retain(|f| !f.is_test);
        items.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        let nodes: Vec<FnNode> = items
            .into_iter()
            .map(|item| {
                let module_path = module_path_for(&item.file);
                FnNode { item, module_path }
            })
            .collect();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            for call in &nodes[i].item.calls {
                edges[i].extend(resolve_call(&nodes, i, call));
            }
            edges[i].sort_unstable();
            edges[i].dedup();
        }
        CallGraph { nodes, edges }
    }

    /// The decode roots: every node carrying a `// arc-lint: decode-root`
    /// marker, in id order, each paired with its display name.
    pub fn marked_roots(&self) -> Vec<(usize, String)> {
        let marked = self.nodes.iter().enumerate().filter(|(_, n)| n.item.is_decode_root);
        marked.map(|(id, n)| (id, n.item.display())).collect()
    }

    /// Multi-source reachability. `roots` pairs node ids with a root label,
    /// in priority order; the map records, for every reachable node, the
    /// first root that reaches it (the "witness" used in rule messages).
    /// Cycles are handled by the visited set; root order makes witnesses
    /// deterministic.
    pub fn reachable(&self, roots: &[(usize, String)]) -> BTreeMap<usize, String> {
        let mut cone: BTreeMap<usize, String> = BTreeMap::new();
        for (root, label) in roots {
            if *root >= self.nodes.len() || cone.contains_key(root) {
                continue;
            }
            let mut queue = vec![*root];
            cone.insert(*root, label.clone());
            while let Some(n) = queue.pop() {
                for &callee in &self.edges[n] {
                    if let std::collections::btree_map::Entry::Vacant(e) = cone.entry(callee) {
                        e.insert(label.clone());
                        queue.push(callee);
                    }
                }
            }
        }
        cone
    }
}

impl FnNode {
    /// Fully qualified name: module path, self type (for methods), name —
    /// `arc_core::reader::ArcReader::decode_range`.
    pub fn label(&self) -> String {
        let mut parts = self.module_path.clone();
        parts.extend(self.item.self_ty.clone());
        parts.push(self.item.name.clone());
        parts.join("::")
    }
}

/// Resolve one call site from node `caller` to candidate callee ids.
fn resolve_call(nodes: &[FnNode], caller: usize, call: &CallSite) -> Vec<usize> {
    // `Self::name` — substitute the caller's impl type for `Self`.
    let path: Vec<String> = call
        .path
        .iter()
        .map(|seg| {
            if seg == "Self" {
                nodes[caller].item.self_ty.clone().unwrap_or_else(|| seg.clone())
            } else {
                seg.clone()
            }
        })
        .collect();
    let Some(name) = path.last() else { return Vec::new() };
    let mut out = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        if &node.item.name != name {
            continue;
        }
        let ok = if call.method {
            // `recv.name(…)`: any method of that name, anywhere.
            node.item.self_ty.is_some()
        } else if path.len() == 1 {
            // Bare `name(…)`: any free function of that name.
            node.item.self_ty.is_none()
        } else {
            let quals = &path[..path.len() - 1];
            match &node.item.self_ty {
                Some(ty) => {
                    quals.last().is_some_and(|q| q == ty)
                        && quals_match(&quals[..quals.len() - 1], &node.module_path)
                }
                None => quals_match(quals, &node.module_path),
            }
        };
        if ok {
            out.push(id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCtx;
    use crate::syntax::parse_items;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let mut items = Vec::new();
        for (rel, src) in files {
            let ctx = FileCtx::build((*rel).to_string(), src).unwrap();
            items.extend(parse_items(&ctx));
        }
        CallGraph::build(items)
    }

    fn id_of(g: &CallGraph, name: &str) -> usize {
        (0..g.nodes.len()).find(|&i| g.nodes[i].item.name == name).unwrap()
    }

    #[test]
    fn module_paths_follow_workspace_layout() {
        assert_eq!(module_path_for("crates/core/src/container.rs"), vec!["arc_core", "container"]);
        assert_eq!(module_path_for("crates/sz/src/lib.rs"), vec!["arc_sz"]);
        assert_eq!(module_path_for("src/facade.rs"), vec!["arc", "facade"]);
        assert_eq!(module_path_for("crates/x/src/a/mod.rs"), vec!["arc_x", "a"]);
    }

    #[test]
    fn cross_file_qualified_calls_resolve() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub fn entry() { helper::work(); }\n"),
            ("crates/a/src/helper.rs", "pub fn work() {}\n"),
        ]);
        let entry = id_of(&g, "entry");
        let work = id_of(&g, "work");
        assert_eq!(g.edges[entry], vec![work]);
    }

    #[test]
    fn reexport_style_paths_resolve_by_subsequence() {
        // `arc_a::work` resolves into `crates/a/src/inner.rs` even though
        // `inner` is absent from the call path (lib.rs re-export shape).
        let g = graph(&[
            ("crates/b/src/lib.rs", "pub fn caller() { arc_a::work(); }\n"),
            ("crates/a/src/inner.rs", "pub fn work() {}\n"),
        ]);
        assert_eq!(g.edges[id_of(&g, "caller")], vec![id_of(&g, "work")]);
    }

    #[test]
    fn ambiguous_method_calls_over_approximate() {
        // Two types expose `push`; a method call must edge to BOTH.
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub struct A; impl A { pub fn push(&self) {} }\n\
             pub struct B; impl B { pub fn push(&self) {} }\n\
             pub fn driver(x: &A) { x.push(); }\n",
        )]);
        let driver = id_of(&g, "driver");
        assert_eq!(g.edges[driver].len(), 2);
    }

    #[test]
    fn cycles_terminate_and_stay_in_cone() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\npub fn b() { a(); }\npub fn lonely() {}\n",
        )]);
        let a = id_of(&g, "a");
        let cone = g.reachable(&[(a, "a".to_string())]);
        assert_eq!(cone.len(), 2);
        assert!(cone.contains_key(&id_of(&g, "b")));
        assert!(!cone.contains_key(&id_of(&g, "lonely")));
    }

    #[test]
    fn witness_root_is_first_in_declaration_order() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn r1() { shared(); }\npub fn r2() { shared(); }\npub fn shared() {}\n",
        )]);
        let roots = vec![(id_of(&g, "r1"), "r1".to_string()), (id_of(&g, "r2"), "r2".to_string())];
        let cone = g.reachable(&roots);
        assert_eq!(cone.get(&id_of(&g, "shared")).unwrap(), "r1");
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub struct T;\n\
             impl T { pub fn a(&self) { Self::b(); } pub fn b() {} }\n\
             pub struct U;\n\
             impl U { pub fn b() {} }\n",
        )]);
        let a = id_of(&g, "a");
        // Exactly one callee: T::b, not U::b.
        assert_eq!(g.edges[a].len(), 1);
        let callee = g.edges[a][0];
        assert_eq!(g.nodes[callee].item.self_ty.as_deref(), Some("T"));
    }

    #[test]
    fn test_fns_are_excluded_from_the_graph() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { lib(); }\n}\n",
        )]);
        assert_eq!(g.nodes.len(), 1);
    }

    #[test]
    fn marked_roots_carry_their_display_names_and_labels_qualify_them() {
        let g = graph(&[(
            "crates/core/src/reader.rs",
            "pub struct ArcReader;\n\
             impl ArcReader {\n    // arc-lint: decode-root\n    pub fn decode_range(&self) {}\n}\n\
             // arc-lint: decode-root\n\
             pub fn unpack() {}\n\
             pub fn helper() {}\n",
        )]);
        let roots: Vec<String> = g.marked_roots().into_iter().map(|(_, l)| l).collect();
        assert_eq!(roots, ["ArcReader::decode_range", "unpack"]);
        let labels: Vec<String> = g.nodes.iter().map(FnNode::label).collect();
        assert_eq!(
            labels,
            [
                "arc_core::reader::ArcReader::decode_range",
                "arc_core::reader::unpack",
                "arc_core::reader::helper"
            ]
        );
    }
}
