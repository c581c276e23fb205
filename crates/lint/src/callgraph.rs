//! Conservative workspace call graph and decode-root reachability.
//!
//! Built from the per-file [`FnItem`] lists that [`crate::syntax`]
//! recovers. Resolution is **conservative over-approximation**: where the
//! tokens cannot identify a unique callee, every plausible callee gets an
//! edge, and the ambiguity is counted in [`CallGraph::ambiguous_calls`].
//! An edge too many widens the decode cone and at worst demands an extra
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
    /// `edges[i]` = sorted, deduplicated callee ids of node `i`.
    pub edges: Vec<Vec<usize>>,
    /// Call sites that resolved to more than one callee.
    pub ambiguous_calls: u64,
    /// Call sites that resolved to no workspace function (std/vendor
    /// calls, macros' internals, turbofish forms the parser misses).
    pub unresolved_calls: u64,
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
        let mut ambiguous = 0u64;
        let mut unresolved = 0u64;
        for i in 0..nodes.len() {
            for call in &nodes[i].item.calls {
                let callees = resolve_call(&nodes, i, call);
                match callees.len() {
                    0 => unresolved += 1,
                    1 => {}
                    _ => ambiguous += 1,
                }
                edges[i].extend(callees);
            }
            edges[i].sort_unstable();
            edges[i].dedup();
        }
        CallGraph { nodes, edges, ambiguous_calls: ambiguous, unresolved_calls: unresolved }
    }

    /// Resolve a root *spec* from `lint-roots.toml`. Accepted forms:
    /// `name` (any function, free or method), `Type::name` / `module::name`
    /// (qualified, resolved like a call path). Returns sorted node ids;
    /// empty means the spec names nothing in the workspace.
    pub fn resolve_spec(&self, spec: &str) -> Vec<usize> {
        let path: Vec<String> =
            spec.split("::").map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
        let mut out = Vec::new();
        let Some(name) = path.last() else { return out };
        for (id, node) in self.nodes.iter().enumerate() {
            if &node.item.name != name {
                continue;
            }
            let ok = if path.len() == 1 {
                true
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

    /// Node ids carrying a `// arc-lint: decode-root` marker.
    pub fn marked_roots(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].item.is_decode_root).collect()
    }

    /// Multi-source reachability. `roots` pairs node ids with the label of
    /// the root spec that declared them, *in declaration order*; the map
    /// records, for every reachable node, the first declared root that
    /// reaches it (the "witness" used in rule messages). Cycles are handled
    /// by the visited set; declaration order makes witnesses deterministic.
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

    /// Display name for a node id: `file::Type::name` without the path.
    fn node_label(&self, id: usize) -> String {
        let n = &self.nodes[id];
        let mut label = n.module_path.join("::");
        if let Some(ty) = &n.item.self_ty {
            label.push_str("::");
            label.push_str(ty);
        }
        label.push_str("::");
        label.push_str(&n.item.name);
        label
    }

    /// Byte-stable JSON dump of the decode cone: nodes (in id order, which
    /// is (file, line) order), intra-cone edges, and summary counters.
    pub fn cone_json(&self, cone: &BTreeMap<usize, String>) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"total_functions\": {},\n", self.nodes.len()));
        out.push_str(&format!("  \"cone_size\": {},\n", cone.len()));
        out.push_str(&format!("  \"ambiguous_calls\": {},\n", self.ambiguous_calls));
        out.push_str(&format!("  \"unresolved_calls\": {},\n", self.unresolved_calls));
        out.push_str("  \"nodes\": [\n");
        let ids: Vec<usize> = cone.keys().copied().collect();
        for (i, id) in ids.iter().enumerate() {
            let n = &self.nodes[*id];
            out.push_str(&format!(
                "    {{\"fn\": \"{}\", \"file\": \"{}\", \"line\": {}, \"root\": \"{}\"}}{}\n",
                crate::json::escape(&self.node_label(*id)),
                crate::json::escape(&n.item.file),
                n.item.line,
                crate::json::escape(cone.get(id).map(String::as_str).unwrap_or("")),
                if i + 1 < ids.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"edges\": [\n");
        let mut lines = Vec::new();
        for id in &ids {
            for callee in &self.edges[*id] {
                if cone.contains_key(callee) {
                    lines.push(format!(
                        "    {{\"from\": \"{}\", \"to\": \"{}\"}}",
                        crate::json::escape(&self.node_label(*id)),
                        crate::json::escape(&self.node_label(*callee))
                    ));
                }
            }
        }
        for (i, l) in lines.iter().enumerate() {
            out.push_str(l);
            out.push_str(if i + 1 < lines.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Graphviz dump of the decode cone (same node ordering as the JSON).
    pub fn cone_dot(&self, cone: &BTreeMap<usize, String>) -> String {
        let mut out = String::from("digraph decode_cone {\n  rankdir=LR;\n  node [shape=box];\n");
        for id in cone.keys() {
            let n = &self.nodes[*id];
            out.push_str(&format!(
                "  \"{}\" [label=\"{}\\n{}:{}\"];\n",
                self.node_label(*id),
                self.node_label(*id),
                n.item.file,
                n.item.line
            ));
        }
        for id in cone.keys() {
            for callee in &self.edges[*id] {
                if cone.contains_key(callee) {
                    out.push_str(&format!(
                        "  \"{}\" -> \"{}\";\n",
                        self.node_label(*id),
                        self.node_label(*callee)
                    ));
                }
            }
        }
        out.push_str("}\n");
        out
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
        assert_eq!(g.ambiguous_calls, 0);
        assert_eq!(g.unresolved_calls, 0);
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
        assert_eq!(g.ambiguous_calls, 1);
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
    fn resolve_spec_forms() {
        let g = graph(&[(
            "crates/core/src/reader.rs",
            "pub struct ArcReader;\n\
             impl ArcReader { pub fn decode_range(&self) {} }\n\
             pub fn unpack() {}\n",
        )]);
        assert_eq!(g.resolve_spec("ArcReader::decode_range").len(), 1);
        assert_eq!(g.resolve_spec("decode_range").len(), 1);
        assert_eq!(g.resolve_spec("reader::unpack").len(), 1);
        assert_eq!(g.resolve_spec("container::unpack").len(), 0);
        assert_eq!(g.resolve_spec("nosuch").len(), 0);
    }

    #[test]
    fn cone_dumps_are_stable_and_well_formed() {
        let g = graph(&[("crates/a/src/lib.rs", "pub fn root() { leaf(); }\npub fn leaf() {}\n")]);
        let cone = g.reachable(&[(id_of(&g, "root"), "root".to_string())]);
        let j1 = g.cone_json(&cone);
        let j2 = g.cone_json(&cone);
        assert_eq!(j1, j2);
        assert!(j1.contains("\"cone_size\": 2"));
        let dot = g.cone_dot(&cone);
        assert!(dot.starts_with("digraph decode_cone {"));
        assert!(dot.contains("->"));
    }
}
