//! The decode-cone rules: totality invariants enforced transitively over
//! every function reachable from a declared decode root.
//!
//! Clippy's crate-root `deny(clippy::unwrap_used, …)` polices *files*; these
//! rules police the *call graph*. A decoder facing hostile bytes must
//! terminate in one of ARC's outcome classes (Completed / Terminated /
//! Timeout), so nothing it can reach — however many calls deep — may:
//!
//! - abort (`decode-no-panic-transitive`): `panic!`-family and
//!   `assert!`-family macros, `.unwrap()`, `.expect(…)`;
//! - index without proof (`decode-no-direct-index`): `x[i]` panics on a
//!   hostile offset — use `.get(…)` or carry
//!   `// arc-lint: bounded(<why>)`;
//! - size an allocation from attacker-influenceable input
//!   (`decode-bounded-alloc`): `with_capacity(n)` / `resize(n, …)` /
//!   `vec![x; n]` where `n` derives from a parameter or header load needs
//!   a budget clamp (`.min(limit)`) or a `bounded` annotation.
//!
//! Because resolution over-approximates (see [`crate::callgraph`]), a
//! finding here means "possibly reachable from a decode root" — the
//! witness root in the message names the marked entry point whose cone
//! contains the function.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::context::FileCtx;

/// One rule violation at a specific source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule key (e.g. `decode-no-direct-index`).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Rule key: no panic-family site reachable from a decode root.
pub const DECODE_NO_PANIC: &str = "decode-no-panic-transitive";
/// Rule key: no unproven direct indexing reachable from a decode root.
pub const DECODE_NO_INDEX: &str = "decode-no-direct-index";
/// Rule key: no unbounded allocation size reachable from a decode root.
pub const DECODE_BOUNDED_ALLOC: &str = "decode-bounded-alloc";

/// Check every function in `cone` against the three rules, appending
/// findings. `ctxs` maps workspace-relative paths to their file contexts
/// (for `bounded(…)` proofs).
pub fn check_cone(
    graph: &CallGraph,
    cone: &BTreeMap<usize, String>,
    ctxs: &BTreeMap<String, FileCtx>,
    out: &mut Vec<Finding>,
) {
    for (id, root) in cone {
        let item = &graph.nodes[*id].item;
        let ctx = ctxs.get(&item.file);
        for p in &item.panics {
            out.push(Finding {
                rule: DECODE_NO_PANIC,
                file: item.file.clone(),
                line: p.line,
                message: format!(
                    "`{}` in `{}`, reachable from decode root `{root}`",
                    p.what,
                    item.display()
                ),
            });
        }
        for ix in &item.indexes {
            if ctx.is_some_and(|c| c.is_bounded(ix.line)) {
                continue;
            }
            out.push(Finding {
                rule: DECODE_NO_INDEX,
                file: item.file.clone(),
                line: ix.line,
                message: format!(
                    "direct index `{}[…]` in `{}`, reachable from decode root `{root}` — \
                     use `.get()` or annotate `arc-lint: bounded(..)`",
                    ix.receiver,
                    item.display()
                ),
            });
        }
        for al in &item.allocs {
            if al.size_is_bounded || ctx.is_some_and(|c| c.is_bounded(al.line)) {
                continue;
            }
            out.push(Finding {
                rule: DECODE_BOUNDED_ALLOC,
                file: item.file.clone(),
                line: al.line,
                message: format!(
                    "`{}` sized by `{}` in `{}`, reachable from decode root `{root}` — \
                     clamp to a budget or annotate `arc-lint: bounded(..)`",
                    al.what,
                    al.size_desc,
                    item.display()
                ),
            });
        }
    }
}
