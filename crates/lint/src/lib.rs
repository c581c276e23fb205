//! `arc-lint` — a zero-dependency workspace lint engine enforcing ARC's
//! resiliency invariants.
//!
//! ARC's value proposition is that the *protection layer itself* never
//! corrupts or aborts on the data it was asked to protect. That discipline
//! has to be machine-checked, not conventional: this crate walks every
//! `.rs` file in the workspace with a hand-rolled Rust lexer and enforces
//! two layers of invariants.
//!
//! Token-level rules ([`rules`]), checked per file:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-needs-safety`    | every `unsafe` site carries a `// SAFETY:` proof |
//! | `no-panic-in-lib`        | no `.unwrap()`/`panic!`-family aborts in library code |
//! | `no-lossy-cast`          | no narrowing `as` casts in the ecc/zfp hot paths |
//!
//! Transitive rules ([`cone`]), checked over the workspace call graph
//! ([`syntax`] parses items, [`callgraph`] resolves calls) on every
//! function reachable from a decode root — a function marked
//! `// arc-lint: decode-root`:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `decode-no-panic-transitive` | nothing a decode root can reach may abort |
//! | `decode-no-direct-index`     | `x[i]` in the cone needs `.get()` or a `bounded(..)` proof |
//! | `decode-bounded-alloc`       | input-derived allocation sizes need a clamp or proof |
//!
//! Pre-existing debt lives in a committed, ratcheted `lint-baseline.txt`
//! ([`baseline`]): new violations fail the gate, and the baseline may only
//! shrink. Individual sites can be waived in place with
//! `// arc-lint: allow(<rule>, <reason>)`; index/alloc sites can instead be
//! *proven* with `// arc-lint: bounded(<why>)`.
//!
//! See DESIGN.md §10 for the rule catalogue, the call-graph architecture,
//! and its soundness caveats.

pub mod baseline;
pub mod callgraph;
pub mod cone;
pub mod context;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod syntax;
