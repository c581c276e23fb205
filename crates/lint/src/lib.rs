//! `arc-lint` — a zero-dependency workspace lint engine for the one
//! resiliency invariant no off-the-shelf tool checks: what a decoder can
//! reach.
//!
//! ARC's contract is that decode returns a typed error on hostile bytes and
//! never aborts. Per-file checks are clippy's, with type information
//! (DESIGN.md §10): a crate-root `deny(clippy::unwrap_used, …)` in every
//! library, `clippy::undocumented_unsafe_blocks` workspace-wide, and
//! `clippy::cast_possible_truncation` in `arc-ecc` and `arc-zfp`. This crate
//! walks every `.rs` file with a hand-rolled Rust lexer, builds the
//! workspace call graph ([`syntax`] parses items, [`callgraph`] resolves
//! calls), and checks every function reachable from a decode root — a
//! function marked `// arc-lint: decode-root` ([`cone`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `decode-no-panic-transitive` | nothing a decode root can reach may abort |
//! | `decode-no-direct-index`     | `x[i]` in the cone needs `.get()` or a `bounded(..)` proof |
//! | `decode-bounded-alloc`       | input-derived allocation sizes need a clamp or proof |
//!
//! The gate has no baseline: any finding fails it. A site can be waived in
//! place with `// arc-lint: allow(<rule>, <reason>)`, and an index or
//! allocation site can instead be *proven* with
//! `// arc-lint: bounded(<the check or type that bounds it>)`.
//!
//! See DESIGN.md §10 for the rule catalogue, the call-graph architecture,
//! and its soundness caveats.

// Library code never aborts on the data it protects. Lib targets only (a bin
// may exit on a CLI error); clippy.toml exempts `#[cfg(test)]` code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod callgraph;
pub mod cone;
pub mod context;
pub mod engine;
pub mod lexer;
pub mod syntax;
