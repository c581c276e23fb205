#!/usr/bin/env bash
# Repo gate. Runs from the repo root regardless of the caller's cwd.
#
# Usage: scripts/check.sh          fast gate, for every change:
#                                    fmt, clippy -D warnings, rustdoc -D
#                                    warnings, tier-1 build + tests,
#                                    workspace tests, arc-lint
#        scripts/check.sh --full   the fast gate, then everything slower:
#                                    the #[ignore]d deep differentials (bit
#                                    path, LZ match finder, SZ element loops,
#                                    codeword-RS lane kernel, BCH remainder),
#                                    the seven fault-study binaries at
#                                    --quick, hostile-input sweep, arcbench
#                                    at smoke scale
#
# arc-lint fails on any violation beyond lint-baseline.json and on stale
# baseline entries; regenerate with scripts/lint_baseline.sh after paying
# debt down. The hostile sweep (DESIGN.md §11) fails on any decode panic,
# hang, or over-budget allocation.
#
# Wall-clock throughput gates are in neither mode (too noisy for shared
# machines): `arcbench/run.sh --pairs N OTHER_CHECKOUT` is run by hand
# before perf-sensitive changes.

set -euo pipefail
cd "$(dirname "$0")/.."

full=0
case "${1:-}" in
"") ;;
--full) full=1 ;;
*)
    echo "usage: scripts/check.sh [--full]" >&2
    exit 2
    ;;
esac

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --workspace: at the root a bare `cargo clippy` checks only the facade
# package. The vendored shims are left out; proptest's lib test does not
# build under clippy.
cargo clippy --workspace --exclude proptest --exclude rand --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps --workspace"
# A deleted or renamed item must not leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests: cargo test --workspace -q"
cargo test --workspace -q

echo "==> arc-lint: arc-lint --deny --strict-baseline (10 s budget)"
# Build outside the timed region: the budget is for the analysis —
# lexing, call-graph construction, cone rules — not the compiler.
cargo build -q -p arc-lint
lint_start_ns=$(date +%s%N)
./target/debug/arc-lint --deny --strict-baseline
lint_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
echo "    arc-lint wall clock: ${lint_ms} ms"
if (( lint_ms >= 10000 )); then
    echo "error: arc-lint took ${lint_ms} ms; the interprocedural gate must stay under 10 s" >&2
    exit 1
fi

if (( full )); then
    echo "==> deep differentials: cargo test --release -p arc-lossless -p arc-zfp -p arc-sz -p arc-ecc -- --ignored"
    cargo test --release -q -p arc-lossless -p arc-zfp -p arc-sz -p arc-ecc -- --ignored

    echo "==> fault studies: fig01-fig05, sec63_resiliency, ablations at --quick (stdout discarded)"
    # Nothing else runs these binaries; a non-zero exit from any fails the gate.
    cargo build --release -q -p arc-bench
    for bin in fig01_single_flip fig02_status_dist fig03_incorrect_by_location fig04_cr_sweep \
        fig05_integrity sec63_resiliency ablations; do
        ./target/release/"$bin" --quick >/dev/null
    done

    echo "==> hostile-input sweep: cargo run --release -q -p arc-bench --bin hostile_corpus"
    cargo run --release -q -p arc-bench --bin hostile_corpus

    echo "==> arcbench smoke: bash arcbench/run.sh --all --smoke"
    bash arcbench/run.sh --all --smoke
fi

echo "All checks passed."
