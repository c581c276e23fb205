#!/usr/bin/env bash
# Repo gate. Runs from the repo root regardless of the caller's cwd.
#
# Usage: scripts/check.sh          fast gate, for every change:
#                                    fmt, clippy -D warnings, rustdoc -D
#                                    warnings, tier-1 build + tests,
#                                    workspace tests, arc-lint
#        scripts/check.sh --full   the fast gate, then everything slower:
#                                    the golden suites in release, the
#                                    #[ignore]d deep differentials (bit
#                                    path, LZ match finder, SZ element loops,
#                                    codeword-RS lane kernel, BCH remainder,
#                                    ZFP rounding and transpose, slab frames
#                                    at arcbench's field sizes),
#                                    the seven fault-study binaries and
#                                    the eight other figure binaries at
#                                    --quick, hostile-input sweep, arcbench
#                                    at smoke scale
#
# Clippy carries the per-file invariants (workspace lints in Cargo.toml,
# crate-root denies, clippy.toml); arc-lint carries the decode cone and
# fails on any finding in it. The hostile sweep (DESIGN.md §11) fails on
# any decode panic, hang, or over-budget allocation.
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

echo "==> arc-lint (10 s budget)"
# Build outside the timed region: the budget is for the analysis —
# lexing, call-graph construction, cone rules — not the compiler.
cargo build -q -p arc-lint
lint_start_ns=$(date +%s%N)
./target/debug/arc-lint
lint_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
echo "    arc-lint wall clock: ${lint_ms} ms"
if (( lint_ms >= 10000 )); then
    echo "error: arc-lint took ${lint_ms} ms; the interprocedural gate must stay under 10 s" >&2
    exit 1
fi

if (( full )); then
    echo "==> golden suites in release: tests/golden_*.rs, golden_container, golden_codewords"
    # The fast gate runs them in the debug profile; a golden value that
    # depends on the build profile must fail here.
    goldens=()
    for f in tests/golden_*.rs; do goldens+=(--test "$(basename "$f" .rs)"); done
    cargo test --release -q "${goldens[@]}"
    cargo test --release -q -p arc-core --test golden_container
    cargo test --release -q -p arc-ecc --test golden_codewords

    echo "==> deep differentials: cargo test --release -p arc-lossless -p arc-zfp -p arc-sz -p arc-ecc -p arc-pressio -- --ignored"
    cargo test --release -q -p arc-lossless -p arc-zfp -p arc-sz -p arc-ecc -p arc-pressio -- --ignored

    # Nothing else runs the figure binaries; a non-zero exit from any fails
    # the gate. A scratch ARC_CACHE_DIR keeps any ARC context they build with
    # the default cache path out of ~/.cache.
    cargo build --release -q -p arc-bench
    cache_dir=$(mktemp -d)

    echo "==> fault studies: fig01-fig05, sec63_resiliency, ablations at --quick (stdout discarded)"
    for bin in fig01_single_flip fig02_status_dist fig03_incorrect_by_location fig04_cr_sweep \
        fig05_integrity sec63_resiliency ablations; do
        ARC_CACHE_DIR="$cache_dir" ./target/release/"$bin" --quick >/dev/null
    done

    echo "==> figure binaries: fig06, fig08-fig12, sec64_failure_model, tab01_engine_api at --quick"
    for bin in fig06_training_cost fig08_encode_scaling fig09_decode_scaling \
        fig10_decode_with_errors fig11_constraints_any_ecc fig12_constraints_single_ecc \
        sec64_failure_model tab01_engine_api; do
        ARC_CACHE_DIR="$cache_dir" ./target/release/"$bin" --quick >/dev/null
    done
    rm -rf "$cache_dir"

    echo "==> hostile-input sweep: cargo run --release -q -p arc-bench --bin hostile_corpus"
    cargo run --release -q -p arc-bench --bin hostile_corpus

    echo "==> arcbench smoke: bash arcbench/run.sh --all --smoke"
    bash arcbench/run.sh --all --smoke
fi

echo "All checks passed."
