#!/usr/bin/env bash
# Repo gate. Runs from the repo root regardless of the caller's cwd.
#
# Usage: scripts/check.sh          fast gate, for every change:
#                                    fmt, clippy -D warnings, rustdoc -D
#                                    warnings, tier-1 build + tests,
#                                    workspace tests
#        scripts/check.sh --full   the fast gate, then everything slower:
#                                    the golden suites in release, arc-ecc's
#                                    tests, the golden suites and the
#                                    hostile-input sweep under
#                                    AddressSanitizer (nightly) and with
#                                    overflow checks on, the
#                                    #[ignore]d deep differentials (bit
#                                    path, LZ match finder, SZ element loops,
#                                    codeword-RS lane kernel and decoder,
#                                    BCH remainder test and its sliced
#                                    division against bit-serial division,
#                                    ZFP rounding and transpose, slab frames
#                                    at arcbench's field sizes),
#                                    the seven fault-study binaries and
#                                    the eight other figure binaries at
#                                    --quick, hostile-input sweep, arcbench
#                                    at smoke scale
#
# Clippy carries the invariants (workspace lints in Cargo.toml, crate-root
# denies, clippy.toml): the six decode-path libraries deny unchecked
# indexing, the std methods that panic on their argument and the `assert!`
# family (DESIGN.md §10.1). The hostile sweep (DESIGN.md §11) fails on any
# decode panic, hang, or over-budget allocation.
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

if (( full )); then
    echo "==> golden suites in release: tests/golden_*.rs, golden_container, golden_codewords"
    # The fast gate runs them in the debug profile; a golden value that
    # depends on the build profile must fail here.
    goldens=()
    for f in tests/golden_*.rs; do goldens+=(--test "$(basename "$f" .rs)"); done
    cargo test --release -q "${goldens[@]}"
    cargo test --release -q -p arc-core --test golden_container
    cargo test --release -q -p arc-ecc --test golden_codewords

    echo "==> AddressSanitizer: arc-ecc's tests, the golden suites, then the hostile sweep (nightly)"
    # arc-ecc's SIMD kernels (GF multiply-accumulate, CLMUL CRC) are the
    # libraries' only `unsafe`; ASan checks that no test input makes them
    # touch memory outside their slices, and the hostile sweep feeds them
    # corrupt containers (its `ext-ileave-rs` target drives the batched lane
    # kernel). Doctests do not link under ASan, hence `--lib --tests`.
    if cargo +nightly --version >/dev/null 2>&1; then
        asan=(cargo +nightly test -q --target x86_64-unknown-linux-gnu)
        RUSTFLAGS=-Zsanitizer=address "${asan[@]}" -p arc-ecc --lib --tests
        RUSTFLAGS=-Zsanitizer=address "${asan[@]}" "${goldens[@]}"
        RUSTFLAGS=-Zsanitizer=address "${asan[@]}" -p arc-core --test golden_container
        RUSTFLAGS=-Zsanitizer=address cargo +nightly run --release -q \
            --target x86_64-unknown-linux-gnu -p arc-bench --bin hostile_corpus
    else
        echo "    skipped: no nightly toolchain (rustup toolchain install nightly)"
    fi

    echo "==> hostile-input sweep with overflow checks (RUSTFLAGS=-C overflow-checks=on)"
    # A release build wraps integer overflow silently; this one panics on it,
    # and the sweep counts a panic as a violation. Its own target dir keeps
    # the flag from invalidating the main release build.
    RUSTFLAGS="-C overflow-checks=on" cargo run --release -q --target-dir target/overflow-checks \
        -p arc-bench --bin hostile_corpus

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
