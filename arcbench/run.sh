#!/usr/bin/env bash
# Build arcbench (release, default features, offline) and run it.
#
#   arcbench/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run; this is the command in BENCHMARK.json. Extra arcbench flags
#       (--smoke, --append FILE, --check-counts FILE) pass through.
#
#   arcbench/run.sh --all [--runs R] [--seed N] [--seconds S] [--smoke] [--out FILE]
#       Every workload untraced (R runs at seeds N, N+1, ...) for the
#       end-to-end metrics, then traced once for the per-layer metrics.
#       Records every run in FILE (default arcbench/out/results.jsonl) and
#       exits non-zero if any op of any run failed.
#
#   arcbench/run.sh --pairs N OTHER_CHECKOUT [--seconds S] [--smoke]
#       N pairs of untraced runs per workload, this checkout (B) against
#       OTHER_CHECKOUT (A, the base), alternating which side runs first,
#       then `arcbench compare`. Exits non-zero on a regression.
#
#   arcbench/run.sh compare A.jsonl B.jsonl
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
WORKLOADS="sz_checkpoint zfp_checkpoint ecc_bulk tile_serve"

build() {
    cargo build --release --offline --quiet --manifest-path arcbench/Cargo.toml >&2
}

bin() {
    "$CARGO_TARGET_DIR/release/arcbench" "$@"
}

mode="${1:-}"
case "$mode" in
--all)
    shift
    runs=1 seed=24301 out=arcbench/out/results.jsonl pass=()
    while [ $# -gt 0 ]; do
        case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --seconds) pass+=(--seconds "$2"); shift 2 ;;
        --smoke) pass+=(--smoke); shift ;;
        *) echo "run.sh --all: unknown argument $1" >&2; exit 2 ;;
        esac
    done
    build
    mkdir -p "$(dirname "$out")"
    status=0
    for w in $WORKLOADS; do
        for ((i = 0; i < runs; i++)); do
            echo "== $w seed $((seed + i)) untraced"
            bin --workload "$w" --seed $((seed + i)) --trace 0 --append "$out" ${pass[@]+"${pass[@]}"} || status=1
        done
        echo "== $w seed $seed traced"
        bin --workload "$w" --seed "$seed" --trace 1 --append "$out" ${pass[@]+"${pass[@]}"} || status=1
    done
    echo "recorded in $out"
    exit $status
    ;;
--pairs)
    pairs="$2" other="$3"
    shift 3
    here="$PWD" a="$PWD/arcbench/out/pairs-A.jsonl" b="$PWD/arcbench/out/pairs-B.jsonl"
    mkdir -p arcbench/out
    rm -f "$a" "$b"
    side() { # side DIR FILE WORKLOAD SEED ARGS...
        (cd "$1" && bash arcbench/run.sh --workload "$3" --seed "$4" --trace 0 --append "$2" "${@:5}" >/dev/null)
    }
    for w in $WORKLOADS; do
        for ((i = 0; i < pairs; i++)); do
            echo "pair $i of $w" >&2
            if ((i % 2 == 0)); then
                side "$other" "$a" "$w" $((24301 + i)) "$@"
                side "$here" "$b" "$w" $((24301 + i)) "$@"
            else
                side "$here" "$b" "$w" $((24301 + i)) "$@"
                side "$other" "$a" "$w" $((24301 + i)) "$@"
            fi
        done
    done
    build
    bin compare "$a" "$b"
    ;;
*)
    build
    bin "$@"
    ;;
esac
