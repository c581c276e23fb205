#!/usr/bin/env bash
# Line counts by the rule every [simplicity] entry in CHANGES.md applies:
# a file's non-test lines are its lines outside `#[cfg(test)]` items. The
# attribute counts only when it is a whole line; the item it annotates runs
# to the `;` that ends it or, by brace depth, to the `}` that closes it.
# (Until PR 23 the rule was "the lines before the first line containing
# `#[cfg(test)]`", which dropped the code after a mid-file test module and
# stopped at a doc comment that mentioned the attribute.)
#
# Usage: scripts/loc.sh [CHECKOUT]       (default: this checkout)
#        scripts/loc.sh --diff OTHER     this checkout minus OTHER, per row
#
# Prints non-test / total lines per crate under crates/*/src, their sum,
# and the total lines of every .rs file under crates/ + tests/ (unit and
# integration tests included), so a parent and a change can be compared.
# With --diff each row gains the non-test and total deltas against the
# OTHER checkout; a crate only OTHER has is listed last, with zero lines here.

set -euo pipefail

count() { # prints "<non-test> <total>" over the .rs files under the given dirs
    find "$@" -name '*.rs' -print0 2>/dev/null | xargs -0 -r awk '
        FNR == 1 { skipping = 0 }
        { total++ }
        !skipping && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { skipping = 1; depth = 0; opened = 0; next }
        !skipping { nontest++; next }
        {
            opens = gsub(/\{/, "{"); opened += opens
            depth += opens - gsub(/\}/, "}")
            if (opened ? depth <= 0 : /;[[:space:]]*$/) skipping = 0
        }
        END { print nontest + 0, total + 0 }' | awk '{ n += $1; t += $2 } END { print n + 0, t + 0 }'
}

rows() { # prints "<row> <non-test> <total>" for the checkout at $1
    (
        cd "$1"
        for dir in crates/*/src; do
            echo "$(basename "$(dirname "$dir")") $(count "$dir")"
        done
        echo "crates/*/src $(count crates/*/src)"
        echo "crates+tests $(count crates tests)"
    )
}

here="$(dirname "$0")/.."
if [[ "${1:-}" == --diff ]]; then
    other="${2:?usage: scripts/loc.sh --diff OTHER_CHECKOUT}"
    printf '%-12s %9s %9s %9s %9s\n' crate non-test total Δnon-test Δtotal
    awk '
        NR == FNR { n[$1] = $2; t[$1] = $3; next }
        $1 == "crates+tests" { printf "%-12s %9s %9d %9s %+9d\n", $1, "-", $3, "-", $3 - t[$1]; next }
        { printf "%-12s %9d %9d %+9d %+9d\n", $1, $2, $3, $2 - n[$1], $3 - t[$1]; delete n[$1] }
        END { for (gone in n) if (gone != "crates+tests") printf "%-12s %9d %9d %+9d %+9d\n", gone, 0, 0, -n[gone], -t[gone] }
    ' <(rows "$other") <(rows "$here")
else
    printf '%-12s %9s %9s\n' crate non-test total
    rows "${1:-$here}" | awk '
        $1 == "crates+tests" { printf "%-12s %9s %9d\n", $1, "-", $3; next }
        { printf "%-12s %9d %9d\n", $1, $2, $3 }'
fi
