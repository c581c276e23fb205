#!/usr/bin/env bash
# Line counts by the rule every [simplicity] entry in CHANGES.md applies:
# a file's non-test lines are the lines before its first `#[cfg(test)]`
# (the whole file when it has none).
#
# Usage: scripts/loc.sh [CHECKOUT]   (default: this checkout)
#
# Prints non-test / total lines per crate under crates/*/src, their sum,
# and the total lines of every .rs file under crates/ + tests/ (unit and
# integration tests included), so a parent and a change can be compared.

set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # prints "<non-test> <total>" over the .rs files under the given dirs
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { nontest++ }
        { total++ }
        END { print nontest + 0, total + 0 }' | awk '{ n += $1; t += $2 } END { print n + 0, t + 0 }'
}

printf '%-12s %9s %9s\n' crate non-test total
for dir in crates/*/src; do
    read -r nontest total < <(count "$dir")
    printf '%-12s %9d %9d\n' "$(basename "$(dirname "$dir")")" "$nontest" "$total"
done
read -r nontest total < <(count crates/*/src)
printf '%-12s %9d %9d\n' 'crates/*/src' "$nontest" "$total"
read -r _ total < <(count crates tests)
printf '%-12s %9s %9d\n' 'crates+tests' - "$total"
