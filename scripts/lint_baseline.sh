#!/usr/bin/env bash
# Regenerate lint-baseline.txt from the current workspace state.
#
# Usage: scripts/lint_baseline.sh
#
# The baseline is a ratchet: check.sh fails when any (rule, file) violation
# count grows past it, and when a recorded count is higher than reality (so
# paying debt down must be locked in here). Run this after fixing baselined
# violations, review the shrunken diff, and commit it alongside the fix; on
# an unchanged tree it rewrites the file byte for byte. A diff that *grows*
# the baseline defeats the ratchet — fix or waive the new sites instead
# (`// arc-lint: allow(<rule>, <reason>)`).

set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -q -p arc-lint -- --write-baseline
git --no-pager diff --stat -- lint-baseline.txt || true
