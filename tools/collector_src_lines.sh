#!/bin/sh
# Line-count guard for the collector crate: counts the non-test lines of
# crates/collector/src/**/*.rs, taken as the lines above each file's
# first `#[cfg(test)]` (the whole file when it has none).
#
# Usage: tools/collector_src_lines.sh [MAX]   (from the repo root)
#
# Prints the total. With MAX, exits 1 when the total exceeds it.

set -eu

total=$(find crates/collector/src -name '*.rs' | sort | while read -r f; do
    awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
done | awk '{ s += $1 } END { print s + 0 }')

echo "collector src non-test lines: $total"
if [ $# -gt 0 ] && [ "$total" -gt "$1" ]; then
    echo "over the budget of $1 lines" >&2
    exit 1
fi
