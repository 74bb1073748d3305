#!/bin/sh
# Line-count guard for a source directory: counts the non-test lines of
# DIR/**/*.rs, taken as the lines above each file's first `#[cfg(test)]`
# at column 0 (the whole file when it has none), so a doc comment or an
# indented item that mentions the attribute does not end the count.
#
# Usage: tools/src_lines.sh DIR [MAX]   (from the repo root)
#
# Prints the total. With MAX, exits 1 when the total exceeds it.

set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 DIR [MAX]" >&2
    exit 2
fi
dir=$1

total=$(find "$dir" -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
done | awk '{ s += $1 } END { print s + 0 }')

echo "$dir non-test lines: $total"
if [ $# -gt 1 ] && [ "$total" -gt "$2" ]; then
    echo "over the budget of $2 lines" >&2
    exit 1
fi
