#!/usr/bin/env bash
# Non-test line counts: for each Rust file given, the lines before its
# first `#[cfg(test)]` (the whole file when it has none), then a total.
#
#   scripts/nontest-lines.sh crates/saris-codegen/src/session.rs crates/saris-serve/src/lib.rs
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 FILE..." >&2
    exit 2
fi
total=0
for file in "$@"; do
    lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%7d %s\n' "$lines" "$file"
    total=$((total + lines))
done
printf '%7d total\n' "$total"
