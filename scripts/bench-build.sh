#!/usr/bin/env bash
# Builds the benchmark binary of one commit, for scripts/bench-pairs.sh:
#
#   scripts/bench-build.sh REV OUT_BIN [--aligned]
#
# REV (a commit, branch or tag of this repository) is exported with
# `git archive` into a new temporary directory, so the working tree and
# the index are left alone. benchmark/ is built there, offline, into the
# export's own target directory, the saris-benchmark binary is copied to
# OUT_BIN, and the export is removed.
#
# --aligned builds with RUSTFLAGS="-C llvm-args=-align-all-functions=6":
# every function starts on a 64-byte line, so where the linker happens to
# place the verifier's hot loop does not move compile_verify (ROADMAP,
# "Code placement"). Build both sides of a comparison the same way.
set -euo pipefail

usage() {
    sed -n '2,/^set /p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}
(($# == 2 || $# == 3)) || usage
rev=$1 out=$2
aligned=0
if (($# == 3)); then
    [[ $3 == --aligned ]] || usage
    aligned=1
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
out_dir="$(cd "$(dirname "$out")" && pwd)"
out="$out_dir/$(basename "$out")"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git -C "$root" archive "$commit" | tar -x -C "$work"

if ((aligned)); then
    export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }-C llvm-args=-align-all-functions=6"
fi
echo "building $commit${RUSTFLAGS:+ with RUSTFLAGS=\"$RUSTFLAGS\"}" >&2
cargo build --release --offline --quiet \
    --manifest-path "$work/benchmark/Cargo.toml" --target-dir "$work/target"
cp "$work/target/release/saris-benchmark" "$out"
echo "$out" >&2
