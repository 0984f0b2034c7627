#!/usr/bin/env bash
# The benchmark's one command. Builds the package once (a no-op when it
# is fresh) and hands every argument to the binary:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of output is the result
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace] [--aa]
#       the suite: every workload in its own child process, then the
#       tables; --trace adds the traced runs, --aa runs two sets and
#       compares them against the bounds of BENCHMARK.json
#
# Build products go to $CARGO_TARGET_DIR when that is set and to
# benchmark/target otherwise; results and traces go to benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

# glibc slides its mmap threshold up when a large block is freed, after
# which a freed 16 MiB cluster memory stays in the heap or not by thread
# timing, and peak_rss_mb reads one of two values. Pinning the threshold
# makes the peak the live set.
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-131072}"

exec "$target/release/saris-benchmark" --out-dir "$here/out" "$@"
