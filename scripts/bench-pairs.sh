#!/usr/bin/env bash
# Paired comparison of two benchmark binaries on one workload, the recipe
# of benchmark/README.md's "Comparing two commits":
#
#   scripts/bench-pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS] [SEED]
#
# PARENT_BIN and CHANGE_BIN are saris-benchmark binaries, each built from
# its own checkout. PAIRS (default 10) pairs of untraced runs go one after
# the other, the side that goes first alternating from pair to pair, at
# seed SEED (default 1), with MALLOC_MMAP_THRESHOLD_ pinned as run.sh pins
# it and BENCHMARK.json's run_seconds as the run length.
#
# For each end-to-end metric of BENCHMARK.json it prints the parent's
# median and interquartile range, the change's median, the change in %,
# how many pairs the change won (in the metric's better direction) and
# whether that clears the claim rule (won >= 9/10 of the pairs, the
# medians differ by more than the parent's IQR, the right way, and the
# change failed no more operations than the parent in all). Then the
# failed operations of every run, per side, each side's line followed by
# its runs' peak_rss_mb (MiB), so that a bimodal memory reading shows
# without opening the result lines. The result lines are kept,
# one JSON line per run in pair order, in BENCH_PAIRS_DIR (default: a
# new temporary directory), whose path is printed first.
set -euo pipefail

if (($# < 3 || $# > 5)); then
    sed -n '2,/^set /p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
parent_bin=$1 change_bin=$2 workload=$3 pairs=${4:-10} seed=${5:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
spec="$root/BENCHMARK.json"
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$spec")
dir=${BENCH_PAIRS_DIR:-$(mktemp -d)}
mkdir -p "$dir"
: > "$dir/parent.jsonl"
: > "$dir/change.jsonl"
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-131072}"
echo "results in $dir ($workload, seed $seed, $seconds s, $pairs pairs)"

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        bin=$parent_bin
        [[ $side == change ]] && bin=$change_bin
        # A run with failed operations exits non-zero; its line counts.
        line=$({ "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace 0 --out-dir "$dir/out-$side" || true; } | tail -n 1)
        if [[ $line != '{"correct"'* ]]; then
            echo "pair $i, $side: no result line" >&2
            exit 1
        fi
        echo "$line" >> "$dir/$side.jsonl"
    done
    echo "pair $i/$pairs done" >&2
done

awk -v pairs="$pairs" '
    # BENCHMARK.json: the end-to-end metrics and their better direction.
    FILENAME == ARGV[1] {
        if (/"end_to_end"/) { in_list = 1 }
        else if (in_list && /^  \]/) { in_list = 0 }
        else if (in_list && /"name"/) { split($0, q, "\""); names[++n] = q[4] }
        else if (in_list && /"better"/) { split($0, q, "\""); better[names[n]] = q[4] }
        next
    }
    { side = (FILENAME == ARGV[2]) ? "parent" : "change"; row = ++rows[side] }
    match($0, /"failed": [0-9]+/) {
        failed[side, row] = substr($0, RSTART + 10, RLENGTH - 10)
        failed_total[side] += failed[side, row]
    }
    {
        for (m = 1; m <= n; m++) {
            if (match($0, "\"" names[m] "\": \\{\"value\": [-0-9.eE+]+")) {
                text = substr($0, RSTART, RLENGTH)
                sub(/.*"value": /, "", text)
                v[side, names[m], row] = text + 0
            }
        }
    }
    function sorted(side, name, out,    i, j, t) {
        for (i = 1; i <= pairs; i++) out[i] = v[side, name, i]
        for (i = 2; i <= pairs; i++)
            for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
    }
    # Linear interpolation between order statistics.
    function quantile(a, q,    at, lo) {
        at = (pairs - 1) * q + 1
        lo = int(at)
        return lo >= pairs ? a[pairs] : a[lo] + (at - lo) * (a[lo + 1] - a[lo])
    }
    END {
        if (rows["parent"] != pairs || rows["change"] != pairs) {
            print "incomplete: " rows["parent"] " parent and " rows["change"] " change runs" > "/dev/stderr"
            exit 1
        }
        # More failed operations on the change side void every claim.
        more_failed = failed_total["change"] > failed_total["parent"]
        printf "%-12s %-7s %14s %12s %14s %9s %6s %s\n", "metric", "better", "parent_median",
            "parent_iqr", "change_median", "change_%", "won", "claim"
        for (m = 1; m <= n; m++) {
            name = names[m]
            sorted("parent", name, p)
            sorted("change", name, c)
            pm = quantile(p, 0.5); iqr = quantile(p, 0.75) - quantile(p, 0.25); cm = quantile(c, 0.5)
            sign = better[name] == "higher" ? 1 : -1
            won = 0
            for (i = 1; i <= pairs; i++) won += sign * (v["change", name, i] - v["parent", name, i]) > 0
            gain = sign * (cm - pm)
            claim = (won * 10 >= pairs * 9 && gain > iqr && !more_failed) ? "yes" : "no"
            printf "%-12s %-7s %14.6g %12.4g %14.6g %+8.1f%% %3d/%-2d %s\n", name, better[name], pm,
                iqr, cm, pm == 0 ? 0 : 100 * (cm - pm) / pm, won, pairs, claim
        }
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "parent" : "change"
            line = sprintf("failed %-6s", side)
            for (i = 1; i <= pairs; i++) line = line " " failed[side, i]
            print line
            line = sprintf("rss_mb %-6s", side)
            for (i = 1; i <= pairs; i++) line = line sprintf(" %.2f", v[side, "peak_rss_mb", i])
            print line
        }
        if (more_failed)
            print "claim no: the change failed " failed_total["change"] " operations, the parent " failed_total["parent"]
    }
' "$spec" "$dir/parent.jsonl" "$dir/change.jsonl"
