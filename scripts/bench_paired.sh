#!/usr/bin/env bash
# Paired benchmark comparison of the working tree against a parent commit —
# the protocol bench/README.md ("Paired comparison") describes:
#
#   scripts/bench_paired.sh <parent-ref> <workload> [pairs=10] [seconds=15]
#
# Both sides run from sibling directories of one temporary directory: the
# parent exported with git archive, the working tree with git ls-files (its
# tracked and untracked, not ignored, files), and the working tree's bench/
# and BENCHMARK.json copied onto the parent, so both sides run the IDENTICAL
# benchmark code from equivalent trees; each side is built once; every pair
# runs both sides with the same seed (the pair number), alternating which
# side goes first. Prints, per end-to-end metric, each side's median and
# quartiles, how many pairs the change won (ties count for neither) and the
# median gap next to the parent's own interquartile range — a gain is
# claimed only at >= 9 wins in 10 and a gap beyond that range
# (choosing-metrics §8). Exits non-zero if any run fails its correctness
# checks, after naming the side, pair and seed of each failed run and the
# tail of its stderr.
set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <parent-ref> <workload> [pairs=10] [seconds=15]" >&2
    exit 2
fi
ref=$1 workload=$2 pairs=${3:-10} seconds=${4:-15}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/change"

git -C "$root" archive "$ref" | tar -x -C "$work/parent"
rm -rf "$work/parent/bench" "$work/parent/BENCHMARK.json"
cp -r "$root/bench" "$root/BENCHMARK.json" "$work/parent/"
# The working tree's files as they stand; a tracked file deleted in the
# working tree is left out.
(cd "$root" && git ls-files -z -co --exclude-standard | while IFS= read -r -d '' f; do
    if [ -e "$f" ]; then printf '%s\0' "$f"; fi
done | tar --null -T - -cf -) | tar -x -C "$work/change"

echo "bench-paired: $workload, parent $(git -C "$root" rev-parse --short "$ref") vs working tree, $pairs pairs of $seconds s" >&2
for side in parent change; do
    (cd "$work/$side" && bash bench/run.sh -workload "$workload" -seconds 0.1 >/dev/null)
done

# run <side> <pair>: one run of side (parent or change) with the pair number
# as its seed, its JSON result line on stdout. A failed run names itself and
# prints the tail of its stderr.
run() {
    local log="$work/$1.$2.stderr"
    if ! (cd "$work/$1" && .bench_build/bench -workload "$workload" -seed "$2" -seconds "$seconds" 2>"$log" | tail -1); then
        {
            echo "bench-paired: the $1 side failed pair $2 (seed $2); the tail of its stderr:"
            tail -n 20 "$log"
        } >&2
        return 1
    fi
}
# metric <json> <name>: the metric's value.
metric() {
    printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([-0-9.e+]*\).*/\1/p"
}

metrics="ops_per_s lat_p50_ms setup_s"
failed=0
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run parent "$i") || failed=1
        c=$(run change "$i") || failed=1
    else
        c=$(run change "$i") || failed=1
        p=$(run parent "$i") || failed=1
    fi
    line="pair $i:"
    for m in $metrics; do
        pv=$(metric "$p" "$m") cv=$(metric "$c" "$m")
        echo "$m $pv $cv" >>"$work/values"
        line="$line  $m $pv -> $cv"
    done
    echo "$line" >&2
done

for m in $metrics; do
    better=lower
    [ "$m" = ops_per_s ] && better=higher
    grep "^$m " "$work/values" | awk -v m="$m" -v better="$better" -v w="$workload" '
        function q(a, n, f,    h, lo) {  # quantile f of sorted a[1..n], linear interpolation
            h = (n - 1) * f + 1; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j] < dst[j - 1]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
        }
        { n++; p[n] = $2; c[n] = $3
          if (better == "higher" ? $3 > $2 : $3 < $2) wins++
          else if ($3 != $2) losses++ }
        END {
            sorted(p, ps, n); sorted(c, cs, n)
            pm = q(ps, n, .5); cm = q(cs, n, .5); iqr = q(ps, n, .75) - q(ps, n, .25)
            printf "%s %s (%s is better): parent median %.4g [q1 %.4g, q3 %.4g]  change median %.4g [q1 %.4g, q3 %.4g]  change wins %d/%d (loses %d)  median gap %+.1f%% (parent IQR %.1f%%)\n",
                w, m, better, pm, q(ps, n, .25), q(ps, n, .75), cm, q(cs, n, .25), q(cs, n, .75), wins, n, losses,
                100 * (cm - pm) / pm, 100 * iqr / pm
        }'
done
if [ "$failed" -ne 0 ]; then
    echo "bench-paired: a run failed (each failed run is named above)" >&2
    exit 1
fi
