#!/usr/bin/env bash
# Check that a change leaves every simulated output of the benchmark
# unchanged: perfbench's per-cell `digest` lines and its `sim_digest`.
#
#   scripts/ab_digests.sh [REF] [DIR]
#
# Exports REF (default HEAD) with `git archive` into DIR/base (default
# DIR: a new temporary directory), then runs perfbench/run.py there and
# in the working tree; each side builds its own Release binary under
# its .bench_build/ on first use. Every workload runs at seeds 7 and
# 1009 with --seconds 0.1: the first cycle always runs in full, so
# every per-cell digest prints. Prints one line per (workload, seed)
# and the diff of any that differ; exits 0 only if all match.
set -euo pipefail

ref=${1:-HEAD}
dir=${2:-$(mktemp -d)}
root=$(git rev-parse --show-toplevel)
workloads=(serve-drift pod-scaleout offline-sweep reschedule)
seeds=(7 1009)

mkdir -p "$dir/base"
git -C "$root" archive "$ref" | tar -x -C "$dir/base"
echo "base $(git -C "$root" rev-parse --short "$ref") in $dir/base;" \
     "change: working tree $root"

# Digest lines of one run: $1 = checkout, $2 = workload, $3 = seed.
# Fails if perfbench fails; a run that prints no digest lines gives an
# empty list, which the caller reports as DIFFERS.
digests() {
    local out
    out=$(cd "$1" && python3 perfbench/run.py --workload "$2" \
              --seed "$3" --seconds 0.1) || {
        echo "perfbench failed in $1 ($2, seed $3)" >&2
        return 1
    }
    grep -E '^(digest|sim_digest) ' <<< "$out" || true
}

status=0
for w in "${workloads[@]}"; do
    for seed in "${seeds[@]}"; do
        base="$dir/base-$w-$seed.txt"
        change="$dir/change-$w-$seed.txt"
        digests "$dir/base" "$w" "$seed" > "$base" || status=1
        digests "$root" "$w" "$seed" > "$change" || status=1
        cells=$(grep -c '^digest ' "$change" || true)
        if [ "$cells" -gt 0 ] && cmp -s "$base" "$change"; then
            echo "same    $w seed $seed: $cells cell digests and sim_digest"
        else
            echo "DIFFERS $w seed $seed"
            diff "$base" "$change" || true
            status=1
        fi
    done
done
exit $status
