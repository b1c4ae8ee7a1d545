#!/usr/bin/env bash
# Check that a change leaves the outputs of the benches and examples
# unchanged: the serving, multi-tenant, fault and pod load generators,
# the schedule-search sweep, fig09, the kernel-sampling ablation and
# the five examples. perfbench's digests (scripts/ab_digests.sh) do
# not reach System's replay path, abl_sampling's arms, search_sweep or
# the examples; this does.
#
#   scripts/ab_outputs.sh [REF] [DIR]
#
# Exports REF (default HEAD) with `git archive` into DIR/base (default
# DIR: a new temporary directory) and builds the bench and example
# targets there (DIR/base/build) and from the working tree
# (DIR/change-build). Runs the same set on both sides, each in its own
# output directory (DIR/out-base, DIR/out-change), and compares every
# stdout, JSON and CSV file with its `git_sha` build-stamp line
# filtered out. Prints one line per file; exits 0 only if every file
# matches and every run exited 0 on both sides.
set -euo pipefail

ref=${1:-HEAD}
dir=${2:-$(mktemp -d)}
mkdir -p "$dir"
dir=$(realpath "$dir")
root=$(git rev-parse --show-toplevel)
benches=(serve_loadgen mtenant_loadgen fault_sweep pod_loadgen
         search_sweep fig09_overall_perf abl_sampling)
examples=(quickstart moe_serving early_exit_nlp custom_model
          record_replay)

mkdir -p "$dir/base"
git -C "$root" archive "$ref" | tar -x -C "$dir/base"
echo "base $(git -C "$root" rev-parse --short "$ref") in $dir/base;" \
     "change: working tree $root"

# Build the targets from source tree $1 into build tree $2.
build() {
    local log="$2.log"
    if ! { cmake -S "$1" -B "$2" &&
           cmake --build "$2" -j "$(nproc)" \
               --target "${benches[@]}" "${examples[@]}"; } > "$log" 2>&1
    then
        tail -n 40 "$log"
        echo "build of $1 failed (log: $log)" >&2
        exit 1
    fi
}

failed=0
# Run one command in the current directory with stdout to $1.out and
# stderr (wall-clock timings, not compared) to $1.err.
run() {
    local name=$1
    shift
    "$@" > "$name.out" 2> "$name.err" || {
        echo "FAILED  $PWD/$name (exit $?; stderr in $name.err)"
        failed=1
    }
}

# The set: $1 = build tree, $2 = output directory.
run_all() {
    local b=$1
    mkdir -p "$2"
    cd "$2"
    run serve "$b"/bench/serve_loadgen --jobs 1 --json serve.json
    run mtenant "$b"/bench/mtenant_loadgen --requests 400 --jobs 1 \
        --json mtenant.json
    run fault "$b"/bench/fault_sweep --requests 600 --jobs 1 \
        --json fault.json
    run pod "$b"/bench/pod_loadgen --requests 200 --jobs 2 --json pod.json
    run podgray "$b"/bench/pod_loadgen --only gray --requests 150 \
        --json podgray.json
    run search "$b"/bench/search_sweep --jobs 2 --json search.json
    run fig09 "$b"/bench/fig09_overall_perf --batches 40 \
        --json fig09.json --csv fig09.csv
    run abl_sampling "$b"/bench/abl_sampling --batches 40
    for ex in "${examples[@]}"; do
        run "ex_$ex" "$b/examples/$ex"
    done
    cd "$root"
}

build "$dir/base" "$dir/base/build"
build "$root" "$dir/change-build"
run_all "$dir/base/build" "$dir/out-base"
run_all "$dir/change-build" "$dir/out-change"

status=$failed
files=$(cd "$dir" && ls out-base out-change | grep -E '\.(out|json|csv)$' |
        sort -u)
for f in $files; do
    base="$dir/out-base/$f"
    change="$dir/out-change/$f"
    if [ -f "$base" ] && [ -f "$change" ] &&
       cmp -s <(grep -v git_sha "$base") <(grep -v git_sha "$change"); then
        echo "same    $f"
    else
        echo "DIFFERS $f"
        diff <(grep -sv git_sha "$base") <(grep -sv git_sha "$change") |
            head -n 20 || true
        status=1
    fi
done
exit $status
