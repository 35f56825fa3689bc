#!/usr/bin/env bash
# Same-runner A/B of the service benchmark (svcbench) between a parent
# revision and the working tree, judged by BENCHMARK.json's bounds.
#
#   scripts/svcbench_ab.sh PARENT_REV PAIRS SECONDS SEED
#   scripts/svcbench_ab.sh --compare PARENT_LINES CHANGE_LINES
#
# The first form exports PARENT_REV with `git archive` into a temporary
# directory (no worktree is registered), builds svcbench there and in the
# working tree, each into its own target directory, and runs every
# BENCHMARK.json workload for PAIRS alternating pairs: pair i runs the
# parent first when i is odd and the change first when i is even.  Each run
# is `svcbench --workload W --seed SEED --seconds SECONDS --trace 0`, and its
# final JSON line is kept.  The second form is the comparison alone, on two
# files that hold one saved svcbench result line per run.
#
# For each end-to-end metric the comparison prints the parent and change
# medians, their ratio, the parent's spread ((max - min) / median of its
# runs), the metric's bound and a verdict:
#   worse       the change is worse than the parent by more than the bound,
#               in the direction BENCHMARK.json gives as `better`, and the
#               parent's spread is within the bound;
#   unresolved  worse by more than the bound, but the parent's spread
#               exceeds it (printed, does not fail);
#   ok          otherwise.
# The exit status is 1 on any `worse`, on any svcbench run that exited
# non-zero, or when the change's mean ok_share is below the parent's, and
# 2 on a bad command line.
set -euo pipefail

REPO=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
BENCHMARK="$REPO/BENCHMARK.json"
USAGE="usage: $0 PARENT_REV PAIRS SECONDS SEED
       $0 --compare PARENT_LINES CHANGE_LINES"

# One TSV row per end-to-end metric: name, parent median, change median,
# ratio, parent spread, bound, verdict.
COMPARE_JQ='
def median: sort | if length % 2 == 1 then .[(length - 1) / 2]
                   else (.[length / 2 - 1] + .[length / 2]) / 2 end;
def over($base): if $base != 0 then . / $base elif . == 0 then 1 else infinite end;
def values($runs; $name):
  [$runs[] | .metrics[$name].value | numbers]
  | if length == 0 then error("no runs carry \($name)") else . end;
$bench[0].end_to_end[]
| .name as $name | .bound as $bound
| values($p; $name) as $pv | values($c; $name) as $cv
| ($pv | median) as $pm | ($cv | median) as $cm
| ($cm | over($pm)) as $ratio
| (($pv | max) - ($pv | min) | over($pm)) as $spread
| (if .better == "lower" then $ratio > 1 + $bound else $ratio < 1 - $bound end) as $worse
| [$name, $pm, $cm, $ratio, $spread, $bound,
   (if $worse and $spread <= $bound then "worse"
    elif $worse then "unresolved" else "ok" end)]
| @tsv'

# compare PARENT_LINES CHANGE_LINES: prints the verdict table; returns 1
# on any `worse` or a lower mean ok_share.
compare() {
    local rows status=0 name pm cm ratio spread bound verdict
    rows=$(jq -n -r --slurpfile bench "$BENCHMARK" --slurpfile p "$1" --slurpfile c "$2" \
        "$COMPARE_JQ") || return 1
    printf '%-20s %12s %12s %7s %7s %6s  %s\n' \
        metric parent change ratio spread bound verdict
    while IFS=$'\t' read -r name pm cm ratio spread bound verdict; do
        printf '%-20s %12.6g %12.6g %7.3f %7.3f %6.2f  %s\n' \
            "$name" "$pm" "$cm" "$ratio" "$spread" "$bound" "$verdict"
        [[ $verdict == worse ]] && status=1
    done <<<"$rows"
    if ! jq -n -e --slurpfile p "$1" --slurpfile c "$2" \
        '([$c[].metrics.ok_share.value] | add / length)
         >= ([$p[].metrics.ok_share.value] | add / length)' >/dev/null; then
        echo "ok_share: the change's mean is below the parent's"
        status=1
    fi
    return $status
}

# build TREE: builds TREE's svcbench into TREE/svcbench/target.
build() {
    echo "building svcbench in $1" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$1/svcbench/Cargo.toml" --target-dir "$1/svcbench/target"
}

main() {
    local rev=$1 pairs=$2 seconds=$3 seed=$4
    if ! [[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[1-9][0-9]*$ && $seed =~ ^[0-9]+$ ]]; then
        echo "PAIRS and SECONDS must be positive integers, SEED a non-negative integer" >&2
        echo "$USAGE" >&2
        exit 2
    fi
    rev=$(git -C "$REPO" rev-parse --verify --quiet "$rev^{commit}") || {
        echo "unknown revision $1" >&2
        exit 2
    }
    # Global, so the EXIT trap still sees it after main returns.
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
    trap 'exit 1' INT TERM
    mkdir "$work/parent"
    git -C "$REPO" archive "$rev" | tar -x -C "$work/parent"
    if [[ ! -f $work/parent/svcbench/Cargo.toml ]]; then
        echo "revision $rev has no svcbench/" >&2
        exit 2
    fi
    build "$work/parent"
    build "$REPO"

    local status=0 workload i side tree order out
    for workload in $(jq -r '.workloads[].name' "$BENCHMARK"); do
        : >"$work/$workload.parent"
        : >"$work/$workload.change"
        for ((i = 1; i <= pairs; i++)); do
            if ((i % 2 == 1)); then order="parent change"; else order="change parent"; fi
            for side in $order; do
                if [[ $side == parent ]]; then tree=$work/parent; else tree=$REPO; fi
                out="$work/run.out"
                if ! "$tree/svcbench/target/release/svcbench" --workload "$workload" \
                    --seed "$seed" --seconds "$seconds" --trace 0 >"$out" 2>"$work/run.err"; then
                    echo "svcbench exited non-zero: $workload, pair $i, $side" >&2
                    tail -n 20 "$out" "$work/run.err" >&2
                    status=1
                fi
                tail -n 1 "$out" | jq -c 'select(.metrics)' >>"$work/$workload.$side" || true
                echo "$workload pair $i/$pairs $side done" >&2
            done
        done
        echo "== $workload ($pairs pairs, $seconds s, seed $seed; parent ${rev:0:12})"
        compare "$work/$workload.parent" "$work/$workload.change" || status=1
    done
    if ((status == 0)); then echo "A/B: pass"; else echo "A/B: FAIL"; fi
    return $status
}

if [[ ${1:-} == --compare && $# -eq 3 ]]; then
    compare "$2" "$3"
elif [[ $# -eq 4 && $1 != --compare ]]; then
    main "$@"
else
    echo "$USAGE" >&2
    exit 2
fi
