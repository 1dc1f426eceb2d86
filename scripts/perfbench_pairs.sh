#!/usr/bin/env bash
# Paired end-to-end benchmark of two commits on one workload.
#
# Exports each commit's committed files with `git archive` into a
# temporary directory of its own, builds perfbench there into a separate
# target directory, then runs N pairs of `--trace 0` runs of the length
# BENCHMARK.json sets (`run_seconds`), alternating which commit goes
# first. It prints every run's end-to-end metrics and, for each metric,
# each commit's median and quartiles, how many pairs the second commit
# won (ties count for neither side), and whether the win meets the
# paired-claim rule: at least nine tenths of the pairs won, and the
# medians further apart than the first commit's interquartile range.
#
# Usage:
#   scripts/perfbench_pairs.sh <base> <change> [workload] [pairs] [workload-seed]
#   scripts/perfbench_pairs.sh HEAD~1 HEAD halo-8192 10
#
# Defaults: workload halo-8192, 10 pairs, workload seed 0 (the named
# configuration; another seed checks a claim on a workload no one tuned
# against). The temporary directory is removed at exit; the script edits
# nothing in the repository.
set -euo pipefail

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
usage="usage: perfbench_pairs.sh <base> <change> [workload] [pairs] [workload-seed]"
base=${1:?$usage}
change=${2:?$usage}
workload=${3:-halo-8192}
pairs=${4:-10}
workload_seed=${5:-0}
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo/BENCHMARK.json")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Export a commit and build its perfbench: <side> <commit>.
build() {
    local side=$1 commit=$2
    mkdir -p "$work/$side/src"
    git -C "$repo" archive "$commit" | tar -x -C "$work/$side/src"
    echo "building $side ($(git -C "$repo" rev-parse --short "$commit"))" >&2
    (cd "$work/$side/src" &&
        CARGO_TARGET_DIR="$work/$side/target" cargo build --release --quiet \
            --manifest-path perfbench/Cargo.toml)
}

# One run; its result line (the last line perfbench prints) goes to
# <side>.jsonl: <side> <seed>.
run() {
    local side=$1 seed=$2
    (cd "$work/$side/src" &&
        "$work/$side/target/release/siesta-perfbench" --workload "$workload" \
            --workload-seed "$workload_seed" --seed "$seed" --seconds "$seconds" \
            --trace 0) | tail -n 1 >> "$work/$side.jsonl"
}

build base "$base"
build change "$change"
for ((i = 0; i < pairs; i++)); do
    echo "pair $((i + 1))/$pairs" >&2
    if ((i % 2 == 0)); then
        run base $((i + 1))
        run change $((i + 1))
    else
        run change $((i + 1))
        run base $((i + 1))
    fi
done

python3 - "$repo/BENCHMARK.json" "$work/base.jsonl" "$work/change.jsonl" \
    "$workload (workload seed $workload_seed, $seconds s runs)" <<'EOF'
import json
import statistics
import sys

bench, base_path, change_path, workload = sys.argv[1:5]
metrics = json.load(open(bench))["end_to_end"]
names = [m["name"] for m in metrics]
sides = [[json.loads(line) for line in open(p)] for p in (base_path, change_path)]
n = min(len(s) for s in sides)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"workload {workload}: {n} pairs")
print("  every run (* ran first in its pair):")
print("  " + f"{'pair':>4} {'side':<7}" + "".join(f" {name:>17}" for name in names))
for i in range(n):
    first = 0 if i % 2 == 0 else 1
    for side, (label, runs) in enumerate(zip(("base", "change"), sides)):
        mark = "*" if side == first else ""
        values = "".join(f" {runs[i]['metrics'][name]['value']:>17.6g}" for name in names)
        print(f"  {i + 1:>4} {label + mark:<7}{values}")
for side, runs in zip(("base", "change"), sides):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"  {side}: {failed} of {attempted} repetitions failed")
print(f"  {'metric':<18} {'base median [q1, q3]':>36} {'change median [q1, q3]':>36} "
      f"{'wins':>6}  claim")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    vals = [[r["metrics"][name]["value"] for r in runs[:n]] for runs in sides]
    (b1, bm, b3), (c1, cm, c3) = quartiles(vals[0]), quartiles(vals[1])
    wins = sum((c < b) if lower else (c > b) for b, c in zip(*vals))
    better = cm < bm if lower else cm > bm
    claim = wins * 10 >= 9 * n and better and abs(cm - bm) > b3 - b1
    print(f"  {name:<18} {bm:>14.6g} [{b1:.6g}, {b3:.6g}] {cm:>14.6g} [{c1:.6g}, {c3:.6g}] "
          f"{wins:>3}/{n}  {'met' if claim else 'not met'}")
EOF
