#!/usr/bin/env bash
# A/B benchmark of the working tree against a git revision.
#
#   scripts/perf-ab.sh BASE_REV WORKLOAD[,WORKLOAD...]|all [PAIRS]
#
# Checks BASE_REV out into a temporary directory outside the repository
# (a local `git clone`, removed on exit, so an interrupted run leaves
# nothing behind in the repository's .git) and runs perfbench/run.sh on
# that tree and on this working tree, including uncommitted changes, once
# per seed 1..PAIRS (default 10) for every workload named: one, a comma
# list, or `all` for every workload in BENCHMARK.json. The side that runs
# first alternates from pair to pair; every run lasts BENCHMARK.json's
# run_seconds.
#
# For every end-to-end metric it prints both sides' median and quartiles,
# the ratio of the medians (working tree / base), how many pairs the
# working tree won and a verdict:
#   gain   the working tree won at least 90% of the pairs and its median
#          beats the base's by more than the base's interquartile range;
#   worse  the working tree's median is worse than the base's by more
#          than the metric's bound in BENCHMARK.json;
#   same   anything else.
# It exits non-zero when the two sides' context lines disagree on any
# deterministic count, when any run is not correct, or when any metric
# of any workload is `worse`.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 BASE_REV WORKLOAD[,WORKLOAD...]|all [PAIRS]" >&2
  exit 2
fi
pairs=${3:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
# Resolve and check the workload names before anything is built.
workloads=$(python3 - "$root/BENCHMARK.json" "$2" <<'EOF'
import json, sys
known = [w["name"] for w in json.load(open(sys.argv[1]))["workloads"]]
asked = known if sys.argv[2] == "all" else sys.argv[2].split(",")
unknown = [w for w in asked if w not in known]
if unknown or not asked:
    sys.exit(f"perf-ab: unknown workload(s) {unknown}; known: {', '.join(known)}, all")
print(" ".join(asked))
EOF
)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

git clone -q --no-checkout "$root" "$tmp/base"
git -C "$tmp/base" checkout -q --detach "$rev"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")

dir_of() { if [ "$1" = base ]; then echo "$tmp/base"; else echo "$root"; fi; }

# Build both sides before the first timed run.
for side in base work; do
  (cd "$(dir_of $side)" && dune build --root . --cache=disabled ./perfbench/perfbench.exe)
done

run() {
  local workload=$1 side=$2 seed=$3
  local out="$tmp/$workload-$side-$seed"
  if ! bash "$(dir_of "$side")/perfbench/run.sh" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$out.out" 2> "$out.err"; then
    cat "$out.err" >&2
    echo "perf-ab: $workload $side run for seed $seed failed" >&2
    exit 1
  fi
}

for workload in $workloads; do
  echo "perf-ab: $workload, base $rev vs working tree, $pairs pairs of ${seconds} s runs" >&2
  for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then run "$workload" base "$seed"; run "$workload" work "$seed"
    else run "$workload" work "$seed"; run "$workload" base "$seed"; fi
    echo "perf-ab: $workload pair $seed of $pairs done" >&2
  done
done

python3 - "$tmp" "$pairs" "$root/BENCHMARK.json" $workloads <<'EOF'
import json, os, statistics, sys

tmp, pairs, bench_path, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
with open(bench_path) as f:
    bench = json.load(f)


def load(workload, side, seed):
    with open(os.path.join(tmp, f"{workload}-{side}-{seed}.out")) as f:
        lines = f.read().strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def quartiles(vs):
    return statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3


def summary(vs):
    q = quartiles(vs)
    return f"{statistics.median(vs):>10.5g} [{q[0]:.5g}-{q[2]:.5g}]"


def verdict(m, b, w, wins):
    mb, mw = statistics.median(b), statistics.median(w)
    q = quartiles(b)
    # change of the median in the metric's good direction
    gain = mb - mw if m["better"] == "lower" else mw - mb
    if wins >= 0.9 * len(b) and gain > q[2] - q[0]:
        return "gain"
    if (-gain / abs(mb) if mb else -gain) > m["bound"]:
        return "worse"
    return "same"


ok = True
for workload in workloads:
    runs = {side: [load(workload, side, s) for s in range(1, pairs + 1)]
            for side in ("base", "work")}
    print(f"== {workload}")
    same_counts = True
    for seed, ((cb, rb), (cw, rw)) in enumerate(zip(runs["base"], runs["work"]), 1):
        b, w = cb["counts"], cw["counts"]
        diff = {k: (b.get(k), w.get(k)) for k in sorted(set(b) | set(w))
                if b.get(k) != w.get(k)}
        if diff:
            print(f"seed {seed}: counts differ (base, work): {diff}")
            same_counts = False
        for side, r in (("base", rb), ("work", rw)):
            if not r["correct"]:
                print(f"seed {seed}: {side} run is not correct")
                same_counts = False
    if same_counts:
        print(f"counts identical on all {pairs} pairs: {runs['base'][0][0]['counts']}")
    ok = ok and same_counts
    print(f"{'metric':<12} {'base median [q1-q3]':>30} {'work median [q1-q3]':>30}"
          f" {'ratio':>7} {'wins':>6} verdict")
    for m in bench["end_to_end"]:
        name = m["name"]
        b = [r["metrics"][name]["value"] for _, r in runs["base"]]
        w = [r["metrics"][name]["value"] for _, r in runs["work"]]
        better = (lambda x, y: y < x) if m["better"] == "lower" else (lambda x, y: y > x)
        wins = sum(1 for x, y in zip(b, w) if better(x, y))
        mb = statistics.median(b)
        ratio = statistics.median(w) / mb if mb else float("nan")
        v = verdict(m, b, w, wins)
        ok = ok and v != "worse"
        print(f"{name:<12} {summary(b):>30} {summary(w):>30} {ratio:>7.3f}"
              f" {wins:>3}/{pairs} {v}")
sys.exit(0 if ok else 1)
EOF
