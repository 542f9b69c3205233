#!/usr/bin/env bash
# A/B benchmark of the working tree against a git revision.
#
#   scripts/perf-ab.sh BASE_REV WORKLOAD [PAIRS]
#
# Checks BASE_REV out into a temporary directory outside the repository
# (a local `git clone`, removed on exit, so an interrupted run leaves
# nothing behind in the repository's .git) and runs perfbench/run.sh on
# that tree and on this working tree, including uncommitted changes, once
# per seed 1..PAIRS (default 10). The side that runs first alternates from
# pair to pair; every run lasts BENCHMARK.json's run_seconds.
#
# For every end-to-end metric it prints both sides' median and quartiles,
# the ratio of the medians (working tree / base) and how many pairs the
# working tree won. It exits non-zero when the two sides' context lines
# disagree on any deterministic count, or when any run is not correct.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 BASE_REV WORKLOAD [PAIRS]" >&2
  exit 2
fi
workload=$2
pairs=${3:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
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
  local side=$1 seed=$2
  if ! bash "$(dir_of "$side")/perfbench/run.sh" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$tmp/$side-$seed.out" 2> "$tmp/$side-$seed.err"; then
    cat "$tmp/$side-$seed.err" >&2
    echo "perf-ab: $side run for seed $seed failed" >&2
    exit 1
  fi
}

echo "perf-ab: $workload, base $rev vs working tree, $pairs pairs of ${seconds} s runs" >&2
for seed in $(seq 1 "$pairs"); do
  if [ $((seed % 2)) -eq 1 ]; then run base "$seed"; run work "$seed"
  else run work "$seed"; run base "$seed"; fi
  echo "perf-ab: pair $seed of $pairs done" >&2
done

python3 - "$tmp" "$pairs" "$root/BENCHMARK.json" <<'EOF'
import json, os, statistics, sys

tmp, pairs, bench_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(bench_path) as f:
    bench = json.load(f)


def load(side, seed):
    with open(os.path.join(tmp, f"{side}-{seed}.out")) as f:
        lines = f.read().strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


runs = {side: [load(side, s) for s in range(1, pairs + 1)]
        for side in ("base", "work")}
ok = True
for seed, ((cb, rb), (cw, rw)) in enumerate(zip(runs["base"], runs["work"]), 1):
    b, w = cb["counts"], cw["counts"]
    diff = {k: (b.get(k), w.get(k)) for k in sorted(set(b) | set(w))
            if b.get(k) != w.get(k)}
    if diff:
        print(f"seed {seed}: counts differ (base, work): {diff}")
        ok = False
    for side, r in (("base", rb), ("work", rw)):
        if not r["correct"]:
            print(f"seed {seed}: {side} run is not correct")
            ok = False
if ok:
    print(f"counts identical on all {pairs} pairs: {runs['base'][0][0]['counts']}")


def summary(vs):
    q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
    return f"{statistics.median(vs):>10.5g} [{q[0]:.5g}-{q[2]:.5g}]"


print(f"{'metric':<12} {'base median [q1-q3]':>30} {'work median [q1-q3]':>30}"
      f" {'ratio':>7} {'wins':>6}")
for m in bench["end_to_end"]:
    name = m["name"]
    b = [r["metrics"][name]["value"] for _, r in runs["base"]]
    w = [r["metrics"][name]["value"] for _, r in runs["work"]]
    better = (lambda x, y: y < x) if m["better"] == "lower" else (lambda x, y: y > x)
    wins = sum(1 for x, y in zip(b, w) if better(x, y))
    mb = statistics.median(b)
    ratio = statistics.median(w) / mb if mb else float("nan")
    print(f"{name:<12} {summary(b):>30} {summary(w):>30} {ratio:>7.3f}"
          f" {wins:>3}/{pairs}")
sys.exit(0 if ok else 1)
EOF
