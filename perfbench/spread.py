#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --workload minimize --seeds 1-10 --seconds 25
    python3 perfbench/spread.py --workload serve --seeds 1-5 --seconds 25 --twice

For every end-to-end metric it prints the median and the spread, i.e. the
distance between the first and third quartile of the per-run values
(statistics.quantiles(values, n=4)) as a share of their median, beside the
metric's bound from BENCHMARK.json. --twice runs every seed twice and fails
when the two runs of one seed disagree on any deterministic count; any run
that reports correct: false also fails the check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip().splitlines()
    context = json.loads(out[-2])["context"]
    return context, json.loads(out[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--twice", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    all_counts = []
    ok = True
    for seed in seeds_of(args.seeds):
        repeats = 2 if args.twice else 1
        counts = []
        for _ in range(repeats):
            context, result = run(bench, args.workload, seed, seconds)
            counts.append(context["counts"])
            if not result["correct"]:
                print(f"seed {seed}: correct is false", file=sys.stderr)
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"seed {seed}: steal={context['host_steal_pct']:.1f}% " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()),
                  flush=True)
        if any(c != counts[0] for c in counts[1:]):
            print(f"seed {seed}: counts differ between runs: {counts}",
                  file=sys.stderr)
            ok = False
        all_counts.extend(counts)
    same = all(c == all_counts[0] for c in all_counts)
    print(f"counts {'identical across all runs' if same else 'vary by seed'}:"
          f" {all_counts[0]}")
    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{m['name']:<14} {med:>12.6g} {spread:>8.4f} {m['bound']:>6}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
