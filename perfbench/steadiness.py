#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics over two sets of runs of the same code.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]

A set runs perfbench/run.py --trace 0 once per seed 1..runs on every
workload (default: all of BENCHMARK.json). The second set starts when the
first has ended, as a later set of runs of the same code would. For each
workload and end-to-end metric it prints:

- per set, the median and the spread: the interquartile range as a share
  of the median (statistics.quantiles, n=4);
- the drift: how much worse the second set's median is than the first's,
  as a share of the first (negative when it is better);
- the metric's bound, and the values in seed order.

Every spread and every drift, setup_s's included, is held to the bound.
Each seed's counts (operations, service and simulation counters, digest)
must be the same in both sets. Exits non-zero if a run fails or any of
these checks does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, None
    counts = None
    for line in lines:
        if line.startswith("counts "):
            counts = json.loads(line[len("counts "):])
    return json.loads(lines[-1]), counts


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def drift(first, second, better):
    change = (statistics.median(second) - statistics.median(first)) / \
        statistics.median(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    ok = True

    # values[workload][set][metric] in seed order; counts[workload][seed]
    values = {w: [{m["name"]: [] for m in spec["end_to_end"]}
                  for _ in range(SETS)] for w in workloads}
    counts = {w: {} for w in workloads}
    for s in range(SETS):
        for workload in workloads:
            for seed in seeds:
                result, c = run_once(workload, seed, seconds)
                if result is None or not result["correct"]:
                    print("%s set %d seed %d: FAILED %s"
                          % (workload, s + 1, seed, result), flush=True)
                    ok = False
                    continue
                for name, got in values[workload][s].items():
                    got.append(result["metrics"][name]["value"])
                if counts[workload].setdefault(seed, c) != c:
                    print("%s seed %d: counts differ between sets"
                          % (workload, seed), flush=True)
                    ok = False
            print("set %d %s done" % (s + 1, workload), flush=True)

    for workload in workloads:
        for m in spec["end_to_end"]:
            sets = [values[workload][s][m["name"]] for s in range(SETS)]
            if any(len(v) < 2 for v in sets):
                continue
            spreads = [spread(v) for v in sets]
            d = drift(sets[0], sets[1], m["better"])
            within = max(spreads) <= m["bound"] and d <= m["bound"]
            ok = ok and within
            print("%-14s %-12s median %-10.5g %-10.5g spread %.4f %.4f "
                  "drift %+.4f bound %.2f %s"
                  % (workload, m["name"], statistics.median(sets[0]),
                     statistics.median(sets[1]), spreads[0], spreads[1], d,
                     m["bound"], "ok" if within else "OVER"))
            for v in sets:
                print("    " + " ".join("%.6g" % x for x in v))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
