#!/usr/bin/env python3
"""End-to-end benchmark of the mcfair pipeline and fairshare service.

Run from the repository root:

    python3 perfbench/run.py --workload mesh-churn --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the library from ../src plus the mcfair_e2e harness)
into .bench_build/perfbench, runs the workload in its own process, checks
that every metric BENCHMARK.json names for this mode is present with its
unit, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end_to_end metrics, --trace 1 the per_layer ones and
writes the spans to .bench_build/traces/. The lines before it carry the
result digest and the determinism counts. Exits non-zero without a result
line when the sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "mcfair_e2e")
CHILD_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "scenario.hpp")):
        die("library sources not found under " + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            die("build failed: " + " ".join(cmd))


def child_env():
    # The library reads MCFAIR_* variables wherever a knob is left at -1;
    # the harness sets every knob, and the environment is scrubbed too.
    return {k: v for k, v in os.environ.items() if not k.startswith("MCFAIR_")}


def run_workload(args):
    work_dir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", work_dir,
           "--trace-out", os.path.join(
               trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % CHILD_TIMEOUT_S
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "mcfair_e2e exited with code %d" % proc.returncode
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, "unparseable mcfair_e2e output"


def select_metrics(printed, spec, trace):
    """The metrics of this mode, and one error per metric that is missing,
    has another unit, has no value, or is not named in BENCHMARK.json.
    The harness prints 0 for a layer a workload does not run, so a missing
    name is always an error."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]}
    metrics = {}
    errors = ["metric %s is not in BENCHMARK.json" % name
              for name in sorted(set(printed) - known)]
    for m in wanted:
        got = printed.get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            errors.append("metric %s missing or mis-unit" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small populations for the benchmark's own tests")
    args = parser.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)

    result, error = run_workload(args)
    if result is None:
        # A crash or hang is a failed operation, never retried away.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        die(error)

    metrics, errors = select_metrics(result["metrics"], spec, args.trace)
    for error in errors:
        print("perfbench: " + error, file=sys.stderr)
    failed = result["failed"] + len(errors)
    attempted = max(result["attempted"], failed, 1)
    print("counts " + json.dumps(result["counts"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
