"""Tests of the end-to-end benchmark itself, on small populations.

From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Every test goes through run.py and the same harness code path as a full
run; only the population size (--size small) differs.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--size", "small"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    digest = None
    counts = None
    for line in lines[:-1]:
        if line.startswith("digest "):
            digest = line.split()[1]
        elif line.startswith("counts "):
            counts = json.loads(line[len("counts "):])
    return json.loads(lines[-1]), digest, counts


class PerfbenchTest(unittest.TestCase):
    def run_ok(self, workload, trace, seed=3):
        proc = run(workload, trace, seed)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result, digest, counts = parse(proc)
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result, digest, counts

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, _, counts = self.run_ok(workload, trace)
                    self.assertEqual(
                        sorted(result["metrics"]),
                        sorted(m["name"] for m in SPEC[key]))
                    for m in SPEC[key]:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))
                        if trace == 0:
                            self.assertGreater(got["value"], 0, m["name"])
                    self.assertTrue(counts)

    def test_traced_run_writes_spans_for_every_layer(self):
        expected = {
            "mesh-churn": {"scenario.build", "fairness.solve", "sim.run",
                           "sim.report"},
            "sharded-lanes": {"scenario.build", "sim.run"},
            "service-mix": {"scenario.build", "serve.construct",
                            "serve.first_query", "serve.delta",
                            "serve.query", "serve.whatif",
                            "serve.snapshot", "serve.recover"},
        }
        for workload, names in expected.items():
            with self.subTest(workload=workload):
                result, _, _ = self.run_ok(workload, 1, seed=4)
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    "%s-seed4.json" % workload)
                with open(path) as f:
                    trace = json.load(f)
                self.assertTrue(names <= {s["name"] for s in trace["spans"]})
                self.assertTrue(trace["counts"])
                if workload == "service-mix":
                    # A small run has too few answers for a p99.
                    m = result["metrics"]
                    self.assertLess(m["query.samples"]["value"], 1000)
                    self.assertEqual(m["query_p99_ms"]["value"], 0)
                    self.assertGreater(m["query_p50_ms"]["value"], 0)

    def test_serial_and_threaded_engines_agree(self):
        _, serial, _ = self.run_ok("mesh-churn", 0)
        _, threaded, _ = self.run_ok("mesh-churn-4t", 0)
        self.assertIsNotNone(serial)
        self.assertEqual(serial, threaded)
        # Traced runs re-run the scenario on the serial engine (and the
        # lanes workload at 4 executors) and count a digest mismatch as a
        # failed check.
        for workload in ("mesh-churn-4t", "sharded-lanes"):
            result, _, _ = self.run_ok(workload, 1)
            self.assertGreater(
                result["metrics"]["sim.thread_speedup"]["value"], 0)

    def test_counts_and_digest_repeat_for_a_seed(self):
        for workload in ("service-mix", "mesh-churn"):
            with self.subTest(workload=workload):
                _, d1, c1 = self.run_ok(workload, 0, seed=5)
                _, d2, c2 = self.run_ok(workload, 0, seed=5)
                self.assertEqual(c1, c2)
                self.assertEqual(d1, d2)

    def test_a_missing_unknown_or_mis_unit_metric_is_an_error(self):
        sys.path.insert(0, HERE)
        import run as run_py
        printed = {m["name"]: {"value": 1, "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
        metrics, errors = run_py.select_metrics(printed, SPEC, 1)
        self.assertEqual(errors, [])
        self.assertEqual(len(metrics), len(SPEC["per_layer"]))
        dropped = dict(printed)
        del dropped["sim.report_ms"]
        self.assertEqual(len(run_py.select_metrics(dropped, SPEC, 1)[1]), 1)
        misspelled = dict(dropped, **{"sim.reprot_ms": printed["sim.report_ms"]})
        self.assertEqual(len(run_py.select_metrics(misspelled, SPEC, 1)[1]), 2)
        mis_unit = dict(printed, **{"sim.report_ms": {"value": 1, "unit": "s"}})
        self.assertEqual(len(run_py.select_metrics(mis_unit, SPEC, 1)[1]), 1)
        # --trace 0 wants every end-to-end metric.
        self.assertEqual(len(run_py.select_metrics(printed, SPEC, 0)[1]),
                         len(SPEC["end_to_end"]))

    def test_fails_without_a_result_when_sources_are_missing(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-%d" % os.getpid())
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
