#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark (small shapes, about a minute).

    python3 perfbench/test_perfbench.py

Runs perfbench_e2e directly on each workload of perfbench/workloads.json
with its connections, flows and rates cut down, and checks that the schedule
digest depends on the seed alone, that a clean run passes its verdicts and
reports every BENCHMARK.json metric, that each seeded violation fails the run
under its own verdict, and that run.py refuses to run without the library
sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

# Small shapes: the workloads' connections, flows and rates times 1/50.
SHRINK = 50
SHRUNK = ("conns", "flows", "rate")
WORKLOADS = ("web_mixed", "wan_rto", "pacing_fanout")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = run.load_json(os.path.join(HERE, "workloads.json"))
        cls.bench = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))

    def e2e(self, workload, seed, seconds, *extra):
        """Runs perfbench_e2e on the small shape; returns (exit code, the
        last-line JSON report or None, stdout)."""
        shape = dict(self.spec["workloads"][workload])
        for key in SHRUNK:
            if key in shape:
                shape[key] = max(1, shape[key] // SHRINK)
        cmd = [self.binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)] + run.workload_flags(shape) + list(extra)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        return proc.returncode, last, proc.stdout

    def digest(self, workload, seed):
        code, out, text = self.e2e(workload, seed, 1, "--digest-only", "1")
        self.assertEqual(code, 0, text)
        return out["digest"]

    def test_schedule_digest_follows_the_seed(self):
        for workload in WORKLOADS:
            first = self.digest(workload, 7)
            self.assertEqual(first, self.digest(workload, 7), workload)
            self.assertNotEqual(first, self.digest(workload, 8), workload)

    def test_clean_runs_pass_and_report_every_metric(self):
        names = {m["name"] for m in self.bench["end_to_end"]}
        for workload in WORKLOADS:
            code, out, text = self.e2e(workload, 3, 1, "--trace", "0")
            self.assertEqual(code, 0, text)
            self.assertTrue(out["correct"], text)
            self.assertEqual(out["failed"], 0)
            self.assertGreater(out["attempted"], 0)
            self.assertLessEqual(names, set(out["metrics"]), workload)

    def test_traced_run_reports_layers_and_attribution(self):
        names = {m["name"] for m in self.bench["per_layer"]}
        code, out, text = self.e2e("web_mixed", 4, 1, "--trace", "1")
        self.assertEqual(code, 0, text)
        self.assertLessEqual(names, set(out["per_layer"]))
        self.assertIn("verdict attribution_gap", text)
        self.assertLess(abs(out["per_layer"]["attribution.error_ratio"]), 0.10)

    def test_each_seeded_violation_fails_the_run(self):
        verdicts = {
            "early_fire": "early_fire",
            "unconserved": "unconserved_timers",
            "unhandled": "unhandled_packets",
            "retry_exhausted": "retry_exhausted",
            "stale_fire": "stale_fires",
        }
        for inject, verdict in verdicts.items():
            code, out, text = self.e2e("web_mixed", 5, 0.5, "--trace", "0",
                                       "--inject", inject)
            self.assertEqual(code, 1, inject)
            self.assertFalse(out["correct"], inject)
            self.assertGreater(out["failed"], 0, inject)
            self.assertRegex(text, r"verdict %s\s+FAIL" % verdict)

    def test_refuses_to_run_without_library_sources(self):
        bare = os.path.join(run.build_dir(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "web_mixed", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
