#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size, plain and traced,
and checks that each named metric is printed with its unit; then checks
that tampered reports count as failed operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
import unittest

from run import HERE, ROOT, Runner

RUN = os.path.join(HERE, "run.py")


class WorkloadsPrintEveryMetric(unittest.TestCase):
    def test_tiny_runs(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for workload in spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = subprocess.run(
                        [sys.executable, RUN, "--workload", workload["name"], "--seed", "3",
                         "--seconds", "1", "--trace", str(trace), "--tiny"],
                        cwd=ROOT, capture_output=True, text=True, timeout=170,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[kind]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


def _tampering(real_run, tamper, rc=None):
    """A stand-in for regulab.cli that rewrites each report after the run."""

    def run(argv):
        got = real_run(argv)
        path = argv[argv.index("--output") + 1]
        with open(path) as fh:
            report = json.load(fh)
        tamper(report)
        with open(path, "w") as fh:
            json.dump(report, fh)
        return got if rc is None else rc

    return types.SimpleNamespace(run=run)


class TamperedReportsFail(unittest.TestCase):
    def setUp(self):
        self.workdir = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
        os.makedirs(self.workdir)
        self.runner = Runner("hyper-cylinder", 3, True, self.workdir, {}, False)
        self.ops, _ = self.runner.setup(0)
        digests = [d for _, d in self.runner.run_ops(self.ops, "clean")]
        self.assertEqual(self.runner.failures, [])
        self.runner.pins = {op.instance: d for op, d in zip(self.ops, digests)}
        self.real_run = self.runner.cli.run

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def assert_all_fail(self, tamper, reason, rc=None):
        self.runner.cli = _tampering(self.real_run, tamper, rc)
        before = self.runner.attempted
        self.runner.run_ops(self.ops, "tampered")
        self.assertEqual(self.runner.attempted - before, len(self.ops))
        self.assertEqual(len(self.runner.failures), len(self.ops))
        for line in self.runner.failures:
            self.assertIn(reason, line)

    def test_untouched_reports_pass(self):
        self.runner.cli = _tampering(self.real_run, lambda report: None)
        self.runner.run_ops(self.ops, "again")
        self.assertEqual(self.runner.failures, [])

    def test_invalid_report(self):
        self.assert_all_fail(lambda r: r["trace"][0].update(q="0.5"), "report rejected")

    def test_failing_audit(self):
        self.assert_all_fail(lambda r: r["audit"].update(passes=False), "audit does not pass")

    def test_changed_part_counts(self):
        self.assert_all_fail(lambda r: r["part_counts"].append(1), "differs from pinned")

    def test_exit_code(self):
        self.assert_all_fail(lambda r: None, "exit code 3", rc=3)

    def test_escaping_error(self):
        def boom(argv):
            raise RuntimeError("engine invariant broken")

        self.runner.cli = types.SimpleNamespace(run=boom)
        self.runner.run_ops(self.ops, "raising")
        self.assertEqual(len(self.runner.failures), len(self.ops))
        for line in self.runner.failures:
            self.assertIn("raised RuntimeError: engine invariant broken", line)


if __name__ == "__main__":
    unittest.main()
