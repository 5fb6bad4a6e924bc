"""Tests of the benchmark itself.

Run from the repository root (takes one to two minutes)::

    python3 -m pytest perfbench/selftest.py -q

* a short run of each workload, untraced and traced, prints every metric
  of ``BENCHMARK.json`` by name with its unit and passes its checks;
* the traced run's layer self times plus ``unattributed_us`` add up to
  the op time;
* the checkers reject a tampered served row, a tampered outcome digest
  and a wrong engine answer;
* a segment's slowness comes from the calibrations around it, and times
  at the reference speed divide each segment by its own slowness;
* without the program's sources the command fails without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seconds: float = 1.0, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
    )
    return proc


class SmokeRuns(unittest.TestCase):
    """Every metric is printed with its unit, and the checks pass."""

    def check_output(self, proc, trace: int) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], float)
            printed = re.compile(
                rf"^metric {re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}$",
                re.M,
            )
            self.assertRegex(proc.stdout, printed)
        self.assertIn('"nproc"', proc.stdout)
        self.assertIn('"loadavg_end"', proc.stdout)
        return result

    def check_accounting(self, stdout: str) -> None:
        match = re.search(
            r"accounting: op_us=(\S+) = layer_self_us=(\S+) \S*.*unattributed_us=(\S+)",
            stdout,
        )
        self.assertIsNotNone(match, stdout)
        op_us, self_us, unattributed = (float(g) for g in match.groups())
        self.assertAlmostEqual(op_us, self_us + unattributed, delta=0.01 + 1e-6 * op_us)

    def test_workloads(self):
        for workload in common.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    result = self.check_output(proc, trace)
                    if trace:
                        self.check_accounting(proc.stdout)
                        metrics = result["metrics"]
                        self.assertGreater(metrics["engine.execute_us"]["value"], 0)
                        self.assertEqual(metrics["service.tier_fallbacks"]["value"], 0)

    def test_traced_counts_repeat(self):
        caches = ("engine.plan_cache.hit_ratio", "engine.plan_cache.evictions",
                  "engine.build_cache.hit_ratio", "engine.build_cache.evictions")
        repeat = {
            "campaign": ("semantics.evaluate.calls", "engine.result_rows") + caches,
            "live-sqlite": ("engine.result_rows", "validation.live.classified") + caches,
            "service-zipf": caches,
        }
        for workload, names in repeat.items():
            first, second = (
                json.loads(run_bench(workload, 1).stdout.splitlines()[-1])["metrics"]
                for _ in range(2)
            )
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first[name]["value"], second[name]["value"])


class Checkers(unittest.TestCase):
    """Wrong outputs fail the run."""

    @classmethod
    def setUpClass(cls):
        common.require_program()

    def test_tampered_served_row_is_rejected(self):
        import service

        scen = service.scenario()
        from repro.engine import Engine
        from repro.sql import annotate

        engine = Engine(scen.schema)
        key = service.key_domains(scen)[0][0]
        sql = service.STATEMENTS[0][0].replace("$1", str(key))
        table = engine.execute(annotate(sql, scen.schema), scen.database)
        records = list(table.bag)
        self.assertTrue(records)
        good = service.Served(0, key, 1, 0, list(table.columns), records)
        self.assertEqual(service.check_served(scen, [good]), [])
        first = records[0]
        tampered_row = (first[0] + 1,) + tuple(first[1:])
        bad = service.Served(0, key, 1, 0, list(table.columns), [tampered_row] + records[1:])
        self.assertEqual(len(service.check_served(scen, [bad])), 1)
        failed = service.Served(0, key, 1, 0, error="HTTP 500: boom")
        self.assertEqual(len(service.check_served(scen, [failed])), 1)

    def run_campaign(self) -> tuple:
        """A short untraced campaign run: (exit status, result line)."""
        import trials

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = trials.run("campaign", 3, 0.05, False, 0.1, common.provenance())
        return status, json.loads(out.getvalue().splitlines()[-1])

    def test_tampered_digest_is_rejected(self):
        import trials

        status, result = self.run_campaign()
        self.assertEqual((status, result["correct"]), (0, True))
        with mock.patch.object(trials, "load_pin", lambda workload, seed: "0" * 64):
            status, result = self.run_campaign()
        self.assertEqual((status, result["correct"]), (1, False))

    def test_wrong_engine_answer_is_rejected(self):
        from repro.validation.compare import Outcome

        with mock.patch.object(Outcome, "agrees_with", lambda self, other: False):
            status, result = self.run_campaign()
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class Accounting(unittest.TestCase):
    def test_self_times_and_unattributed_cover_the_op(self):
        # op [0, 100): child a [10, 50) with grandchild [20, 30), child b [60, 90)
        raw = [
            ["op", 0, 100, None, 1, None],
            ["a", 10, 50, 0, 1, None],
            ["c", 20, 30, 1, 1, None],
            ["b", 60, 90, 0, 1, None],
        ]
        summary = spans.layer_times(raw, "op")
        self.assertEqual(summary["self"], {"a": 30, "c": 10, "b": 30})
        self.assertEqual(summary["inclusive"]["a"], 40)
        self.assertEqual(summary["op_ns"] - summary["top_ns"], 30)
        self.assertEqual(sum(summary["self"].values()) + 30, summary["op_ns"])

    def test_wrappers_are_restored(self):
        class Target:
            def work(self, x):
                return x * 2

        tracer = spans.Tracer()
        original = Target.__dict__["work"]
        tracer.wrap(Target, "work", "target.work")
        handle = tracer.begin_op()
        self.assertEqual(Target().work(21), 42)
        tracer.end(handle)
        tracer.restore()
        self.assertIs(Target.__dict__["work"], original)
        self.assertEqual([s[0] for s in tracer.spans], ["op", "target.work"])
        self.assertEqual(tracer.spans[1][3], 0)


class Speed(unittest.TestCase):
    def test_slowness_comes_from_the_calibrations_around_a_segment(self):
        track = speed.SpeedTrack()
        ref, window = speed.REFERENCE_NS, speed.WINDOW
        track.samples = [ref] * 2 * window + [2 * ref] * 2 * window
        self.assertEqual(track.slowness(0), 1.0)
        self.assertEqual(track.slowness(len(track.samples) - 2), 2.0)
        # the segment between the last fast and the first slow sample
        self.assertEqual(track.slowness(2 * window - 1), 1.5)
        self.assertEqual(speed.at_reference([1.0, 4.0], [1.0, 2.0]), 3.0)

    def test_calibration_times_the_loop(self):
        track = speed.SpeedTrack()
        track.sample()
        track.sample()
        self.assertEqual(len(track.samples), 2)
        self.assertTrue(all(ns > 0 for ns in track.samples))
        self.assertGreater(track.median_slowness(), 0)


class WithoutProgram(unittest.TestCase):
    def test_fails_without_result(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copytree(HERE, Path(scratch) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "campaign",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=scratch, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
