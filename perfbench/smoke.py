#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

It checks the statistics helpers, the compare report's verdicts, the
computed kernel counts and span self time. It then makes one short untraced and one short traced run,
and runs the benchmark in a directory that holds no program.  It takes
about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "smoke"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
from spans import Span, self_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT,
              script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class StatsTest(unittest.TestCase):
    def test_tail_level_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_level(19))
        self.assertEqual(stats.tail_level(20), 50)
        self.assertEqual(stats.tail_level(40), 75)
        self.assertEqual(stats.tail_level(100), 90)
        self.assertEqual(stats.tail_level(1000), 99)

    def test_tail_is_the_slow_side(self):
        values = [float(v) for v in range(1, 101)]
        self.assertGreater(stats.summarize(values, "lower")["tail"], 50)
        self.assertLess(stats.summarize(values, "higher")["tail"], 50)

    def test_verdicts(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8,
                  100.1, 99.9]
        faster = [v * 0.8 for v in parent]
        slower = [v * 1.3 for v in parent]
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0,
                 110.0, 100.0]

        def verdict(p, c):
            return stats.compare_pairs(p, c, "lower", 0.1)["verdict"]

        self.assertEqual(verdict(parent, faster), "better")
        self.assertEqual(verdict(parent, slower), "worse")
        self.assertEqual(verdict(parent, parent), "same")
        self.assertEqual(verdict(noisy, [v * 1.01 for v in noisy]),
                         "unresolved")
        self.assertEqual(stats.compare_pairs(parent, faster, "lower", 0.1)
                         ["won"], 1.0)


class CompareTest(unittest.TestCase):
    def report(self, change_correct: bool, change_failed: int) -> str:
        import compare

        out = WORK / "compare"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        for i in range(4):
            for side, value in (("parent", 2.0 + 0.01 * i),
                                ("change", 1.0 + 0.01 * i)):
                bad = side == "change" and not change_correct
                failed = change_failed if side == "change" else 0
                result = {"correct": not bad, "attempted": 10,
                          "failed": failed, "metrics": {"end_to_end_s": {
                              "value": value, "unit": "s"}}}
                (out / f"{side}-w-trace0-{i:03d}.json").write_text(
                    json.dumps({"result": result,
                                "samples": {"end_to_end_s": [value]}}))
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            compare.report(out)
        line = next(t for t in text.getvalue().splitlines()
                    if t.strip().startswith("end_to_end_s"))
        return line

    def test_faster_and_correct_is_better(self):
        self.assertIn("better", self.report(True, 0))

    def test_failing_change_is_not_comparable(self):
        for correct, failed in ((False, 0), (False, 1)):
            line = self.report(correct, failed)
            self.assertIn("not comparable", line)
            self.assertNotIn("better", line)


class CountsTest(unittest.TestCase):
    def test_band_kernel_counts_match_the_kernel_loops(self):
        import workflow

        n, h, w, k, chunk = 11, 4, 6, 2, 3
        spans = workflow.chunk_spans(n, chunk)
        flops = 0
        for a, b in spans:
            terms = b - a - 1
            for dy in range(-k, k + 1):
                for dx in range(-k, k + 1):
                    area = max(0, h - abs(dy)) * max(0, w - abs(dx))
                    flops += 2 * terms * area
        got = workflow.band_kernel_counts((n, h, w), k, len(spans))
        self.assertEqual(got["jpd.band_kernel_flops"], flops)
        self.assertEqual(sum(b - a - 1 for a, b in spans), n - 1)

    def test_self_time_subtracts_direct_children(self):
        spans = [Span(0, "outer", 0.0, 10.0, None, "r"),
                 Span(1, "inner", 1.0, 3.0, 0, "r"),
                 Span(2, "inner", 4.0, 8.0, 0, "r"),
                 Span(3, "leaf", 5.0, 6.0, 2, "r")]
        self.assertEqual(self_time(spans, "outer"), 4.0)
        self.assertEqual(self_time(spans, "inner"), 5.0)


class RunTest(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(parents=True, exist_ok=True)

    def check_line(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"], proc.stdout)
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(line["metrics"]), set(declared))
        for name, metric in line["metrics"].items():
            self.assertEqual(metric["unit"], declared[name])
            self.assertIsInstance(metric["value"], (int, float))
        return line

    def test_untraced_run(self):
        proc = run_bench("--workload", "emccd_fine_k1", "--seed", "5",
                         "--seconds", "1", "--trace", "0",
                         "--record", str(WORK / "untraced.json"))
        line = self.check_line(proc, "end_to_end")
        for metric in line["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_traced_run(self):
        proc = run_bench("--workload", "emccd_fine_k1", "--seed", "5",
                         "--seconds", "1", "--trace", "1",
                         "--record", str(WORK / "traced.json"))
        metrics = self.check_line(proc, "per_layer")["metrics"]
        for name in ("jpd.chunks", "jpd.band_kernel_flops", "frames.bytes",
                     "pipeline.entries_filled"):
            self.assertIsInstance(metrics[name]["value"], int)
        self.assertEqual(metrics["ops_failed_ratio"]["value"], 0)
        # emccd invalidates the dx = 0 column of the 3x3 band: 3 planes of
        # 32x32 minus the entries whose partner is off the sensor
        self.assertEqual(metrics["jpd.entries_invalidated"]["value"],
                         32 * 32 + 2 * 31 * 32)

    def test_fails_without_the_program(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "near_grating_k3", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare,
                         script=bare / HERE.name / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
