"""Self-test of the benchmark harness on tiny inputs (about 30 s).

Run from the repository root::

    python3 -m unittest discover -s benchmarks -p "test_*.py"

It checks that every metric named in ``BENCHMARK.json`` is emitted for
every workload in both modes (or marked n/a), that a deliberately
overlapping tiling shows up as a failed operation, and that the benchmark
refuses to run in a directory without the library's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class OverlappingInput(Workload):
    """A workload whose input is replaced by two overlapping triangles."""

    def prepare(self, path: str, seed: int) -> None:
        Path(path).write_text("#TILING 1\ntri 0 0 2 0 0 2\ntri 0 0 1 0 0 1\n", encoding="ascii")


class HarnessTest(unittest.TestCase):
    def test_spec_matches_harness(self):
        for entry in SPEC["workloads"]:
            self.assertEqual(entry["why"], WORKLOADS[entry["name"]].why)

    def test_every_metric_emitted(self):
        for name in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--quick")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    line = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"], proc.stdout)
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(line["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual(set(line["metrics"]), set(expected))
                    for metric, value in line["metrics"].items():
                        self.assertEqual(value["unit"], expected[metric], metric)
                        self.assertTrue(math.isfinite(value["value"]), metric)
                        if value["value"] == 0 and section == "end_to_end":
                            self.fail(f"{metric} reads 0")
                    report = json.loads((run.WORK / f"report-{name}-trace{trace}.json").read_text())
                    self.assertIn("fail_ratio", report)
                    for key in ("tiles", "vertices", "atomic_edges", "max_coord_bits", "bytes"):
                        self.assertGreater(report["inputs"][key], 0, key)
                    self.assertEqual(set(report["context"]),
                                     {"python", "implementation", "platform", "nproc", "commit"})
                    for metric in report["metrics"].values():
                        if "median" in metric:  # timings carry an explicit tail or n/a
                            self.assertTrue(metric["tail"] or metric["tail_na"])

    def test_overlapping_tiling_fails(self):
        workload = OverlappingInput("overlap", "test", disk="0,0,1", family="twoscale",
                                    size=1, quick_size=1, quick_disk="0,0,1")
        report = run.measure(workload, seed=0, seconds=0, trace=False, quick=True)
        self.assertGreater(report["fail_ratio"], 0)
        self.assertFalse(run.result_line(report)["correct"])

    def test_missing_sources_refused(self):
        stripped = run.WORK / "stripped"
        shutil.rmtree(stripped, ignore_errors=True)
        shutil.copytree(HERE, stripped / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__", "results"))
        shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
        proc = bench("--workload", "twoscale-6", "--seed", "1", "--seconds", "1", cwd=stripped)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.timing([1.0] * 19)["tail"])
        self.assertEqual(run.timing([float(i) for i in range(20)])["tail"]["percentile"], 50)
        self.assertEqual(run.timing([float(i) for i in range(100)])["tail"]["percentile"], 90)


if __name__ == "__main__":
    unittest.main()
