"""Self-tests of the benchmark harness, at tiny sizes (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

The file name keeps pytest from collecting it with the package's tests.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import asymscat.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ISSUE_METRICS = ("setup_s", "wall_s", "solve_s", "sweep_s", "tune_s", "peak_rss_mb",
                 "error_rate")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=180)


class Scratch(unittest.TestCase):
    def setUp(self):
        runs = ROOT / ".perfbench_runs"
        runs.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=runs))
        self.addCleanup(shutil.rmtree, self.tmp, True)


class TinyRun(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
        for name in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, declared[trace])
                    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
                    self.assertEqual(printed, set(ISSUE_METRICS))

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_runs") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                             "--trace", "0", cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


class CorrectnessGate(Scratch):
    def test_corrupted_amplitude_is_a_failure(self):
        wl = workloads.Amplitudes()
        wl.setup(0, self.tmp, "tiny")
        ops = wl.run_pass(0)
        wl.snapshot(ops)
        op = next(o for o in ops if o.name == "solve:poly2a")
        *cli_result, text = op.output
        doc = json.loads(text)
        doc["Tl"][0] += 1e-4
        op.output = (*cli_result, json.dumps(doc))
        wl.check([ops])
        self.assertEqual([o.name for o in ops if o.error is not None], ["solve:poly2a"])
        self.assertIn("oracle relative deviation", op.error)

    def test_changed_output_in_a_later_pass_is_a_failure(self):
        wl = workloads.Reflector()
        wl.setup(0, self.tmp, "tiny")
        passes = [wl.run_pass(i) for i in range(2)]
        for ops in passes:
            wl.snapshot(ops)
        passes[1][1].output *= 1.2  # tuned alpha
        wl.check(passes)
        self.assertEqual([o.name for ops in passes for o in ops if o.error is not None],
                         ["tune_alpha"])
        self.assertIn("differs from the first pass", passes[1][1].error)


class Tracing(Scratch):
    def test_traced_and_untraced_counts_agree(self):
        original = asymscat.cli.main
        for name in WORKLOADS:
            with self.subTest(workload=name):
                plain = worker.run_workload(name, 5, 0, False, "tiny", self.tmp / f"{name}-0",
                                            passes=1)
                traced = worker.run_workload(name, 5, 0, True, "tiny", self.tmp / f"{name}-1",
                                             passes=1)
                plain_ops = [op.name for op in plain["ops"][0]]
                self.assertEqual([op.name for op in traced["ops"][0]], plain_ops)
                self.assertEqual([op.name for op in traced["ops"][1]], plain_ops)
                self.assertFalse([op.error for ops in traced["ops"] for op in ops if op.error])
                self.assertGreater(traced["layer"]["trace.spans"], 0)
        self.assertIs(asymscat.cli.main, original)

    def test_bypassed_layers_read_zero_on_reflector(self):
        traced = worker.run_workload("reflector", 0, 0, True, "tiny", self.tmp, passes=1)
        layer = traced["layer"]
        self.assertEqual(layer["kernels.sample_matrix.calls"], 0)
        self.assertEqual(layer["design.least_squares.calls"], 0)
        self.assertGreater(layer["solver.scatter.calls"], 0)
        self.assertGreater(layer["born.bisection_steps"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
