"""asymscat benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload amplitudes --seed 0 --seconds 15 --trace 0

Each workload runs in fresh worker processes (``worker.py``) that import
the package from ``src/`` of this checkout.  ``setup_s`` is the median
set-up time (process start to ready) over SETUP_REPEATS fresh processes;
the last of them goes on to run the timed passes and the correctness
gate.  The last line of standard output is the result object; the lines
before it name every figure with its unit, the environment, and with
``--trace 1`` the span tree.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("amplitudes", "design", "reflector")
SETUP_REPEATS = 3
# One BLAS thread: the plain single-threaded baseline, and steadier than
# two threads on a small machine shared with other work.
BLAS_THREADS = 1
DEADLINE_S = 170.0

def _worker(mode: str, args, env: dict, deadline: float, trace_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="asymscat benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure passes for this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: reduced sizes for the self-tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    if not (ROOT / "src" / "asymscat" / "__init__.py").is_file():
        print(f"no asymscat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    trace_file = runs / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None

    try:
        setups = [_worker("setup", args, env, deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        res = _worker("run", args, env, deadline, trace_file)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(res['walls'])} closed loop, 1 caller")
    print("env " + json.dumps(res["env"], sort_keys=True))
    figures = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (res["wall_s"], "s"),
        "solve_s": (res["solve_s"] or None, "s"),
        "sweep_s": (res["sweep_s"] or None, "s"),
        "tune_s": (res["tune_s"] or None, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "error_rate": (res["failed"] / res["attempted"], "1"),
    }
    for name, (value, unit) in figures.items():
        shown = "n/a (not in this workload)" if value is None else f"{value:.6g}"
        print(f"metric {name} {shown} {unit}")
    print("pass_walls_s " + " ".join(f"{w:.4f}" for w in res["walls"]))
    for failure in res["failures"]:
        print(f"failed {failure}")

    if args.trace:
        print("span tree of the first traced pass (calls, total s, self s):")
        for depth, name, calls, total, own in res["tree"]:
            print(f"  {'  ' * depth}{name:<{44 - 2 * depth}} {calls:>7d} {total:10.4f} {own:10.4f}")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        values = res["layer"]
    else:
        values = {name: value for name, (value, _unit) in figures.items()}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
