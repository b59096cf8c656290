"""One workload process: set up, run the timed passes, check the outputs.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count set in the environment.  The last line
of its standard output is one JSON object for ``run.py``.

Modes:
  setup  import, generate the seeded inputs, warm up, report when ready
  run    the same set-up, then passes for ``--seconds`` (at least one),
         then the correctness gate.  With ``--trace 1`` passes alternate
         untraced and traced, so the tracing overhead is measured in the
         same process.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import asymscat
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


def environment(blas_threads: str) -> dict:
    """Machine and library record attached to every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def median_pass(passes: list[list[workloads.Op]], phase: str | None = None) -> float:
    """Time of the job list: the sum over its jobs of each job's median
    time across passes (every pass runs the same jobs on the same inputs).
    A burst of machine noise then has to hit a job in most passes to
    count.  ``phase`` restricts the sum to that phase's jobs."""
    return sum(statistics.median(ops[i].seconds for ops in passes)
               for i, op in enumerate(passes[0]) if phase in (None, op.phase))


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 workdir: Path, passes: int | None = None) -> dict:
    """Set up and run one workload in this process.

    Passes run while one more pass is expected to end within
    ``seconds``, at least one; ``passes`` fixes their number instead (the
    self-tests use it).  With ``trace`` passes alternate untraced and
    traced, so both kinds see the same drift of machine speed, and at
    least one of each runs (``passes`` of each).  Returns the ops of every pass, the figures,
    and for a traced run the per-layer metrics and the spans.
    """
    workload = workloads.WORKLOADS[name]()
    workdir.mkdir(parents=True, exist_ok=True)
    workload.setup(seed, workdir, size)
    ready = time.monotonic()

    results, walls = [], []
    tracer = tracing.Tracer() if trace else None
    roots = []
    start = time.perf_counter()
    while True:
        traced = trace and len(results) % 2 == 1
        uninstall = tracing.install(tracer) if traced else None
        try:
            if traced:
                root = tracer.open("pass")
            t0 = time.perf_counter()
            ops = workload.run_pass(len(results))
            walls.append(time.perf_counter() - t0)
            if traced:
                tracer.close(root)
                roots.append(root["id"])
        finally:
            if uninstall is not None:
                uninstall()
        workload.snapshot(ops)
        results.append(ops)
        if passes is not None:
            if len(results) >= passes * (2 if trace else 1):
                break
        elif not trace or roots:
            # Start another pass only if one more pass of the mean length
            # still ends within ``seconds``.
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(results) > seconds:
                break

    workload.check(results)
    untraced = results[::2] if trace else results
    out = {"ready": ready, "ops": results, "walls": walls,
           "wall_s": median_pass(untraced)}
    for phase in ("solve", "sweep", "tune"):
        out[f"{phase}_s"] = median_pass(untraced, phase)
    if trace:
        per_pass = [tracing.layer_metrics(tracer.spans, r) for r in roots]
        layer = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        for phase in ("solve", "sweep", "tune"):
            layer[f"phase.{phase}_s"] = median_pass(results[1::2], phase)
        layer["trace.wall_s"] = median_pass(results[1::2])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - out["wall_s"]
        out["layer"] = layer
        out["tree"] = tracing.span_tree(tracer.spans, roots[0])
        out["spans"] = tracer.spans
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() in the parent just before the spawn")
    p.add_argument("--trace-file", default=None, help="where to write the spans")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(asymscat.__file__).resolve().parent.parent != src:
        print(f"asymscat imported from {asymscat.__file__}, not from {src}", file=sys.stderr)
        return 2
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        if args.mode == "setup":
            workloads.WORKLOADS[args.workload]().setup(args.seed, workdir, args.size)
            print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for pass_ops in res["ops"] for op in pass_ops]
    failures = [f"{op.name}: {op.error.strip().splitlines()[-1]}"
                for op in ops if op.error is not None]
    doc = {
        "setup_s": res["ready"] - args.spawned_at,
        "walls": res["walls"],
        "wall_s": res["wall_s"],
        "solve_s": res["solve_s"],
        "sweep_s": res["sweep_s"],
        "tune_s": res["tune_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "env": environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
    }
    if args.trace:
        doc["layer"] = res["layer"]
        doc["tree"] = res["tree"]
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                json.dump(res["spans"], fh)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
