"""Steadiness check: run each workload over several seeds and report,
per metric, the median, the quartiles and the spread against the bound.

Run from the repository root:

    python3 perfbench/steady.py                       # 10 seeds, every workload
    python3 perfbench/steady.py --workloads design --runs 5
    python3 perfbench/steady.py --sets 2              # two sets: do they agree?

The spread is (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is steady when its
spread is below a third of its bound.  With ``--sets 2`` the same seeds
run twice and the second median is compared with the first.  Metrics
printed by the benchmark but not bounded in BENCHMARK.json (solve_s,
sweep_s, tune_s, error_rate) are listed with their spread and no bound.
Every result line is appended to .perfbench_runs/steady.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric" and parts[1] not in values and parts[2] != "n/a":
            values[parts[1]] = float(parts[2])
    return {"workload": workload, "seed": seed, "elapsed_s": elapsed,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": values}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description="benchmark steadiness over seeds")
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench_runs" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)

    steady = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            rows = []
            for i in range(args.runs):
                row = run_once(spec, workload, args.first_seed + i)
                row["set"] = s
                with log.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row) + "\n")
                print(f"  {workload} set {s} seed {row['seed']}: {row['elapsed_s']:.1f} s, "
                      f"failed {row['failed']}/{row['attempted']}", flush=True)
                rows.append(row)
            sets.append(rows)
        attempted = sum(r["attempted"] for rows in sets for r in rows)
        failed = sum(r["failed"] for rows in sets for r in rows)
        print(f"{workload}: {args.runs} runs x {args.sets} set(s), "
              f"error_rate {failed}/{attempted}")
        print(f"  {'metric':<14} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name in sets[0][0]["values"]:
            medians = []
            for s, rows in enumerate(sets):
                med, q1, q3, sp = spread([r["values"][name] for r in rows])
                medians.append(med)
                bound = bounds.get(name)
                if bound is None:
                    verdict = "unbounded"
                elif name == "setup_s":
                    verdict = "spread not gated"
                elif sp < bound / 3:
                    verdict = "steady"
                else:
                    verdict = "within bound" if sp <= bound else "TOO WIDE"
                    steady = False
                shown = "-" if bound is None else f"{bound:.2f}"
                print(f"  {name:<14} {s:>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{sp:>8.4f} {shown:>6}  {verdict}")
            if len(medians) == 2 and name in bounds:
                change = (medians[1] - medians[0]) / medians[0]
                ok = change <= bounds[name]
                steady &= ok
                print(f"  {name:<14} second median vs first: {change:+.4f} "
                      f"({'agrees' if ok else 'WORSE THAN BOUND'})")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
