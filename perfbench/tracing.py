"""Outside-in tracing for the traced run.

The benchmark wraps each layer's public functions where the calling
module binds them (``asymscat.design.least_squares``,
``asymscat.born.scatter``, ``asymscat.cli.load_kernel``, the kernel
classes' ``sample_matrix``, ...).  Each wrapper records a span (name,
start, end, parent) and counts taken from arguments and return values.
Spans stay in memory and are written out when the run ends.  Private
helpers of the package are not wrapped, and nothing under ``src/`` knows
it is being traced.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

from asymscat import born, cli, design, kernel_io, kernels, solver, symmetry

# design.py accepts a restart as converged when max|residual| <= 1e-11.
CONVERGED_RESIDUAL = 1e-11


class Tracer:
    """Spans of one process, kept in memory; single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()


def _grid_n(config) -> int:
    config = config or solver.SolverConfig()
    return config.nodes.size if config.nodes is not None else config.n_grid


def _solve_counts(lus_of):
    def count(args, result):
        n = _grid_n(args.get("config"))
        return {"n": n, "lus": lus_of(args)}
    return count


def _path_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _count_sample_matrix(args, result):
    return {"entries": int(np.size(args["x_nodes"]) * np.size(args["y_nodes"]))}


def _count_k_sweep(args, result):
    return {"rows": len(result.rows),
            "failed_rows": sum(row.amps is None for row in result.rows)}


def _count_least_squares(args, result):
    return {"nfev": int(result.nfev),
            "converged": bool(np.max(np.abs(result.fun)) <= CONVERGED_RESIDUAL)}


_scatter_all_counts = _solve_counts(lambda a: 2 if a.get("include_adjoint") else 1)

# (owner, attribute, span name, counter).  The same function bound in
# several modules gets one wrapper per binding and one span name, so its
# metrics add up over every caller.
WRAPPED = [
    (cli, "main", "cli.main", None),
    (cli, "load_kernel", "kernel_io.load_kernel", _path_bytes),
    (cli, "save_kernel", "kernel_io.save_kernel", _path_bytes),
    (cli, "sha256_path", "kernel_io.sha256_path", _path_bytes),
    (kernel_io, "save_kernel", "kernel_io.save_kernel", _path_bytes),
    (cli, "check_symmetries", "symmetry.check_symmetries", None),
    (symmetry.AmplitudeRelation, "residual", "symmetry.relation_residual", None),
    (cli, "scatter_all", "solver.scatter_all", _scatter_all_counts),
    (solver, "scatter_all", "solver.scatter_all", _scatter_all_counts),
    (design, "scatter_all", "solver.scatter_all", _scatter_all_counts),
    (born, "scatter", "solver.scatter", _solve_counts(lambda a: 1)),
    (cli, "k_sweep", "solver.k_sweep", _count_k_sweep),
    (solver, "k_sweep", "solver.k_sweep", _count_k_sweep),
    (design, "design_device", "design.design_device", None),
    (design, "least_squares", "design.least_squares", _count_least_squares),
    (born, "reflector_config", "born.reflector_config", None),
    (born, "tune_alpha", "born.tune_alpha", None),
    (born, "design_broadband_reflector", "born.design_broadband_reflector", None),
    (born, "born_prediction", "born.born_prediction", None),
    (kernels.PolynomialKernel, "sample_matrix", "kernels.sample_matrix", _count_sample_matrix),
    (kernels.SampledKernel, "sample_matrix", "kernels.sample_matrix", _count_sample_matrix),
    (kernels.SampledKernel, "sample_profile", "kernels.sample_profile", None),
    (kernels.RegularizedInverseSquare, "sample_profile", "kernels.sample_profile", None),
    (kernels.PolynomialKernel, "transform", "kernels.transform", None),
    (kernels.SampledKernel, "transform", "kernels.transform", None),
    (kernels.RegularizedInverseSquare, "transform", "kernels.transform", None),
]


def _wrap(tracer: Tracer, fn, name: str, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(span)
            span["error"] = type(exc).__name__
            raise
        tracer.close(span)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.update(counter(bound.arguments, result))
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every function in WRAPPED; returns the function that undoes it."""
    saved = []
    for owner, attr, name, counter in WRAPPED:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, counter))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# --------------------------------------------------------------------------
# per-layer metrics from the spans of one pass


def subtree(spans: list[dict], root_id: int) -> list[dict]:
    """The spans under ``root_id`` (ids are in opening order)."""
    inside = {root_id}
    out = []
    for span in spans[root_id + 1:]:
        if span["parent"] in inside:
            inside.add(span["id"])
            out.append(span)
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration minus the time child spans cover.  Children of one span
    run one after another, so their intervals do not overlap."""
    child = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


def layer_metrics(spans: list[dict], root_id: int) -> dict[str, float]:
    """Per-layer metrics of the pass whose root span is ``root_id``.

    ``entries``, ``lu_flops`` and ``dense_bytes`` are computed from array
    sizes: an n-point solve factors one dense complex n x n matrix per
    LU (8n^3/3 real flops, 16n^2 bytes); an adjoint solve does two LUs.
    """
    spans = subtree(spans, root_id)
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(own[s["id"]] for s in by_name[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    solves = by_name["solver.scatter_all"] + by_name["solver.scatter"]
    lsq = calls("design.least_squares")
    designs = {s["id"] for s in by_name["design.design_device"]}
    tunes = {s["id"] for s in by_name["born.tune_alpha"]}
    m = {}
    for layer in ("cli.main", "symmetry.check_symmetries", "kernels.sample_matrix",
                  "kernels.transform", "solver.scatter_all", "solver.scatter",
                  "design.least_squares"):
        m[f"{layer}.calls"] = calls(layer)
    for layer in ("cli.main", "kernel_io.load_kernel", "kernel_io.save_kernel",
                  "kernel_io.sha256_path", "kernels.sample_matrix", "kernels.transform",
                  "solver.scatter_all", "solver.scatter", "solver.k_sweep",
                  "symmetry.check_symmetries", "design.least_squares",
                  "born.reflector_config", "born.tune_alpha", "born.born_prediction"):
        m[f"{layer}.self_s"] = self_s(layer)
    m["kernel_io.bytes"] = sum(total(n, "bytes") for n in (
        "kernel_io.load_kernel", "kernel_io.save_kernel", "kernel_io.sha256_path"))
    m["kernels.sample_matrix.entries"] = total("kernels.sample_matrix", "entries")
    m["kernels.sample_profile.calls"] = calls("kernels.sample_profile")
    m["solver.scatter_all.adjoint_calls"] = sum(
        s.get("lus") == 2 for s in by_name["solver.scatter_all"])
    m["solver.k_sweep.rows"] = total("solver.k_sweep", "rows")
    m["solver.k_sweep.failed_rows"] = total("solver.k_sweep", "failed_rows")
    m["solver.grid_n_max"] = max((s.get("n", 0) for s in solves), default=0)
    m["solver.lu_flops"] = sum(s.get("lus", 0) * 8 * s.get("n", 0) ** 3 / 3 for s in solves)
    m["solver.dense_bytes"] = sum(s.get("lus", 0) * 16 * s.get("n", 0) ** 2 for s in solves)
    m["symmetry.relations_checked"] = calls("symmetry.relation_residual")
    m["design.least_squares.nfev"] = total("design.least_squares", "nfev")
    m["design.restarts_converged"] = sum(
        bool(s.get("converged")) for s in by_name["design.least_squares"])
    m["design.useful_ratio"] = len(designs) / lsq if lsq else 0.0
    m["design.verify_solve_s"] = sum(
        s["end"] - s["start"] for s in by_name["solver.scatter_all"] if s["parent"] in designs)
    m["born.bisection_steps"] = sum(
        1 for s in by_name["solver.scatter"] if s["parent"] in tunes)
    m["trace.spans"] = len(spans)
    return m


def span_tree(spans: list[dict], root_id: int) -> list[tuple[int, str, int, float, float]]:
    """Spans under ``root_id`` aggregated by call path:
    (depth, name, calls, total s, self s), each path under its parent."""
    own = self_times(spans)
    root = spans[root_id]
    path_of = {root_id: (root["name"],)}
    rows: dict[tuple, list] = {path_of[root_id]: [1, root["end"] - root["start"], own[root_id]]}
    for span in subtree(spans, root_id):
        path = path_of[span["parent"]] + (span["name"],)
        path_of[span["id"]] = path
        row = rows.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span["end"] - span["start"]
        row[2] += own[span["id"]]
    first_seen = {path: i for i, path in enumerate(rows)}
    order = sorted(rows, key=lambda p: [first_seen[p[:i]] for i in range(1, len(p) + 1)])
    return [(len(p) - 1, p[-1], *rows[p]) for p in order]
