"""The three benchmark workloads: seeded inputs, the timed job list of one
pass, and the correctness gate that runs after the timed phase.

Every call into the package goes through a module attribute looked up at
call time (``cli.main``, ``design.design_device``, ``born.tune_alpha``,
...), so the wrappers that ``tracing`` installs for the traced run are
the functions these jobs actually call.

An operation is one job of a pass: one CLI command, one device design,
one pipeline stage.  It fails if it raises an exception its job does not
expect, returns a non-zero exit code, or the gate finds its output
outside tolerance.  A failure never stops the run.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from asymscat import born, cli, design, kernel_io, kernels, solver

# Criterion 2: Nystrom vs finite-difference oracle, relative.
ORACLE_REL_TOL = 1e-6
# Criterion 3: sampled square well vs the closed form.
WELL_TOL = 1e-8
# Criterion 4: generalized unitarity on every adjoint solve.
UNITARITY_TOL = 1e-8
# Criterion 8: designed kernels meet their targets at k0.
DESIGN_TOL = 1e-6
# Criterion 10: the tuned broadband reflector bands.
ALPHA_REF_4PI = 1.225
ALPHA_REL_TOL = 0.05
RL_BAND = 0.1
RR_MAX = 0.05
T_BAND = 0.05
# Richardson pair (401, 801) of the oracle, as in criterion 2.
ORACLE_N = 401


@dataclass
class Op:
    """One timed operation of a pass.

    ``result`` is what the call returned; ``output`` is a comparable
    record of it, taken after the pass, that later passes on the same
    inputs must repeat exactly."""

    name: str
    phase: str  # "solve", "sweep", "tune" or "other"
    seconds: float = 0.0
    result: object = None
    output: object = None
    error: str | None = None
    path: Path | None = None  # the op's output file, if it writes one


def timed(op: Op, fn, *args, **kwargs) -> Op:
    """Run ``fn`` as the body of ``op``; an exception marks the op failed."""
    t0 = time.perf_counter()
    try:
        op.result = fn(*args, **kwargs)
    except Exception:  # any exception is a failed operation, never an abort
        op.error = traceback.format_exc(limit=3)
    op.seconds = time.perf_counter() - t0
    return op


def fail(op: Op, message: str) -> None:
    if op.error is None:
        op.error = message


class Workload:
    """A seeded job list.  Subclasses define ``setup``, ``run_pass``,
    ``record`` (the comparable output of one op) and ``check_op`` (the
    tolerance checks of one op)."""

    name: str
    # False when each pass draws its own seeded inputs; then every pass is
    # checked against the tolerances instead of against the first pass.
    same_inputs = True

    def snapshot(self, ops: list[Op]) -> None:
        """Record each op's output; runs outside the timed region."""
        for op in ops:
            if op.error is None:
                op.output = self.record(op)

    def check(self, passes: list[list[Op]]) -> None:
        """Check the first pass (every pass, without ``same_inputs``)
        against the tolerances and every later pass against the first."""
        for ops in passes if not self.same_inputs else passes[:1]:
            for op in ops:
                if op.error is None:
                    try:
                        self.check_op(op)
                    except Exception:  # a malformed output is a failed op
                        fail(op, traceback.format_exc(limit=2))
        if not self.same_inputs:
            return
        reference = {op.name: op.output for op in passes[0]}
        for ops in passes[1:]:
            for op in ops:
                if op.error is None and op.output != reference[op.name]:
                    fail(op, "output differs from the first pass on identical input")


def _rel_dev(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def _pair(z) -> complex:
    return complex(z[0], z[1])


def square_well_amplitudes(k: float, depth: float, a: float = 1.0) -> tuple[complex, complex]:
    """Closed-form (T, R) of the real well V(x) = depth on [-a, a]."""
    q = np.sqrt(k * k - 2.0 * depth + 0j)
    D = np.cos(2 * q * a) - 1j * (k * k + q * q) / (2 * k * q) * np.sin(2 * q * a)
    T = np.exp(-2j * k * a) / D
    R = T * 1j * (q * q - k * k) / (2 * k * q) * np.sin(2 * q * a)
    return complex(T), complex(R)


# --------------------------------------------------------------------------
# amplitudes: an in-process CLI session over seeded kernel files


@dataclass(frozen=True)
class AmplitudeSizes:
    n_solve: int = 801
    n_solve_full: int = 1601  # for the full 6x6 polynomial kernel
    n_sweep: int = 401
    sweep_points: int = 11
    verify_points: int = 3
    sampled_n: int = 401


@dataclass
class _KernelJob:
    name: str
    path: Path
    kernel: object
    k: float
    n_solve: int
    kmin: float
    kmax: float
    vmin: float
    vmax: float
    depth: float | None = None  # square well only


class Amplitudes(Workload):
    """``classify``, ``solve --adjoint``, ``sweep`` and ``verify`` through
    ``asymscat.cli.main`` on five seeded kernel files."""

    name = "amplitudes"
    SIZES = {"full": AmplitudeSizes(),
             "tiny": AmplitudeSizes(401, 401, 201, 3, 2, 61)}

    def setup(self, seed: int, workdir: Path, size: str) -> None:
        s = self.SIZES[size]
        self.sizes = s
        self.out = workdir / "out"
        self.out.mkdir()
        kdir = workdir / "kernels"
        kdir.mkdir()
        rng = np.random.default_rng([seed, 1])

        def cplx(shape, scale):
            return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

        g = np.linspace(-1.0, 1.0, s.sampled_n)
        X, Y = np.meshgrid(g, g, indexing="ij")
        a, b = rng.uniform(-0.4, 0.4, size=2)
        amp, mix = cplx(2, 0.5)
        smooth = (amp * np.exp(-2.0 * ((X - a) ** 2 + (Y - b) ** 2))
                  + mix * X * np.exp(-(X + Y) ** 2))
        depth = float(rng.uniform(-2.0, -0.5))
        built = [
            ("poly2a", kernels.PolynomialKernel(cplx((6, 2), 0.4)), s.n_solve, None),
            ("poly2b", kernels.PolynomialKernel(cplx((6, 2), 0.4)), s.n_solve, None),
            ("poly6", kernels.PolynomialKernel(cplx((6, 6), 0.3)), s.n_solve_full, None),
            ("smooth", kernels.SampledKernel(g, smooth), s.n_solve, None),
            ("well", kernels.SampledKernel(g, np.full(g.size, depth + 0j), is_local=True),
             s.n_solve, depth),
        ]
        self.jobs = {}
        for name, kernel, n_solve, well_depth in built:
            path = kdir / f"{name}.json"
            kernel_io.save_kernel(kernel, path)
            k = float(rng.uniform(0.5, 2.5))
            kmin = float(rng.uniform(0.4, 0.8))
            kmax = kmin + float(rng.uniform(1.5, 2.5))
            self.jobs[name] = _KernelJob(name, path, kernel, k, n_solve, kmin, kmax,
                                         0.9 * k, 1.1 * k, well_depth)
        self._cli(["solve", "--kernel", str(self.jobs["poly2a"].path), "--k", "1.0",
                   "--n-grid", "101"])  # warm-up

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def _commands(self, job: _KernelJob) -> list[tuple[str, str, list[str]]]:
        s = self.sizes
        kern = ["--kernel", str(job.path)]
        simpson = ["--quadrature", "simpson"]
        stem = str(self.out / job.name)
        return [
            ("classify", "other", ["classify", *kern, "--out", stem + ".classify.json"]),
            ("solve", "solve", ["solve", *kern, "--k", repr(job.k), "--adjoint",
                                "--n-grid", str(job.n_solve), *simpson,
                                "--out", stem + ".solve.json"]),
            ("sweep", "sweep", ["sweep", *kern, "--kmin", repr(job.kmin), "--kmax",
                                repr(job.kmax), "--n", str(s.sweep_points),
                                "--n-grid", str(s.n_sweep), *simpson,
                                "--out", stem + ".sweep.csv"]),
            ("verify", "sweep", ["verify", *kern, "--kmin", repr(job.vmin), "--kmax",
                                 repr(job.vmax), "--n", str(s.verify_points),
                                 "--out", stem + ".verify.json"]),
        ]

    def run_pass(self, index: int) -> list[Op]:
        ops = []
        for job in self.jobs.values():
            for cmd, phase, argv in self._commands(job):
                op = timed(Op(f"{cmd}:{job.name}", phase), self._cli, argv)
                op.path = Path(argv[-1])
                ops.append(op)
        return ops

    def record(self, op: Op):
        """Exit code, captured streams and the output file's text (the
        next pass overwrites the file)."""
        text = op.path.read_text(encoding="utf-8") if op.path.exists() else None
        return (*op.result, text)

    def check_op(self, op: Op) -> None:
        rc, _stdout, stderr, text = op.output
        if rc != 0 or text is None:
            fail(op, f"exit code {rc}: {stderr.strip()}")
            return
        cmd, kname = op.name.split(":")
        getattr(self, f"_check_{cmd}")(op, self.jobs[kname], text)

    def _check_classify(self, op: Op, job: _KernelJob, text: str) -> None:
        verdicts = json.loads(text)["verdicts"]
        satisfied = sorted(c for c, v in verdicts.items() if v)
        # A real constant local well satisfies all eight relations; the
        # seeded complex kernels satisfy only the identity.
        want = sorted(kernels.SYMMETRY_CODES) if job.depth is not None else ["I"]
        if satisfied != want:
            fail(op, f"satisfied symmetries {satisfied}, expected {want}")

    def _check_solve(self, op: Op, job: _KernelJob, text: str) -> None:
        doc = json.loads(text)
        got = [_pair(doc[a]) for a in ("Tl", "Tr", "Rl", "Rr")]
        unit = max(doc["unitarity_residuals"])
        if unit > UNITARITY_TOL:
            fail(op, f"generalized unitarity residual {unit:.3e}")
        self._check_amplitudes(op, job, job.k, got)

    def _check_sweep(self, op: Op, job: _KernelJob, text: str) -> None:
        lines = text.strip().splitlines()[1:]
        if len(lines) != self.sizes.sweep_points:
            fail(op, f"{len(lines)} sweep rows, expected {self.sizes.sweep_points}")
            return
        rows = []
        for line in lines:
            cells = line.split(",")
            if cells[-1]:
                fail(op, f"sweep row failed: {cells[-1]}")
                return
            v = [float(c) for c in cells[5:13]]
            rows.append((float(cells[0]), [complex(v[i], v[i + 1]) for i in range(0, 8, 2)]))
        # The well is checked on every row against its closed form, the
        # nonlocal kernels on the middle row against the oracle.
        picked = rows if job.depth is not None else [rows[len(rows) // 2]]
        for k, amps in picked:
            self._check_amplitudes(op, job, k, amps)

    def _check_verify(self, op: Op, job: _KernelJob, text: str) -> None:
        doc = json.loads(text)
        if doc["failures"]:
            fail(op, f"verify reported {doc['failures']}")

    def _check_amplitudes(self, op: Op, job: _KernelJob, k: float, got) -> None:
        if job.depth is not None:
            T, R = square_well_amplitudes(k, job.depth)
            dev = float(np.max(np.abs(np.array(got) - np.array([T, T, R, R]))))
            if dev > WELL_TOL:
                fail(op, f"square well off its closed form by {dev:.3e} at k={k}")
            return
        want = solver.scatter_oracle_all(job.kernel, k, ORACLE_N)
        dev = _rel_dev(got, want)
        if dev > ORACLE_REL_TOL:
            fail(op, f"oracle relative deviation {dev:.3e} at k={k}")


# --------------------------------------------------------------------------
# design: the five designable devices under their acceptance constraints


DEVICES = (("TR/A", "none"), ("T/R", "none"), ("T/A", "viii"), ("TR/R", "viii"),
           ("TR/T", "pt"))


class Design(Workload):
    """``design_device`` then ``save_kernel`` for each designable device.

    Each pass draws its restart seed from the workload seed and the pass
    number.  The work of a design depends on the restart seed (a few seeds
    take three times the function evaluations), so the per-job median over
    passes spans several seeds instead of resting on one."""

    name = "design"
    same_inputs = False
    SIZES = {"full": (DEVICES, 16), "tiny": (DEVICES[:1], 2)}

    def setup(self, seed: int, workdir: Path, size: str) -> None:
        self.devices, self.restarts = self.SIZES[size]
        self.seed = seed
        self.out = workdir
        # Warm-up: one forward solve on the design's verification grid.
        warm = kernels.PolynomialKernel(np.eye(6, 2, dtype=complex) * 0.1)
        solver.scatter_all(warm, 1.0, solver.SolverConfig(n_grid=101, quadrature="simpson"))

    def restart_seed(self, index: int) -> int:
        return int(np.random.default_rng([self.seed, 2, index]).integers(2**31))

    def run_pass(self, index: int) -> list[Op]:
        seed = self.restart_seed(index)
        ops = []
        for code, constraint in self.devices:
            spec = design.DeviceSpec(code=code, constraint=constraint)
            made = timed(Op(f"design:{code}", "other"), design.design_device, spec,
                         seed=seed, restarts=self.restarts)
            save = Op(f"save_kernel:{code}", "other")
            save.path = self.out / f"{code.replace('/', '_')}.json"
            if made.error is None:
                timed(save, kernel_io.save_kernel, made.result.kernel, save.path)
                save.result = made.result.kernel
            else:
                save.error = "skipped: design failed"
            ops += [made, save]
        return ops

    def record(self, op: Op):
        if op.name.startswith("design"):
            return (op.result.kernel.coeffs.tobytes(), op.result.verification.quadruple)
        return op.path.read_text(encoding="utf-8")

    def check_op(self, op: Op) -> None:
        if op.name.startswith("design"):
            spec = op.result.spec
            got = solver.scatter_oracle_all(op.result.kernel, spec.k0, ORACLE_N)
            dev = float(np.max(np.abs(np.array(got) - np.array(spec.targets))))
            if dev > DESIGN_TOL:
                fail(op, f"oracle misses the targets by {dev:.3e}")
        else:
            back = kernel_io.kernel_from_dict(json.loads(op.output))
            if not np.array_equal(back.coeffs, op.result.coeffs):
                fail(op, "saved kernel does not round-trip")


# --------------------------------------------------------------------------
# reflector: the born-design --tune --sweep pipeline through the API


class Reflector(Workload):
    """``reflector_config``, ``tune_alpha``, ``design_broadband_reflector``,
    ``k_sweep``, ``born_prediction`` and ``save_kernel``, in the order of
    the ``born-design`` command."""

    name = "reflector"
    EPSILON = 1e-4
    K_REF = 1.0
    WINDOW = 4.0
    K_LO, K_HI = 0.5, 5.0
    SIZES = {"full": 40, "tiny": 4}

    def setup(self, seed: int, workdir: Path, size: str) -> None:
        points = self.SIZES[size]
        # Stratified seeded momenta: one in each of ``points`` equal cells.
        rng = np.random.default_rng([seed, 3])
        cell = (self.K_HI - self.K_LO) / points
        self.grid = self.K_LO + (np.arange(points) + rng.uniform(size=points)) * cell
        self.path = workdir / "reflector.json"
        # Warm-up: one single-side local solve on an explicit mesh.
        nodes = np.linspace(-1.0, 1.0, 101)
        warm = born.design_broadband_reflector(0.05, 0.1, d=1.0)
        solver.scatter(warm, 1.0, "left", solver.SolverConfig(n_grid=101, nodes=nodes))

    def run_pass(self, index: int) -> list[Op]:
        eps, grid = self.EPSILON, self.grid
        ops = []

        def step(name, phase, fn, *args, **kwargs):
            op = Op(name, phase)
            if any(o.error is not None for o in ops):
                op.error = "skipped: an earlier stage failed"
            else:
                timed(op, fn, *args, **kwargs)
            ops.append(op)
            return op.result

        config = step("reflector_config", "other", born.reflector_config, eps,
                      window=self.WINDOW, k_max=float(np.max(grid)))
        alpha = step("tune_alpha", "tune", born.tune_alpha, eps, self.K_REF,
                     window=self.WINDOW)
        pot = step("design_broadband_reflector", "other", born.design_broadband_reflector,
                   alpha, eps, d=self.WINDOW)
        step("k_sweep", "sweep", solver.k_sweep, pot, grid, config)
        step("born_prediction", "other", born.born_prediction, pot, float(grid[0]))
        step("save_kernel", "other", kernel_io.save_kernel, pot, self.path)
        ops[-1].result = pot
        return ops

    def record(self, op: Op):
        r = op.result
        if op.name == "reflector_config":
            return (r.nodes.tobytes(), r.weights.tobytes())
        if op.name == "k_sweep":
            return r.to_csv_text()
        if op.name == "save_kernel":
            return self.path.read_text(encoding="utf-8")
        return r  # alpha, the potential, the Born prediction: dataclasses or floats

    def check_op(self, op: Op) -> None:
        r = op.result
        if op.name == "tune_alpha":
            rel = abs(r * 4.0 * np.pi - ALPHA_REF_4PI) / ALPHA_REF_4PI
            if rel > ALPHA_REL_TOL:
                fail(op, f"tuned alpha*4pi off 1.225 by {rel:.3f} (relative)")
        elif op.name == "k_sweep":
            bad = [row.error for row in r.rows if row.amps is None]
            if len(r.rows) != self.grid.size or bad:
                fail(op, f"{len(r.rows)} rows, failures {bad}")
                return
            abs2 = np.array([row.amps.abs2 for row in r.rows])  # Tl, Tr, Rl, Rr
            rl = float(np.max(np.abs(abs2[:, 2] - 1.0)))
            rr = float(np.max(abs2[:, 3]))
            t = float(np.max(np.abs(abs2[:, :2] - 1.0)))
            if rl > RL_BAND or rr > RR_MAX or t > T_BAND:
                fail(op, f"bands missed: |R^l|^2 excursion {rl:.3f}, "
                         f"|R^r|^2 max {rr:.3f}, |T|^2 excursion {t:.3f}")
        elif op.name == "born_prediction":
            # The one-sided spectrum makes the Born right reflection exactly 0.
            if r.Rr != 0 or not np.isfinite(r.T_abs2):
                fail(op, f"Born prediction R^r={r.Rr}, |T|^2={r.T_abs2}")
        elif op.name == "save_kernel":
            if kernel_io.kernel_from_dict(json.loads(op.output)) != r:
                fail(op, "saved reflector does not round-trip")


WORKLOADS = {w.name: w for w in (Amplitudes, Design, Reflector)}
