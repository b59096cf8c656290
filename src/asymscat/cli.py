"""Command-line surface: solve, sweep, classify, design, born-design,
verify.

Outputs are deterministic (all randomness seeded, no timestamps), so CI
can byte-compare repeated runs.  Exit codes: 0 success, 1 input error,
2 numerical failure, 3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .born import born_prediction, design_broadband_reflector, reflector_config, tune_alpha
from .design import CONSTRAINTS, DesignResult, DeviceSpec, design_device, verify_design
from .errors import (
    BracketingError,
    DesignError,
    ForbiddenDeviceError,
    KernelFormatError,
    SingularSystemError,
    VerificationError,
)
from .kernel_io import kernel_to_dict, load_kernel, save_kernel, sha256_path
from .kernels import SYMMETRY_CODES
from .solver import (
    SolverConfig,
    generalized_unitarity_residuals,
    k_sweep,
    scatter_all,
)
from .symmetry import (
    DEVICE_CODES,
    allowed_devices,
    check_symmetries,
    predicted_amplitude_relations,
)

_DEVICE_FLAGS = {code.replace("/", "").lower(): code for code in DEVICE_CODES}


def _solver_config(args) -> SolverConfig:
    return SolverConfig(n_grid=args.n_grid, quadrature=args.quadrature)


def _add_solver_flags(add) -> None:
    add("--n-grid", type=int, default=401, help="quadrature points across [-d, d]")
    add("--quadrature", choices=("trapezoid", "simpson"), default="trapezoid")


_AMPLITUDE_NAMES = ("Tl", "Tr", "Rl", "Rr")


def complex_pair(z: complex) -> list:
    """``z`` as the [re, im] pair that reports store."""
    return [float(np.real(z)), float(np.imag(z))]


def _quadruple_pairs(amps) -> dict:
    return {name: complex_pair(z) for name, z in zip(_AMPLITUDE_NAMES, amps.quadruple)}


def amplitudes_to_dict(amps, unitarity=None) -> dict:
    out = {"k": amps.k, **_quadruple_pairs(amps), "abs2": dict(zip(_AMPLITUDE_NAMES, amps.abs2))}
    if amps.hatted is not None:
        out["hatted"] = _quadruple_pairs(amps.hatted)
    if unitarity is not None:
        out["unitarity_residuals"] = [float(r) for r in unitarity]
    return out


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _commit(args, outputs: dict, stdout: str = "") -> None:
    """Write a command's outputs: the files, then ``<out>.manifest.json``
    with their digests, then ``stdout``, which cannot be taken back.

    ``outputs`` maps each output's manifest name to (path, text or
    kernel); text has LF line endings, and text whose path is None goes
    to stdout.  If a write raises, the files this call opened are removed,
    a part-written one too, and the error propagates, so a failed run
    leaves no output.  A path that could not be opened, such as a
    directory or a read-only file, is left as it was.  An output path
    that names the input kernel file raises ValueError before any write.
    Identical manifests imply bit-identical outputs (all randomness is
    seeded, nothing depends on time).
    """
    files = {name: (path, data) for name, (path, data) in outputs.items() if path is not None}
    printed = "".join(data for path, data in outputs.values() if path is None)
    manifest_path = None if args.out is None else args.out + ".manifest.json"
    # writing over the kernel would lose it, and the manifest would give
    # the output's digest as the kernel's
    if "kernel" in args:
        for path in [path for path, _ in files.values()] + [manifest_path]:
            if path is not None and Path(path).exists() and Path(path).samefile(args.kernel):
                raise ValueError(f"output path {path!r} names the input kernel file")
    opened = []

    def write(path, data):
        # a kernel's path is opened here as well, so the rollback knows it
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            opened.append(path)
            if isinstance(data, str):
                fh.write(data)
        if not isinstance(data, str):
            save_kernel(data, path)

    try:
        for path, data in files.values():
            write(path, data)
        if manifest_path is not None:
            manifest = {
                "command": args.command,
                "flags": {key: value for key, value in vars(args).items() if key != "func"},
                "version": __version__,
                "input_digests": {"kernel": sha256_path(args.kernel)} if "kernel" in args else {},
                "output_digests": {name: sha256_path(path) for name, (path, _) in files.items()},
            }
            write(manifest_path, dumps_json(manifest))
    except BaseException:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise
    sys.stdout.write(printed + stdout)


def _cmd_solve(args) -> int:
    kernel = load_kernel(args.kernel)
    config = _solver_config(args)
    amps = scatter_all(kernel, args.k, config, include_adjoint=args.adjoint)
    unitarity = generalized_unitarity_residuals(amps) if args.adjoint else None
    text = dumps_json(amplitudes_to_dict(amps, unitarity))
    _commit(args, {"amplitudes": (args.out, text)})
    return 0


def _check_count(flag: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{flag} must be at least 1, got {n}")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ValueError(f"bad grid spec {spec!r}; expected kmin:kmax:n") from exc
    if not (0 < lo < np.inf and 0 < hi < np.inf and n >= 1):
        raise ValueError(f"bad grid spec {spec!r}; expected positive finite "
                         f"kmin and kmax and n >= 1")
    return np.linspace(lo, hi, n)


def _cmd_sweep(args) -> int:
    _check_count("--n", args.n)
    kernel = load_kernel(args.kernel)
    config = _solver_config(args)
    grid = np.linspace(args.kmin, args.kmax, args.n)
    table = k_sweep(kernel, grid, config)
    _commit(args, {"sweep": (args.out, table.to_csv_text())})
    return 0


def _cmd_classify(args) -> int:
    kernel = load_kernel(args.kernel)
    report = check_symmetries(kernel, tol=args.tol)
    devices = allowed_devices(report)
    relations = predicted_amplitude_relations(report)
    doc = {
        "residuals": {c: report.residuals[c] for c in report.residuals},
        "verdicts": {c: bool(report.verdicts[c]) for c in report.verdicts},
        "allowed_devices": {c: v.allowed for c, v in devices.items()},
        "forbidden_by": {c: list(v.forbidden_by) for c, v in devices.items()},
        "predicted_relations": [
            {"symmetry": r.symmetry, "relation": r.description,
             "condition": r.condition}
            for r in relations
        ],
    }
    _commit(args, {"report": (args.out, dumps_json(doc))})
    return 0


def _design_result_doc(result: DesignResult) -> dict:
    cl, cr = result.wave_coeffs
    return {
        "device": result.spec.code,
        "constraint": result.spec.constraint,
        "k0": result.spec.k0,
        "targets": [complex_pair(t) for t in result.spec.targets],
        "verified": amplitudes_to_dict(result.verification),
        "residual": result.residual,
        "design_residual": result.design_residual,
        "wave_coeffs_left": [complex_pair(c) for c in cl],
        "wave_coeffs_right": [complex_pair(c) for c in cr],
        "kernel": kernel_to_dict(result.kernel),
    }


def _cmd_design(args) -> int:
    _check_count("--verify-points", args.verify_points)
    spec = DeviceSpec(code=_DEVICE_FLAGS[args.device], k0=args.k0,
                      constraint=args.constraint)
    result = design_device(spec, seed=args.seed)
    table = verify_design(result, n_points=args.verify_points)
    verify_path = str(Path(args.out).with_suffix("")) + ".verify.csv"
    _commit(args, {"verify": (verify_path, table.to_csv_text()),
                   "kernel": (args.out, result.kernel)},
            stdout=dumps_json(_design_result_doc(result)))
    return 0


def _cmd_born_design(args) -> int:
    grid = _parse_grid(args.sweep) if args.sweep else None
    if args.tune:
        alpha = tune_alpha(args.epsilon, args.kref, window=args.window)
    else:
        alpha = args.alpha
    pot = design_broadband_reflector(alpha, args.epsilon, d=args.window)
    doc = {
        "alpha": alpha,
        "alpha_times_4pi": alpha * 4.0 * np.pi,
        "epsilon": args.epsilon,
        "window": args.window,
        "tuned": bool(args.tune),
    }
    outputs = {}
    if grid is not None:
        config = reflector_config(args.epsilon, window=args.window,
                                  k_max=float(np.max(grid)))
        table = k_sweep(pot, grid, config)
        born = born_prediction(pot, float(grid[0]))
        doc["born_at_kmin"] = {
            "Rl": complex_pair(born.Rl),
            "Rr": complex_pair(born.Rr),
            "T_abs2": born.T_abs2,
        }
        sweep_path = str(Path(args.out).with_suffix("")) + ".sweep.csv"
        outputs["sweep"] = (sweep_path, table.to_csv_text())
    outputs["kernel"] = (args.out, pot)
    _commit(args, outputs, stdout=dumps_json(doc))
    return 0


def _cmd_verify(args) -> int:
    if not 0 < args.tol < np.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
    _check_count("--n", args.n)
    kernel = load_kernel(args.kernel)
    config = _solver_config(args)
    report = check_symmetries(kernel, tol=args.sym_tol)
    relations = predicted_amplitude_relations(report)
    grid = np.linspace(args.kmin, args.kmax, args.n)
    failures = []
    residuals = []
    for k in grid:
        amps = scatter_all(kernel, float(k), config, include_adjoint=True)
        unit = generalized_unitarity_residuals(amps)
        if np.max(unit) > args.tol:
            failures.append(f"generalized unitarity residual {np.max(unit):.3e} at k={k:.6g}")
        for rel in relations:
            res = rel.residual(amps)
            residuals.append(float(res))
            if res > args.tol:
                failures.append(
                    f"symmetry {rel.symmetry} relation {rel.description!r} "
                    f"residual {res:.3e} at k={k:.6g}"
                )
    if args.claim and not report.verdicts[args.claim]:
        failures.append(
            f"kernel does not satisfy claimed symmetry {args.claim} "
            f"(residual {report.residuals[args.claim]:.3e})"
        )
    doc = {
        "verdicts": {c: bool(v) for c, v in report.verdicts.items()},
        "n_checks": len(residuals),
        "n_unitarity_checks": len(grid),
        "max_relation_residual": max(residuals, default=0.0),
        "failures": failures,
    }
    _commit(args, {"report": (args.out, dumps_json(doc))})
    if failures:
        raise VerificationError(f"{len(failures)} verification check(s) failed", failures)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code this CLI gives
    numerical failures; usage errors are input errors and exit 1.
    ``--help`` and ``--version`` still exit 0."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  An argument ``@FILE`` stands for the lines of
    FILE, one argument per line, read in its place."""
    parser = _Parser(
        prog="asymscat",
        description="1D scattering by complex nonlocal potentials: solve, "
                    "classify Klein-group symmetries, design asymmetric devices.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=f"asymscat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help: str, func):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p.add_argument

    add = subcommand("solve", "amplitudes at one momentum", _cmd_solve)
    add("--kernel", required=True, help="kernel JSON file")
    add("--k", type=float, required=True, help="incident momentum k*d")
    add("--adjoint", action="store_true", help="also solve H† and report unitarity")
    _add_solver_flags(add)
    add("--out", default=None)

    add = subcommand("sweep", "amplitudes over a momentum grid (CSV)", _cmd_sweep)
    add("--kernel", required=True)
    add("--kmin", type=float, required=True)
    add("--kmax", type=float, required=True)
    add("--n", type=int, required=True)
    _add_solver_flags(add)
    add("--out", default=None)

    add = subcommand("classify", "symmetry verdicts and allowed devices", _cmd_classify)
    add("--kernel", required=True)
    add("--tol", type=float, default=1e-9)
    add("--out", default=None)

    add = subcommand("design", "inverse-design a device kernel", _cmd_design)
    add("--device", choices=sorted(_DEVICE_FLAGS), required=True)
    add("--k0", type=float, default=1.0)
    add("--constraint", choices=tuple(CONSTRAINTS), default="none")
    add("--seed", type=int, default=0)
    add("--verify-points", type=int, default=21)
    add("--out", required=True, help="kernel JSON output path")

    add = subcommand("born-design", "broadband one-way reflector", _cmd_born_design)
    add("--alpha", type=float, default=1.0 / (4.0 * np.pi))
    add("--epsilon", type=float, required=True)
    add("--tune", action="store_true", help="bisect alpha against the exact solver")
    add("--kref", type=float, default=1.0)
    add("--window", type=float, default=4.0)
    add("--sweep", default=None, help="kmin:kmax:n sweep grid")
    add("--out", required=True, help="potential JSON output path")

    add = subcommand("verify", "unitarity + symmetry predicates over a grid", _cmd_verify)
    add("--kernel", required=True)
    add("--kmin", type=float, default=0.5)
    add("--kmax", type=float, default=2.0)
    add("--n", type=int, default=5)
    add("--tol", type=float, default=1e-8)
    add("--sym-tol", type=float, default=1e-9)
    add("--claim", choices=SYMMETRY_CODES[1:],
        default=None, help="assert the kernel satisfies this symmetry")
    _add_solver_flags(add)
    add("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (KernelFormatError, OSError, ForbiddenDeviceError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, DesignError, BracketingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        for item in exc.failures:
            print(f"  - {item}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
