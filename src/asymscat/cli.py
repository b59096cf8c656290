"""Command-line surface: solve, sweep, classify, design, born-design,
verify.

Outputs are deterministic (all randomness seeded, no timestamps), so CI
can byte-compare repeated runs.  Exit codes: 0 success, 1 input error,
2 numerical failure, 3 verification failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .born import born_prediction, design_broadband_reflector, reflector_config, tune_alpha
from .design import DesignResult, DeviceSpec, design_device, verify_design
from .errors import (
    AdjointDivergenceError,
    BracketingError,
    DesignError,
    ForbiddenDeviceError,
    KernelFormatError,
    SingularSystemError,
    VerificationError,
)
from .kernel_io import (
    amplitudes_to_dict,
    build_manifest,
    complex_pair,
    dumps_json,
    kernel_to_dict,
    load_kernel,
    save_kernel,
    sha256_path,
)
from .solver import (
    SolverConfig,
    generalized_unitarity_residuals,
    k_sweep,
    scatter_all,
)
from .symmetry import (
    allowed_devices,
    check_symmetries,
    predicted_amplitude_relations,
)

_DEVICE_FLAGS = {"tra": "TR/A", "tr": "T/R", "ta": "T/A", "trr": "TR/R", "trt": "TR/T"}


def _solver_config(args) -> SolverConfig:
    return SolverConfig(n_grid=args.n_grid, quadrature=args.quadrature)


def _add_solver_flags(add) -> None:
    add("--n-grid", type=int, default=401, help="quadrature points across [-d, d]")
    add("--quadrature", choices=("trapezoid", "simpson"), default="trapezoid")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _emit_manifest(command: str, args, inputs: dict, outputs: dict) -> None:
    out = getattr(args, "out", None)
    if out is None:
        return
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "config") and not callable(value)
    }
    manifest = build_manifest(command, flags, __version__,
                              {k: sha256_path(v) for k, v in inputs.items()},
                              {k: sha256_path(v) for k, v in outputs.items()})
    Path(str(out) + ".manifest.json").write_text(dumps_json(manifest), encoding="utf-8")


def _cmd_solve(args) -> int:
    kernel = load_kernel(args.kernel)
    config = _solver_config(args)
    amps = scatter_all(kernel, args.k, config, include_adjoint=args.adjoint)
    unitarity = generalized_unitarity_residuals(amps) if args.adjoint else None
    text = dumps_json(amplitudes_to_dict(amps, unitarity))
    _write_output(text, args.out)
    if args.out:
        _emit_manifest("solve", args, {"kernel": args.kernel}, {"amplitudes": args.out})
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        grid = np.linspace(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise KernelFormatError(f"bad grid spec {spec!r}; expected kmin:kmax:n") from exc
    return grid


def _cmd_sweep(args) -> int:
    kernel = load_kernel(args.kernel)
    config = _solver_config(args)
    grid = np.linspace(args.kmin, args.kmax, args.n)
    table = k_sweep(kernel, grid, config)
    _write_output(table.to_csv_text(), args.out)
    if args.out:
        _emit_manifest("sweep", args, {"kernel": args.kernel}, {"sweep": args.out})
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
    _write_output(dumps_json(doc), args.out)
    if args.out:
        _emit_manifest("classify", args, {"kernel": args.kernel}, {"report": args.out})
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
    spec = DeviceSpec(code=_DEVICE_FLAGS[args.device], k0=args.k0,
                      constraint=args.constraint)
    result = design_device(spec, seed=args.seed)
    save_kernel(result.kernel, args.out)
    lo, hi = 0.8 * args.k0, 1.2 * args.k0
    table = verify_design(result, (lo, hi), n_points=args.verify_points)
    verify_path = str(Path(args.out).with_suffix("")) + ".verify.csv"
    table.write_csv(verify_path)
    sys.stdout.write(dumps_json(_design_result_doc(result)))
    _emit_manifest("design", args, {}, {"kernel": args.out, "verify": verify_path})
    return 0


def _cmd_born_design(args) -> int:
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
    save_kernel(pot, args.out)
    outputs["kernel"] = args.out
    if args.sweep:
        grid = _parse_grid(args.sweep)
        config = reflector_config(args.epsilon, window=args.window,
                                  k_max=float(np.max(grid)))
        table = k_sweep(pot, grid, config)
        sweep_path = str(Path(args.out).with_suffix("")) + ".sweep.csv"
        table.write_csv(sweep_path)
        outputs["sweep"] = sweep_path
        born = born_prediction(pot, float(grid[0]))
        doc["born_at_kmin"] = {
            "Rl": complex_pair(born.Rl),
            "Rr": complex_pair(born.Rr),
            "T_abs2": born.T_abs2,
        }
    sys.stdout.write(dumps_json(doc))
    _emit_manifest("born-design", args, {}, outputs)
    return 0


def _cmd_verify(args) -> int:
    kernel = load_kernel(args.kernel)
    config = _solver_config(args)
    report = check_symmetries(kernel, tol=args.sym_tol)
    relations = predicted_amplitude_relations(report)
    grid = np.linspace(args.kmin, args.kmax, args.n)
    failures = []
    checks = []
    for k in grid:
        amps = scatter_all(kernel, float(k), config, include_adjoint=True)
        unit = generalized_unitarity_residuals(amps)
        if np.max(unit) > args.tol:
            failures.append(f"generalized unitarity residual {np.max(unit):.3e} at k={k:.6g}")
        for rel in relations:
            res = rel.residual(amps)
            checks.append({"k": float(k), "symmetry": rel.symmetry,
                           "relation": rel.description, "residual": float(res)})
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
        "n_checks": len(checks),
        "max_relation_residual": max((c["residual"] for c in checks), default=0.0),
        "failures": failures,
    }
    _write_output(dumps_json(doc), args.out)
    if failures:
        raise VerificationError(f"{len(failures)} verification check(s) failed", failures)
    return 0


_BOOLEAN_WORDS = {"true": True, "yes": True, "on": True, "1": True,
                  "false": False, "no": False, "off": False, "0": False}


def _config_value(action: argparse.Action, key: str, value: str):
    """Convert one config value the way the command line would."""
    if action.nargs == 0:
        # on/off flags: the value is the flag's state, not a string
        try:
            return _BOOLEAN_WORDS[value.lower()]
        except KeyError:
            raise KernelFormatError(
                f"config key {key!r} takes true or false, got {value!r}") from None
    return action.type(value) if action.type else value


def _apply_config_file(argv: list[str], options: dict[str, list]) -> list[str]:
    """--config FILE holds key=value lines that become parser defaults.

    Keys are option names of any subcommand (dashes or underscores);
    ``options`` maps each name to its (subcommand parser, action) pairs,
    as ``build_parser`` collects them.  Unknown keys and non-boolean
    values for on/off flags are input errors.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise KernelFormatError("--config needs a file path")
    overrides = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise KernelFormatError(f"bad config line {line!r}; expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        overrides[key.replace("-", "_")] = value
    unknown = sorted(set(overrides) - set(options))
    if unknown:
        raise KernelFormatError(f"unknown config key(s): {', '.join(unknown)}")
    for key, value in overrides.items():
        for sub, action in options[key]:
            sub.set_defaults(**{key: _config_value(action, key, value)})
    return argv[:idx] + argv[idx + 2:]


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, list]]:
    """The argument parser, and for each option name (argparse ``dest``)
    the (subcommand parser, action) pairs that ``--config`` may set."""
    parser = argparse.ArgumentParser(
        prog="asymscat",
        description="1D scattering by complex nonlocal potentials: solve, "
                    "classify Klein-group symmetries, design asymmetric devices.",
    )
    parser.add_argument("--version", action="version", version=f"asymscat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    options: dict[str, list] = {}

    def subcommand(name: str, help: str, func):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)

        def add(*flags, **kwargs):
            action = p.add_argument(*flags, **kwargs)
            options.setdefault(action.dest, []).append((p, action))

        return add

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
    add("--constraint", choices=("none", "viii", "pt"), default="none")
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
    add("--claim", choices=("II", "III", "IV", "V", "VI", "VII", "VIII"),
        default=None, help="assert the kernel satisfies this symmetry")
    _add_solver_flags(add)
    add("--out", default=None)

    return parser, options


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, options = build_parser()
    try:
        argv = _apply_config_file(argv, options)
        args = parser.parse_args(argv)
        return args.func(args)
    except (KernelFormatError, FileNotFoundError, ForbiddenDeviceError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, AdjointDivergenceError, DesignError, BracketingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        for item in exc.failures:
            print(f"  - {item}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
