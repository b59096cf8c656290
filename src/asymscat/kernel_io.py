"""JSON kernel files, CSV sweep tables, and run manifests.

Complex numbers are stored as [re, im] pairs of IEEE-754 doubles;
serialization goes through Python's shortest-repr float printing, so a
kernel round-trips bit-exactly through its JSON file.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import KernelFormatError
from .kernels import PolynomialKernel, RegularizedInverseSquare, SampledKernel


def _pairs(values: np.ndarray) -> list:
    flat = np.asarray(values, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def _unpairs(pairs, field: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise KernelFormatError(f"field {field!r} is not a list of [re, im] pairs") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise KernelFormatError(f"field {field!r} must hold [re, im] pairs")
    _require_finite(arr, field)
    return arr[:, 0] + 1j * arr[:, 1]


def _require_finite(value, field: str):
    # json.load accepts NaN and Infinity
    if not np.all(np.isfinite(value)):
        raise KernelFormatError(f"field {field!r} must be finite")
    return value


def _require(data: dict, field: str, kind=None):
    if field not in data:
        raise KernelFormatError(f"missing required field {field!r}")
    value = data[field]
    if kind is not None and not isinstance(value, kind):
        raise KernelFormatError(f"field {field!r} has wrong type {type(value).__name__}")
    return value


def kernel_to_dict(kernel) -> dict:
    if isinstance(kernel, SampledKernel):
        return {
            "type": "sampled",
            "d": kernel.d,
            "n": kernel.n,
            "is_local": bool(kernel.is_local),
            "values": _pairs(kernel.values),
        }
    if isinstance(kernel, PolynomialKernel):
        return {
            "type": "polynomial",
            "d": kernel.d,
            "imax": kernel.imax,
            "jmax": kernel.jmax,
            "coeffs": _pairs(kernel.coeffs),
        }
    if isinstance(kernel, RegularizedInverseSquare):
        return {
            "type": "inverse_square",
            "d": kernel.d,
            "alpha": kernel.alpha,
            "epsilon": kernel.epsilon,
        }
    raise TypeError(f"cannot serialize kernel of type {type(kernel).__name__}")


def kernel_from_dict(data: dict):
    if not isinstance(data, dict):
        raise KernelFormatError("kernel document must be a JSON object")
    ktype = _require(data, "type", str)
    d = _require_finite(float(_require(data, "d", (int, float))), "d")
    if ktype == "sampled":
        n = int(_require(data, "n", int))
        is_local = bool(_require(data, "is_local", bool))
        values = _unpairs(_require(data, "values"), "values")
        expected = n if is_local else n * n
        if values.size != expected:
            raise KernelFormatError(
                f"field 'values' holds {values.size} entries, expected {expected}"
            )
        grid = np.linspace(-d, d, n)
        shaped = values if is_local else values.reshape(n, n)
        return SampledKernel(grid, shaped, is_local=is_local)
    if ktype == "polynomial":
        imax = int(_require(data, "imax", int))
        jmax = int(_require(data, "jmax", int))
        coeffs = _unpairs(_require(data, "coeffs"), "coeffs")
        expected = (imax + 1) * (jmax + 1)
        if coeffs.size != expected:
            raise KernelFormatError(
                f"field 'coeffs' holds {coeffs.size} entries, expected {expected}"
            )
        return PolynomialKernel(coeffs.reshape(imax + 1, jmax + 1), d=d)
    if ktype == "inverse_square":
        alpha = _require_finite(float(_require(data, "alpha", (int, float))), "alpha")
        epsilon = _require_finite(float(_require(data, "epsilon", (int, float))), "epsilon")
        return RegularizedInverseSquare(alpha=alpha, epsilon=epsilon, d=d)
    raise KernelFormatError(f"unknown kernel type {ktype!r}")


def save_kernel(kernel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(kernel_to_dict(kernel), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_kernel(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise KernelFormatError(f"invalid JSON in kernel file: {exc}") from exc
    try:
        return kernel_from_dict(data)
    except ValueError as exc:
        raise KernelFormatError(str(exc)) from exc


def complex_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def amplitudes_to_dict(amps, unitarity=None) -> dict:
    out = {
        "k": amps.k,
        "Tl": complex_pair(amps.Tl),
        "Tr": complex_pair(amps.Tr),
        "Rl": complex_pair(amps.Rl),
        "Rr": complex_pair(amps.Rr),
        "abs2": {
            "Tl": abs(amps.Tl) ** 2,
            "Tr": abs(amps.Tr) ** 2,
            "Rl": abs(amps.Rl) ** 2,
            "Rr": abs(amps.Rr) ** 2,
        },
    }
    if amps.hatted is not None:
        out["hatted"] = {
            "Tl": complex_pair(amps.hatted.Tl),
            "Tr": complex_pair(amps.hatted.Tr),
            "Rl": complex_pair(amps.hatted.Rl),
            "Rr": complex_pair(amps.hatted.Rr),
        }
    if unitarity is not None:
        out["unitarity_residuals"] = [float(r) for r in unitarity]
    return out


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_path(path) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def build_manifest(command: str, flags: dict, version: str,
                   inputs: dict, outputs: dict) -> dict:
    """Reproducibility record: identical manifests imply bit-identical
    outputs (all randomness is seeded, nothing depends on time)."""
    return {
        "command": command,
        "flags": flags,
        "version": version,
        "input_digests": inputs,
        "output_digests": outputs,
    }
