"""The JSON kernel file format.

Complex numbers are stored as [re, im] pairs of IEEE-754 doubles;
serialization goes through Python's shortest-repr float printing, so a
kernel round-trips bit-exactly through its JSON file.

A kernel file is the document ``json.dumps(kernel_to_dict(kernel),
sort_keys=True) + "\n"``.  Without ``indent`` the json module encodes
in C; files in the older ``indent=2`` layout hold the same values and
load bit for bit.

``save_kernel`` and ``load_kernel`` run with the cyclic garbage
collector paused.  A 401 x 401 kernel is 160,801 pair lists; allocating
them sets off full collections that find nothing to free, since a
parsed JSON document, like the dict written, is a tree: reference
counting frees all of it.  Anything cyclic made meanwhile waits for
the next collection after the caller's collector state is restored.

Two helpers live beside the format: ``complex_pair``, the [re, im]
encoding that the CLI's reports share with kernel files, and
``sha256_path``, the file digest of run manifests.
"""
from __future__ import annotations

import gc
import hashlib
import json
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import KernelFormatError
from .kernels import PolynomialKernel, RegularizedInverseSquare, SampledKernel


def _pairs(values: np.ndarray) -> list:
    flat = np.asarray(values, dtype=complex).ravel()
    return np.stack([flat.real, flat.imag], axis=1).tolist()


def _unpairs(pairs, field: str) -> np.ndarray:
    # a float dtype would read true as 1.0 and "1.5" as 1.5; the entries
    # are checked flat, where map and set run at C speed
    try:
        lengths = set(map(len, pairs))
        flat = list(chain.from_iterable(pairs))
    except TypeError as exc:
        raise KernelFormatError(f"field {field!r} is not a list of [re, im] pairs") from exc
    if lengths != {2}:
        raise KernelFormatError(f"field {field!r} must hold [re, im] pairs")
    wrong = set(map(type, flat)) - {float, int}
    if wrong:
        name = min(t.__name__ for t in wrong)
        raise KernelFormatError(f"field {field!r} has wrong type {name}")
    try:
        arr = np.array(flat, dtype=float).reshape(-1, 2)
    except OverflowError as exc:  # an integer literal beyond the double range
        raise KernelFormatError(f"field {field!r} must be finite") from exc
    _require_finite(arr, field)
    # re + 1j * im can turn a -0.0 in either part into +0.0
    return arr.view(complex)[:, 0]


def _require_finite(value, field: str):
    # json.load accepts NaN and Infinity
    if not np.all(np.isfinite(value)):
        raise KernelFormatError(f"field {field!r} must be finite")
    return value


def _require(data: dict, field: str, kind=None):
    if field not in data:
        raise KernelFormatError(f"missing required field {field!r}")
    value = data[field]
    # bool is a subclass of int, but true is no number
    if kind is not None and (not isinstance(value, kind)
                             or isinstance(value, bool) and kind is not bool):
        raise KernelFormatError(f"field {field!r} has wrong type {type(value).__name__}")
    return value


def _scalar(data: dict, field: str) -> float:
    try:
        value = float(_require(data, field, (int, float)))
    except OverflowError as exc:  # an integer literal beyond the double range
        raise KernelFormatError(f"field {field!r} must be finite") from exc
    return _require_finite(value, field)


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
    d = _scalar(data, "d")
    if d <= 0:
        raise KernelFormatError(f"field 'd' must be positive, got {d!r}")
    if ktype == "sampled":
        n = int(_require(data, "n", int))
        if n < 4:  # the cubic splines of SampledKernel need 4 points
            raise KernelFormatError(f"field 'n' must be at least 4, got {n}")
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
        return RegularizedInverseSquare(alpha=_scalar(data, "alpha"),
                                        epsilon=_scalar(data, "epsilon"), d=d)
    raise KernelFormatError(f"unknown kernel type {ktype!r}")


@contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector for the block, then restore
    the state the caller had, also when the block raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def save_kernel(kernel, path) -> None:
    """Write ``json.dumps(kernel_to_dict(kernel), sort_keys=True) + "\n"``
    to ``path``."""
    with _collector_paused():
        # the kernel dict is a tree, so the cycle check finds nothing
        text = json.dumps(kernel_to_dict(kernel), sort_keys=True, check_circular=False)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.write("\n")


def load_kernel(path):
    with _collector_paused():
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
    """``z`` as the [re, im] pair that kernel files and reports store."""
    return [float(np.real(z)), float(np.imag(z))]


def sha256_path(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
