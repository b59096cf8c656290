"""The JSON kernel file format.

A kernel file is the document ``json.dumps(kernel_to_dict(kernel),
sort_keys=True) + "\n"``, format 2.  Its ``format`` field holds 2, and
each complex array (``values``, ``coeffs``) is one standard base64
string of little-endian complex128 in C order; ``n`` and ``is_local``,
or ``imax`` and ``jmax``, give the shape.  The bytes are the doubles
themselves, so a kernel round-trips bit for bit, signed zeros and
subnormals included.  A file without a ``format`` field, or with any
other value, is rejected.

``sha256_path``, the file digest of run manifests, lives beside the
format.
"""
from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

from .errors import KernelFormatError
from .kernels import MAX_DEGREE, PolynomialKernel, RegularizedInverseSquare, SampledKernel

_FORMAT = 2
_COMPLEX128 = "<c16"


def _encode(values: np.ndarray) -> str:
    raw = np.asarray(values, dtype=_COMPLEX128).tobytes(order="C")
    return base64.b64encode(raw).decode("ascii")


def _decode(text: str, field: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise KernelFormatError(f"field {field!r} is not valid base64: {exc}") from exc
    if len(raw) % 16:
        raise KernelFormatError(
            f"field {field!r} holds {len(raw)} bytes, not a whole number of "
            f"16-byte complex128 entries")
    return _require_finite(np.frombuffer(raw, dtype=_COMPLEX128), field)


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


def _degree(data: dict, field: str) -> int:
    degree = _require(data, field, int)
    if not 0 <= degree <= MAX_DEGREE:
        raise KernelFormatError(f"field {field!r} must be between 0 and {MAX_DEGREE}, "
                                f"got {degree}")
    return degree


def kernel_to_dict(kernel) -> dict:
    if isinstance(kernel, SampledKernel):
        return {
            "format": _FORMAT,
            "type": "sampled",
            "d": kernel.d,
            "n": kernel.n,
            "is_local": bool(kernel.is_local),
            "values": _encode(kernel.values),
        }
    if isinstance(kernel, PolynomialKernel):
        return {
            "format": _FORMAT,
            "type": "polynomial",
            "d": kernel.d,
            "imax": kernel.imax,
            "jmax": kernel.jmax,
            "coeffs": _encode(kernel.coeffs),
        }
    if isinstance(kernel, RegularizedInverseSquare):
        return {
            "format": _FORMAT,
            "type": "inverse_square",
            "d": kernel.d,
            "alpha": kernel.alpha,
            "epsilon": kernel.epsilon,
        }
    raise TypeError(f"cannot serialize kernel of type {type(kernel).__name__}")


def kernel_from_dict(data: dict):
    if not isinstance(data, dict):
        raise KernelFormatError("kernel document must be a JSON object")
    version = _require(data, "format", int)
    if version != _FORMAT:
        raise KernelFormatError(f"field 'format' must be {_FORMAT}, got {version}")
    ktype = _require(data, "type", str)
    d = _scalar(data, "d")
    if d <= 0:
        raise KernelFormatError(f"field 'd' must be positive, got {d!r}")
    if ktype == "sampled":
        n = int(_require(data, "n", int))
        if n < 4:  # the cubic splines of SampledKernel need 4 points
            raise KernelFormatError(f"field 'n' must be at least 4, got {n}")
        is_local = bool(_require(data, "is_local", bool))
        values = _decode(_require(data, "values", str), "values")
        expected = n if is_local else n * n
        if values.size != expected:
            raise KernelFormatError(
                f"field 'values' holds {values.size} entries, expected {expected}"
            )
        grid = np.linspace(-d, d, n)
        shaped = values if is_local else values.reshape(n, n)
        return SampledKernel(grid, shaped, is_local=is_local)
    if ktype == "polynomial":
        coeffs = _decode(_require(data, "coeffs", str), "coeffs")
        imax, jmax = (_degree(data, field) for field in ("imax", "jmax"))
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


def save_kernel(kernel, path) -> None:
    """Write ``json.dumps(kernel_to_dict(kernel), sort_keys=True) + "\n"``
    to ``path``."""
    text = json.dumps(kernel_to_dict(kernel), sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def load_kernel(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise KernelFormatError(f"invalid JSON in kernel file: {exc}") from exc
    try:
        return kernel_from_dict(data)
    except ValueError as exc:
        raise KernelFormatError(str(exc)) from exc


def sha256_path(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
