"""Exception types raised across the package, and the checks of numeric
arguments.

Numerical failures are deliberately loud: a singular scattering system or
a diverging adjoint amplitude is physics (an exceptional configuration),
not something to paper over with NaNs.  So are bad arguments.  A real
argument is a finite Python or numpy int or float: a bool, complex, str,
None or an int beyond the double range is not; a count is such an int.
Each ``_check_*`` raises ValueError with a message that starts with the
parameter's name, and none converts the value it accepts; for an array
of such numbers, ``_real_array`` does both.
"""
import math

import numpy as np


def _is_finite_real(value) -> bool:
    # a bool is an int; math.isfinite overflows on an int beyond the double range
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_real(name: str, value) -> None:
    if not _is_finite_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}; "
                         f"expected a finite int or float")


def _check_positive(name: str, value) -> None:
    if not (_is_finite_real(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_count(name: str, value, least: int) -> None:
    if not (_is_finite_real(value) and isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _check_finite(name: str, array) -> None:
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite")


def _real_array(name: str, value, finite: bool = True, scalar: bool = False) -> np.ndarray:
    """``value`` as a new read-only float64 array of one dimension (or
    none, with ``scalar``) that holds no NaN, nor +-inf when ``finite``."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf":  # refuses bool, complex, str and object
        raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
    if a.ndim not in ((0, 1) if scalar else (1,)):
        raise ValueError(f"{name} must be {'a scalar or ' if scalar else ''}one-dimensional, "
                         f"got shape {a.shape}")
    a = np.array(a, dtype=float)
    if finite:
        _check_finite(name, a)
    elif np.any(np.isnan(a)):
        raise ValueError(f"{name} must not be NaN")
    a.flags.writeable = False
    return a


class AsymscatError(Exception):
    """Base class for all package-specific errors."""


class KernelFormatError(AsymscatError):
    """A kernel file or dictionary violates the JSON schema.

    The message names the offending field.
    """


class SingularSystemError(AsymscatError):
    """The discretized scattering system is not invertible at this k."""

    def __init__(self, k: float, rcond: float):
        self.k = k
        self.rcond = rcond
        super().__init__(
            f"scattering system non-invertible at k={k!r} "
            f"(reciprocal condition estimate {rcond:.3e})"
        )


class AdjointDivergenceError(AsymscatError):
    """T^l T^r - R^l R^r vanished: adjoint amplitudes diverge here."""

    def __init__(self, k: float, denominator: complex):
        self.k = k
        self.denominator = denominator
        super().__init__(
            f"adjoint amplitudes diverge at k={k!r}: "
            f"|T^l T^r - R^l R^r| = {abs(denominator):.3e} below tolerance"
        )


class ForbiddenDeviceError(AsymscatError):
    """The requested device is ruled out by the imposed symmetry."""

    def __init__(self, code: str, symmetry: str):
        self.code = code
        self.symmetry = symmetry
        super().__init__(
            f"device {code} is forbidden by symmetry {symmetry}; "
            f"no kernel satisfying the constraint can realize it"
        )


class DesignError(AsymscatError):
    """The inverse-design root find did not converge.

    ``restarts`` is the restart trace of the failed design (one
    ``design.Restart`` per trust-region run).
    """

    def __init__(self, message: str, best_residual: float, restarts: tuple):
        self.best_residual = best_residual
        self.restarts = restarts
        super().__init__(message)


class VerificationError(AsymscatError):
    """A verification check (unitarity, symmetry predicate, design target)
    exceeded its tolerance."""

    def __init__(self, message: str, failures: list | None = None):
        self.failures = failures or []
        super().__init__(message)


class BracketingError(AsymscatError):
    """A scalar root find could not bracket its target.

    Carries the scan trace (list of (parameter, value) pairs) for
    diagnosis.
    """

    def __init__(self, message: str, trace: list):
        self.trace = trace
        super().__init__(message)
