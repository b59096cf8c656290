"""Exception types raised across the package.

Numerical failures are deliberately loud: a singular scattering system or
a diverging adjoint amplitude is physics (an exceptional configuration),
not something to paper over with NaNs.
"""


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
