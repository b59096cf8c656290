"""Inverse design of polynomial nonlocal kernels for all six asymmetric devices.

Strategy: assume degree-5 polynomials for the interior wavefunctions of
both incidence sides and a finite polynomial kernel V(x, y), insert them
in the stationary equation

    (k^2/2) psi(x) = -(1/2) psi''(x) + int_{-d}^{d} V(x, y) psi(y) dy,

and equate equal powers of x.  The kernel integral reduces to moments
M_j[psi] = int y^j psi(y) dy, so the power-matching equations are
bilinear in (v, c).  Plane-wave matching of value and derivative at
x = +-d pins eight of the twelve wavefunction coefficients (the target
amplitudes enter here), and V(+-d, y) = 0 keeps the total potential
continuous.  The remaining square-to-slightly-overdetermined system is
solved by damped least-squares (trust-region Gauss-Newton) on its exact
Jacobian, with a linear warm start for the kernel coefficients and
seeded restarts.  Because the residual is bilinear, its Jacobian is in
closed form: the wave block of each side is (v M - Beta) N and the
kernel block is the warm start's linear map (see
``_DesignProblem.jacobian``).  The kernel constraint modes are the
table ``CONSTRAINTS``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import null_space

from .errors import DesignError, ForbiddenDeviceError, VerificationError
from .kernels import PolynomialKernel, _is_real_number, transform_flags
from .solver import ScatteringAmplitudes, SolverConfig, SweepTable, k_sweep, scatter_all
from .symmetry import DEVICE_CODES, FORBIDDING_SYMMETRIES
from .units import HALF_WIDTH

PSI_DEGREE = 5

# Canonical target phases per device: (T^l, T^r, R^l, R^r).
DEFAULT_TARGETS = {
    "TR/A": (1.0, 0.0, -1.0, 0.0),
    "T/R": (1.0, 0.0, 0.0, -1.0),
    "T/A": (1.0, 0.0, 0.0, 0.0),
    "TR/R": (1.0, 0.0, -1.0, -1.0),
    "TR/T": (1.0, -1.0, -1.0, 0.0),
    "R/A": (0.0, 0.0, -1.0, 0.0),
}

# Kernel constraint modes: (symmetry code that fixes the kernel, shape of
# v_ij, coefficients held at 0).  none: all v_ij free; viii: v_ij =
# (-1)^{i+j} v_ji; pt: v_ij real for i+j even, imaginary for i+j odd.
CONSTRAINTS = {
    "none": ("I", (6, 2), ()),
    "viii": ("VIII", (6, 6), ((4, 4), (4, 5), (5, 4), (5, 5))),
    "pt": ("VII", (6, 2), ()),
}

# Residual evaluations per restart.  On the exact Jacobian converged
# restarts take tens of evaluations, while a restart stuck in a nonzero
# local minimum creeps on for thousands; this stops those without
# cutting any restart that converges.
_MAX_NFEV = 1000

# A design is accepted when the max |residual| of its equations is at
# most this.
_DESIGN_RESIDUAL = 1e-9
_EPS = np.finfo(float).eps


def least_squares(*args, **kwargs):
    # scipy.optimize loads on first call; a plain def, because perfbench/tracing.py rebinds it
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


@dataclass(frozen=True)
class DeviceSpec:
    """A device code, its design momentum and its kernel constraint mode.

    ``targets`` is the code's canonical amplitude quadruple,
    ``DEFAULT_TARGETS[code]``."""

    code: str
    k0: float = 1.0 / HALF_WIDTH
    constraint: str = "none"

    def __post_init__(self):
        if self.code not in DEVICE_CODES:
            raise ValueError(f"unknown device code {self.code!r}; expected one of {DEVICE_CODES}")
        if self.constraint not in CONSTRAINTS:
            raise ValueError(f"constraint must be one of {tuple(CONSTRAINTS)}, "
                             f"got {self.constraint!r}")
        # the design equations hold k0**2 / 2, whose rounding error alone
        # must stay within the accepted residual: k0 up to about 3.0e3
        k0 = self.k0
        if not (_is_real_number(k0) and 0 < k0 and k0 * k0 / 2 * _EPS <= _DESIGN_RESIDUAL):
            raise ValueError(f"design momentum k0 must be positive and finite, at most "
                             f"{np.sqrt(2 * _DESIGN_RESIDUAL / _EPS):.4g}, got {k0!r}")
        symmetry = CONSTRAINTS[self.constraint][0]
        if symmetry in FORBIDDING_SYMMETRIES[self.code]:
            raise ForbiddenDeviceError(self.code, symmetry)

    @property
    def targets(self) -> tuple[complex, complex, complex, complex]:
        """(T^l, T^r, R^l, R^r) at k0."""
        return tuple(complex(t) for t in DEFAULT_TARGETS[self.code])


@dataclass(frozen=True)
class Restart:
    """One trust-region run of a design: its final max |residual|, the
    residual and Jacobian evaluations it took, the Frobenius norm of its
    kernel coefficients, and whether the design selected it."""

    residual: float
    nfev: int
    njev: int
    kernel_norm: float
    chosen: bool = False


@dataclass(frozen=True)
class DesignResult:
    """A designed kernel together with its interior wavefunctions, the
    forward-solver verification at k0 and the restart trace."""

    kernel: PolynomialKernel
    wave_coeffs: tuple[np.ndarray, np.ndarray]
    verification: ScatteringAmplitudes
    residual: float
    design_residual: float
    spec: DeviceSpec
    restarts: tuple[Restart, ...] = ()


def _boundary_rows() -> np.ndarray:
    j = np.arange(PSI_DEGREE + 1)
    d = HALF_WIDTH
    rows = np.zeros((4, PSI_DEGREE + 1), dtype=complex)
    rows[0] = (-d) ** j
    rows[1, 1:] = j[1:] * (-d) ** (j[1:] - 1)
    rows[2] = d**j
    rows[3, 1:] = j[1:] * d ** (j[1:] - 1)
    return rows


def _boundary_values(k: float, targets) -> np.ndarray:
    """Value and slope at x = -d and x = d of each incidence side's
    exterior wave, one column per side."""
    Tl, Tr, Rl, Rr = targets
    up, dn = np.exp(1j * k * HALF_WIDTH), np.exp(-1j * k * HALF_WIDTH)

    def left(T, R):  # psi = e^{ikx} + R e^{-ikx} (x < -d),  T e^{ikx} (x > d)
        return np.array([dn + R * up, 1j * k * (dn - R * up), T * up, 1j * k * T * up])

    # right incidence is the parity image x -> -x: the edges swap, the slopes change sign
    return np.stack([left(Tl, Rl), left(Tr, Rr)[[2, 3, 0, 1]] * np.array([1, -1, 1, -1])], 1)


def _even_moments(n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    mu = 2.0 * HALF_WIDTH ** (n + 1) / (n + 1)
    mu[n % 2 == 1] = 0.0
    return mu


def _kernel_basis(constraint: str) -> tuple[tuple[int, int], np.ndarray]:
    """The kernel coefficients of one constraint mode as a real-linear map
    of a flat real vector u: ``(E @ u).reshape(shape)``, with E a complex
    matrix whose columns are the unit coefficient patterns.

    The mode's transform sends v_ij to s conj?(v_ij) at its image, (j, i)
    if it transposes, with s = (-1)^{i+j} if it flips.  A column puts a
    unit 1 or i at (i, j) and its transform at the image; an entry that is
    its own image keeps the units the transform fixes.  The unit-1 columns
    come first, each set in row-major order."""
    code, shape, mask = CONSTRAINTS[constraint]
    flip, transpose, conj = transform_flags(code)
    columns = []
    for unit in (1.0, 1j):
        for i, j in np.ndindex(*shape):
            image = (j, i) if transpose else (i, j)
            twin = ((-1.0) ** (i + j) if flip else 1.0) * (np.conj(unit) if conj else unit)
            if (i, j) in mask or image < (i, j) or (image == (i, j) and twin != unit):
                continue
            column = np.zeros(shape, dtype=complex)
            column[image] = twin
            column[i, j] = unit
            columns.append(column.ravel())
    return shape, np.stack(columns, axis=1)


class _DesignProblem:
    def __init__(self, spec: DeviceSpec):
        k = spec.k0
        self.shape, self.E = _kernel_basis(spec.constraint)
        B = _boundary_rows()
        # one particular wave per incidence side
        parts = np.linalg.lstsq(B, _boundary_values(k, spec.targets), rcond=None)[0]
        self.parts = tuple(parts.T)
        self.null = null_space(B)  # (6, 2)
        self.n_free = self.null.shape[1]
        jmax = self.shape[1] - 1
        mu = _even_moments(PSI_DEGREE + jmax)  # M[j, m] = mu[j + m]
        self.mmat = mu[np.add.outer(np.arange(jmax + 1), np.arange(PSI_DEGREE + 1))]
        self.n_c_real = 2 * len(self.parts) * self.n_free  # re/im for each side
        # E as (i, j, m) = d v_ij / d u_m
        self.e3 = self.E.reshape(*self.shape, self.E.shape[1])
        # Beta c = (k^2/2) c + the coefficients of -psi''/2
        self.beta = 0.5 * k**2 * np.eye(PSI_DEGREE + 1)
        i = np.arange(PSI_DEGREE - 1)
        self.beta[i, i + 2] = 0.5 * (i + 1) * (i + 2)
        # V(+-d, y) = 0: rows linear in the kernel parameters alone
        self.edge_block = np.concatenate([
            np.einsum("ijm,i->jm", self.e3, edge ** np.arange(self.shape[0]))
            for edge in (HALF_WIDTH, -HALF_WIDTH)])

    def unpack(self, u_v: np.ndarray) -> np.ndarray:
        """The kernel coefficients of the real parameter vector u_v."""
        return (self.E @ u_v).reshape(self.shape)

    def waves(self, u_c: np.ndarray) -> list[np.ndarray]:
        """The wave coefficients of each side: its particular wave plus the
        null space times the side's re/im block of u_c."""
        a = u_c.reshape(len(self.parts), 2, -1)
        return [part + self.null @ x for part, x in zip(self.parts, a[:, 0] + 1j * a[:, 1])]

    def residuals(self, u: np.ndarray) -> np.ndarray:
        """Real and imaginary parts of the power-matching rows of each
        side, (v M - Beta) c, followed by the edge rows."""
        u_v = u[self.n_c_real :]
        L = self.unpack(u_v) @ self.mmat - self.beta
        block = np.concatenate([L @ c for c in self.waves(u[: self.n_c_real])]
                               + [self.edge_block @ u_v])
        return np.concatenate([block.real, block.imag])

    def _kernel_block(self, waves: list[np.ndarray]) -> np.ndarray:
        """d(power-matching rows of each side)/du_v; linear in the waves."""
        return np.concatenate([np.einsum("ijm,j->im", self.e3, self.mmat @ c) for c in waves])

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """Exact Jacobian of ``residuals``.

        Each complex residual row is real-linear in every block of u, so
        the derivative is one complex matrix J, and the real Jacobian
        stacks its real and imaginary parts.  The wave block of a side is
        (v M - Beta) N for the real parts of its null-space coefficients
        and i times that for the imaginary parts."""
        nf, nc, n = self.n_free, self.n_c_real, self.shape[0]
        waves = self.waves(u[:nc])
        wave = (self.unpack(u[nc:]) @ self.mmat - self.beta) @ self.null
        power = n * len(waves)
        J = np.zeros((power + self.edge_block.shape[0], u.size), dtype=complex)
        for side in range(len(waves)):
            rows, col = slice(n * side, n * side + n), 2 * nf * side
            J[rows, col : col + nf] = wave
            J[rows, col + nf : col + 2 * nf] = 1j * wave
        J[:power, nc:] = self._kernel_block(waves)
        J[power:, nc:] = self.edge_block
        return np.concatenate([J.real, J.imag])

    def warm_start_v(self, waves: list[np.ndarray]) -> np.ndarray:
        """Least-squares solve of the power-matching rows for v with the
        wavefunctions held fixed (the rows are linear in v)."""
        A = self._kernel_block(waves)
        b = np.concatenate([self.beta @ c for c in waves])
        return np.linalg.lstsq(np.concatenate([A.real, A.imag]),
                               np.concatenate([b.real, b.imag]), rcond=None)[0]

    def solve(self, seed: int, restarts: int):
        """Run every restart; return the selected solution vector, its max
        |residual| and the restart trace.

        Converged candidates are ranked by kernel norm (least-norm
        selection), the rest by residual."""
        rng = np.random.default_rng(seed)
        xs, trace = [], []
        for attempt in range(restarts + 1):
            u_c = rng.normal(scale=1.0, size=self.n_c_real) if attempt else np.zeros(self.n_c_real)
            u_v = self.warm_start_v(self.waves(u_c))
            if attempt > 0:
                u_v = u_v + rng.normal(scale=0.2, size=u_v.size)
            u0 = np.concatenate([u_c, u_v])
            # trf rather than lm: bit-reproducible across repeated calls
            # (the MINPACK driver carries call-to-call state)
            sol = least_squares(self.residuals, u0, jac=self.jacobian, method="trf", xtol=1e-15,
                                ftol=1e-15, gtol=1e-15, max_nfev=_MAX_NFEV)
            knorm = float(np.linalg.norm(self.unpack(sol.x[self.n_c_real :])))
            xs.append(sol.x)
            trace.append(Restart(float(np.max(np.abs(sol.fun))), int(sol.nfev),
                                 int(sol.njev), knorm))

        def rank(r: Restart):
            converged = r.residual <= 1e-11
            return (0, r.kernel_norm, r.residual) if converged else (1, r.residual, r.kernel_norm)

        best = min(range(len(trace)), key=lambda n: rank(trace[n]))
        trace = tuple(replace(r, chosen=n == best) for n, r in enumerate(trace))
        return xs[best], trace[best].residual, trace


def _check_integer(name: str, value, least: int) -> None:
    # numpy's errors would name no parameter, and a bool is no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def design_device(spec: DeviceSpec, seed: int = 0, restarts: int = 16) -> DesignResult:
    """Find a polynomial kernel realizing ``spec.targets`` at k0.

    The returned kernel is verified with an independent forward solve
    (801-point Simpson); a residual above 1e-6 per amplitude raises
    DesignError.  Designs a symmetry forbids are rejected when the spec
    is built (``DeviceSpec`` raises ForbiddenDeviceError), and so is a
    k0 above about 3.0e3, where the rounding error of k0**2 / 2 alone
    exceeds the 1e-9 residual a design must reach (ValueError).  A seed
    or restarts that is not an integer of at least 0 raises ValueError.
    """
    _check_integer("seed", seed, 0)
    _check_integer("restarts", restarts, 0)
    problem = _DesignProblem(spec)
    u, design_residual, trace = problem.solve(seed, restarts)
    if design_residual > _DESIGN_RESIDUAL:
        raise DesignError(
            f"design for {spec.code} (constraint {spec.constraint}) did not "
            f"converge after {restarts} restarts",
            best_residual=design_residual, restarts=trace,
        )
    waves = tuple(problem.waves(u[: problem.n_c_real]))
    kernel = PolynomialKernel(problem.unpack(u[problem.n_c_real :]))
    amps = scatter_all(kernel, spec.k0, SolverConfig(n_grid=801, quadrature="simpson"))
    residual = float(np.max(np.abs(np.array(amps.quadruple) - np.array(spec.targets))))
    if residual > 1e-6:
        raise DesignError(
            f"designed kernel for {spec.code} fails forward verification "
            f"(max amplitude deviation {residual:.3e})",
            best_residual=residual, restarts=trace,
        )
    return DesignResult(kernel, waves, amps, residual, design_residual, spec, trace)


def verify_design(result: DesignResult, n_points: int = 41) -> SweepTable:
    """Sweep the designed kernel across [0.8*k0, 1.2*k0].

    The sweep uses 401-point Simpson quadrature.  Asserts the targets
    are met to 1e-6 at k0 (which replaces the grid points within 1e-12
    of it, or is inserted into the grid) and that the scattering
    coefficients vary continuously: adjacent-row jumps must stay below
    15 times the largest grid step, so the check tightens as the sweep
    refines.  Returns the sweep table; an n_points that is not an
    integer of at least 1 raises ValueError.
    """
    _check_integer("n_points", n_points, 1)
    k0 = result.spec.k0
    ks = np.linspace(0.8 * k0, 1.2 * k0, n_points)
    ks = np.sort(np.append(ks[np.abs(ks - k0) >= 1e-12], k0))
    table = k_sweep(result.kernel, ks, SolverConfig(n_grid=401, quadrature="simpson"))
    at_k0 = next(row for row in table.rows if abs(row.k - k0) < 1e-12)
    if at_k0.amps is None:
        raise VerificationError(f"solver failed at k0: {at_k0.error}")
    dev = float(np.max(np.abs(np.array(at_k0.amps.quadruple) - np.array(result.spec.targets))))
    if dev > 1e-6:
        raise VerificationError(f"device {result.spec.code} misses its targets at k0 by {dev:.3e}")
    jump_tol = 15.0 * float(np.max(np.diff(ks)))
    for name in ("abs2_Tl", "abs2_Tr", "abs2_Rl", "abs2_Rr"):
        col = table.column(name)
        if np.any(~np.isfinite(col)):
            raise VerificationError(f"solver failure inside the sweep window ({name})")
        if np.max(np.abs(np.diff(col))) > jump_tol:
            raise VerificationError(
                f"coefficient {name} jumps by more than {jump_tol} between "
                f"adjacent sweep points"
            )
    return table
