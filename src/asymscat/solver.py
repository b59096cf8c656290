"""Exact scattering amplitudes for complex, generally nonlocal kernels.

The primary path discretizes the Lippmann-Schwinger equation

    psi(x) = phi(x) + int dx' G0(x, x') int dy V(x', y) psi(y)

on [-d, d] with G0(x, x') = exp(i k |x - x'|) / (i k)  (hbar = m = 1) and
solves the resulting dense linear system (Nystrom).  Amplitudes follow
from the post-form integrals

    T^l = 1 + (1/ik) II e^{-ikx'} V(x', y) psi_l(y) dx' dy
    R^l =     (1/ik) II e^{+ikx'} V(x', y) psi_l(y) dx' dy

and mirrored expressions for right incidence, under the plane-wave
normalization <x|p> = e^{ipx} / sqrt(2 pi).

Every entry point (``scatter``, ``scatter_all`` with or without the
adjoint, ``k_sweep``) goes through one solve core, which takes one of two
paths chosen by the kernel type alone:

* **Separable path.** Kernels exposing exact factors V = PC Q^T on the
  grid (``PolynomialKernel.factors``, rank r = jmax + 1 <= 6) never form
  an n x n matrix.  With u = Q^T W psi the system (I - Omega V W) psi =
  phi becomes the r x r capacitance system

      (I_r - Q^T W Omega PC) u = Q^T W phi,

  the post-form source is V W psi = PC u, and psi = phi + (Omega PC) u.
  Omega PC is applied in O(n r) without forming Omega: G0 has rank one on
  each triangle x' <= x and x' >= x, so the product is a forward and a
  reverse running sum, plus the three-term Simpson kink band on odd
  rows.  A solve costs O(n r) time and memory instead of the dense
  O(n^3) LU and O(n^2) storage.
* **Dense path.** Sampled nonlocal kernels and local kernels assemble
  I - Omega V W (local: I - Omega diag(V)) and LU-factor it.

Both paths estimate the reciprocal condition number (LAPACK zgecon) of
the matrix they factor and raise SingularSystemError below the same
threshold.  On the separable path that is the r x r capacitance matrix,
so ``SingularSystemError.rcond`` describes it rather than the n x n
system; by Sylvester's determinant identity, det(I_n - Omega PC Q^T W)
= det(I_r - Q^T W Omega PC), so one is singular exactly when the other
is and exceptional points are still reported.

An independent finite-difference oracle solves the differential form of
the same problem with Robin (radiation) closures at +-d and exists purely
to cross-check the Nystrom path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from .errors import AdjointDivergenceError, SingularSystemError
from .kernels import adjoint as kernel_adjoint

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class SolverConfig:
    """Discretization knobs for the Nystrom solver.

    ``nodes`` may carry an explicit non-uniform grid, optionally with
    matching quadrature ``weights`` (e.g. from a smooth change of
    variables); without weights, chord trapezoid weights are used.
    Otherwise a uniform n_grid-point grid over [-d, d] is used.
    """

    n_grid: int = 401
    quadrature: str = "trapezoid"
    tolerance: float = 1e-10
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.quadrature not in ("trapezoid", "simpson"):
            raise ValueError("quadrature must be 'trapezoid' or 'simpson'")
        if self.n_grid < 3:
            raise ValueError("n_grid must be at least 3")
        if self.quadrature == "simpson" and self.n_grid % 2 == 0:
            raise ValueError("simpson quadrature needs an odd n_grid")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.weights is not None and self.nodes is None:
            raise ValueError("weights require explicit nodes")
        if self.nodes is not None:
            nodes = np.asarray(self.nodes, dtype=float)
            if nodes.size < 3 or not np.all(np.diff(nodes) > 0):
                raise ValueError("explicit nodes must be strictly increasing, size >= 3")
            if self.quadrature != "trapezoid":
                raise ValueError("explicit nodes support trapezoid weights only")
            object.__setattr__(self, "nodes", nodes)
            if self.weights is not None:
                weights = np.asarray(self.weights, dtype=float)
                if weights.shape != nodes.shape:
                    raise ValueError("weights must match nodes in shape")
                object.__setattr__(self, "weights", weights)


class Hatted(NamedTuple):
    """Adjoint-problem amplitude quadruple."""

    Tl: complex
    Tr: complex
    Rl: complex
    Rr: complex


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """The quadruple (T^l, T^r, R^l, R^r) at one momentum, with the
    optional adjoint (hatted) quadruple."""

    k: float
    Tl: complex
    Tr: complex
    Rl: complex
    Rr: complex
    hatted: Hatted | None = None

    @property
    def quadruple(self) -> tuple[complex, complex, complex, complex]:
        return (self.Tl, self.Tr, self.Rl, self.Rr)

    @property
    def abs2(self) -> tuple[float, float, float, float]:
        """Scattering coefficients (|T^l|^2, |T^r|^2, |R^l|^2, |R^r|^2)."""
        return tuple(abs(a) ** 2 for a in self.quadruple)


@dataclass(frozen=True)
class OnShellSMatrix:
    """On-shell 2x2 matrix [[T^l, R^r], [R^l, T^r]] at fixed k."""

    amplitudes: ScatteringAmplitudes

    @property
    def matrix(self) -> np.ndarray:
        a = self.amplitudes
        return np.array([[a.Tl, a.Rr], [a.Rl, a.Tr]], dtype=complex)


class ScatterResult(NamedTuple):
    T: complex
    R: complex
    psi: np.ndarray
    nodes: np.ndarray


def grid_and_weights(config: SolverConfig, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights covering [-d, d]."""
    if config.nodes is not None:
        x = config.nodes
        if config.weights is not None:
            return x, config.weights
        w = np.empty_like(x)
        w[0] = 0.5 * (x[1] - x[0])
        w[-1] = 0.5 * (x[-1] - x[-2])
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
        return x, w
    n = config.n_grid
    x = np.linspace(-d, d, n)
    h = x[1] - x[0]
    if config.quadrature == "trapezoid":
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
    else:
        w = np.full(n, 2.0 * h / 3.0)
        w[1::2] = 4.0 * h / 3.0
        w[0] = w[-1] = h / 3.0
    return x, w


def _simpson_kink_weights(k: float, h: float) -> np.ndarray:
    """Product-integration weights for int_{-h}^{h} g(u) l_m(u) du with
    g(u) = exp(i k |u|)/(i k) and l_m the quadratic Lagrange basis on
    {-h, 0, h}.

    Composite Simpson loses its h^4 rate on panels whose midpoint is the
    kink of |x - x'|; these weights restore it by integrating g exactly
    against the local interpolant (two half-panel Gauss rules).
    """
    out = np.zeros(3, dtype=complex)
    for a, b in ((-h, 0.0), (0.0, h)):
        u = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        wq = 0.5 * (b - a) * _GL_WEIGHTS
        g = np.exp(1j * k * np.abs(u)) / (1j * k)
        out[0] += np.sum(wq * g * u * (u - h) / (2.0 * h * h))
        out[1] += np.sum(wq * g * (h * h - u * u) / (h * h))
        out[2] += np.sum(wq * g * u * (u + h) / (2.0 * h * h))
    return out


def _simpson_kink_delta(k: float, h: float) -> np.ndarray:
    """Correction to the three Omega entries around the diagonal on the odd
    (panel-midpoint) rows of a uniform Simpson grid."""
    naive = (h / 3.0) * np.array([1.0, 4.0, 1.0])
    g_row = np.exp(1j * k * np.array([h, 0.0, h])) / (1j * k)
    return _simpson_kink_weights(k, h) - naive * g_row


def _green_operator(x: np.ndarray, w: np.ndarray, k: float, quadrature: str) -> np.ndarray:
    """Matrix Omega with Omega @ f ~= int G0(x_i, x') f(x') dx'."""
    diff = np.abs(x[:, None] - x[None, :])
    G = np.exp(1j * k * diff) / (1j * k)
    omega = G * w[None, :]
    if quadrature == "simpson":
        delta = _simpson_kink_delta(k, x[1] - x[0])
        for i in range(1, x.size - 1, 2):
            omega[i, i - 1 : i + 2] += delta
    return omega


def _apply_green(x: np.ndarray, w: np.ndarray, k: float, quadrature: str,
                 M: np.ndarray) -> np.ndarray:
    """Omega @ M in O(n * cols), without forming Omega.

    G0 has rank one on each triangle: for x' <= x it is
    e^{ikx} e^{-ikx'} / (ik), for x' >= x it is e^{-ikx} e^{ikx'} / (ik).
    The product is therefore a forward and a reverse running sum; both
    count the diagonal, so it is subtracted once.  On a Simpson grid the
    kink correction adds a three-term band on the odd rows.
    """
    e_plus = np.exp(1j * k * x)[:, None]
    e_minus = np.conj(e_plus)
    wm = w[:, None] * M
    lower = np.cumsum(e_minus * wm, axis=0)
    upper = np.cumsum((e_plus * wm)[::-1], axis=0)[::-1]
    out = (e_plus * lower + e_minus * upper - wm) / (1j * k)
    if quadrature == "simpson":
        delta = _simpson_kink_delta(k, x[1] - x[0])
        out[1:-1:2] += delta[0] * M[:-2:2] + delta[1] * M[1:-1:2] + delta[2] * M[2::2]
    return out


def _sample(kernel, x: np.ndarray):
    if kernel.is_local:
        return kernel.sample_profile(x)
    return kernel.sample_matrix(x, x)


def _solve_system(A: np.ndarray, rhs: np.ndarray, k: float, tolerance: float):
    anorm = np.linalg.norm(A, 1)
    lu, piv = lu_factor(A)
    rcond, info = zgecon(lu, anorm)
    if info != 0 or rcond < max(tolerance * 1e-4, 1e-15):
        raise SingularSystemError(k, float(rcond))
    return lu_solve((lu, piv), rhs)


def _amplitudes_from_source(source: np.ndarray, x, w, k, side: str):
    e_plus = np.exp(1j * k * x)
    e_minus = np.exp(-1j * k * x)
    plus = np.sum(w * e_plus * source) / (1j * k)
    minus = np.sum(w * e_minus * source) / (1j * k)
    if side == "left":
        return 1.0 + minus, plus
    return 1.0 + plus, minus


def _solve(kernel, k: float, config: SolverConfig, sides: tuple[str, ...]):
    """The one Nystrom solve behind every entry point.

    Solves (I - Omega V W) psi = phi for the incident wave of each side,
    on the separable path when the kernel exposes ``factors`` and on the
    dense path otherwise (see the module docstring).  Returns
    ([(T, R) per side], psi with one column per side, nodes).
    """
    if k <= 0:
        raise ValueError("incident wavenumber k must be positive")
    x, w = grid_and_weights(config, kernel.d)
    quadrature = config.quadrature if config.nodes is None else "trapezoid"
    phi = np.stack([np.exp((1j if side == "left" else -1j) * k * x) for side in sides], axis=1)
    factors = getattr(kernel, "factors", None)
    if factors is not None:
        pc, q = factors(x)
        omega_pc = _apply_green(x, w, k, quadrature, pc)
        qw = q.T * w[None, :]
        capacitance = np.eye(q.shape[1], dtype=complex) - qw @ omega_pc
        u = _solve_system(capacitance, qw @ phi, k, config.tolerance)
        psi = phi + omega_pc @ u
        source = pc @ u
    else:
        omega = _green_operator(x, w, k, quadrature)
        V = _sample(kernel, x)
        if kernel.is_local:
            A = np.eye(x.size, dtype=complex) - omega * V[None, :]
        else:
            A = np.eye(x.size, dtype=complex) - omega @ (V * w[None, :])
        psi = _solve_system(A, phi, k, config.tolerance)
        source = V[:, None] * psi if kernel.is_local else V @ (w[:, None] * psi)
    amps = [_amplitudes_from_source(source[:, c], x, w, k, side) for c, side in enumerate(sides)]
    return amps, psi, x


def scatter(kernel, k: float, side: str = "left", config: SolverConfig | None = None) -> ScatterResult:
    """Solve one scattering problem and return (T, R, psi-on-grid).

    Raises SingularSystemError at exceptional configurations instead of
    returning garbage, and ValueError for k <= 0.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    [(T, R)], psi, x = _solve(kernel, k, config or SolverConfig(), (side,))
    return ScatterResult(T, R, psi[:, 0], x)


def scatter_all(kernel, k: float, config: SolverConfig | None = None,
                include_adjoint: bool = False) -> ScatteringAmplitudes:
    """Amplitudes for both incidence sides; optionally also for H†.

    The hatted quadruple comes from an independent solve with the
    adjoint kernel V(y, x)*, not from the algebraic inversion of the
    generalized-unitarity relations.
    """
    config = config or SolverConfig()
    Tl, Tr, Rl, Rr = _quadruple(kernel, k, config)
    hatted = None
    if include_adjoint:
        hatted = Hatted(*_quadruple(kernel_adjoint(kernel), k, config))
    return ScatteringAmplitudes(k, Tl, Tr, Rl, Rr, hatted)


def _quadruple(kernel, k: float, config: SolverConfig) -> tuple[complex, complex, complex, complex]:
    [(Tl, Rl), (Tr, Rr)], _, _ = _solve(kernel, k, config, ("left", "right"))
    return Tl, Tr, Rl, Rr


def _oracle_once(kernel, k: float, n: int) -> tuple[complex, complex, complex, complex]:
    d = kernel.d
    x = np.linspace(-d, d, n)
    h = x[1] - x[0]
    V = _sample(kernel, x)
    A = np.zeros((n, n), dtype=complex)
    idx = np.arange(1, n - 1)
    A[idx, idx] += 1.0 / h**2 - 0.5 * k**2
    A[idx, idx - 1] += -0.5 / h**2
    A[idx, idx + 1] += -0.5 / h**2
    # Ghost-point Robin closures encode the exterior plane waves; the
    # matrix is incidence-independent, only the drive term moves.
    A[0, 0] += (1.0 - 1j * h * k) / h**2 - 0.5 * k**2
    A[0, 1] += -1.0 / h**2
    A[n - 1, n - 1] += (1.0 - 1j * h * k) / h**2 - 0.5 * k**2
    A[n - 1, n - 2] += -1.0 / h**2
    if kernel.is_local:
        A[np.arange(n), np.arange(n)] += V
    else:
        wq = np.full(n, h)
        wq[0] = wq[-1] = 0.5 * h
        A += V * wq[None, :]
    rhs = np.zeros((n, 2), dtype=complex)
    drive = -2j * k * np.exp(-1j * k * d) / h
    rhs[0, 0] = drive
    rhs[n - 1, 1] = drive
    psi = _solve_system(A, rhs, k, 1e-10)
    ph = np.exp(-1j * k * d)
    Tl = psi[-1, 0] * ph
    Rl = (psi[0, 0] - ph) * ph
    Tr = psi[0, 1] * ph
    Rr = (psi[-1, 1] - ph) * ph
    return Tl, Tr, Rl, Rr


def scatter_oracle_all(kernel, k: float, n_grid: int = 801,
                       richardson: bool = True) -> tuple[complex, complex, complex, complex]:
    """Finite-difference oracle for both sides at once (one LU)."""
    if k <= 0:
        raise ValueError("incident wavenumber k must be positive")
    coarse = np.array(_oracle_once(kernel, k, n_grid))
    if not richardson:
        return tuple(coarse)
    fine = np.array(_oracle_once(kernel, k, 2 * n_grid - 1))
    return tuple((4.0 * fine - coarse) / 3.0)


def scatter_oracle(kernel, k: float, side: str = "left", n_grid: int = 801,
                   richardson: bool = True) -> tuple[complex, complex]:
    """Independent finite-difference solve of the differential form.

    Central differences for psi'' with ghost-point Robin closures that
    encode the exterior plane waves; amplitudes read off the boundary
    values.  With ``richardson`` the h^2 error term is eliminated by a
    second solve on a doubled grid.  Exists purely to cross-check the
    Nystrom path: it shares no Green's function or quadrature with it.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    Tl, Tr, Rl, Rr = scatter_oracle_all(kernel, k, n_grid, richardson)
    return (Tl, Rl) if side == "left" else (Tr, Rr)


def generalized_unitarity_residuals(amps: ScatteringAmplitudes) -> np.ndarray:
    """The four residuals of the on-shell relations S-hat† S = S S-hat† = 1
    linking H and H† amplitudes; all vanish for exact amplitudes."""
    if amps.hatted is None:
        raise ValueError("hatted amplitudes required; solve with include_adjoint=True")
    h = amps.hatted
    return np.array(
        [
            abs(h.Tl * np.conj(amps.Tl) + h.Rl * np.conj(amps.Rl) - 1.0),
            abs(h.Tr * np.conj(amps.Tr) + h.Rr * np.conj(amps.Rr) - 1.0),
            abs(np.conj(h.Tl) * amps.Rr + amps.Tr * np.conj(h.Rl)),
            abs(amps.Tl * np.conj(h.Rr) + np.conj(h.Tr) * amps.Rl),
        ]
    )


def hatted_from_unhatted(amps: ScatteringAmplitudes, tol: float = 1e-8) -> Hatted:
    """Adjoint amplitudes from the algebraic rearrangement

        conj(T-hat^l) = T^r / D,   conj(R-hat^l) = -R^r / D,
        conj(T-hat^r) = T^l / D,   conj(R-hat^r) = -R^l / D,

    with D = T^l T^r - R^l R^r.  Raises AdjointDivergenceError when |D|
    falls below tol times the amplitude scale: there the adjoint problem
    genuinely diverges (exceptional configuration)."""
    Tl, Tr, Rl, Rr = amps.quadruple
    D = Tl * Tr - Rl * Rr
    scale = max(1.0, abs(Tl * Tr), abs(Rl * Rr))
    if abs(D) < tol * scale:
        raise AdjointDivergenceError(amps.k, D)
    return Hatted(
        np.conj(Tr / D),
        np.conj(Tl / D),
        np.conj(-Rr / D),
        np.conj(-Rl / D),
    )


@dataclass(frozen=True)
class SweepRow:
    k: float
    amps: ScatteringAmplitudes | None
    error: str | None = None


@dataclass(frozen=True)
class SweepTable:
    """Amplitudes tabulated over a momentum grid, rows ascending in k.

    Rows where the solver failed carry the error message instead of
    amplitudes; the sweep itself keeps going.
    """

    rows: tuple[SweepRow, ...]

    CSV_HEADER = (
        "k,abs2_Tl,abs2_Tr,abs2_Rl,abs2_Rr,"
        "re_Tl,im_Tl,re_Tr,im_Tr,re_Rl,im_Rl,re_Rr,im_Rr,error"
    )

    def column(self, name: str) -> np.ndarray:
        """Column by CSV name (error rows become NaN)."""
        out = []
        for row in self.rows:
            if row.amps is None:
                out.append(np.nan)
                continue
            a = row.amps
            abs2 = a.abs2
            values = {
                "k": row.k,
                "abs2_Tl": abs2[0], "abs2_Tr": abs2[1],
                "abs2_Rl": abs2[2], "abs2_Rr": abs2[3],
                "re_Tl": a.Tl.real, "im_Tl": a.Tl.imag,
                "re_Tr": a.Tr.real, "im_Tr": a.Tr.imag,
                "re_Rl": a.Rl.real, "im_Rl": a.Rl.imag,
                "re_Rr": a.Rr.real, "im_Rr": a.Rr.imag,
            }
            out.append(values[name])
        return np.array(out)

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            if row.amps is None:
                cells = [f"{row.k:.17g}"] + ["nan"] * 12 + [row.error or "error"]
            else:
                a = row.amps
                nums = list(a.abs2) + [
                    a.Tl.real, a.Tl.imag, a.Tr.real, a.Tr.imag,
                    a.Rl.real, a.Rl.imag, a.Rr.real, a.Rr.imag,
                ]
                cells = [f"{row.k:.17g}"] + [f"{v:.17g}" for v in nums] + [""]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())


def k_sweep(kernel, k_grid, config: SolverConfig | None = None,
            include_adjoint: bool = False) -> SweepTable:
    """Tabulate amplitudes over a grid of incident momenta.

    Per-row solver failures are recorded in the row and the sweep
    continues; rows are sorted by ascending k.
    """
    config = config or SolverConfig()
    ks = np.sort(np.asarray(k_grid, dtype=float))
    if np.any(ks <= 0):
        raise ValueError("all sweep momenta must be positive")
    rows = []
    for k in ks:
        try:
            amps = scatter_all(kernel, float(k), config, include_adjoint=include_adjoint)
            rows.append(SweepRow(float(k), amps))
        except (SingularSystemError, AdjointDivergenceError) as err:
            rows.append(SweepRow(float(k), None, str(err)))
    return SweepTable(tuple(rows))
