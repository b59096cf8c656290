"""Exact scattering amplitudes for complex, generally nonlocal kernels.

The primary path discretizes the Lippmann-Schwinger equation

    psi(x) = phi(x) + int dx' G0(x, x') int dy V(x', y) psi(y)

on [-d, d] with G0(x, x') = exp(i k |x - x'|) / (i k)  (hbar = m = 1) and
solves the resulting linear system (Nystrom).  Amplitudes follow
from the post-form integrals

    T^l = 1 + (1/ik) II e^{-ikx'} V(x', y) psi_l(y) dx' dy
    R^l =     (1/ik) II e^{+ikx'} V(x', y) psi_l(y) dx' dy

and mirrored expressions for right incidence, under the plane-wave
normalization <x|p> = e^{ipx} / sqrt(2 pi).

Every entry point (``scatter``, ``scatter_all`` with or without the
adjoint, ``k_sweep``) goes through one solve core, which always solves
both incidence sides (``scatter`` returns one of them) and takes one of
two paths chosen by the kernel type alone; neither forms the n x n
Green's operator Omega.

* **Separable path.** Every nonlocal kernel exposes factors V = PC Q^T
  on the grid.  Polynomial kernels have exact factors of rank
  r = jmax + 1 <= 6 (``PolynomialKernel.factors``).  A sampled kernel is
  a tensor-product cubic spline, V(x, y) = B(x) C B(y)^T.  When its
  n_s x n_s samples compress, V = L R^T to within 1e-14 max|V| at a rank
  r <= n_s / 4 (cross approximation, computed once per kernel), PC = L
  and Q = R on the stored grid and PC = B fit(L), Q = B fit(R) on any
  other nodes, since the spline fit is linear.  Otherwise the factors
  are exact: on more nodes than the stored grid PC = B C and Q = B, the
  sparse B-spline design matrix, with r = n_s; on the stored grid or on
  fewer nodes PC is the sampled matrix and Q the identity, r = n
  (``SampledKernel.factors``).
  With u = Q^T W psi the system (I - Omega V W) psi = phi becomes the
  r x r capacitance system

      (I_r - Q^T W Omega PC) u = Q^T W phi,

  the post-form source is V W psi = PC u, and psi = phi + (Omega PC) u.
  This Woodbury solve is the one the oracle shares
  (``_capacitance_solve``).  Omega PC is applied in O(n r) without
  forming Omega: G0 has rank one on each triangle x' <= x and x' >= x,
  so the product is a forward and a reverse running sum, plus the
  three-term Simpson kink band on odd rows.  With Q = I the capacitance
  matrix I - W Omega V costs O(n^2) to build; the only cubic cost left
  is the r x r LU.
* **Local banded path.** Local kernels (V(x, y) = V(x) delta(x - y))
  solve (I - Omega diag(V)) psi = phi in O(n) time and memory.  The
  same rank-one structure of G0 is carried by two running sums,
  A_i = sum_{j<=i} e^{-ikx_j} w_j V_j psi_j and
  B_i = sum_{j>=i} e^{+ikx_j} w_j V_j psi_j, which become unknowns
  beside psi_i.  Ordered (psi_i, A_i, B_i), the 3n x 3n system is banded
  with kl = ku = 3, the Simpson kink band included, and is factored by
  LAPACK zgbtrf.  Eliminating the unit-bidiagonal A and B blocks leaves
  exactly I - Omega diag(V), so the discrete solution is that of the
  n x n system up to rounding.

Both paths estimate a reciprocal condition number in the 1-norm and
raise SingularSystemError below the same threshold, 1e-14.  The local path
estimates the rcond of the n x n matrix I - Omega diag(V) itself: its
1-norm has a closed form, because |G0| = 1/k off the kink band, and the
norm of its inverse comes from the Hager-Higham estimator that zgecon
uses, driven by banded solves, since the psi block of the inverse of
the 3n x 3n system is (I - Omega diag(V))^{-1}.  The separable path runs
zgecon on the r x r capacitance matrix, so there
``SingularSystemError.rcond`` describes that matrix rather than the
n x n system: for a sampled kernel that does not compress it is
I - W Omega V on the stored grid or on fewer nodes (similar to
I - Omega V W through W), and the spline capacitance matrix
I_r - B^T W Omega B C on more nodes.  By
Sylvester's determinant identity, det(I_n - Omega PC Q^T W) =
det(I_r - Q^T W Omega PC), so one is singular exactly when the other is
and exceptional points are still reported.  The norm in that estimate
is floored at 1 (``_capacitance_solve`` gives the reason).

An independent finite-difference oracle (``scatter_oracle_all``) solves
the differential form of the same problem with Robin (radiation)
closures at +-d and exists purely to cross-check the Nystrom path.  It
costs O(n r) time and memory and forms no n x n matrix: the FD operator
T, local V included, is tridiagonal (zgttrf), and a nonlocal kernel adds
the rank-r term PC Q^T W through the same ``kernel.factors``.  Since
T + PC Q^T W = T (I_n - X Q^T W) with X = -T^{-1} PC, it goes through
the separable path's capacitance solve, I_r - Q^T W X.  By Sylvester's
identity det(T + PC Q^T W) = det T det(I_r - Q^T W X), so two condition
checks cover the n x n system: zgtcon's rcond of T, then the product
rcond(T) rcond(capacitance).  The product stands for the rcond of the
n x n matrix T + PC Q^T W that a dense zgecon would estimate: it bounds
it from below but for the estimators' slack, and read 0.7 to 170 times
the dense value from regular to exactly singular kernels.  The
capacitance rcond alone would not do, since the matrix inherits the
cond(T) eps ~ n^2 eps rounding of T^{-1}: at n = 801 an exactly singular
system reads 1e-14 to 1e-12 there.  ``SingularSystemError.rcond`` is the
rcond of T when the first check fails and the product when the second
does.

Every grid, the oracle's fine grid of 2 n_grid - 1 nodes included, is
capped at _MAX_NODES = 10^6 nodes, about 1 GB for a two-sided local solve.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgbtrf, zgbtrs, zgecon, zgtcon, zgttrf, zgttrs

from .errors import AdjointDivergenceError, SingularSystemError
from .kernels import _is_real_number
from .kernels import adjoint as kernel_adjoint

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


# The most nodes a grid may have.  A two-sided local solve holds about
# 1 kB per node (the banded LU alone 10 band rows x 3 unknowns x 16 B =
# 480 B, and LAPACK gets a Fortran-ordered copy), so the cap keeps it near
# 1 GB; a separable solve holds a few n x r arrays, 16 r B per node each.
_MAX_NODES = 1_000_000


def _check_n_grid(n_grid, richardson: bool = False) -> None:
    """Reject an n_grid that is not an integer in [3, _MAX_NODES]; with
    ``richardson`` the oracle's fine grid of 2 n_grid - 1 nodes is what
    the cap counts."""
    # np.linspace would raise a TypeError naming no parameter
    if not isinstance(n_grid, (int, np.integer)) or n_grid < 3:
        raise ValueError(f"n_grid must be an integer of at least 3, got {n_grid!r}")
    nodes = 2 * n_grid - 1 if richardson else n_grid
    if nodes > _MAX_NODES:
        raise ValueError(f"n_grid={n_grid!r} needs {nodes} nodes, above the "
                         f"{_MAX_NODES} allowed")


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
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.quadrature not in ("trapezoid", "simpson"):
            raise ValueError("quadrature must be 'trapezoid' or 'simpson'")
        _check_n_grid(self.n_grid)
        if self.quadrature == "simpson" and self.n_grid % 2 == 0:
            raise ValueError("simpson quadrature needs an odd n_grid")
        if self.weights is not None and self.nodes is None:
            raise ValueError("weights require explicit nodes")
        if self.nodes is not None:
            nodes = np.asarray(self.nodes, dtype=float)
            if nodes.size > _MAX_NODES:
                raise ValueError(f"explicit nodes: {nodes.size} given, above the "
                                 f"{_MAX_NODES} allowed")
            if nodes.size < 3 or not np.all(np.diff(nodes) > 0):
                raise ValueError("explicit nodes must be strictly increasing, size >= 3")
            if not np.all(np.isfinite(nodes)):
                raise ValueError("explicit nodes must be finite")
            if self.quadrature != "trapezoid":
                raise ValueError("explicit nodes support trapezoid weights only")
            object.__setattr__(self, "nodes", nodes)
            if self.weights is not None:
                weights = np.asarray(self.weights, dtype=float)
                if weights.shape != nodes.shape:
                    raise ValueError("weights must match nodes in shape")
                if not np.all(np.isfinite(weights)):
                    raise ValueError("weights must be finite")
                object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """The quadruple (T^l, T^r, R^l, R^r) at one momentum.

    ``hatted`` optionally holds the amplitudes of the adjoint problem
    (H†) at the same k, which carry no hatted part of their own."""

    k: float
    Tl: complex
    Tr: complex
    Rl: complex
    Rr: complex
    hatted: ScatteringAmplitudes | None = None

    @property
    def quadruple(self) -> tuple[complex, complex, complex, complex]:
        return (self.Tl, self.Tr, self.Rl, self.Rr)

    @property
    def abs2(self) -> tuple[float, float, float, float]:
        """Scattering coefficients (|T^l|^2, |T^r|^2, |R^l|^2, |R^r|^2)."""
        return tuple(abs(a) ** 2 for a in self.quadruple)


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


def _simpson_kink_delta(k: float, h: float) -> np.ndarray:
    """Correction to the three Omega entries around the diagonal on the odd
    (panel-midpoint) rows of a uniform Simpson grid.

    Composite Simpson loses its h^4 rate on panels whose midpoint is the
    kink of |x - x'|.  The corrected entries are the product-integration
    weights of int_{-h}^{h} g(u) l_m(u) du, with g(u) = exp(i k |u|)/(i k)
    and l_m the quadratic Lagrange basis on {-h, 0, h}: they integrate g
    exactly against the local interpolant (two half-panel Gauss rules).
    """
    exact = np.zeros(3, dtype=complex)
    for a, b in ((-h, 0.0), (0.0, h)):
        u = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        wq = 0.5 * (b - a) * _GL_WEIGHTS
        g = np.exp(1j * k * np.abs(u)) / (1j * k)
        exact[0] += np.sum(wq * g * u * (u - h) / (2.0 * h * h))
        exact[1] += np.sum(wq * g * (h * h - u * u) / (h * h))
        exact[2] += np.sum(wq * g * u * (u + h) / (2.0 * h * h))
    naive = (h / 3.0) * np.array([1.0, 4.0, 1.0])
    g_row = np.exp(1j * k * np.array([h, 0.0, h])) / (1j * k)
    return exact - naive * g_row


def _apply_green(w: np.ndarray, k: float, e: np.ndarray, kink: np.ndarray | None,
                 M: np.ndarray) -> np.ndarray:
    """Omega @ M in O(n * cols), without forming Omega.

    G0 has rank one on each triangle: for x' <= x it is
    e^{ikx} e^{-ikx'} / (ik), for x' >= x it is e^{-ikx} e^{ikx'} / (ik),
    with ``e`` = e^{ikx} on the grid.  The product is therefore a forward
    and a reverse running sum; both count the diagonal, so it is
    subtracted once.  On a Simpson grid the kink correction ``kink``
    (``_simpson_kink_delta``; None off Simpson) adds a three-term band on
    the odd rows.
    """
    e_plus = e[:, None]
    e_minus = np.conj(e_plus)
    wm = w[:, None] * M
    # (e_plus lower + e_minus upper - wm) / (ik), in place: M has up to n
    # columns on the full-rank path, so temporaries cost as much as the
    # arithmetic; the operand order is kept, and with it the rounding
    lower = e_minus * wm
    np.cumsum(lower, axis=0, out=lower)
    upper = e_plus * wm
    np.cumsum(upper[::-1], axis=0, out=upper[::-1])
    out = np.multiply(e_plus, lower, out=lower)
    out += np.multiply(e_minus, upper, out=upper)
    out -= wm
    out /= 1j * k
    if kink is not None:
        out[1:-1:2] += kink[0] * M[:-2:2] + kink[1] * M[1:-1:2] + kink[2] * M[2::2]
    return out


def _check_rcond(rcond: float, k: float) -> None:
    # "not >=" also rejects a NaN estimate
    if not rcond >= 1e-14:
        raise SingularSystemError(k, float(rcond))


def _solve_system(A: np.ndarray, rhs: np.ndarray, k: float, anorm: float):
    """LU-solve A x = rhs; raise SingularSystemError when the reciprocal
    condition estimate, taken with ``anorm`` as the norm of A, falls
    below the threshold."""
    if not A.size:  # the capacitance matrix of a rank-0 kernel
        return rhs
    lu, piv = lu_factor(A)
    rcond, info = zgecon(lu, anorm)
    _check_rcond(rcond if info == 0 else 0.0, k)
    return lu_solve((lu, piv), rhs)


# Bandwidths of the 3n x 3n local system ordered (psi_i, A_i, B_i).  In
# LAPACK band storage entry [r, c] sits at row _KL + _KU + r - c.
_KL = _KU = 3
_DIAG = _KL + _KU


def _local_band(w: np.ndarray, k: float, e: np.ndarray, kink: np.ndarray | None,
                V: np.ndarray) -> np.ndarray:
    """zgbtrf band storage of the local system in (psi, A, B) unknowns.

    With s_i = w_i V_i psi_i the rows are

        psi_i - (e^{ikx_i} A_i + e^{-ikx_i} B_i - s_i) / (ik) - kink_i = phi_i
        A_i - A_{i-1} - e^{-ikx_i} s_i = 0
        B_i - B_{i+1} - e^{+ikx_i} s_i = 0

    where kink_i is the Simpson correction on odd rows and ``e`` is
    e^{ikx} on the grid.  Eliminating A and B gives back
    (I - Omega diag(V)) psi = phi exactly.
    """
    n = w.size
    e_minus = np.conj(e)
    wv = w * V
    ab = np.zeros((2 * _KL + _KU + 1, 3 * n), dtype=complex)
    ab[_DIAG, 0::3] = 1.0 + wv / (1j * k)       # psi_i   in row psi_i
    ab[_DIAG - 1, 1::3] = -e / (1j * k)         # A_i     in row psi_i
    ab[_DIAG - 2, 2::3] = -e_minus / (1j * k)   # B_i     in row psi_i
    ab[_DIAG + 1, 0::3] = -e_minus * wv         # psi_i   in row A_i
    ab[_DIAG, 1::3] = 1.0                       # A_i     in row A_i
    ab[_DIAG + 3, 1:-3:3] = -1.0                # A_i     in row A_{i+1}
    ab[_DIAG + 2, 0::3] = -e * wv               # psi_i   in row B_i
    ab[_DIAG, 2::3] = 1.0                       # B_i     in row B_i
    ab[_DIAG - 3, 5::3] = -1.0                  # B_{i+1} in row B_i
    if kink is not None:
        odd = np.arange(1, n - 1, 2)
        ab[_DIAG + 3, 3 * (odd - 1)] = -kink[0] * V[odd - 1]  # psi_{i-1} in row psi_i
        ab[_DIAG, 3 * odd] -= kink[1] * V[odd]
        ab[_DIAG - 3, 3 * (odd + 1)] = -kink[2] * V[odd + 1]  # psi_{i+1} in row psi_i
    return ab


def _local_norm1(x: np.ndarray, w: np.ndarray, k: float, kink: np.ndarray | None,
                 V: np.ndarray) -> float:
    """||I - Omega diag(V)||_1 in O(n).

    Off the diagonal and the kink band every entry of column j has
    modulus w_j |V_j| / k, because |G0| = 1/k; only those few entries
    are formed explicitly.
    """
    n = x.size
    wv = w * V
    off = np.abs(wv) / k
    diag = 1.0 - wv / (1j * k)
    cols = (n - 1) * off
    if kink is not None:
        g = np.exp(1j * k * (x[1] - x[0])) / (1j * k)
        odd = np.arange(1, n - 1, 2)
        diag[odd] -= kink[1] * V[odd]
        for j, dj in ((odd - 1, kink[0]), (odd + 1, kink[2])):
            cols[j] += np.abs((g * w[j] + dj) * V[j]) - off[j]
    return float(np.max(cols + np.abs(diag)))


def _inverse_norm1(solve, n: int) -> float:
    """Hager-Higham estimate of ||M^{-1}||_1 (the LAPACK zlacn2 iteration
    that zgecon runs), given ``solve(v, trans)`` applying M^{-1} for
    trans 0 and M^{-H} for trans 2."""
    tiny = np.finfo(float).tiny

    def unit_phase(v):
        a = np.abs(v)
        return np.where(a > tiny, v / np.where(a > tiny, a, 1.0), 1.0)

    y = solve(np.full(n, 1.0 / n, dtype=complex), 0)
    est = np.sum(np.abs(y))
    z = solve(unit_phase(y), 2)
    j = int(np.argmax(np.abs(z)))
    for _ in range(4):  # zlacn2's iterations 2..ITMAX=5
        y = solve(np.eye(1, n, j, dtype=complex)[0], 0)
        est_old, est = est, np.sum(np.abs(y))
        if est <= est_old:
            break
        z = solve(unit_phase(y), 2)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if abs(z[j_last]) == abs(z[j]):
            break
    alternating = (-1.0) ** np.arange(n) * (1.0 + np.arange(n) / (n - 1))
    y = solve(alternating.astype(complex), 0)
    return float(max(est, 2.0 * np.sum(np.abs(y)) / (3 * n)))


def _local_factor(x: np.ndarray, w: np.ndarray, k: float, e: np.ndarray,
                  kink: np.ndarray | None, V: np.ndarray):
    """Banded LU of the local system and the reciprocal condition
    estimate of the n x n matrix I - Omega diag(V).

    Returns (solve, rcond) where ``solve(rhs, trans)`` applies
    (I - Omega diag(V))^{-1} (trans 0) or its conjugate transpose
    (trans 2) to an n-vector or n x m array: the right-hand side goes on
    the psi rows and the psi rows of the solution are read back.
    """
    n = x.size
    lu, piv, info = zgbtrf(_local_band(w, k, e, kink, V), _KL, _KU)

    def solve(rhs, trans=0):
        b = np.zeros((3 * n,) + rhs.shape[1:], dtype=complex)
        b[0::3] = rhs
        out, _ = zgbtrs(lu, _KL, _KU, b.reshape(3 * n, -1), piv, trans=trans)
        return out[0::3].reshape(rhs.shape)

    if info != 0:
        return solve, 0.0
    anorm = _local_norm1(x, w, k, kink, V)
    return solve, 1.0 / (anorm * _inverse_norm1(solve, n))


def _check_momentum(k: float) -> None:
    if not (_is_real_number(k) and np.isfinite(k) and k > 0):
        raise ValueError(f"incident wavenumber k must be positive and finite, got {k!r}")


class _Solution(NamedTuple):
    # psi holds the left-incidence column, then the right one
    amps: ScatteringAmplitudes
    psi: np.ndarray
    nodes: np.ndarray


def _capacitance_solve(x_op: np.ndarray, q, w: np.ndarray, phi: np.ndarray, k: float,
                       rcond_scale: float = 1.0):
    """Solve (I_n - X Q^T W) psi = phi through the r x r capacitance
    system (I_r - Q^T W X) u = Q^T W phi, psi = phi + X u; return (psi, u).

    Q^T W stays a sparse or diagonal product: with a dense identity Q it
    would be an n^3 product.  zgecon's norm of the capacitance matrix is
    floored at 1, a lower bound for the norm of I_n - X Q^T W, which for
    n > r keeps the eigenvalue 1; without the floor a rank-one kernel,
    whose 1 x 1 capacitance matrix has rcond 1 unless it is exactly zero,
    would never be reported.  The norm is divided by ``rcond_scale``, so
    the estimate reads rcond_scale times the capacitance rcond.
    """
    qw = q.T * w[None, :]
    capacitance = np.eye(q.shape[1], dtype=complex) - qw @ x_op
    u = _solve_system(capacitance, qw @ phi, k,
                      anorm=max(np.linalg.norm(capacitance, 1), 1.0) / rcond_scale)
    return phi + x_op @ u, u


def _solve(kernel, k: float, config: SolverConfig) -> _Solution:
    """The one Nystrom solve behind every entry point.

    Solves (I - Omega V W) psi = phi for the incident waves of both
    sides, on the banded path for local kernels and on the separable
    path through ``kernel.factors`` otherwise (see the module docstring).
    """
    _check_momentum(k)
    x, w = grid_and_weights(config, kernel.d)
    e = np.exp(1j * k * x)
    kink = _simpson_kink_delta(k, x[1] - x[0]) if config.quadrature == "simpson" else None
    phi = np.stack([e, np.conj(e)], axis=1)
    if kernel.is_local:
        V = kernel.sample_profile(x)
        solve, rcond = _local_factor(x, w, k, e, kink, V)
        _check_rcond(rcond, k)
        psi = solve(phi)
        source = V[:, None] * psi
    else:
        pc, q = kernel.factors(x)
        psi, u = _capacitance_solve(_apply_green(w, k, e, kink, pc), q, w, phi, k)
        source = pc @ u
    # the post-form integrals: e^{-ikx'} for T^l and R^r, e^{+ikx'} for R^l and T^r
    (plus_l, minus_l), (plus_r, minus_r) = [
        (np.sum(w * e * s) / (1j * k), np.sum(w * np.conj(e) * s) / (1j * k))
        for s in source.T]
    return _Solution(ScatteringAmplitudes(k, 1.0 + minus_l, 1.0 + plus_r, plus_l, minus_r),
                     psi, x)


def scatter(kernel, k: float, side: str = "left", config: SolverConfig | None = None) -> ScatterResult:
    """Solve one scattering problem and return (T, R, psi-on-grid).

    Like every solve it solves both incidence sides; T and R are exactly
    ``scatter_all``'s for ``side``, and psi is that side's column.
    Raises SingularSystemError at exceptional configurations instead of
    returning garbage, and ValueError unless k is positive and finite.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    amps, psi, x = _solve(kernel, k, config or SolverConfig())
    if side == "left":
        return ScatterResult(amps.Tl, amps.Rl, psi[:, 0], x)
    return ScatterResult(amps.Tr, amps.Rr, psi[:, 1], x)


def scatter_all(kernel, k: float, config: SolverConfig | None = None,
                include_adjoint: bool = False) -> ScatteringAmplitudes:
    """Amplitudes for both incidence sides; optionally also for H†.

    The hatted quadruple comes from an independent solve with the
    adjoint kernel V(y, x)*, not from the algebraic inversion of the
    generalized-unitarity relations.  Where T^l T^r = R^l R^r (the k0 of
    a designed TR/A, T/R, T/A or R/A kernel) the adjoint problem has a
    pole: this returns |hatted| of 1e9-1e12 that fail generalized
    unitarity, or raises SingularSystemError; ``hatted_from_unhatted``
    raises AdjointDivergenceError there.
    """
    config = config or SolverConfig()
    amps = _solve(kernel, k, config).amps
    if include_adjoint:
        amps = replace(amps, hatted=_solve(kernel_adjoint(kernel), k, config).amps)
    return amps


def _oracle_once(kernel, k: float, n: int) -> tuple[complex, complex, complex, complex]:
    d = kernel.d
    x, w = grid_and_weights(SolverConfig(n_grid=n), d)
    h = x[1] - x[0]
    # The three diagonals of -psi''/2 - k^2 psi/2 (+ V psi for a local
    # kernel).  Ghost-point Robin closures, which encode the exterior
    # plane waves, make the first and last rows; the matrix is
    # incidence-independent, only the drive term moves.
    diag = np.full(n, 1.0 / h**2 - 0.5 * k**2, dtype=complex)
    diag[[0, -1]] = (1.0 - 1j * h * k) / h**2 - 0.5 * k**2
    lower = np.full(n - 1, -0.5 / h**2, dtype=complex)
    upper = lower.copy()
    upper[0] = lower[-1] = -1.0 / h**2
    if kernel.is_local:
        diag += kernel.sample_profile(x)
    cols = np.abs(diag)
    cols[1:] += np.abs(upper)
    cols[:-1] += np.abs(lower)
    dl, dd, du, du2, ipiv, info = zgttrf(lower, diag, upper)
    rcond_t, _ = zgtcon(dl, dd, du, du2, ipiv, float(np.max(cols)))
    _check_rcond(rcond_t if info == 0 else 0.0, k)
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[0, 0] = rhs[-1, 1] = -2j * k * np.exp(-1j * k * d) / h
    if kernel.is_local:
        psi, _ = zgttrs(dl, dd, du, du2, ipiv, rhs)
    else:
        # T + PC Q^T W = T (I - X Q^T W) with X = -T^{-1} PC: T^{-1} of both
        # drives and of PC in one solve, then the capacitance solve with its
        # estimate scaled by rcond(T) (the module docstring says why)
        pc, q = kernel.factors(x)
        sol, _ = zgttrs(dl, dd, du, du2, ipiv, np.concatenate([rhs, pc], axis=1))
        psi, _ = _capacitance_solve(-sol[:, 2:], q, w, sol[:, :2], k, rcond_scale=rcond_t)
    ph = np.exp(-1j * k * d)
    Tl = psi[-1, 0] * ph
    Rl = (psi[0, 0] - ph) * ph
    Tr = psi[0, 1] * ph
    Rr = (psi[-1, 1] - ph) * ph
    return Tl, Tr, Rl, Rr


def scatter_oracle_all(kernel, k: float,
                       n_grid: int = 801) -> tuple[complex, complex, complex, complex]:
    """Independent finite-difference solve of the differential form,
    returning (T^l, T^r, R^l, R^r): both sides share one factorization.

    Central differences for psi'' with ghost-point Robin closures that
    encode the exterior plane waves; amplitudes read off the boundary
    values.  The h^2 error term is eliminated by Richardson extrapolation
    from a second solve on the grid of 2 n_grid - 1 nodes.  Exists purely
    to cross-check the Nystrom path: it shares no Green's function or
    quadrature with it, only the kernel's ``factors``.

    Each solve costs O(n r) time and memory for a kernel of rank r and
    O(n) for a local one; no n x n matrix is formed.  The FD operator T,
    with a local V on its diagonal, is tridiagonal and is factored by
    zgttrf.  A nonlocal kernel adds the rank-r term PC Q^T W (trapezoid
    weights W), which goes through the Nystrom path's r x r capacitance
    solve.  Two condition checks in the 1-norm guard a solve: zgtcon's
    rcond of T, then rcond(T) times the capacitance rcond, which stands
    for the rcond of the n x n system T + PC Q^T W.  Either one below 1e-14
    raises SingularSystemError carrying that value (see the module
    docstring).  An n_grid that is not an integer of at least 3, or whose
    fine grid of 2 n_grid - 1 nodes exceeds 10^6, raises ValueError.
    """
    _check_momentum(k)
    _check_n_grid(n_grid, richardson=True)
    coarse = np.array(_oracle_once(kernel, k, n_grid))
    fine = np.array(_oracle_once(kernel, k, 2 * n_grid - 1))
    return tuple((4.0 * fine - coarse) / 3.0)


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


def hatted_from_unhatted(amps: ScatteringAmplitudes, tol: float = 1e-8) -> ScatteringAmplitudes:
    """Adjoint amplitudes from the algebraic rearrangement

        conj(T-hat^l) = T^r / D,   conj(R-hat^l) = -R^r / D,
        conj(T-hat^r) = T^l / D,   conj(R-hat^r) = -R^l / D,

    with D = T^l T^r - R^l R^r.  Raises AdjointDivergenceError when |D|
    falls below tol * max(1, max |amplitude|), that is when a hatted
    amplitude would exceed 1/tol: there the adjoint problem genuinely
    diverges (exceptional configuration).  Near a pole of S the products
    T^l T^r and R^l R^r grow like the square of the amplitudes while D
    grows only like them, so the scale is the amplitudes themselves.
    Raises ValueError unless ``tol`` is positive and finite."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    Tl, Tr, Rl, Rr = amps.quadruple
    D = Tl * Tr - Rl * Rr
    if abs(D) < tol * max(1.0, *map(abs, amps.quadruple)):
        raise AdjointDivergenceError(amps.k, D)
    return ScatteringAmplitudes(
        amps.k,
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


def _csv_numbers(row: SweepRow) -> list[float]:
    """The numeric CSV cells of a row in ``SweepTable.CSV_HEADER`` order;
    the amplitude cells of an error row are NaN."""
    if row.amps is None:
        return [row.k] + [np.nan] * 12
    a = row.amps
    return [row.k, *a.abs2] + [part for z in a.quadruple for part in (z.real, z.imag)]


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
        i = self.CSV_HEADER.split(",")[:-1].index(name)
        return np.array([np.nan if row.amps is None else _csv_numbers(row)[i]
                         for row in self.rows])

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            error = "" if row.amps is not None else row.error or "error"
            lines.append(",".join([f"{v:.17g}" for v in _csv_numbers(row)] + [error]))
        return "\n".join(lines) + "\n"


def k_sweep(kernel, k_grid, config: SolverConfig | None = None) -> SweepTable:
    """Tabulate amplitudes over a grid of incident momenta.

    Per-row solver failures are recorded in the row and the sweep
    continues; rows, sorted by ascending k, carry no hatted amplitudes.
    """
    config = config or SolverConfig()
    ks = np.asarray(k_grid, dtype=float)
    if ks.ndim != 1:  # np.sort would fail naming no parameter
        raise ValueError(f"k_grid must be one-dimensional, got shape {ks.shape}")
    ks = np.sort(ks)
    if not np.all(np.isfinite(ks) & (ks > 0)):
        raise ValueError("all sweep momenta must be positive and finite")
    rows = []
    for k in ks:
        try:
            amps = scatter_all(kernel, float(k), config)
            rows.append(SweepRow(float(k), amps))
        except SingularSystemError as err:
            rows.append(SweepRow(float(k), None, str(err)))
    return SweepTable(tuple(rows))
