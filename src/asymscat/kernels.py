"""Potential kernels: sampled nonlocal, polynomial nonlocal, and a
regularized local inverse-square profile.

A kernel is a complex two-variable function V(x, y) supported on
[-d, d]^2.  "Local" kernels mean V(x, y) = V(x) delta(x - y) and are
stored as a one-dimensional diagonal profile.  Every kernel object is
immutable after construction and safe to share across workers.

Kernels are read on nodes, never pointwise: a local kernel through
``sample_profile(nodes)``, a nonlocal one through ``factors(nodes)``
(separable factors V = PC Q^T, what the solvers use) and
``sample_matrix(x_nodes, y_nodes)`` (V on a node product).  Each read is
exactly 0 outside [-d, d].

The eight involutive transforms I..VIII act on kernels as the identity,
conjugate transpose, parity, and their compositions:

    I    V(x, y)            V     V(x, y)*
    II   V(y, x)*           VI    V(y, x)
    III  V(-x, -y)          VII   V(-x, -y)*
    IV   V(-y, -x)*         VIII  V(-y, -x)
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg.blas import izamax, zgeru
from scipy.linalg.lapack import zgbsv

from .units import HALF_WIDTH

# A sampled nonlocal kernel is solved through a compression V ~ L R^T of
# its samples when max|V - L R^T| <= _COMPRESSION_TOL * max|V| at a rank
# of at most a quarter of its grid size; otherwise through its exact factors.
_COMPRESSION_TOL = 1e-14

# (flip coordinates, transpose arguments, conjugate) flags per transform:
# the one description of the group; transforms compose by XOR of flags.
_TRANSFORM_FLAGS = {
    "I": (False, False, False),
    "II": (False, True, True),
    "III": (True, False, False),
    "IV": (True, True, True),
    "V": (False, False, True),
    "VI": (False, True, False),
    "VII": (True, False, True),
    "VIII": (True, True, False),
}
SYMMETRY_CODES = tuple(_TRANSFORM_FLAGS)


def transform_flags(which: str) -> tuple[bool, bool, bool]:
    """(flip coordinates, transpose arguments, conjugate) of transform ``which``."""
    if which not in SYMMETRY_CODES:
        raise ValueError(f"unknown symmetry code {which!r}; expected one of {SYMMETRY_CODES}")
    return _TRANSFORM_FLAGS[which]


def compose(a: str, b: str) -> str:
    """The code of transforms ``a`` and ``b`` applied in turn (they commute)."""
    flags = tuple(x != y for x, y in zip(transform_flags(a), transform_flags(b)))
    return next(code for code, f in _TRANSFORM_FLAGS.items() if f == flags)


def _check_finite(value, name: str) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"kernel {name} must be finite")


def _is_real_number(value) -> bool:
    """A Python or numpy int or float; bool and complex are not."""
    return (not isinstance(value, bool)
            and isinstance(value, (int, float, np.integer, np.floating)))


def _check_real(value, name: str) -> None:
    if not _is_real_number(value):
        raise ValueError(f"kernel {name} must be a real number, got {value!r}")
    _check_finite(value, name)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


def _cubic_bsplines(t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ell, b): the knot interval t[ell] <= x < t[ell + 1] of each point
    (the last one for x = t[-1]) and its four nonzero cubic B-splines,
    b[:, a] = B_{ell - 3 + a}(x), for points in [t[0], t[-1]].

    The Cox-de Boor recurrence (de Boor, J. Approx. Theory 6, 50, 1972),
    vectorized over the points, in the operation order of scipy's
    _deBoor_D, so the values are scipy's BSpline values to the bit.
    Every pair of knots it divides by spans t[ell] < t[ell + 1], so no
    denominator is zero.
    """
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, 3, t.size - 5)
    b = np.zeros((x.size, 4))
    b[:, 0] = 1.0
    for j in range(1, 4):
        prev = b[:, :j].copy()
        b[:, 0] = 0.0
        for i in range(1, j + 1):
            right, left = t[ell + i], t[ell + i - j]
            w = prev[:, i - 1] / (right - left)
            b[:, i - 1] += w * (right - x)
            b[:, i] = w * (x - left)
    return ell, b


def _cross_approximation(v: np.ndarray, atol: float, max_rank: int):
    """(L, R) with max|v - L @ R.T| <= atol and at most ``max_rank``
    columns, or None when no such pair is found.

    Cross approximation with complete pivoting (Bebendorf, Numer. Math.
    86, 2000), that is Gaussian elimination with complete pivoting
    stopped early: each step takes the largest entry of the residual
    E = v - L R^T as pivot and removes the cross through it by a
    rank-one update, two BLAS calls of O(n^2) each.  "Largest" is by
    |Re| + |Im| (izamax), within sqrt(2) of the largest modulus and an
    upper bound for it, so the loop stops once max|E| <= atol.  The
    residual of the result is recomputed from v, not taken from E.
    """
    n, m = v.shape
    e = np.array(v, dtype=complex, order="F")
    left = np.empty((n, max_rank), dtype=complex)
    right = np.empty((m, max_rank), dtype=complex)
    rank = 0
    while True:
        i, j = np.unravel_index(izamax(e.reshape(-1, order="F")), e.shape, order="F")
        if abs(e[i, j].real) + abs(e[i, j].imag) <= atol:
            break
        if rank == max_rank:
            return None
        left[:, rank] = e[:, j]
        right[:, rank] = e[i, :] / e[i, j]
        e = zgeru(-1.0, left[:, rank], right[:, rank], a=e, overwrite_a=1)
        rank += 1
    left, right = _readonly(left[:, :rank]), _readonly(right[:, :rank])
    if np.max(np.abs(v - left @ right.T), initial=0.0) > atol:
        return None
    return left, right


@dataclass(frozen=True)
class SampledKernel:
    """Kernel sampled on a uniform symmetric grid over [-d, d].

    ``values[i, j] = V(x_i, y_j)`` for nonlocal kernels; for local ones
    only the diagonal profile ``values[i] = V(x_i)`` is stored.  Between
    nodes it is the complex not-a-knot cubic spline through them.
    """

    grid: np.ndarray
    values: np.ndarray
    is_local: bool = False

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        n = grid.size
        if n < 4:
            raise ValueError("sampled kernel needs at least 4 grid points (cubic splines)")
        _check_finite(grid, "grid")
        _check_finite(values, "values")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        d = grid[-1]
        if d <= 0 or abs(grid[0] + d) > 1e-12 * d:
            raise ValueError("grid must be symmetric about 0 with endpoints -d, +d")
        steps = np.diff(grid)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValueError("grid must be uniform")
        if np.max(np.abs(grid + grid[::-1])) > 1e-12 * d:
            raise ValueError("grid must be symmetric about 0")
        if self.is_local:
            if values.shape != (n,):
                raise ValueError("local kernel stores a 1D diagonal profile")
        elif values.shape != (n, n):
            raise ValueError(f"values must be shaped ({n}, {n}), got {values.shape}")
        object.__setattr__(self, "grid", _readonly(grid))
        object.__setattr__(self, "values", _readonly(values))

    @property
    def d(self) -> float:
        return float(self.grid[-1])

    @property
    def n(self) -> int:
        return self.grid.size

    def _on_grid(self, nodes: np.ndarray) -> bool:
        return nodes.size == self.n and np.allclose(nodes, self.grid, rtol=0, atol=1e-14)

    @cached_property
    def _knots(self) -> np.ndarray:
        """Not-a-knot knots: the grid less its 2nd and 2nd-to-last nodes, ends fourfold."""
        g = self.grid
        return np.concatenate([np.full(4, g[0]), g[2:-2], np.full(4, g[-1])])

    def _fit(self, a: np.ndarray) -> np.ndarray:
        """Coefficients of the splines through the columns of ``a`` (axis 0
        on the grid): one banded LAPACK solve (zgbsv, three sub- and three
        superdiagonals) of the real collocation matrix B(grid), held in
        the 10 x n band layout that zgbsv takes, for every column at once."""
        n = self.n
        ell, b = _cubic_bsplines(self._knots, self.grid)
        cols = ell[:, None] - 3 + np.arange(4)
        band = np.zeros((10, n), order="F")
        band[6 + np.arange(n)[:, None] - cols, cols] = b
        _, _, c, info = zgbsv(3, 3, band, a.reshape(n, -1))
        if info != 0:
            raise np.linalg.LinAlgError(f"spline collocation solve failed (zgbsv info {info})")
        return np.ascontiguousarray(c.reshape(a.shape))

    @cached_property
    def _spline_coeffs(self) -> np.ndarray:
        """Complex spline coefficients C: V(x) = _basis(x) @ C (local), or
        V(x, y) = _basis(x) @ C @ _basis(y).T fitted along x, then y."""
        fit = self._fit
        c = fit(self.values) if self.is_local else np.ascontiguousarray(fit(fit(self.values).T).T)
        c.flags.writeable = False
        return c

    @cached_property
    def _low_rank(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(L, R) with max|values - L @ R.T| <= _COMPRESSION_TOL * max|values|
        and at most n // 4 columns, or None; rank 0 for a zero kernel."""
        v, cap = self.values, self.n // 4
        atol = _COMPRESSION_TOL * np.max(np.abs(v))
        # A submatrix has no larger singular values than the whole, so
        # samples whose every other row and column need more than the cap
        # are not tried in full: rough kernels fail at a quarter of the cost.
        if _cross_approximation(v[::2, ::2], atol, cap) is None:
            return None
        return _cross_approximation(v, atol, cap)

    @cached_property
    def _low_rank_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        """(fit(L), fit(R)): the fit is linear, so C ~ fit(L) @ fit(R).T."""
        return tuple(self._fit(f) for f in self._low_rank)

    def _basis(self, x: np.ndarray, name: str):
        """Sparse cubic B-spline design matrix of the nodes ``x``, named
        ``name`` in the error for NaN nodes; rows of nodes outside +-d
        (+-inf included) are zero, so the spline reads exactly 0 there.

        Each row lists its columns in descending order and leaves out
        exact zeros: the layout of scipy's sparse product of a 0/1 row mask
        and BSpline.design_matrix.  Sparse products sum a row in its
        stored order, so the solves' results depend on it to the last bit.
        """
        x = np.asarray(x, dtype=float)
        if np.any(np.isnan(x)):
            raise ValueError(f"sampled kernel coordinates {name} must not be NaN")
        t = self._knots
        ell, b = _cubic_bsplines(t, np.clip(x, t[0], t[-1]))
        b[np.abs(x) > self.d] = 0.0
        basis = sparse.csr_array(
            (b[:, ::-1].ravel(), (ell[:, None] - np.arange(4)).ravel(),
             np.arange(0, 4 * x.size + 1, 4)), shape=(x.size, self.n))
        basis.eliminate_zeros()
        return basis

    def sample_profile(self, nodes: np.ndarray) -> np.ndarray:
        if not self.is_local:
            raise ValueError("sample_profile is only defined for local kernels")
        x = np.asarray(nodes, dtype=float)
        if self._on_grid(x):
            return np.asarray(self.values)
        return self._basis(x, "nodes") @ self._spline_coeffs

    def sample_matrix(self, x_nodes: np.ndarray, y_nodes: np.ndarray) -> np.ndarray:
        """V(x_i, y_j) on a node product; exactly 0 outside the support."""
        if self.is_local:
            raise ValueError("sample_matrix is only defined for nonlocal kernels")
        x, y = np.asarray(x_nodes, dtype=float), np.asarray(y_nodes, dtype=float)
        if self._on_grid(x) and self._on_grid(y):
            return np.asarray(self.values)
        return (self._basis(x, "x_nodes") @ self._spline_coeffs) @ self._basis(y, "y_nodes").T

    def factors(self, x_nodes: np.ndarray):
        """Separable factors on the nodes: V(x_i, x_j) ~= (PC @ Q.T)[i, j].

        When the samples compress, values = L @ R.T to within
        _COMPRESSION_TOL * max|values| at a rank r <= n // 4 (``_low_rank``),
        the factors are ``(L, R)`` on the stored grid and
        ``(B @ fit(L), B @ fit(R))`` on any other nodes, with B the sparse
        design matrix ``_basis(x)``; both are dense with r columns.

        Otherwise they are exact.  With more nodes than the stored grid,
        the cubic spline is a degenerate kernel: ``PC = B @ C`` is dense
        and ``Q = B``, so the rank is the stored grid size.  On the stored
        grid, or with at most as many nodes, ``PC`` is ``sample_matrix``
        and ``Q`` the sparse identity.
        """
        if self.is_local:
            raise ValueError("factors is only defined for nonlocal kernels")
        x = np.asarray(x_nodes, dtype=float)
        if self._low_rank is not None:
            if self._on_grid(x):
                return self._low_rank
            b = self._basis(x, "x_nodes")
            return tuple(b @ f for f in self._low_rank_coeffs)
        if x.size <= self.n:
            return self.sample_matrix(x, x), sparse.eye_array(x.size, format="csr")
        b = self._basis(x, "x_nodes")
        return b @ self._spline_coeffs, b

    def transform(self, which: str) -> "SampledKernel":
        # np.flip reverses every axis; .T leaves a local 1D profile as it is.
        # The knots are symmetric, so the flags act on a fitted coefficient
        # matrix as on the values, and the child needs no fit of its own.
        # On a factor pair V = L R^T a flip reverses the rows of both, a
        # transpose swaps them, so the child needs no compression either.
        flip, transpose, conj = transform_flags(which)

        def act(a):
            a = np.flip(a) if flip else a
            a = a.T if transpose else a
            return np.conj(a) if conj else a

        def act_pair(pair):
            if pair is None:
                return None
            left, right = (f[::-1] for f in pair) if flip else pair
            left, right = (right, left) if transpose else (left, right)
            return (np.conj(left), np.conj(right)) if conj else (left, right)

        out = SampledKernel(self.grid, act(np.asarray(self.values)), is_local=self.is_local)
        for name, derive in (("_spline_coeffs", act), ("_low_rank", act_pair),
                             ("_low_rank_coeffs", act_pair)):
            if name in self.__dict__:
                out.__dict__[name] = derive(self.__dict__[name])
        return out


MAX_DEGREE = 5  # of a PolynomialKernel, in each variable


@dataclass(frozen=True)
class PolynomialKernel:
    """Nonlocal kernel V(x, y) = sum_ij v_ij x^i y^j on [-d, d]^2.

    ``coeffs[i, j] = v_ij`` with both polynomial degrees capped at
    ``MAX_DEGREE``.
    """

    coeffs: np.ndarray
    d: float = HALF_WIDTH

    is_local = False

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if c.size == 0:
            raise ValueError(f"coeffs must hold at least one coefficient, got shape {c.shape}")
        if max(c.shape) > MAX_DEGREE + 1:
            raise ValueError(f"polynomial degrees are capped at {MAX_DEGREE} in each variable")
        _check_finite(c, "coeffs")
        _check_real(self.d, "d")
        if self.d <= 0:
            raise ValueError("support half-width d must be positive")
        object.__setattr__(self, "coeffs", _readonly(c))

    @property
    def imax(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def jmax(self) -> int:
        return self.coeffs.shape[1] - 1

    def factors(self, x_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact separable factors on the nodes: V(x_i, x_j) = (PC @ Q.T)[i, j].

        ``PC = vander(x, imax + 1) @ coeffs`` is n x (jmax + 1) and
        ``Q = vander(x, jmax + 1)`` is n x (jmax + 1), so the kernel has
        rank r = jmax + 1 <= 6 on any grid.  Rows of nodes outside +-d
        are zero in both, as the kernel is 0 there.
        """
        x = np.asarray(x_nodes, dtype=float)
        inside = (np.abs(x) <= self.d)[:, None]
        pc = np.polynomial.polynomial.polyvander(x, self.imax) @ self.coeffs
        q = np.polynomial.polynomial.polyvander(x, self.jmax)
        return np.where(inside, pc, 0.0), np.where(inside, q, 0.0)

    def sample_matrix(self, x_nodes: np.ndarray, y_nodes: np.ndarray) -> np.ndarray:
        pc, _ = self.factors(x_nodes)
        _, q = self.factors(y_nodes)
        return pc @ q.T

    def _square_coeffs(self) -> np.ndarray:
        s = max(self.coeffs.shape)
        c = np.zeros((s, s), dtype=complex)
        c[: self.coeffs.shape[0], : self.coeffs.shape[1]] = self.coeffs
        return c

    def transform(self, which: str) -> "PolynomialKernel":
        flip, transpose, conj = transform_flags(which)
        c = self._square_coeffs() if transpose else np.array(self.coeffs)
        if flip:
            i, j = np.indices(c.shape)
            c = c * (-1.0) ** (i + j)
        if transpose:
            c = c.T
        if conj:
            c = np.conj(c)
        return PolynomialKernel(c, d=self.d)


@dataclass(frozen=True)
class RegularizedInverseSquare:
    """Local PT-symmetric profile V(x) = alpha / (x - i epsilon)^2, real alpha.

    Real part even, imaginary part odd; for epsilon > 0 the spectrum vanishes
    for non-negative wavenumbers, making it a broadband one-way reflector,
    and epsilon < 0 is its mirror image.  As a scattering kernel it is
    truncated to |x| <= d.
    """

    alpha: float
    epsilon: float
    d: float = HALF_WIDTH

    is_local = True

    def __post_init__(self):
        # transform flips epsilon but never conjugates alpha: a complex
        # alpha would satisfy symmetries it breaks
        for name in ("alpha", "epsilon", "d"):
            _check_real(getattr(self, name), name)
        if self.epsilon == 0:
            raise ValueError("regularizer epsilon must be non-zero")
        if self.d <= 0:
            raise ValueError("support half-width d must be positive")

    def sample_profile(self, nodes: np.ndarray) -> np.ndarray:
        x = np.asarray(nodes, dtype=float)
        return np.where(np.abs(x) > self.d, 0.0, self.alpha / (x - 1j * self.epsilon) ** 2)

    def transform(self, which: str) -> "RegularizedInverseSquare":
        # Flipping x and conjugating each send epsilon -> -epsilon; .T is the identity.
        flip, _, conj = transform_flags(which)
        return self if flip == conj else RegularizedInverseSquare(self.alpha, -self.epsilon, self.d)


def adjoint(kernel):
    """Kernel of H^dagger: V(y, x)*, identical to kernel.transform('II')."""
    return kernel.transform("II")


def fourier_transform_local(potential: RegularizedInverseSquare, k):
    """Analytic Fourier transform of the regularized inverse-square
    profile: sqrt(2 pi) alpha k exp(epsilon k) for k < 0, and 0 for
    k >= 0; the mirror image (epsilon < 0) has V~_{-eps}(k) = V~_eps(-k)."""
    k = np.sign(potential.epsilon) * np.asarray(k, dtype=float)
    neg = np.sqrt(2.0 * np.pi) * potential.alpha * k * np.exp(abs(potential.epsilon) * k)
    out = np.where(k < 0, neg, 0.0)
    return complex(out) if out.ndim == 0 else out
