"""Potential kernels: sampled nonlocal, polynomial nonlocal, and a
regularized local inverse-square profile.

A kernel is a complex two-variable function V(x, y) supported on
[-d, d]^2.  "Local" kernels mean V(x, y) = V(x) delta(x - y) and are
stored as a one-dimensional diagonal profile.  Every kernel object is
immutable after construction and safe to share across workers.

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
from scipy.interpolate import BSpline, InterpolatedUnivariateSpline, RectBivariateSpline

from .units import HALF_WIDTH

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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SampledKernel:
    """Kernel sampled on a uniform symmetric grid over [-d, d].

    ``values[i, j] = V(x_i, y_j)`` for nonlocal kernels; for local ones
    only the diagonal profile ``values[i] = V(x_i)`` is stored.
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

    @cached_property
    def _splines(self):
        g = self.grid
        if self.is_local:
            re = InterpolatedUnivariateSpline(g, self.values.real, k=3, ext=3)
            im = InterpolatedUnivariateSpline(g, self.values.imag, k=3, ext=3)
        else:
            re = RectBivariateSpline(g, g, self.values.real, kx=3, ky=3)
            im = RectBivariateSpline(g, g, self.values.imag, kx=3, ky=3)
        return re, im

    def evaluate(self, x, y=None):
        """Interpolated kernel value; exactly 0 outside the support."""
        if self.is_local:
            if y is not None and np.any(np.asarray(x) != np.asarray(y)):
                raise ValueError("local kernel takes a single coordinate")
            x = np.asarray(x, dtype=float)
            re, im = self._splines
            out = np.where(np.abs(x) > self.d, 0.0, re(x) + 1j * im(x))
            return complex(out) if out.ndim == 0 else out
        if y is None:
            raise ValueError("nonlocal kernel needs both x and y")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        re, im = self._splines
        val = re(x, y, grid=False) + 1j * im(x, y, grid=False)
        out = np.where((np.abs(x) > self.d) | (np.abs(y) > self.d), 0.0, val)
        return complex(out) if out.ndim == 0 else out

    def sample_profile(self, nodes: np.ndarray) -> np.ndarray:
        if not self.is_local:
            raise ValueError("sample_profile is only defined for local kernels")
        if nodes.size == self.n and np.allclose(nodes, self.grid, rtol=0, atol=1e-14):
            return np.asarray(self.values)
        return np.asarray(self.evaluate(nodes))

    def sample_matrix(self, x_nodes: np.ndarray, y_nodes: np.ndarray) -> np.ndarray:
        """V(x_i, y_j) on a node product; exactly 0 outside the support."""
        if self.is_local:
            raise ValueError("sample_matrix is only defined for nonlocal kernels")
        same_x = x_nodes.size == self.n and np.allclose(x_nodes, self.grid, rtol=0, atol=1e-14)
        same_y = y_nodes.size == self.n and np.allclose(y_nodes, self.grid, rtol=0, atol=1e-14)
        if same_x and same_y:
            return np.asarray(self.values)
        re, im = self._splines
        outside = (np.abs(x_nodes) > self.d)[:, None] | (np.abs(y_nodes) > self.d)[None, :]
        return np.where(outside, 0.0, re(x_nodes, y_nodes) + 1j * im(x_nodes, y_nodes))

    @cached_property
    def _spline_coeffs(self) -> np.ndarray:
        """Complex coefficient matrix C of the fitted nonlocal spline:
        V(x, y) = B(x) @ C @ B(y).T with B the cubic B-spline basis on
        the grid's knots (see ``factors``)."""
        re, im = self._splines
        shape = (self.n, self.n)
        c = re.get_coeffs().reshape(shape) + 1j * im.get_coeffs().reshape(shape)
        c.flags.writeable = False
        return c

    def factors(self, x_nodes: np.ndarray):
        """Exact separable factors on the nodes: V(x_i, x_j) = (PC @ Q.T)[i, j].

        With more nodes than the stored grid, the cubic spline is a
        degenerate kernel: ``PC = B @ C`` is dense and ``Q = B`` is the
        sparse B-spline design matrix of the nodes (rows of nodes outside
        +-d are zero), so the rank is the stored grid size.  On the stored
        grid, or with at most as many nodes, ``PC`` is ``sample_matrix``
        and ``Q`` the sparse identity.
        """
        if self.is_local:
            raise ValueError("factors is only defined for nonlocal kernels")
        x = np.asarray(x_nodes, dtype=float)
        if x.size <= self.n:
            return self.sample_matrix(x, x), sparse.eye_array(x.size, format="csr")
        g = self.grid
        # the not-a-knot knots that FITPACK places on the grid for s = 0
        t = np.concatenate([np.full(4, g[0]), g[2:-2], np.full(4, g[-1])])
        inside = sparse.diags_array((np.abs(x) <= self.d).astype(float))
        b = inside @ BSpline.design_matrix(np.clip(x, t[0], t[-1]), t, 3)
        return b @ self._spline_coeffs, b

    def transform(self, which: str) -> "SampledKernel":
        # np.flip reverses every axis; .T leaves a local 1D profile as it is.
        # The knots are symmetric, so the flags act on a fitted coefficient
        # matrix as on the values, and the child needs no fit of its own.
        flip, transpose, conj = transform_flags(which)

        def act(a):
            a = np.flip(a) if flip else a
            a = a.T if transpose else a
            return np.conj(a) if conj else a

        out = SampledKernel(self.grid, act(np.asarray(self.values)), is_local=self.is_local)
        if "_spline_coeffs" in self.__dict__:
            out.__dict__["_spline_coeffs"] = act(self._spline_coeffs)
        return out


@dataclass(frozen=True)
class PolynomialKernel:
    """Nonlocal kernel V(x, y) = sum_ij v_ij x^i y^j on [-d, d]^2.

    ``coeffs[i, j] = v_ij`` with both polynomial degrees capped at 5.
    """

    coeffs: np.ndarray
    d: float = HALF_WIDTH

    is_local = False

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if c.shape[0] > 6 or c.shape[1] > 6:
            raise ValueError("polynomial degrees are capped at 5 in each variable")
        _check_finite(c, "coeffs")
        _check_finite(self.d, "d")
        if self.d <= 0:
            raise ValueError("support half-width d must be positive")
        object.__setattr__(self, "coeffs", _readonly(c))

    @property
    def imax(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def jmax(self) -> int:
        return self.coeffs.shape[1] - 1

    def evaluate(self, x, y=None):
        if y is None:
            raise ValueError("nonlocal kernel needs both x and y")
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        val = np.polynomial.polynomial.polyval2d(x, y, self.coeffs)
        out = np.where((np.abs(x) > self.d) | (np.abs(y) > self.d), 0.0, val)
        return complex(out) if out.ndim == 0 else out

    def factors(self, x_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact separable factors on the nodes: V(x_i, x_j) = (PC @ Q.T)[i, j].

        ``PC = vander(x, imax + 1) @ coeffs`` is n x (jmax + 1) and
        ``Q = vander(x, jmax + 1)`` is n x (jmax + 1), so the kernel has
        rank r = jmax + 1 <= 6 on any grid.
        """
        x = np.asarray(x_nodes, dtype=float)
        pc = np.polynomial.polynomial.polyvander(x, self.imax) @ self.coeffs
        return pc, np.polynomial.polynomial.polyvander(x, self.jmax)

    def sample_matrix(self, x_nodes: np.ndarray, y_nodes: np.ndarray) -> np.ndarray:
        pc, _ = self.factors(x_nodes)
        _, q = self.factors(y_nodes)
        return pc @ q.T

    def to_sampled(self, n: int = 401) -> SampledKernel:
        g = np.linspace(-self.d, self.d, n)
        return SampledKernel(g, self.sample_matrix(g, g), is_local=False)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.to_sampled(101).values)))

    def edge_max(self, n_samples: int = 201) -> float:
        """max over y of |V(+-d, y)|; ~0 for edge-vanishing kernels."""
        y = np.linspace(-self.d, self.d, n_samples)
        lo = np.abs(self.evaluate(np.full_like(y, -self.d), y))
        hi = np.abs(self.evaluate(np.full_like(y, self.d), y))
        return float(max(lo.max(), hi.max()))

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
    truncated to |x| <= d; ``profile_raw`` evaluates the untruncated function.
    """

    alpha: float
    epsilon: float
    d: float = HALF_WIDTH

    is_local = True

    def __post_init__(self):
        for name in ("alpha", "epsilon", "d"):
            _check_finite(getattr(self, name), name)
        if self.epsilon == 0:
            raise ValueError("regularizer epsilon must be non-zero")
        if self.d <= 0:
            raise ValueError("support half-width d must be positive")

    def profile_raw(self, x):
        x = np.asarray(x, dtype=float)
        out = self.alpha / (x - 1j * self.epsilon) ** 2
        return complex(out) if out.ndim == 0 else out

    def evaluate(self, x, y=None):
        if y is not None and np.any(np.asarray(x) != np.asarray(y)):
            raise ValueError("local kernel takes a single coordinate")
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) > self.d, 0.0, self.profile_raw(x))
        return complex(out) if out.ndim == 0 else out

    def sample_profile(self, nodes: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluate(nodes))

    def to_sampled(self, n: int = 401) -> SampledKernel:
        g = np.linspace(-self.d, self.d, n)
        return SampledKernel(g, self.sample_profile(g), is_local=True)

    def transform(self, which: str) -> "RegularizedInverseSquare":
        # Flipping x and conjugating each send epsilon -> -epsilon; .T is the identity.
        flip, _, conj = transform_flags(which)
        return self if flip == conj else RegularizedInverseSquare(self.alpha, -self.epsilon, self.d)


PotentialKernel = SampledKernel | PolynomialKernel | RegularizedInverseSquare


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
