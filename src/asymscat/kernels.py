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
from scipy.interpolate import InterpolatedUnivariateSpline, RectBivariateSpline

from .units import HALF_WIDTH

SYMMETRY_CODES = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")

# (flip coordinates, transpose arguments, conjugate) flags per transform.
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


def _check_code(which: str) -> str:
    if which not in SYMMETRY_CODES:
        raise ValueError(f"unknown symmetry code {which!r}; expected one of {SYMMETRY_CODES}")
    return which


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
        if n < 3:
            raise ValueError("sampled kernel needs at least 3 grid points")
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

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def transform(self, which: str) -> "SampledKernel":
        flip, transpose, conj = _TRANSFORM_FLAGS[_check_code(which)]
        v = np.asarray(self.values)
        if self.is_local:
            # On a diagonal profile, transposition is the identity.
            if flip:
                v = v[::-1]
            if conj:
                v = np.conj(v)
            return SampledKernel(self.grid, v, is_local=True)
        if flip:
            v = v[::-1, ::-1]
        if transpose:
            v = v.T
        if conj:
            v = np.conj(v)
        return SampledKernel(self.grid, v, is_local=False)


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
        flip, transpose, conj = _TRANSFORM_FLAGS[_check_code(which)]
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
    """Local PT-symmetric profile V(x) = alpha / (x - i epsilon)^2.

    Real part even, imaginary part odd; the Fourier transform vanishes
    identically for non-negative wavenumbers, which is what makes it a
    broadband one-way reflector.  As a scattering kernel it is truncated
    to |x| <= d; ``profile_raw`` evaluates the untruncated function.
    """

    alpha: float
    epsilon: float
    d: float = HALF_WIDTH

    is_local = True

    def __post_init__(self):
        for name in ("alpha", "epsilon", "d"):
            _check_finite(getattr(self, name), name)
        if self.epsilon <= 0:
            raise ValueError("regularizer epsilon must be positive")
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

    def max_abs(self) -> float:
        return abs(self.alpha) / self.epsilon**2

    def transform(self, which: str):
        _check_code(which)
        # VI is automatic for local kernels; VII holds because the
        # profile is PT-symmetric.  Other transforms leave the family.
        if which in ("I", "VI", "VII"):
            return self
        return self.to_sampled().transform(which)


PotentialKernel = SampledKernel | PolynomialKernel | RegularizedInverseSquare


def evaluate(kernel, x, y=None):
    """V(x, y) for nonlocal kernels, V(x) for local ones; 0 outside the
    support."""
    return kernel.evaluate(x, y)


def transform(kernel, which: str):
    """Apply one of the eight involutive transforms I..VIII."""
    return kernel.transform(which)


def adjoint(kernel):
    """Kernel of H^dagger: V(y, x)*, identical to transform(..., 'II')."""
    return kernel.transform("II")


def fourier_transform_local(potential: RegularizedInverseSquare, k):
    """Analytic Fourier transform of the regularized inverse-square
    profile: sqrt(2 pi) alpha k exp(epsilon k) for k < 0, and 0 for
    k >= 0."""
    k = np.asarray(k, dtype=float)
    neg = np.sqrt(2.0 * np.pi) * potential.alpha * k * np.exp(potential.epsilon * k)
    out = np.where(k < 0, neg, 0.0)
    return complex(out) if out.ndim == 0 else out


def to_sampled(kernel, n: int = 401) -> SampledKernel:
    """Canonical conversion into the sampled representation."""
    if isinstance(kernel, SampledKernel):
        return kernel
    return kernel.to_sampled(n)
