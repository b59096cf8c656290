import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from asymscat.kernels import PolynomialKernel, RegularizedInverseSquare, SampledKernel
from asymscat.solver import SolverConfig, _check_rcond, _simpson_kink_delta, grid_and_weights


SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# Hypothesis settings of the property tests.  Derandomized: tier-1 runs
# the same examples every time.
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                   suppress_health_check=[HealthCheck.too_slow])


def draw_kernel(draw, family, rng, g, k, strength):
    """A random kernel of ``family`` (sampled nonlocal, sampled local,
    polynomial, inverse-square) on [-d, d], d = g[-1], scaled so that
    |Omega V W| is of order ``strength`` at momentum k.  Sampled kernels
    take their samples on the grid g."""
    d, n = g[-1], g.size
    if family == "sampled":
        v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return SampledKernel(g, v * strength * k / ((2 * d) ** 2 * np.max(np.abs(v))))
    if family == "local":
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return SampledKernel(g, v * strength * k / (2 * d * np.max(np.abs(v))), is_local=True)
    if family == "polynomial":
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        c = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        i, j = np.indices(c.shape)
        return PolynomialKernel(
            c * strength * k / ((2 * d) ** 2 * np.sum(np.abs(c) * d ** (i + j))), d=d)
    # int |alpha / (x - i eps)^2| dx = pi |alpha| / |eps|; either sign of eps
    epsilon = draw(st.floats(0.05, 0.5)) * draw(st.sampled_from([1.0, -1.0]))
    return RegularizedInverseSquare(strength * k * abs(epsilon) / np.pi, epsilon, d)


@st.composite
def equivariance_problems(draw):
    """A random kernel of one of the four families (sampled nonlocal,
    sampled local, polynomial, inverse-square), a momentum and a
    trapezoid grid, on which generalized unitarity and the transform
    relations are exact for the discrete problem.

    Sampled kernels live on the solve grid; the others are read at its
    nodes.  Strengths keep |Omega V W| of order ``strength``, so the
    checks measure rounding, not the conditioning of a near-exceptional
    system.
    """
    family = draw(st.sampled_from(["sampled", "local", "polynomial", "inverse_square"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.5, 1.0, 2.0]))
    k = draw(st.floats(0.2, 4.0))
    strength = draw(st.floats(0.05, 2.0))
    n = draw(st.integers(21, 301))
    kernel = draw_kernel(draw, family, rng, np.linspace(-d, d, n), k, strength)
    return kernel, k, SolverConfig(n_grid=n, quadrature="trapezoid")


def cli_env():
    """Environment for ``python -m asymscat`` subprocesses.

    The subprocesses run in temporary directories, so a relative
    ``PYTHONPATH=src`` no longer points at the package; put the absolute
    source path first.
    """
    env = dict(os.environ)
    paths = [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def random_poly_surface(rng, n=401, d=1.0, degree=4, scale=1.0):
    """Smooth random complex kernel sampled from a low-order polynomial
    surface; smooth enough for every quadrature order used in tests."""
    g = np.linspace(-d, d, n)
    c = scale * (rng.normal(size=(degree + 1, degree + 1))
                 + 1j * rng.normal(size=(degree + 1, degree + 1)))
    return SampledKernel(g, PolynomialKernel(c, d=d).sample_matrix(g, g), is_local=False)


def green_operator(x, w, k, quadrature):
    """Matrix Omega with Omega @ f ~= int G0(x_i, x') f(x') dx'.

    No solve forms it; it is the dense reference that the tests check
    ``_apply_green`` and both solve paths against."""
    diff = np.abs(x[:, None] - x[None, :])
    G = np.exp(1j * k * diff) / (1j * k)
    omega = G * w[None, :]
    if quadrature == "simpson":
        delta = _simpson_kink_delta(k, x[1] - x[0])
        for i in range(1, x.size - 1, 2):
            omega[i, i - 1 : i + 2] += delta
    return omega


# The dense Nystrom reference.  Every solve path (banded local, separable
# through any factor form) reduces to the n x n system below; the tests
# check each path against it, and place exceptional points with it.

def dense_system(kernel, k, config):
    """The matrix I - Omega V W, or I - Omega diag(V) for a local kernel."""
    x, w = grid_and_weights(config, kernel.d)
    omega = green_operator(x, w, k, config.quadrature)
    if kernel.is_local:
        return np.eye(x.size) - omega * kernel.sample_profile(x)[None, :]
    return np.eye(x.size) - omega @ (kernel.sample_matrix(x, x) * w[None, :])


def dense_solve(kernel, k, config):
    """LU solve of ``dense_system`` for both incidence sides.

    Returns (psi, (Tl, Tr, Rl, Rr), rcond): psi has one column per side,
    left then right; the amplitudes are the post-form integrals
    T = 1 + (1/ik) int e^{-+ikx} s and R = (1/ik) int e^{+-ikx} s of the
    source s(x) = int V(x, y) psi(y) dy, in the grid's weights; rcond is
    the LAPACK zgecon estimate in the 1-norm."""
    x, w = grid_and_weights(config, kernel.d)
    A = dense_system(kernel, k, config)
    lu, piv = lu_factor(A)
    rcond, info = zgecon(lu, np.linalg.norm(A, 1))
    assert info == 0
    phi = np.stack([np.exp(1j * k * x), np.exp(-1j * k * x)], axis=1)
    psi = lu_solve((lu, piv), phi)
    if kernel.is_local:
        source = kernel.sample_profile(x)[:, None] * psi
    else:
        source = kernel.sample_matrix(x, x) @ (w[:, None] * psi)
    weighted = w[:, None] * source / (1j * k)
    plus, minus = np.exp(1j * k * x) @ weighted, np.exp(-1j * k * x) @ weighted
    return psi, np.array([1.0 + minus[0], 1.0 + plus[1], plus[0], minus[1]]), float(rcond)


# The dense finite-difference reference.  ``scatter_oracle_all`` solves
# the same n x n system through its tridiagonal part and the kernel's
# factors; the tests check it against this, and place its singular
# points with ``fd_matrix``.

def fd_matrix(kernel, k, n):
    """The oracle's n x n matrix on the uniform n-node grid over [-d, d]:
    central differences for -psi''/2 - k^2 psi/2, ghost-point Robin rows
    at both ends, plus diag(V) for a local kernel or V W (trapezoid
    weights W, sampled by ``sample_matrix``) for a nonlocal one."""
    d = kernel.d
    x = np.linspace(-d, d, n)
    h = x[1] - x[0]
    A = np.zeros((n, n), dtype=complex)
    idx = np.arange(1, n - 1)
    A[idx, idx] += 1.0 / h**2 - 0.5 * k**2
    A[idx, idx - 1] += -0.5 / h**2
    A[idx, idx + 1] += -0.5 / h**2
    A[0, 0] += (1.0 - 1j * h * k) / h**2 - 0.5 * k**2
    A[0, 1] += -1.0 / h**2
    A[n - 1, n - 1] += (1.0 - 1j * h * k) / h**2 - 0.5 * k**2
    A[n - 1, n - 2] += -1.0 / h**2
    if kernel.is_local:
        A[np.arange(n), np.arange(n)] += kernel.sample_profile(x)
    else:
        wq = np.full(n, h)
        wq[0] = wq[-1] = 0.5 * h
        A += kernel.sample_matrix(x, x) * wq[None, :]
    return A


def dense_oracle(kernel, k, n_grid):
    """(Tl, Tr, Rl, Rr) of ``scatter_oracle_all`` by dense LU of
    ``fd_matrix`` on n_grid and 2 n_grid - 1 nodes, Richardson
    extrapolated; raises SingularSystemError when the zgecon rcond of
    either matrix falls below the solver's threshold."""
    def once(n):
        A = fd_matrix(kernel, k, n)
        x = np.linspace(-kernel.d, kernel.d, n)
        ph = np.exp(-1j * k * kernel.d)
        rhs = np.zeros((n, 2), dtype=complex)
        rhs[0, 0] = rhs[n - 1, 1] = -2j * k * ph / (x[1] - x[0])
        lu, piv = lu_factor(A)
        rcond, info = zgecon(lu, np.linalg.norm(A, 1))
        _check_rcond(rcond if info == 0 else 0.0, k)
        psi = lu_solve((lu, piv), rhs)
        return np.array([psi[-1, 0], psi[0, 1], psi[0, 0] - ph, psi[-1, 1] - ph]) * ph

    return tuple((4.0 * once(2 * n_grid - 1) - once(n_grid)) / 3.0)


def singular_at(kernel, k_s, config):
    """The kernel divided by the largest eigenvalue of Omega V W at k_s,
    so that ``dense_system`` is exactly singular there.

    For a nonlocal kernel the eigenvalue is taken from the r x r
    capacitance matrix Q^T W Omega PC of its factors V = PC Q^T, which
    has the nonzero eigenvalues of Omega PC Q^T W, so that the r x r
    matrix the solver factors is the one made singular; a local kernel
    takes it from the n x n matrix Omega diag(V).  Sampled kernels
    divide their stored values; on the solve grid the scaling is exact,
    and off it the spline is linear in the values, so it is exact up to
    rounding."""
    x, w = grid_and_weights(config, kernel.d)
    omega = green_operator(x, w, k_s, config.quadrature)
    if kernel.is_local:
        lam = np.linalg.eigvals(omega * kernel.sample_profile(x)[None, :])
    else:
        pc, q = kernel.factors(x)
        lam = np.linalg.eigvals((q.T * w[None, :]) @ (omega @ pc))
    lam = lam[np.argmax(np.abs(lam))]
    if isinstance(kernel, PolynomialKernel):
        return PolynomialKernel(kernel.coeffs / lam, d=kernel.d)
    if kernel.is_local:
        return SampledKernel(x, kernel.sample_profile(x) / lam, is_local=True)
    return SampledKernel(kernel.grid, kernel.values / lam)


def poly_to_sampled(kernel, n):
    """The polynomial ``kernel`` sampled on n uniform nodes over [-d, d]."""
    g = np.linspace(-kernel.d, kernel.d, n)
    return SampledKernel(g, kernel.sample_matrix(g, g))


def poly_max_abs(kernel):
    return float(np.max(np.abs(poly_to_sampled(kernel, 101).values)))


def poly_edge_max(kernel):
    """max over y of |V(+-d, y)|; ~0 for edge-vanishing kernels."""
    y = np.linspace(-kernel.d, kernel.d, 201)
    return float(np.max(np.abs(kernel.sample_matrix([-kernel.d, kernel.d], y))))


def random_poly_kernel(rng, degree=4, d=1.0, scale=1.0):
    c = scale * (rng.normal(size=(degree + 1, degree + 1))
                 + 1j * rng.normal(size=(degree + 1, degree + 1)))
    return PolynomialKernel(c, d=d)


def random_local_kernel(rng, n=401, d=1.0, scale=1.0, complex_part=True):
    g = np.linspace(-d, d, n)
    c = scale * rng.normal(size=5)
    prof = np.polynomial.polynomial.polyval(g, c).astype(complex)
    if complex_part:
        prof = prof + 1j * np.polynomial.polynomial.polyval(g, scale * rng.normal(size=5))
    return SampledKernel(g, prof, is_local=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def square_well_analytic(k, depth=-1.0, a=1.0):
    """Closed-form amplitudes for V(x) = depth on [-a, a] (two-interface
    matching); q is the interior wavenumber sqrt(k^2 - 2 depth)."""
    q = np.sqrt(k * k - 2.0 * depth + 0j)
    D = np.cos(2 * q * a) - 1j * (k * k + q * q) / (2 * k * q) * np.sin(2 * q * a)
    T = np.exp(-2j * k * a) / D
    R = T * 1j * (q * q - k * k) / (2 * k * q) * np.sin(2 * q * a)
    return T, R
