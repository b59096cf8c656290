"""Solves near exceptional points: loud failure or intact invariants.

Each kernel is scaled so that 1 is an eigenvalue of Omega V W at a
momentum k_s, which makes the discrete system I - Omega V W exactly
singular there (the eigenvalue-scaling trick of test_local_banded.py).
The kernels cover the banded local path and each factor form of the
separable path, the r x r spline capacitance matrix included.
The solve then runs at k = k_s (1 + delta) for |delta| from 1e-16 to
about 1e-1, and at k_s itself on each solve path.  It must either raise
SingularSystemError, or return amplitudes whose generalized unitarity
and transform relations hold to the accuracy the conditioning allows,
1e-12 + 100 eps / rcond, with rcond the smaller zgecon estimate of the
H and H-dagger systems; below rcond = 1e-16 it must raise.  The
algebraic adjoint either raises AdjointDivergenceError or matches the
adjoint solve to the same accuracy.  Grids are trapezoid, where both
invariants are exact for the discrete problem.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lu_factor
from scipy.linalg.lapack import zgecon

from asymscat.errors import AdjointDivergenceError, SingularSystemError
from asymscat.kernels import SYMMETRY_CODES, PolynomialKernel, SampledKernel, adjoint
from asymscat.solver import (
    SolverConfig,
    generalized_unitarity_residuals,
    grid_and_weights,
    hatted_from_unhatted,
    scatter_all,
)
from asymscat.symmetry import transformed_amplitudes
from conftest import PROFILE, green_operator

EPS = np.finfo(float).eps


def dense_system(kernel, k, config):
    """The n x n matrix I - Omega V W that every solve path reduces to."""
    x, w = grid_and_weights(config, kernel.d)
    omega = green_operator(x, w, k, config.quadrature)
    if kernel.is_local:
        return np.eye(x.size) - omega * kernel.sample_profile(x)[None, :]
    return np.eye(x.size) - omega @ (kernel.sample_matrix(x, x) * w[None, :])


def dense_rcond(A):
    lu, _ = lu_factor(A)
    rcond, info = zgecon(lu, np.linalg.norm(A, 1))
    assert info == 0
    return float(rcond)


def singular_at(kernel, k_s, config):
    """The kernel divided by the largest eigenvalue of Omega V W at k_s,
    so that I - Omega V W is exactly singular there.  Sampled kernels
    divide their stored values; on the solve grid the scaling is exact,
    and off it the spline is linear in the values, so it is exact up to
    rounding."""
    x, _ = grid_and_weights(config, kernel.d)
    lam = np.linalg.eigvals(np.eye(x.size) - dense_system(kernel, k_s, config))
    lam = lam[np.argmax(np.abs(lam))]
    if isinstance(kernel, PolynomialKernel):
        return PolynomialKernel(kernel.coeffs / lam, d=kernel.d)
    if kernel.is_local:
        return SampledKernel(x, kernel.sample_profile(x) / lam, is_local=True)
    return SampledKernel(kernel.grid, kernel.values / lam)


def random_kernel(rng, family, x, size):
    """A random kernel of ``family``; the sampled ones live on the solve
    grid x, except "spline", stored on size[0] < x.size nodes."""
    n = x.size
    if family == "local":
        return SampledKernel(x, rng.normal(size=n) + 1j * rng.normal(size=n), is_local=True)
    if family in ("sampled", "spline"):
        g = x if family == "sampled" else np.linspace(x[0], x[-1], size[0])
        return SampledKernel(g, rng.normal(size=(g.size,) * 2) + 1j * rng.normal(size=(g.size,) * 2))
    c = rng.normal(size=size) + 1j * rng.normal(size=size)
    return PolynomialKernel(c, d=float(x[-1]))


@st.composite
def near_exceptional_problems(draw):
    """A kernel of one solve path or factor form (banded local; sampled on
    the solve grid, with Q = I; sampled on a coarser grid, through its
    r x r spline capacitance matrix; polynomial) singular at k_s, the
    momentum k_s (1 + delta) and a trapezoid grid.  delta = +-m 10^e
    with m in [1, 9] and the decade e drawn uniformly from -16 to -2."""
    family = draw(st.sampled_from(["local", "sampled", "spline", "polynomial"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.5, 1.0, 2.0]))
    k_s = draw(st.floats(0.2, 4.0))
    n = draw(st.integers(21, 161))
    delta = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 9.0)) \
        * 10.0 ** draw(st.sampled_from(range(-16, -1)))
    if family == "spline":
        size = (draw(st.integers(4, n - 1)), None)
    else:
        size = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    config = SolverConfig(n_grid=n, quadrature="trapezoid")
    x, _ = grid_and_weights(config, d)
    kernel = singular_at(random_kernel(rng, family, x, size), k_s, config)
    return kernel, k_s * (1.0 + delta), config


def _relative(got, want):
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) / (1.0 + np.max(np.abs(want)))


@PROFILE
@given(problem=near_exceptional_problems())
def test_loud_failure_or_invariants_hold(problem):
    kernel, k, config = problem
    rcond = min(dense_rcond(dense_system(kernel, k, config)),
                dense_rcond(dense_system(adjoint(kernel), k, config)))
    try:
        amps = scatter_all(kernel, k, config, include_adjoint=True)
    except SingularSystemError:
        return
    # the solver's threshold is 1e-14 on its own estimate, which on the
    # separable path describes the r x r capacitance matrix instead
    assert rcond >= 1e-16
    bound = 1e-12 + 100.0 * EPS / rcond
    got, hatted = np.array(amps.quadruple), np.array(amps.hatted.quadruple)
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(hatted))
    scale = (1.0 + np.max(np.abs(got))) * (1.0 + np.max(np.abs(hatted)))
    assert np.max(generalized_unitarity_residuals(amps)) <= bound * scale
    for code in SYMMETRY_CODES[1:]:
        try:
            transformed = scatter_all(kernel.transform(code), k, config)
        except SingularSystemError:
            continue
        predicted = transformed_amplitudes(amps, code).quadruple
        assert _relative(transformed.quadruple, predicted) <= bound
    try:
        algebraic = hatted_from_unhatted(amps)
    except AdjointDivergenceError:
        return
    assert _relative(algebraic.quadruple, hatted) <= bound


@pytest.mark.parametrize("family, size", [("local", None), ("sampled", None), ("spline", (21, None)),
                                          ("polynomial", (3, 3)), ("polynomial", (3, 1))],
                         ids=["local", "sampled", "spline", "polynomial", "polynomial-rank1"])
def test_exactly_singular_systems_are_reported(family, size):
    # delta = 0 on each solve path: the system is singular to rounding.
    # A 21-node sampled kernel has a 21 x 21 spline capacitance matrix on
    # the 61 solve nodes, a (3, 1) polynomial a 1 x 1 one.
    config = SolverConfig(n_grid=61, quadrature="trapezoid")
    x, _ = grid_and_weights(config, 1.0)
    kernel = singular_at(random_kernel(np.random.default_rng(11), family, x, size), 1.3, config)
    assert dense_rcond(dense_system(kernel, 1.3, config)) < 1e-15
    with pytest.raises(SingularSystemError) as err:
        scatter_all(kernel, 1.3, config)
    assert err.value.rcond < 1e-14


def test_adjoint_near_a_pole_of_s_is_finite():
    # Just off a singular point the amplitudes are ~5e10, but T^l T^r and
    # R^l R^r (~1e21) cancel to D ~ 7e10, so the adjoint amplitudes stay
    # of order one; the algebraic adjoint must return them, as the
    # adjoint solve does, instead of reporting a divergence.
    config = SolverConfig(n_grid=101, quadrature="trapezoid")
    x, _ = grid_and_weights(config, 1.0)
    kernel = singular_at(random_kernel(np.random.default_rng(0), "sampled", x, None), 1.2, config)
    k = 1.2 * (1.0 + 1e-10)
    amps = scatter_all(kernel, k, config, include_adjoint=True)
    hatted = np.array(amps.hatted.quadruple)
    assert np.max(np.abs(amps.quadruple)) > 1e10
    assert np.max(np.abs(hatted)) < 1.0
    rcond = min(dense_rcond(dense_system(kernel, k, config)),
                dense_rcond(dense_system(adjoint(kernel), k, config)))
    algebraic = hatted_from_unhatted(amps)
    assert _relative(algebraic.quadruple, hatted) <= 1e-12 + 100.0 * EPS / rcond
