"""Solves at and near exceptional points: loud failure or intact
invariants.

Each kernel comes from ``singular_at`` (conftest.py), which scales it so
that 1 is an eigenvalue of Omega V W at a momentum k_s: the dense
system I - Omega V W of ``dense_system`` is then exactly singular there.
The kernels cover the banded local path and each factor form of the
separable path: the sampled matrix with Q = I, a compressed pair L R^T,
the r x r spline capacitance matrix and monomial factors.

At k_s itself every entry point must report the singular system, on
trapezoid and Simpson grids, and a sweep must record the row and go on.
Near it, at k = k_s (1 + delta) for |delta| from 1e-16 to about 1e-1, a
solve must either raise SingularSystemError, or return amplitudes whose
generalized unitarity and transform relations hold to the accuracy the
conditioning allows, 1e-12 + 100 eps / rcond, with rcond the smaller
zgecon estimate of the H and H-dagger systems from ``dense_solve``;
below rcond = 1e-16 it must raise.  The algebraic adjoint either raises
AdjointDivergenceError or matches the adjoint solve to the same
accuracy.  Those grids are trapezoid, where both invariants are exact
for the discrete problem.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from asymscat.errors import AdjointDivergenceError, SingularSystemError
from asymscat.kernels import SYMMETRY_CODES, PolynomialKernel, SampledKernel, adjoint
from asymscat.solver import (
    SolverConfig,
    generalized_unitarity_residuals,
    grid_and_weights,
    hatted_from_unhatted,
    k_sweep,
    scatter,
    scatter_all,
)
from asymscat.symmetry import transformed_amplitudes
from conftest import PROFILE, dense_solve, singular_at

EPS = np.finfo(float).eps


def _complex_normal(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def random_kernel(rng, family, x, size):
    """A random kernel of ``family``; the sampled ones live on the solve
    grid x, except "spline", stored on size[0] < x.size nodes.  A
    "low-rank" kernel is the sum of size[0] outer products."""
    n = x.size
    if family == "local":
        return SampledKernel(x, _complex_normal(rng, n), is_local=True)
    if family == "low-rank":
        a, b = (_complex_normal(rng, (n, size[0])) for _ in range(2))
        return SampledKernel(x, a @ b.T)
    if family in ("sampled", "spline"):
        g = x if family == "sampled" else np.linspace(x[0], x[-1], size[0])
        return SampledKernel(g, _complex_normal(rng, (g.size,) * 2))
    return PolynomialKernel(_complex_normal(rng, size), d=float(x[-1]))


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
    rcond = min(dense_solve(kernel, k, config)[2], dense_solve(adjoint(kernel), k, config)[2])
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


def _assert_factor_form(family, size, kernel, x):
    """The separable factors on the solve nodes x take the form that
    ``family`` stands for."""
    if family == "local":
        return
    pc, q = kernel.factors(x)
    if family == "sampled":
        # samples that do not compress: PC is the sampled matrix, Q = I
        assert sparse.issparse(q) and np.array_equal(q.toarray(), np.eye(x.size))
    elif family == "spline":
        assert sparse.issparse(q) and q.shape == (x.size, size[0])
    elif family == "low-rank":
        assert not sparse.issparse(q) and pc.shape == q.shape == (x.size, size[0])
    else:
        assert pc.shape == q.shape == (x.size, size[1])


@pytest.mark.parametrize("n", [61, 201])
@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
@pytest.mark.parametrize("family, size", [("local", None), ("sampled", None),
                                          ("low-rank", (3, None)), ("spline", (21, None)),
                                          ("polynomial", (3, 3)), ("polynomial", (3, 1))],
                         ids=["local", "sampled", "low-rank", "spline", "polynomial",
                              "polynomial-rank1"])
def test_exactly_singular_systems_are_reported(family, size, quadrature, n):
    # delta = 0 on each solve path: the system is singular to rounding.
    # A 21-node sampled kernel has a 21 x 21 spline capacitance matrix on
    # the solve nodes, a sum of three outer products a 3 x 3 one and a
    # (3, 1) polynomial a 1 x 1 one.  Every entry point
    # raises; a sweep records the row and solves the momenta around it.
    k_s = 1.3
    config = SolverConfig(n_grid=n, quadrature=quadrature)
    x, _ = grid_and_weights(config, 1.0)
    kernel = singular_at(random_kernel(np.random.default_rng(11), family, x, size), k_s, config)
    _assert_factor_form(family, size, kernel, x)
    assert dense_solve(kernel, k_s, config)[2] < 1e-15
    with pytest.raises(SingularSystemError) as err:
        scatter_all(kernel, k_s, config)
    assert err.value.rcond < 1e-14
    for side in ("left", "right"):
        with pytest.raises(SingularSystemError):
            scatter(kernel, k_s, side, config)
    table = k_sweep(kernel, [0.5 * k_s, k_s, 1.5 * k_s], config)
    assert [row.amps is None for row in table.rows] == [False, True, False]
    assert "non-invertible" in table.rows[1].error


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
    rcond = min(dense_solve(kernel, k, config)[2], dense_solve(adjoint(kernel), k, config)[2])
    algebraic = hatted_from_unhatted(amps)
    assert _relative(algebraic.quadruple, hatted) <= 1e-12 + 100.0 * EPS / rcond
