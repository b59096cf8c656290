"""The separable (capacitance-matrix) solve of polynomial kernels against
the dense Nystrom reference.

The reference is the dense path fed the very same matrix: a
SampledKernel holding ``kernel.sample_matrix(x, x)`` on the solve grid,
whose ``sample_matrix`` hands back the stored values exactly.  Both
paths therefore solve one discrete problem, and they must agree to
rounding.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymscat.errors import SingularSystemError
from asymscat.kernels import PolynomialKernel, SampledKernel
from asymscat.solver import (
    SolverConfig,
    _apply_green,
    _green_operator,
    grid_and_weights,
    k_sweep,
    scatter,
    scatter_all,
)
from conftest import PROFILE


def _grid_config(grid: str, n: int, d: float, rng) -> SolverConfig:
    if grid in ("simpson", "trapezoid"):
        return SolverConfig(n_grid=n, quadrature=grid)
    nodes = np.linspace(-d, d, n)
    if grid == "nodes":
        return SolverConfig(nodes=nodes)
    h = nodes[1] - nodes[0]
    return SolverConfig(nodes=nodes, weights=h * rng.uniform(0.5, 1.5, n))


@st.composite
def polynomial_problems(draw):
    """A random polynomial kernel, a solve grid and a momentum.

    The coefficients are scaled so that |Omega V W| stays of order
    ``strength``: the comparison measures rounding, not the conditioning
    of a near-exceptional system.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.5, 1.0, 2.0]))
    k = draw(st.floats(0.05, 6.0))
    strength = draw(st.floats(0.05, 3.0))
    grid = draw(st.sampled_from(["simpson", "trapezoid", "nodes", "nodes+weights"]))
    n = 2 * draw(st.integers(50, 200)) + 1
    c = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    i, j = np.indices(c.shape)
    c *= strength * k / ((2 * d) ** 2 * np.sum(np.abs(c) * d ** (i + j)))
    return PolynomialKernel(c, d=d), k, _grid_config(grid, n, d, rng)


def dense_reference(kernel, config):
    x, _ = grid_and_weights(config, kernel.d)
    return SampledKernel(x, kernel.sample_matrix(x, x))


def _eight(amps):
    return np.array(amps.quadruple + (amps.hatted.quadruple if amps.hatted else ()))


@PROFILE
@given(polynomial_problems(), st.booleans())
def test_separable_amplitudes_match_dense(problem, include_adjoint):
    kernel, k, config = problem
    fast = _eight(scatter_all(kernel, k, config, include_adjoint=include_adjoint))
    dense = _eight(scatter_all(dense_reference(kernel, config), k, config,
                               include_adjoint=include_adjoint))
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@PROFILE
@given(polynomial_problems(), st.sampled_from(["left", "right"]))
def test_separable_psi_matches_dense(problem, side):
    kernel, k, config = problem
    fast = scatter(kernel, k, side, config)
    dense = scatter(dense_reference(kernel, config), k, side, config)
    assert np.array_equal(fast.nodes, dense.nodes)
    assert np.max(np.abs(fast.psi - dense.psi)) <= 1e-12 * np.max(np.abs(dense.psi))
    assert abs(fast.T - dense.T) <= 1e-12 * max(abs(dense.T), abs(dense.R))
    assert abs(fast.R - dense.R) <= 1e-12 * max(abs(dense.T), abs(dense.R))


@PROFILE
@given(st.integers(0, 2**32 - 1), st.sampled_from(["simpson", "trapezoid", "graded"]),
       st.integers(2, 300), st.floats(0.05, 6.0), st.integers(1, 6))
def test_prefix_sum_green_matches_dense_operator(seed, grid, half, k, cols):
    rng = np.random.default_rng(seed)
    n = 2 * half + 1
    if grid == "graded":
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        x[0], x[-1] = -1.0, 1.0
        x, w = grid_and_weights(SolverConfig(nodes=np.unique(x)), 1.0)
        quadrature = "trapezoid"
    else:
        x, w = grid_and_weights(SolverConfig(n_grid=n, quadrature=grid), 1.0)
        quadrature = grid
    M = rng.normal(size=(x.size, cols)) + 1j * rng.normal(size=(x.size, cols))
    dense = _green_operator(x, w, k, quadrature) @ M
    fast = _apply_green(x, w, k, quadrature, M)
    assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_polynomial_sampling_matches_pointwise_evaluation(rng):
    kernel = PolynomialKernel(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
    x = np.linspace(-1.0, 1.0, 41)
    y = np.linspace(-1.0, 1.0, 33)
    X, Y = np.meshgrid(x, y, indexing="ij")
    sampled = kernel.sample_matrix(x, y)
    assert sampled.shape == (41, 33)
    assert np.allclose(sampled, kernel.evaluate(X, Y), rtol=1e-14, atol=1e-14)
    pc, q = kernel.factors(x)
    assert pc.shape == q.shape == (41, 4)


def _exceptional_rank_one_kernel(cfg, k):
    # V(x, y) = p(x) q(y) scaled so that 1 is an eigenvalue of Omega V W,
    # computed on the dense operator: I - Omega V W is exactly singular.
    base = PolynomialKernel(np.outer([1.0, 0.3j, -2.0], [1.0, 0.5 - 0.2j]))
    x, w = grid_and_weights(cfg, base.d)
    omega = _green_operator(x, w, k, cfg.quadrature)
    lam = np.linalg.eigvals(omega @ (base.sample_matrix(x, x) * w[None, :]))
    lam0 = lam[np.argmax(np.abs(lam))]
    return PolynomialKernel(base.coeffs / lam0)


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
def test_capacitance_matrix_flags_exceptional_point(quadrature):
    cfg = SolverConfig(n_grid=201, quadrature=quadrature)
    ker = _exceptional_rank_one_kernel(cfg, 1.0)
    with pytest.raises(SingularSystemError) as err:
        scatter_all(ker, 1.0, cfg)
    assert err.value.rcond < 1e-14
    with pytest.raises(SingularSystemError):
        scatter(ker, 1.0, "right", cfg)
    with pytest.raises(SingularSystemError):
        scatter_all(dense_reference(ker, cfg), 1.0, cfg)


def test_sweep_records_exceptional_row_and_continues():
    cfg = SolverConfig(n_grid=201, quadrature="trapezoid")
    ker = _exceptional_rank_one_kernel(cfg, 1.0)
    table = k_sweep(ker, [0.5, 1.0, 1.5], cfg)
    assert table.rows[1].amps is None
    assert "non-invertible" in table.rows[1].error
    assert table.rows[0].amps is not None
    assert table.rows[2].amps is not None
