"""The separable (capacitance-matrix) solve of nonlocal kernels against
a dense Nystrom reference built here.

The reference samples the kernel on the solve grid with
``sample_matrix``, assembles the n x n matrix I - Omega V W from the
dense Green's operator ``_green_operator``, solves it with
``np.linalg.solve`` and reads the amplitudes off the post-form source
V W psi.  Both solve one discrete problem, up to the rounding in which
the factors PC Q^T reproduce the sampled matrix, and they must agree to
rounding.  Polynomial kernels go through their monomial factors;
sampled kernels through their spline factors off the stored grid, or
through the sampled matrix with Q = I on it and on fewer nodes.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymscat.errors import SingularSystemError
from asymscat.kernels import SYMMETRY_CODES, PolynomialKernel, SampledKernel, adjoint
from asymscat.solver import (
    SolverConfig,
    _amplitudes_from_source,
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


def dense_reference(kernel, k, config, sides=("left", "right")):
    """([(T, R) per side], psi) from I - Omega V W, assembled densely and
    solved by np.linalg.solve."""
    x, w = grid_and_weights(config, kernel.d)
    V = kernel.sample_matrix(x, x)
    A = np.eye(x.size) - _green_operator(x, w, k, config.quadrature) @ (V * w[None, :])
    phi = np.stack([np.exp((1j if side == "left" else -1j) * k * x) for side in sides], axis=1)
    psi = np.linalg.solve(A, phi)
    source = V @ (w[:, None] * psi)
    return [_amplitudes_from_source(source[:, c], x, w, k, side)
            for c, side in enumerate(sides)], psi


def dense_eight(kernel, k, config, include_adjoint):
    """The reference (Tl, Tr, Rl, Rr), followed by the adjoint's if asked."""
    out = []
    for ker in (kernel, adjoint(kernel)) if include_adjoint else (kernel,):
        [(Tl, Rl), (Tr, Rr)], _ = dense_reference(ker, k, config)
        out += [Tl, Tr, Rl, Rr]
    return np.array(out)


def _eight(amps):
    return np.array(amps.quadruple + (amps.hatted.quadruple if amps.hatted else ()))


@PROFILE
@given(polynomial_problems(), st.booleans())
def test_separable_amplitudes_match_dense(problem, include_adjoint):
    kernel, k, config = problem
    fast = _eight(scatter_all(kernel, k, config, include_adjoint=include_adjoint))
    dense = dense_eight(kernel, k, config, include_adjoint)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@PROFILE
@given(polynomial_problems(), st.sampled_from(["left", "right"]))
def test_separable_psi_matches_dense(problem, side):
    kernel, k, config = problem
    fast = scatter(kernel, k, side, config)
    [(T, R)], psi = dense_reference(kernel, k, config, (side,))
    assert np.array_equal(fast.nodes, grid_and_weights(config, kernel.d)[0])
    assert np.max(np.abs(fast.psi - psi[:, 0])) <= 1e-12 * np.max(np.abs(psi))
    assert abs(fast.T - T) <= 1e-12 * max(abs(T), abs(R))
    assert abs(fast.R - R) <= 1e-12 * max(abs(T), abs(R))


def _stored_values(rng, roughness, g):
    """Complex samples on the stored grid g: a random Gaussian bump
    surface, or independent random numbers at every node."""
    n = g.size
    if roughness == "rough":
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    X, Y = np.meshgrid(g / g[-1], g / g[-1], indexing="ij")
    out = np.zeros((n, n), dtype=complex)
    for _ in range(3):
        a, b = rng.uniform(-0.8, 0.8, size=2)
        amp = rng.normal() + 1j * rng.normal()
        out += amp * np.exp(-rng.uniform(1.0, 8.0) * ((X - a) ** 2 + (Y - b) ** 2))
    return out


@st.composite
def sampled_problems(draw, placement):
    """A random sampled nonlocal kernel, a solve grid and a momentum.

    By ``placement`` the solve grid is the stored grid itself (r = n), a
    grid with fewer nodes (also r = n) or one with more (the spline
    factors, r = n_s).  Explicit nodes off the stored grid may reach 30%
    beyond +-d, where the kernel is zero.  Values are scaled so that
    |Omega V W| stays of order ``strength``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.5, 1.0, 2.0]))
    k = draw(st.floats(0.05, 6.0))
    strength = draw(st.floats(0.05, 3.0))
    n_s = 2 * draw(st.integers(2, 60)) + 1
    g = np.linspace(-d, d, n_s)
    v = _stored_values(rng, draw(st.sampled_from(["smooth", "rough"])), g)
    kernel = SampledKernel(g, v * strength * k / ((2 * d) ** 2 * np.max(np.abs(v))))
    grid = draw(st.sampled_from(["simpson", "trapezoid", "nodes", "nodes+weights"]))
    if placement == "stored":
        n = n_s
    elif placement == "fewer":
        n = 2 * draw(st.integers(1, (n_s - 3) // 2)) + 1
    else:
        n = 2 * draw(st.integers((n_s + 1) // 2, 3 * n_s)) + 1
    if grid in ("simpson", "trapezoid"):
        return kernel, k, SolverConfig(n_grid=n, quadrature=grid)
    reach = 1.0 if placement == "stored" else draw(st.sampled_from([1.0, 1.3]))
    nodes = np.linspace(-reach * d, reach * d, n)
    if grid == "nodes":
        return kernel, k, SolverConfig(nodes=nodes)
    h = nodes[1] - nodes[0]
    return kernel, k, SolverConfig(nodes=nodes, weights=h * rng.uniform(0.5, 1.5, n))


@pytest.mark.parametrize("placement", ["stored", "fewer", "more"])
@PROFILE
@given(data=st.data(), include_adjoint=st.booleans())
def test_sampled_amplitudes_match_dense(placement, data, include_adjoint):
    kernel, k, config = data.draw(sampled_problems(placement))
    fast = _eight(scatter_all(kernel, k, config, include_adjoint=include_adjoint))
    dense = dense_eight(kernel, k, config, include_adjoint)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@PROFILE
@given(st.integers(0, 2**32 - 1), st.sampled_from(["smooth", "rough"]), st.integers(2, 60),
       st.sampled_from(SYMMETRY_CODES))
def test_transformed_spline_coefficients_match_a_fresh_fit(seed, roughness, half, code):
    g = np.linspace(-1.0, 1.0, 2 * half + 1)
    kernel = SampledKernel(g, _stored_values(np.random.default_rng(seed), roughness, g))
    kernel._spline_coeffs  # fit the parent, so that its transforms derive theirs
    derived = kernel.transform(code)
    assert "_spline_coeffs" in derived.__dict__
    fresh = SampledKernel(derived.grid, derived.values)._spline_coeffs
    assert np.max(np.abs(derived._spline_coeffs - fresh)) <= 1e-13 * np.max(np.abs(fresh))


def test_spline_factors_reproduce_off_grid_sampling(rng):
    g = np.linspace(-1.0, 1.0, 21)
    kernel = SampledKernel(g, _stored_values(rng, "smooth", g))
    x = np.linspace(-1.25, 1.25, 61)
    pc, q = kernel.factors(x)
    assert pc.shape == q.shape == (61, 21)
    got = pc @ q.T
    want = kernel.sample_matrix(x, x)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    outside = np.abs(x) > 1.0
    assert np.all(pc[outside] == 0.0) and np.all(q.toarray()[outside] == 0.0)
    # on the stored grid, or on fewer nodes, the factors are the samples and I
    for nodes in (g, x[::4]):
        pc, q = kernel.factors(nodes)
        assert np.array_equal(pc, kernel.sample_matrix(nodes, nodes))
        assert np.array_equal(q.toarray(), np.eye(nodes.size))


def test_local_sampled_kernel_has_no_factors():
    g = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ValueError, match="nonlocal"):
        SampledKernel(g, np.ones(11, dtype=complex), is_local=True).factors(g)


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
    # the same matrix as a sampled kernel on the solve grid: full rank, Q = I
    x, _ = grid_and_weights(cfg, ker.d)
    with pytest.raises(SingularSystemError):
        scatter_all(SampledKernel(x, ker.sample_matrix(x, x)), 1.0, cfg)


def test_sweep_records_exceptional_row_and_continues():
    cfg = SolverConfig(n_grid=201, quadrature="trapezoid")
    ker = _exceptional_rank_one_kernel(cfg, 1.0)
    table = k_sweep(ker, [0.5, 1.0, 1.5], cfg)
    assert table.rows[1].amps is None
    assert "non-invertible" in table.rows[1].error
    assert table.rows[0].amps is not None
    assert table.rows[2].amps is not None
