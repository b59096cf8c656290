"""The separable (capacitance-matrix) solve of nonlocal kernels against
the dense Nystrom reference.

The reference is ``dense_solve`` (conftest.py): it samples the kernel on
the solve grid with ``sample_matrix``, LU-factors the n x n matrix
I - Omega V W of ``dense_system`` and reads the amplitudes off its own
post-form integrals of the source V W psi.  Both solve one discrete
problem, up to the rounding in which the factors PC Q^T reproduce the
sampled matrix, and they must agree to rounding.  Polynomial kernels go
through their monomial factors.  Sampled kernels whose samples compress
go through the factors L R^T of the compression on the stored grid and
through their fitted splines B fit(L), B fit(R) on any other nodes;
there the two problems differ by at most _COMPRESSION_TOL * max|V| in
the kernel.  Other sampled kernels go through their exact spline
factors off the stored grid, or through the sampled matrix with Q = I
on it and on fewer nodes.  Exceptional points of every factor form are
tested in test_exceptional.py.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymscat.kernels import (
    _COMPRESSION_TOL,
    SYMMETRY_CODES,
    PolynomialKernel,
    SampledKernel,
    adjoint,
)
from asymscat.solver import (
    SolverConfig,
    _apply_green,
    _simpson_kink_delta,
    grid_and_weights,
    scatter,
    scatter_all,
)
from conftest import PROFILE, dense_solve, green_operator, poly_to_sampled


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


def _eight(amps):
    return np.array(amps.quadruple + (amps.hatted.quadruple if amps.hatted else ()))


@PROFILE
@given(polynomial_problems(), st.booleans())
def test_separable_amplitudes_match_dense(problem, include_adjoint):
    kernel, k, config = problem
    fast = _eight(scatter_all(kernel, k, config, include_adjoint=include_adjoint))
    kernels = (kernel, adjoint(kernel)) if include_adjoint else (kernel,)
    dense = np.concatenate([dense_solve(ker, k, config)[1] for ker in kernels])
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@PROFILE
@given(polynomial_problems(), st.sampled_from(["left", "right"]))
def test_separable_psi_matches_dense(problem, side):
    kernel, k, config = problem
    fast = scatter(kernel, k, side, config)
    psi, (Tl, Tr, Rl, Rr), _ = dense_solve(kernel, k, config)
    psi, T, R = (psi[:, 0], Tl, Rl) if side == "left" else (psi[:, 1], Tr, Rr)
    assert np.array_equal(fast.nodes, grid_and_weights(config, kernel.d)[0])
    assert np.max(np.abs(fast.psi - psi)) <= 1e-12 * np.max(np.abs(psi))
    assert abs(fast.T - T) <= 1e-12 * max(abs(T), abs(R))
    assert abs(fast.R - R) <= 1e-12 * max(abs(T), abs(R))


KINDS = ("smooth", "rough", "low-rank", "zero")


def _stored_values(rng, kind, g):
    """Complex samples on the stored grid g: a random Gaussian bump
    surface with a term coupling x and y (smooth, not separable),
    independent random numbers at every node (rough), a sum of one to
    four outer products of random vectors (exactly low-rank), or zeros."""
    n = g.size
    if kind == "rough":
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "low-rank":
        r = rng.integers(1, 5)
        a, b = (rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)) for _ in range(2))
        return a @ b.T
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    X, Y = np.meshgrid(g / g[-1], g / g[-1], indexing="ij")
    out = np.zeros((n, n), dtype=complex)
    for _ in range(3):
        a, b = rng.uniform(-0.8, 0.8, size=2)
        amp = rng.normal() + 1j * rng.normal()
        out += amp * np.exp(-rng.uniform(1.0, 8.0) * ((X - a) ** 2 + (Y - b) ** 2))
    mix = rng.normal() + 1j * rng.normal()
    return out + mix * X * np.exp(-rng.uniform(0.5, 2.0) * (X + Y) ** 2)


@st.composite
def sampled_problems(draw, placement):
    """A random sampled nonlocal kernel, a solve grid and a momentum.

    By ``placement`` the solve grid is the stored grid itself, a grid
    with fewer nodes or one with more.  A kernel whose samples compress
    is solved at the rank of the compression on all three; otherwise at
    r = n on the first two and through the spline factors, r = n_s, on
    the third.  Explicit nodes off the stored grid may reach 30% beyond
    +-d, where the kernel is zero.  Values are scaled so that
    |Omega V W| stays of order ``strength``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.5, 1.0, 2.0]))
    k = draw(st.floats(0.05, 6.0))
    strength = draw(st.floats(0.05, 3.0))
    n_s = 2 * draw(st.integers(2, 60)) + 1
    g = np.linspace(-d, d, n_s)
    v = _stored_values(rng, draw(st.sampled_from(KINDS)), g)
    kernel = SampledKernel(g, v * strength * k / ((2 * d) ** 2 * (np.max(np.abs(v)) or 1.0)))
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
    kernels = (kernel, adjoint(kernel)) if include_adjoint else (kernel,)
    dense = np.concatenate([dense_solve(ker, k, config)[1] for ker in kernels])
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


def _stored_kernel(seed, kind, half, is_local=False):
    """A sampled kernel on 2 half + 1 nodes over [-1, 1]; a local one
    keeps the diagonal of the nonlocal samples."""
    g = np.linspace(-1.0, 1.0, 2 * half + 1)
    v = _stored_values(np.random.default_rng(seed), kind, g)
    return SampledKernel(g, np.diagonal(v) if is_local else v, is_local=is_local)


@PROFILE
@given(st.integers(0, 2**32 - 1), st.sampled_from(["smooth", "rough"]), st.integers(2, 60),
       st.booleans())
def test_spline_fit_reproduces_the_samples(seed, roughness, half, is_local):
    # the spline read on the grid, not the stored samples that the reads
    # return there; the nonlocal samples are not symmetric, so a fit with
    # x and y swapped fails here
    kernel = _stored_kernel(seed, roughness, half, is_local)
    basis = kernel._basis(kernel.grid)
    got = basis @ kernel._spline_coeffs
    got = got if is_local else got @ basis.T
    assert np.max(np.abs(got - kernel.values)) <= 1e-13 * np.max(np.abs(kernel.values))


@PROFILE
@given(st.integers(0, 2**32 - 1), st.sampled_from(["smooth", "rough"]), st.integers(2, 60),
       st.sampled_from(SYMMETRY_CODES), st.booleans())
def test_transformed_spline_coefficients_match_a_fresh_fit(seed, roughness, half, code, is_local):
    kernel = _stored_kernel(seed, roughness, half, is_local)
    kernel._spline_coeffs  # fit the parent, so that its transforms derive theirs
    derived = kernel.transform(code)
    assert "_spline_coeffs" in derived.__dict__
    fresh = SampledKernel(derived.grid, derived.values, is_local=is_local)._spline_coeffs
    assert np.max(np.abs(derived._spline_coeffs - fresh)) <= 1e-13 * np.max(np.abs(fresh))


@pytest.mark.parametrize("n", [4, 5, 11, 61, 401])
def test_spline_fit_and_basis_match_scipy_interpolate(n):
    # The kernels build their B-splines without scipy.interpolate, which
    # stays a reference here: the coefficients and design matrix must be
    # its own to the bit, on every knot, at +-d, inside and beyond.
    from scipy.interpolate import BSpline, make_interp_spline

    rng = np.random.default_rng(n)
    d = 0.8
    g = np.linspace(-d, d, n)
    kernel = SampledKernel(g, np.zeros((n, n)))
    t = kernel._knots
    for shape in ((n,), (n, 7)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(kernel._fit(a), make_interp_spline(g, a, k=3, t=t).c)
    x = np.concatenate([t, g, [-d, d], rng.uniform(-d, d, 50),
                        [-1.5 * d, -d - 1e-12, d + 1e-12, 3.0 * d]])
    inside = np.abs(x) <= d
    got = kernel._basis(x).toarray()
    assert np.array_equal(got[inside], BSpline.design_matrix(x[inside], t, 3).toarray())
    assert np.all(got[~inside] == 0.0) and np.count_nonzero(~inside) == 4


@pytest.mark.parametrize("n", [61, 301])
def test_polynomial_kernel_beyond_support_matches_sampled_twin(rng, n):
    # Nodes reach past +-d, where both kernels vanish; the cubic spline of
    # a degree-(2, 1) polynomial is the polynomial itself.  61 nodes solve
    # the twin through its sampled matrix, 301 through its spline factors.
    kernel = PolynomialKernel(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    cfg = SolverConfig(nodes=np.linspace(-1.5, 1.5, n))
    got = _eight(scatter_all(kernel, 1.0, cfg, include_adjoint=True))
    want = _eight(scatter_all(poly_to_sampled(kernel, 101), 1.0, cfg, include_adjoint=True))
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_spline_factors_reproduce_off_grid_sampling(rng):
    # on 21 nodes only the rank-1..4 samples compress (cap 21 // 4 = 5)
    g = np.linspace(-1.0, 1.0, 21)
    x = np.linspace(-1.25, 1.25, 61)
    outside = np.abs(x) > 1.0
    for kind in ("smooth", "rough", "low-rank"):
        kernel = SampledKernel(g, _stored_values(rng, kind, g))
        assert (kernel._low_rank is None) == (kind != "low-rank")
        pc, q = kernel.factors(x)
        assert pc.shape == q.shape and pc.shape[0] == 61 and pc.shape[1] <= g.size
        q = q.toarray() if hasattr(q, "toarray") else q
        want = kernel.sample_matrix(x, x)
        assert np.max(np.abs(pc @ q.T - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.all(pc[outside] == 0.0) and np.all(q[outside] == 0.0)
        if kind == "low-rank":
            continue
        # the exact spline factors, rank n_s, and on the stored grid, or
        # on fewer nodes, the samples and I
        assert pc.shape[1] == g.size
        for nodes in (g, x[::4]):
            pc, q = kernel.factors(nodes)
            assert np.array_equal(pc, kernel.sample_matrix(nodes, nodes))
            assert np.array_equal(q.toarray(), np.eye(nodes.size))


def _compression_residual(kernel):
    left, right = kernel._low_rank
    return np.max(np.abs(kernel.values - left @ right.T), initial=0.0)


@PROFILE
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.integers(2, 60))
def test_compression_meets_its_tolerance(seed, kind, half):
    kernel = _stored_kernel(seed, kind, half)
    cap = kernel.n // 4
    # a random matrix has no rank-n/4 approximation to 1e-14; a smooth
    # kernel may or may not have one
    exact_rank = {"rough": None, "zero": 0, "low-rank": np.linalg.matrix_rank(kernel.values)}
    if kind in exact_rank:
        rank = exact_rank[kind]
        assert (kernel._low_rank is None) == (rank is None or rank > cap)
        if kernel._low_rank is not None:
            assert kernel._low_rank[0].shape[1] == rank
    if kernel._low_rank is not None:
        assert kernel._low_rank[0].shape[1] <= cap
        assert _compression_residual(kernel) <= _COMPRESSION_TOL * np.max(np.abs(kernel.values))


@PROFILE
@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.integers(2, 60),
       st.sampled_from(SYMMETRY_CODES))
def test_transformed_compression_is_derived_and_reproduces_values(seed, kind, half, code):
    kernel = _stored_kernel(seed, kind, half)
    kernel._low_rank  # compress the parent, so that its transforms derive theirs
    if kernel._low_rank is not None:
        kernel._low_rank_coeffs
    derived = kernel.transform(code)
    assert "_low_rank" in derived.__dict__
    if kernel._low_rank is None:
        assert derived._low_rank is None
        return
    scale = np.max(np.abs(derived.values))
    assert _compression_residual(derived) <= _COMPRESSION_TOL * scale
    assert derived._low_rank[0].shape == kernel._low_rank[0].shape
    for got, factor in zip(derived.__dict__["_low_rank_coeffs"], derived._low_rank):
        fresh = derived._fit(factor)
        assert np.max(np.abs(got - fresh), initial=0.0) <= 1e-13 * np.max(np.abs(fresh), initial=0.0)


def test_zero_kernel_has_rank_zero_and_scatters_nothing():
    g = np.linspace(-1.0, 1.0, 41)
    kernel = SampledKernel(g, np.zeros((41, 41)))
    for config in (SolverConfig(n_grid=41, quadrature="simpson"),
                   SolverConfig(n_grid=21), SolverConfig(n_grid=161)):
        pc, q = kernel.factors(grid_and_weights(config, kernel.d)[0])
        assert pc.shape[1] == q.shape[1] == 0
        amps = scatter_all(kernel, 1.3, config, include_adjoint=True)
        assert _eight(amps).tolist() == [1, 1, 0, 0] * 2


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
    kink = _simpson_kink_delta(k, x[1] - x[0]) if quadrature == "simpson" else None
    dense = green_operator(x, w, k, quadrature) @ M
    fast = _apply_green(w, k, np.exp(1j * k * x), kink, M)
    assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_polynomial_sampling_matches_polyval2d(rng):
    kernel = PolynomialKernel(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
    x = np.linspace(-1.0, 1.0, 41)
    y = np.linspace(-1.0, 1.0, 33)
    X, Y = np.meshgrid(x, y, indexing="ij")
    sampled = kernel.sample_matrix(x, y)
    assert sampled.shape == (41, 33)
    want = np.polynomial.polynomial.polyval2d(X, Y, kernel.coeffs)
    assert np.allclose(sampled, want, rtol=1e-14, atol=1e-14)
    pc, q = kernel.factors(x)
    assert pc.shape == q.shape == (41, 4)
