"""The O(n) banded solve of local potentials against the dense Nystrom
reference.

The reference is built here from the dense Green's operator: the n x n
matrix I - Omega diag(V) is LU-factored and its reciprocal condition
number estimated by LAPACK zgecon.  Both solve one discrete problem, so
they agree to within the rounding its conditioning allows,
1e-12 + 100 eps / rcond.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from asymscat.born import reflector_config, tune_alpha
from asymscat.errors import SingularSystemError
from asymscat.kernels import RegularizedInverseSquare, SampledKernel, adjoint
from asymscat.solver import (
    SolverConfig,
    _green_operator,
    _local_factor,
    grid_and_weights,
    k_sweep,
    scatter,
    scatter_all,
)
from conftest import PROFILE

EPS = np.finfo(float).eps


def dense_local(kernel, k, config):
    """Dense solve of both incidence sides: (psi, (Tl, Tr, Rl, Rr), rcond)."""
    x, w = grid_and_weights(config, kernel.d)
    quadrature = config.quadrature if config.nodes is None else "trapezoid"
    V = kernel.sample_profile(x)
    A = np.eye(x.size, dtype=complex) - _green_operator(x, w, k, quadrature) * V[None, :]
    lu, piv = lu_factor(A)
    rcond, info = zgecon(lu, np.linalg.norm(A, 1))
    assert info == 0
    phi = np.stack([np.exp(1j * k * x), np.exp(-1j * k * x)], axis=1)
    psi = lu_solve((lu, piv), phi)
    source = w[:, None] * V[:, None] * psi
    plus = np.exp(1j * k * x) @ source / (1j * k)
    minus = np.exp(-1j * k * x) @ source / (1j * k)
    quadruple = (1.0 + minus[0], 1.0 + plus[1], plus[0], minus[1])
    return psi, np.array(quadruple), float(rcond)


def _bound(rcond):
    return 1e-12 + 100.0 * EPS / rcond


@st.composite
def local_problems(draw):
    """A random sampled local profile, a uniform solve grid and a momentum.

    The profile is interpolated from random complex samples, so it need
    not be smooth; its scale keeps |Omega diag(V)| of order ``strength``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.5, 1.0, 2.0]))
    k = draw(st.floats(0.2, 5.0))
    strength = draw(st.floats(0.05, 3.0))
    quadrature = draw(st.sampled_from(["trapezoid", "simpson"]))
    n = 2 * draw(st.integers(10, 400)) + 1
    m = draw(st.integers(8, 101))
    profile = rng.normal(size=m) + 1j * rng.normal(size=m)
    profile *= strength * k / (2.0 * d * np.max(np.abs(profile)))
    kernel = SampledKernel(np.linspace(-d, d, m), profile, is_local=True)
    return kernel, k, SolverConfig(n_grid=n, quadrature=quadrature)


@PROFILE
@given(local_problems(), st.booleans())
def test_banded_amplitudes_match_dense(problem, include_adjoint):
    kernel, k, config = problem
    amps = scatter_all(kernel, k, config, include_adjoint=include_adjoint)
    _, want, rcond = dense_local(kernel, k, config)
    got = np.array(amps.quadruple)
    if include_adjoint:
        _, want_hat, rcond_hat = dense_local(adjoint(kernel), k, config)
        want = np.concatenate([want, want_hat])
        got = np.concatenate([got, amps.hatted])
        rcond = min(rcond, rcond_hat)
    assert np.max(np.abs(got - want)) <= _bound(rcond) * np.max(np.abs(want))


@PROFILE
@given(local_problems())
def test_banded_psi_matches_dense(problem):
    kernel, k, config = problem
    psi, _, rcond = dense_local(kernel, k, config)
    for column, side in enumerate(("left", "right")):
        res = scatter(kernel, k, side, config)
        want = psi[:, column]
        assert np.max(np.abs(res.psi - want)) <= _bound(rcond) * np.max(np.abs(want))


def _rcond_cases():
    rng = np.random.default_rng(7)
    cases = []
    for i, k in enumerate([1e-3, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 1e-3, 1.0, 4.0]):
        quadrature = ("trapezoid", "simpson")[i % 2]
        g = np.linspace(-1.0, 1.0, 41)
        profile = (rng.normal(size=41) + 1j * rng.normal(size=41)) * rng.uniform(0.5, 20.0)
        cases.append((SampledKernel(g, profile, is_local=True), k,
                      SolverConfig(n_grid=2 * int(rng.integers(20, 300)) + 1,
                                   quadrature=quadrature)))
    reflector = RegularizedInverseSquare(alpha=0.09, epsilon=1e-4, d=4.0)
    mesh = reflector_config(1e-4, window=4.0)
    cases += [(reflector, k, mesh) for k in (1e-3, 0.5, 1.0, 2.5, 5.0)]
    return cases


@pytest.mark.parametrize("kernel, k, config", _rcond_cases())
def test_banded_rcond_matches_dense_zgecon(kernel, k, config):
    x, w = grid_and_weights(config, kernel.d)
    quadrature = config.quadrature if config.nodes is None else "trapezoid"
    _, rcond = _local_factor(x, w, k, quadrature, kernel.sample_profile(x))
    _, _, rcond_dense = dense_local(kernel, k, config)
    assert 0.5 <= rcond / rcond_dense <= 2.0


def _exceptional_local_kernel(cfg, k):
    # A profile on the solve grid scaled so that 1 is an eigenvalue of
    # Omega diag(V): I - Omega diag(V) is exactly singular.
    x, w = grid_and_weights(cfg, 1.0)
    profile = np.exp(-3 * x * x) + 0.2j * x
    lam = np.linalg.eigvals(_green_operator(x, w, k, cfg.quadrature) * profile[None, :])
    return SampledKernel(x, profile / lam[np.argmax(np.abs(lam))], is_local=True)


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
def test_singular_local_system_is_reported(quadrature):
    cfg = SolverConfig(n_grid=201, quadrature=quadrature)
    ker = _exceptional_local_kernel(cfg, 1.0)
    with pytest.raises(SingularSystemError) as err:
        scatter(ker, 1.0, "left", cfg)
    assert err.value.rcond < 1e-14
    table = k_sweep(ker, [0.5, 1.0, 1.5], cfg)
    assert table.rows[1].amps is None
    assert "non-invertible" in table.rows[1].error
    assert table.rows[0].amps is not None
    assert table.rows[2].amps is not None


def test_reflector_sweep_matches_dense():
    # The born-design sweep of the README: 40 momenta on the graded mesh.
    # Its systems have rcond down to ~1e-10, so rounding alone moves the
    # amplitudes by up to ~1e-7.
    epsilon, window = 1e-4, 4.0
    grid = np.linspace(0.5, 5.0, 40)
    alpha = tune_alpha(epsilon, 1.0, window=window)
    pot = RegularizedInverseSquare(alpha=alpha, epsilon=epsilon, d=window)
    config = reflector_config(epsilon, window=window, k_max=5.0)
    table = k_sweep(pot, grid, config)
    for row in table.rows:
        _, want, _ = dense_local(pot, row.k, config)
        assert np.max(np.abs(np.array(row.amps.quadruple) - want)) <= 1e-6
