import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymscat.born import born_reflections
from asymscat.errors import AdjointDivergenceError, SingularSystemError
from asymscat.kernels import (
    SYMMETRY_CODES,
    PolynomialKernel,
    RegularizedInverseSquare,
    SampledKernel,
)
from asymscat.solver import (
    ScatteringAmplitudes,
    SolverConfig,
    _MAX_NODES,
    _check_n_grid,
    _solve,
    generalized_unitarity_residuals,
    hatted_from_unhatted,
    k_sweep,
    scatter,
    scatter_all,
    scatter_oracle_all,
)
from asymscat.symmetry import symmetrize, transformed_amplitudes
from conftest import (
    PROFILE,
    dense_oracle,
    draw_kernel,
    equivariance_problems,
    fd_matrix,
    random_local_kernel,
    random_poly_kernel,
    random_poly_surface,
    square_well_analytic,
)

TRAP = SolverConfig(n_grid=401, quadrature="trapezoid")
SIMP = SolverConfig(n_grid=801, quadrature="simpson")


def zero_kernel(n=201):
    g = np.linspace(-1, 1, n)
    return SampledKernel(g, np.zeros(n, dtype=complex), is_local=True)


class TestFreeSpace:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_exact_free_propagation(self, side):
        res = scatter(zero_kernel(), 1.0, side, TRAP)
        assert abs(res.T - 1.0) < 1e-14
        assert abs(res.R) < 1e-14

    def test_oracle_free_propagation(self):
        T, _, R, _ = scatter_oracle_all(zero_kernel(), 1.3, 801)
        assert abs(T - 1.0) < 1e-8
        assert abs(R) < 1e-8


class TestSquareWell:
    @pytest.mark.parametrize("k", [0.3, 0.7, 1.0, 1.9, 3.1])
    def test_matches_two_interface_formula(self, k):
        g = np.linspace(-1, 1, 801)
        well = SampledKernel(g, np.full(801, -1.0 + 0j), is_local=True)
        Ta, Ra = square_well_analytic(k)
        res = scatter(well, k, "left", SIMP)
        assert abs(res.T - Ta) < 1e-9
        assert abs(res.R - Ra) < 1e-9

    def test_oracle_matches_analytic(self):
        g = np.linspace(-1, 1, 801)
        well = SampledKernel(g, np.full(801, -1.0 + 0j), is_local=True)
        Ta, Ra = square_well_analytic(1.0)
        T, _, R, _ = scatter_oracle_all(well, 1.0, 801)
        assert abs(T - Ta) < 1e-9
        assert abs(R - Ra) < 1e-9


class TestOracleCrossCheck:
    def test_nystrom_and_oracle_agree_on_nonlocal_kernels(self, rng):
        for _ in range(4):
            ker = random_poly_surface(rng, n=801)
            k = rng.uniform(0.5, 2.5)
            amps = scatter_all(ker, k, SIMP)
            oracle = scatter_oracle_all(ker, k, 801)
            got = np.array(amps.quadruple)
            want = np.array(oracle)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) / scale < 1e-6


ORACLE_FAMILIES = ["polynomial", "inverse_square", "local", "compressible", "full_rank"]


@st.composite
def oracle_problems(draw, family):
    """A kernel of ``family``, a momentum and a coarse oracle grid of
    n <= 201 nodes.

    The families are polynomial, inverse-square, and sampled: local,
    nonlocal samples that compress (a smooth polynomial surface) and
    rough ones that do not.  A sampled kernel's stored grid is one of the
    oracle's two grids ("on"), finer than both ("below": the oracle reads
    the spline between samples) or coarser than both ("above").
    Strengths are as in ``draw_kernel``, away from singular systems."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.5, 1.0, 2.0]))
    k = draw(st.floats(0.2, 4.0))
    strength = draw(st.floats(0.05, 2.0))
    # a compressible kernel has rank <= 6, a quarter of a 24-node grid
    n = draw(st.integers(25, 201))
    if family in ("polynomial", "inverse_square"):
        return draw_kernel(draw, family, rng, np.linspace(-d, d, n), k, strength), k, n
    placement = draw(st.sampled_from(["on", "below", "above"]))
    if placement == "on":
        n_s = draw(st.sampled_from([n, 2 * n - 1]))
    elif placement == "below":
        n_s = 2 * n - 1 + draw(st.integers(1, 40))
    else:
        n_s = draw(st.integers(24, n - 1))
    g = np.linspace(-d, d, n_s)
    if family == "compressible":
        poly = draw_kernel(draw, "polynomial", rng, g, k, strength)
        kernel = SampledKernel(g, poly.sample_matrix(g, g))
        assert kernel._low_rank is not None
    else:
        kernel = draw_kernel(draw, "local" if family == "local" else "sampled", rng, g, k,
                             strength)
        assert kernel.is_local or kernel._low_rank is None
    return kernel, k, n


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    @PROFILE
    @given(data=st.data())
    def test_matches_the_dense_oracle(self, family, data):
        kernel, k, n = data.draw(oracle_problems(family))
        got = np.array(scatter_oracle_all(kernel, k, n))
        want = np.array(dense_oracle(kernel, k, n))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [0.7, 3.0])
    @pytest.mark.parametrize("which", [0, 50, 100])
    def test_singular_tridiagonal_part_raises(self, k, which):
        # V = -lambda, lambda an eigenvalue of the 101-point operator,
        # makes the coarse matrix itself singular
        n = 101
        lam = np.sort_complex(np.linalg.eigvals(fd_matrix(zero_kernel(n), k, n)))[which]
        kernel = SampledKernel(np.linspace(-1, 1, n), np.full(n, -lam), is_local=True)
        for oracle in (scatter_oracle_all, dense_oracle):
            with pytest.raises(SingularSystemError):
                oracle(kernel, k, n)

    @pytest.mark.parametrize("k", [0.7, 3.0])
    @pytest.mark.parametrize("n", [21, 401])
    def test_singular_capacitance_part_raises(self, rng, k, n):
        # a rank-1 kernel c PC Q^T W makes T + c PC Q^T W singular at
        # c = -1 / (Q^T W T^{-1} PC), the one nonzero eigenvalue of
        # T^{-1} PC Q^T W; T alone is regular, so the capacitance check
        # must catch it.  Its matrix carries the cond(T) eps rounding of
        # T^{-1}, above 1e-14 at n = 401, so the check scales it by rcond(T).
        base = PolynomialKernel(rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1)))
        t = fd_matrix(zero_kernel(n), k, n)
        s = np.trace(np.linalg.solve(t, fd_matrix(base, k, n) - t))
        kernel = PolynomialKernel(base.coeffs / -s)
        scatter_oracle_all(zero_kernel(n), k, n)
        for oracle in (scatter_oracle_all, dense_oracle):
            with pytest.raises(SingularSystemError):
                oracle(kernel, k, n)


class TestConvergence:
    def test_trapezoid_is_second_order(self, rng):
        ker = random_poly_surface(rng, n=1601, scale=0.5)
        k = 1.1
        ref = scatter_all(ker, k, SolverConfig(n_grid=1601, quadrature="simpson"))
        errs = []
        for n in (101, 201, 401):
            a = scatter_all(ker, k, SolverConfig(n_grid=n, quadrature="trapezoid"))
            errs.append(np.max(np.abs(np.array(a.quadruple) - np.array(ref.quadruple))))
        rate = np.log2(errs[0] / errs[2]) / 2.0
        assert 1.7 < rate < 2.3

    def test_simpson_is_fourth_order(self, rng):
        ker = random_poly_surface(rng, n=1601, scale=0.5)
        k = 1.1
        ref = scatter_all(ker, k, SolverConfig(n_grid=1601, quadrature="simpson"))
        errs = []
        for n in (51, 101, 201):
            a = scatter_all(ker, k, SolverConfig(n_grid=n, quadrature="simpson"))
            errs.append(np.max(np.abs(np.array(a.quadruple) - np.array(ref.quadruple))))
        rate = np.log2(errs[0] / errs[2]) / 2.0
        assert 3.5 < rate < 4.6


class TestGeneralizedUnitarity:
    def test_hermitian_kernel_conserves_flux(self, rng):
        base = random_poly_surface(rng, n=401)
        herm = symmetrize(base, "II")
        amps = scatter_all(herm, 1.2, TRAP, include_adjoint=True)
        assert abs(abs(amps.Tl) ** 2 + abs(amps.Rl) ** 2 - 1.0) < 1e-12
        assert abs(abs(amps.Tr) ** 2 + abs(amps.Rr) ** 2 - 1.0) < 1e-12
        # hatted equals unhatted for V = V^dagger
        np.testing.assert_allclose(
            np.array(amps.hatted.quadruple), np.array(amps.quadruple), atol=1e-12)

    def test_random_complex_kernels(self, rng):
        for _ in range(5):
            ker = random_poly_surface(rng, n=401)
            amps = scatter_all(ker, rng.uniform(0.4, 3.0), TRAP, include_adjoint=True)
            assert np.max(generalized_unitarity_residuals(amps)) < 1e-10

    def test_requires_hatted(self):
        amps = ScatteringAmplitudes(1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            generalized_unitarity_residuals(amps)


class TestHattedFromUnhatted:
    def test_identity_s_matrix(self):
        amps = ScatteringAmplitudes(1.0, 1.0, 1.0, 0.0, 0.0)
        hat = hatted_from_unhatted(amps)
        assert hat == ScatteringAmplitudes(1.0, 1.0, 1.0, 0.0, 0.0)

    def test_mirror_and_one_way_transmitter(self):
        # TR/R quadruple: adjoint is the l<->r swapped device
        amps = ScatteringAmplitudes(1.0, 1.0, 0.0, -1.0, -1.0)
        hat = hatted_from_unhatted(amps)
        np.testing.assert_allclose(np.array(hat.quadruple), [0.0, -1.0, -1.0, -1.0], atol=1e-15)

    def test_divergence_at_exceptional_point(self):
        amps = ScatteringAmplitudes(1.0, 1.0, 0.0, -1.0, 0.0)  # TR/A targets
        with pytest.raises(AdjointDivergenceError):
            hatted_from_unhatted(amps)

    @pytest.mark.parametrize("c, raises", [(0.5e-2, True), (2e-2, False)])
    def test_raises_when_a_hatted_amplitude_exceeds_one_over_tol(self, c, raises):
        # Tl = Tr = Rl = a, Rr = a - c/a: D = c and max |hatted| = a / c,
        # which passes 1/tol = 1e8 exactly when |D| < tol * max |amplitude|
        a = 1e6
        amps = ScatteringAmplitudes(1.0, a, a, a, a - c / a)
        if raises:
            with pytest.raises(AdjointDivergenceError):
                hatted_from_unhatted(amps)
        else:
            hat = hatted_from_unhatted(amps)
            assert np.max(np.abs(hat.quadruple)) == pytest.approx(a / c, rel=1e-3)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("quadruple", [
        (1.0, 0.0, -1.0, 0.0),
        tuple(np.complex128(a) for a in (1.0, 0.0, -1.0, 0.0)),
        (1.0, 1.0, 0.0, 0.0),
    ], ids=["python-D0", "numpy-D0", "identity"])
    def test_rejects_a_tol_that_is_not_positive_and_finite(self, quadruple, tol):
        # at D = 0 these gave inf/nan amplitudes or ZeroDivisionError, and
        # tol = inf raised AdjointDivergenceError even for the identity
        amps = ScatteringAmplitudes(1.0, *quadruple)
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            hatted_from_unhatted(amps, tol=tol)

    def test_agrees_with_independent_adjoint_solve(self, rng):
        for _ in range(3):
            ker = random_poly_surface(rng, n=401)
            amps = scatter_all(ker, rng.uniform(0.5, 2.5), TRAP, include_adjoint=True)
            hat = hatted_from_unhatted(amps)
            assert np.max(np.abs(np.array(hat.quadruple) - np.array(amps.hatted.quadruple))) < 1e-10


class TestEquivariance:
    # Generalized unitarity and the recombination hold for arbitrary
    # kernels, not only symmetric ones.  On a trapezoid grid both are
    # exact for the discrete problem; the Simpson kink band breaks its
    # symmetry and leaves ~1e-7.  The draws cover the banded path and
    # the separable path of sampled and polynomial kernels, each with its
    # adjoint.
    @pytest.mark.parametrize("code", SYMMETRY_CODES[1:])
    @PROFILE
    @given(problem=equivariance_problems())
    def test_transformed_kernel_amplitudes(self, code, problem):
        kernel, k, cfg = problem
        amps = scatter_all(kernel, k, cfg, include_adjoint=True)
        assert np.max(generalized_unitarity_residuals(amps)) <= 1e-10
        predicted = transformed_amplitudes(amps, code)
        got = scatter_all(kernel.transform(code), k, cfg)
        assert np.max(np.abs(np.array(got.quadruple) - np.array(predicted.quadruple))) <= 1e-10


@st.composite
def resolved_simpson_problems(draw):
    """A random kernel of one of the four families, a momentum and a
    Simpson grid on which the kernel is resolved: sampled kernels are
    spline-interpolated from random samples at least eight solve steps
    apart, and the inverse-square width spans at least eight steps.
    """
    family = draw(st.sampled_from(["sampled", "local", "polynomial", "inverse_square"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.5, 1.0, 2.0]))
    k = draw(st.floats(0.2, 4.0))
    strength = draw(st.floats(0.05, 2.0))
    n = 2 * draw(st.integers(40, 100)) + 1
    m = draw(st.integers(4, (n - 1) // 8 + 1))
    kernel = draw_kernel(draw, family, rng, np.linspace(-d, d, m), k, strength)
    if family == "inverse_square":
        n = max(n, 2 * int(np.ceil(8 * d / abs(kernel.epsilon))) + 1)
    return kernel, k, SolverConfig(n_grid=n, quadrature="simpson")


# Largest Simpson residual that ``resolved_simpson_problems`` may leave in
# generalized unitarity and in the transform relations.  Measured on
# 10,000 draws from hypothesis seeds that the test never uses: the
# largest residual was 4.6e-6 (equivariance) and 3.0e-6 (unitarity),
# the 99th percentile below 5e-7.
SIMPSON_INVARIANT_BOUND = 1e-5


class TestSimpsonInvariants:
    # The Simpson kink band takes the discrete problem out of the
    # psi = phi + G S psi form that makes both invariants exact on
    # trapezoid grids; on resolved kernels the residual is a
    # discretization error of order h^4.
    @PROFILE
    @given(problem=resolved_simpson_problems())
    def test_unitarity_and_equivariance_residuals(self, problem):
        kernel, k, cfg = problem
        amps = scatter_all(kernel, k, cfg, include_adjoint=True)
        assert np.max(generalized_unitarity_residuals(amps)) <= SIMPSON_INVARIANT_BOUND
        for code in SYMMETRY_CODES[1:]:
            predicted = transformed_amplitudes(amps, code)
            got = scatter_all(kernel.transform(code), k, cfg)
            assert np.max(np.abs(np.array(got.quadruple) - np.array(predicted.quadruple))) \
                <= SIMPSON_INVARIANT_BOUND


class TestSymmetricKernelConsequences:
    def test_hermitian_moduli(self, rng):
        ker = symmetrize(random_poly_surface(rng, n=241), "II")
        a = scatter_all(ker, 1.3, TRAP)
        assert abs(abs(a.Tl) - abs(a.Tr)) < 1e-10
        assert abs(abs(a.Rl) - abs(a.Rr)) < 1e-10

    def test_time_reversal_reflection_moduli(self, rng):
        ker = symmetrize(random_poly_surface(rng, n=241), "V")
        a = scatter_all(ker, 0.9, TRAP)
        assert abs(abs(a.Rl) - abs(a.Rr)) < 1e-10

    def test_pt_transmission_moduli(self, rng):
        ker = symmetrize(random_poly_surface(rng, n=241), "VII")
        a = scatter_all(ker, 1.7, TRAP)
        assert abs(abs(a.Tl) - abs(a.Tr)) < 1e-10

    def test_local_real_kernel_is_fully_symmetric(self, rng):
        ker = random_local_kernel(rng, n=401, complex_part=False)
        a = scatter_all(ker, 1.1, SolverConfig(n_grid=401, quadrature="trapezoid"))
        assert abs(a.Tl - a.Tr) < 1e-12
        assert abs(abs(a.Rl) - abs(a.Rr)) < 1e-12
        assert abs(abs(a.Tl) ** 2 + abs(a.Rl) ** 2 - 1.0) < 1e-6


class TestErrors:
    def test_nonpositive_momentum(self):
        with pytest.raises(ValueError):
            scatter(zero_kernel(), 0.0, "left", TRAP)
        with pytest.raises(ValueError):
            scatter_all(zero_kernel(), -1.0, TRAP)

    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_non_finite_momentum(self, k):
        with pytest.raises(ValueError, match="finite"):
            scatter(zero_kernel(), k, "left", TRAP)
        with pytest.raises(ValueError, match="finite"):
            scatter_all(zero_kernel(), k, TRAP)
        with pytest.raises(ValueError, match="finite"):
            k_sweep(zero_kernel(), [0.5, k], TRAP)
        with pytest.raises(ValueError, match="finite"):
            scatter_oracle_all(zero_kernel(), k, 101)

    # True solved at k = 1 and was stored as k=True; complex and str
    # momenta raised TypeErrors that named no parameter
    @pytest.mark.parametrize("k", [True, np.bool_(True), 1 + 0j, np.complex128(1.0), "1", None],
                             ids=["bool", "numpy-bool", "complex", "numpy-complex", "str", "none"])
    def test_momentum_must_be_a_real_number(self, k):
        for solve in (lambda: scatter(zero_kernel(), k, "left", TRAP),
                      lambda: scatter_all(zero_kernel(), k, TRAP),
                      lambda: scatter_oracle_all(zero_kernel(), k, 101),
                      lambda: born_reflections(RegularizedInverseSquare(0.1, 1e-2), k)):
            with pytest.raises(ValueError, match="^incident wavenumber k must be positive and "
                                                 "finite, got "):
                solve()

    @pytest.mark.parametrize("k", [1, 1.0, np.int64(1), np.float32(1.0), np.float64(1.0)])
    def test_momentum_accepts_python_and_numpy_reals(self, k):
        assert scatter_all(zero_kernel(), k, TRAP).k == k

    # SolverConfig's bound; 1 raised IndexError, 2 returned amplitudes,
    # and 3.5 and NaN raised np.linspace's TypeError, which named no parameter
    @pytest.mark.parametrize("n_grid", [1, 2, 3.5, np.nan])
    def test_oracle_rejects_a_grid_below_three_nodes(self, n_grid):
        with pytest.raises(ValueError,
                           match=f"^n_grid must be an integer of at least 3, got {n_grid!r}$"):
            scatter_oracle_all(zero_kernel(), 1.0, n_grid)

    def test_grid_above_the_node_cap_is_rejected(self):
        # accepted before; the first solve then asked numpy for 8 TB
        with pytest.raises(ValueError, match=r"^n_grid=10{12} needs 10{12} nodes, above the "
                                             r"1000000 allowed$"):
            SolverConfig(n_grid=10**12)
        with pytest.raises(ValueError, match=r"^n_grid=10{12} needs 19{11}9 nodes, "):
            scatter_oracle_all(zero_kernel(), 1.0, 10**12)
        # the oracle's fine grid of 2 n_grid - 1 nodes counts against the cap
        with pytest.raises(ValueError, match=r"^n_grid=500001 needs 1000001 nodes, "):
            scatter_oracle_all(zero_kernel(), 1.0, 500_001)
        _check_n_grid(10**6)
        _check_n_grid(500_000, richardson=True)

    def test_explicit_nodes_above_the_node_cap_are_rejected(self):
        # accepted before, with n_grid left at 401; 8 MB of nodes and no solve
        nodes = np.linspace(-1.0, 1.0, _MAX_NODES + 1)
        with pytest.raises(ValueError, match=r"^explicit nodes: 1000001 given, above the "
                                             r"1000000 allowed$"):
            SolverConfig(nodes=nodes)
        assert SolverConfig(nodes=nodes[1:]).nodes.size == _MAX_NODES

    @pytest.mark.parametrize("n_grid", [3.5, np.nan, 401.0])
    def test_config_rejects_a_non_integer_grid(self, n_grid):
        # accepted before, then the first solve raised np.linspace's TypeError
        with pytest.raises(ValueError, match="^n_grid must be an integer of at least 3, got "):
            SolverConfig(n_grid=n_grid)
        assert SolverConfig(n_grid=np.int64(401)).n_grid == 401

    def test_non_finite_config_is_rejected(self):
        nodes = np.linspace(-1, 1, 5)
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(nodes=nodes, weights=np.array([0.25, 0.5, np.nan, 0.5, 0.25]))
        # an inf node passed the increasing check; the solve then failed
        # inside scipy, or reported a singular system with rcond 0
        with pytest.raises(ValueError, match="^explicit nodes must be finite$"):
            SolverConfig(nodes=[-1.0, 0.0, 1.0, np.inf])

    def test_bad_side(self):
        with pytest.raises(ValueError):
            scatter(zero_kernel(), 1.0, "up", TRAP)

    def test_simpson_needs_odd_grid(self):
        with pytest.raises(ValueError):
            SolverConfig(n_grid=400, quadrature="simpson")


class TestSweep:
    def test_zero_kernel_sweep_is_flat(self):
        table = k_sweep(zero_kernel(), np.linspace(0.5, 2.0, 7), TRAP)
        assert np.allclose(table.column("abs2_Tl"), 1.0, atol=1e-14)
        assert np.allclose(table.column("abs2_Rl"), 0.0, atol=1e-14)
        ks = [row.k for row in table.rows]
        assert ks == sorted(ks)

    def test_csv_format(self):
        table = k_sweep(zero_kernel(), [1.0], TRAP)
        text = table.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0].startswith("k,abs2_Tl,abs2_Tr,abs2_Rl,abs2_Rr,re_Tl")
        assert lines[1].split(",")[1] == "1"

    def test_rejects_nonpositive_momenta(self):
        with pytest.raises(ValueError):
            k_sweep(zero_kernel(), [0.5, -1.0], TRAP)

    @pytest.mark.parametrize("k_grid", [1.0, [[1.0, 2.0]], np.ones((2, 2))])
    def test_rejects_a_grid_that_is_not_one_dimensional(self, k_grid):
        with pytest.raises(ValueError, match="k_grid must be one-dimensional"):
            k_sweep(zero_kernel(), k_grid, TRAP)

    def test_empty_grid_gives_an_empty_table(self):
        table = k_sweep(zero_kernel(), [], TRAP)
        assert table.rows == ()
        assert table.to_csv_text() == table.CSV_HEADER + "\n"


def _core_kernel(family, rng):
    g = np.linspace(-1.0, 1.0, 41)
    if family == "polynomial":
        return random_poly_kernel(rng, degree=3, scale=0.2)
    if family == "local":
        return random_local_kernel(rng, n=41, scale=0.3)
    if family == "compressed":
        values = 0.3 * (np.outer(np.cos(g), 1 + g * g) + 0.5j * np.outer(g, np.sin(2 * g)))
    else:
        values = 0.02 * (rng.normal(size=(41, 41)) + 1j * rng.normal(size=(41, 41)))
    kernel = SampledKernel(g, values)
    assert (kernel._low_rank is not None) == (family == "compressed")
    return kernel


class TestTwoSidedCore:
    # on 41 nodes the sampled kernels solve on their stored grid (Q = I or
    # the compression's factors), on 81 and 61 through their splines
    GRIDS = {
        "trapezoid": SolverConfig(n_grid=41),
        "simpson": SolverConfig(n_grid=81, quadrature="simpson"),
        "nodes": SolverConfig(nodes=np.sin(np.linspace(-1.2, 1.2, 61)) / np.sin(1.2)),
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("family", ["polynomial", "compressed", "full-rank", "local"])
    def test_scatter_is_one_side_of_the_two_sided_solve(self, rng, family, grid):
        kernel, config = _core_kernel(family, rng), self.GRIDS[grid]
        for k in (0.7, 2.3):
            amps, psi, x = _solve(kernel, k, config)
            assert scatter_all(kernel, k, config) == amps
            for column, side, want in ((0, "left", (amps.Tl, amps.Rl)),
                                       (1, "right", (amps.Tr, amps.Rr))):
                res = scatter(kernel, k, side, config)
                assert (res.T, res.R) == want
                assert np.array_equal(res.psi, psi[:, column])
                assert np.array_equal(res.nodes, x)
