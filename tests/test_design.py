import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymscat import design
from asymscat.design import (
    DEFAULT_TARGETS,
    DesignResult,
    DeviceSpec,
    _DesignProblem,
    design_device,
    verify_design,
)
from asymscat.errors import AdjointDivergenceError, DesignError, ForbiddenDeviceError, VerificationError
from asymscat.kernels import PolynomialKernel
from asymscat.solver import SolverConfig, hatted_from_unhatted, scatter_all, scatter_oracle_all
from asymscat.symmetry import DEVICE_CODES, FORBIDDING_SYMMETRIES, check_symmetries
from conftest import PROFILE, poly_edge_max, poly_max_abs

DEVICES = [
    ("TR/A", "none"),
    ("T/R", "none"),
    ("T/A", "viii"),
    ("TR/R", "viii"),
    ("TR/T", "pt"),
    ("R/A", "none"),
]

# The one-way R-filter across restart seeds and design momenta.
RA_MOMENTA = (0.5, 1.0, 1.5, 2.0, 3.0)


@pytest.fixture(scope="module")
def designs():
    out = {}
    for code, constraint in DEVICES:
        spec = DeviceSpec(code=code, constraint=constraint)
        out[code] = design_device(spec, seed=0, restarts=8)
    return out


@pytest.fixture(scope="module")
def ra_designs():
    return [design_device(DeviceSpec(code="R/A", k0=k0), seed=seed)
            for k0 in RA_MOMENTA for seed in range(4)]


def assert_wave_matches_boundary_form(result):
    """The polynomial interior wave joins the exterior plane waves with
    the target amplitudes, C^1 at both edges x = -1 and x = 1."""
    k0 = result.spec.k0
    Tl, Tr, Rl, Rr = result.spec.targets
    cl, cr = result.wave_coeffs
    poly_l = np.polynomial.polynomial.Polynomial(cl)
    dpoly_l = poly_l.deriv()
    up, dn = np.exp(1j * k0), np.exp(-1j * k0)
    assert poly_l(-1.0) == pytest.approx(dn + Rl * up, abs=1e-9)
    assert dpoly_l(-1.0) == pytest.approx(1j * k0 * (dn - Rl * up), abs=1e-9)
    assert poly_l(1.0) == pytest.approx(Tl * up, abs=1e-9)
    poly_r = np.polynomial.polynomial.Polynomial(cr)
    assert poly_r(1.0) == pytest.approx(dn + Rr * up, abs=1e-9)
    assert poly_r(-1.0) == pytest.approx(Tr * up, abs=1e-9)


class TestDeviceSpec:
    def test_default_targets_match_code_pattern(self):
        spec = DeviceSpec(code="TR/A")
        assert spec.targets == (1.0 + 0j, 0j, -1.0 + 0j, 0j)

    @pytest.mark.parametrize("code", DEVICE_CODES)
    def test_target_moduli_match_the_code_letters(self, code):
        left, right = code.split("/")
        want = ("T" in left, "T" in right, "R" in left, "R" in right)
        assert np.abs(DeviceSpec(code).targets).tolist() == [float(w) for w in want]

    @pytest.mark.parametrize("code", [c for c in DEVICE_CODES
                                      if "VIII" not in FORBIDDING_SYMMETRIES[c]])
    def test_viii_designable_devices_reflect_equally(self, code):
        Tl, Tr, Rl, Rr = DeviceSpec(code, constraint="viii").targets
        assert Rl == Rr

    def test_targets_are_derived_and_read_only(self):
        spec = DeviceSpec("T/A", 1.0, "viii")
        assert spec.constraint == "viii"
        with pytest.raises(AttributeError):
            spec.targets = (1.0, 0.0, 0.0, 0.0)
        with pytest.raises(TypeError):
            DeviceSpec("T/A", targets=(1.0, 0.0, 0.0, 0.0))

    def test_unknown_code(self):
        with pytest.raises(ValueError):
            DeviceSpec(code="X/Y")

    # 1e200 is finite, but the design equations hold its square; at 1e154
    # and 1e100 the square is finite, but the least-squares start is not;
    # 1e30 overflowed inside the restarts and 1e4 restarted for seconds,
    # both ending in DesignError
    @pytest.mark.parametrize("k0", [0.0, np.nan, np.inf, 1e200, 1e154, 1e100, 1e30, 1e4])
    def test_design_momentum_must_be_positive_and_finite(self, k0):
        with pytest.raises(ValueError, match="design momentum k0 must be positive and finite"):
            design_device(DeviceSpec(code="TR/A", k0=k0))

    @pytest.mark.parametrize("k0", ["1", None, 1 + 0j, np.complex128(1.0), True, np.bool_(True)])
    def test_design_momentum_must_be_a_real_number(self, k0):
        with pytest.raises(ValueError, match="design momentum k0 must be positive and finite"):
            DeviceSpec(code="TR/A", k0=k0)

    @pytest.mark.parametrize("k0", [1, 1.5, np.int64(2), np.float32(1.5), np.float64(1.5)])
    def test_design_momentum_accepts_python_and_numpy_reals(self, k0):
        assert DeviceSpec(code="TR/A", k0=k0).k0 == k0

    def test_design_momentum_bound_is_where_rounding_meets_the_residual(self):
        # k0**2 / 2 * eps = 1e-9 at k0 = 3001.2
        assert DeviceSpec(code="TR/A", k0=3001.0).k0 == 3001.0
        with pytest.raises(ValueError, match="at most 3001, got 3002.0"):
            DeviceSpec(code="TR/A", k0=3002.0)


class TestDesignDevice:
    @pytest.mark.parametrize("code,constraint", DEVICES)
    def test_targets_reached_at_k0(self, designs, code, constraint):
        result = designs[code]
        assert result.residual < 1e-6
        got = np.array(result.verification.quadruple)
        want = np.array(DEFAULT_TARGETS[code], dtype=complex)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_viii_designs_satisfy_viii(self, designs):
        for code in ("T/A", "TR/R"):
            report = check_symmetries(designs[code].kernel)
            assert report.verdicts["VIII"]

    def test_pt_design_satisfies_vii(self, designs):
        report = check_symmetries(designs["TR/T"].kernel)
        assert report.verdicts["VII"]
        assert not report.verdicts["II"]

    def test_unconstrained_devices_satisfy_nothing(self, designs):
        # the broken-symmetry devices cannot satisfy any nontrivial code
        for code in ("TR/A", "T/R", "R/A"):
            report = check_symmetries(designs[code].kernel)
            assert report.satisfied() == ("I",)

    @pytest.mark.parametrize("code,constraint", DEVICES)
    def test_edge_vanishing(self, designs, code, constraint):
        kernel = designs[code].kernel
        assert poly_edge_max(kernel) < 1e-9 * poly_max_abs(kernel)

    def test_forbidden_constraint_rejected_upfront(self):
        with pytest.raises(ForbiddenDeviceError, match="VIII"):
            design_device(DeviceSpec(code="TR/A", constraint="viii"))
        with pytest.raises(ForbiddenDeviceError, match="VII"):
            design_device(DeviceSpec(code="T/A", constraint="pt"))

    def test_deterministic_given_seed(self):
        spec = DeviceSpec(code="TR/A")
        a = design_device(spec, seed=3, restarts=2)
        b = design_device(spec, seed=3, restarts=2)
        np.testing.assert_array_equal(a.kernel.coeffs, b.kernel.coeffs)

    @pytest.mark.parametrize("kwargs, named", [
        # numpy's "expected non-negative integer" named neither seed nor value
        ({"seed": -1}, "seed must be an integer of at least 0, got -1"),
        # numpy's SeedSequence TypeError
        ({"seed": 1.5}, "seed must be an integer of at least 0, got 1.5"),
        # "min() arg is an empty sequence"
        ({"restarts": -1}, "restarts must be an integer of at least 0, got -1"),
        ({"restarts": 2.0}, "restarts must be an integer of at least 0, got 2.0"),
        # a bool passed as 1 or 0 before
        ({"seed": True}, "seed must be an integer of at least 0, got True"),
        ({"restarts": True}, "restarts must be an integer of at least 0, got True"),
    ])
    def test_negative_seed_is_named(self, kwargs, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            design_device(DeviceSpec(code="TR/A"), **kwargs)


class TestExactJacobian:
    # The residual is bilinear in the wave and kernel parameters, so a
    # central difference is exact up to rounding, about eps |r| / h.
    @PROFILE
    @given(device=st.sampled_from(DEVICES), k0=st.floats(0.1, 5.0),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 3.0))
    def test_matches_central_differences(self, device, k0, seed, scale):
        code, constraint = device
        problem = _DesignProblem(DeviceSpec(code=code, constraint=constraint, k0=k0))
        u = scale * np.random.default_rng(seed).normal(
            size=problem.n_c_real + problem.E.shape[1])
        jac = problem.jacobian(u)
        h = 1e-4
        fd = np.stack([(problem.residuals(u + h * e) - problem.residuals(u - h * e)) / (2 * h)
                       for e in np.eye(u.size)], axis=1)
        assert jac.shape == fd.shape
        assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(fd))

    @pytest.mark.parametrize("constraint", design.CONSTRAINTS)
    def test_unpack_imposes_the_constraint(self, constraint):
        code, shape, mask = design.CONSTRAINTS[constraint]
        device = next(d for d in DEVICE_CODES if code not in FORBIDDING_SYMMETRIES[d])
        problem = _DesignProblem(DeviceSpec(code=device, constraint=constraint))
        v = problem.unpack(np.random.default_rng(1).normal(size=problem.E.shape[1]))
        assert v.shape == shape
        np.testing.assert_array_equal(PolynomialKernel(v).transform(code).coeffs, v)
        assert not any(v[m] for m in mask)

        # The fixed, masked space is the null space of x -> (T(v) - v, v on
        # the mask) over x = (Re v, Im v) in R^{2N}; E must span all of it.
        def held_rows(x):
            c = (x[: x.size // 2] + 1j * x[x.size // 2 :]).reshape(shape)
            r = np.concatenate([(PolynomialKernel(c).transform(code).coeffs - c).ravel(),
                                np.array([c[m] for m in mask], dtype=complex)])
            return np.concatenate([r.real, r.imag])

        n = 2 * v.size
        sv = np.linalg.svd(np.stack([held_rows(e) for e in np.eye(n)], axis=1), compute_uv=False)
        dimension = n - int(np.sum(sv > 1e-12 * max(sv[0], 1.0)))
        E = problem.E
        assert np.linalg.matrix_rank(np.concatenate([E.real, E.imag])) == E.shape[1] == dimension


class TestRestartTrace:
    def test_one_record_per_restart_and_one_chosen(self, designs):
        for result in designs.values():
            trace = result.restarts
            assert len(trace) == 9
            chosen = [r for r in trace if r.chosen]
            assert len(chosen) == 1
            assert chosen[0].residual == result.design_residual
            assert chosen[0].kernel_norm == pytest.approx(
                np.linalg.norm(result.kernel.coeffs), rel=1e-14)
            assert all(r.nfev >= 1 and r.njev >= 1 for r in trace)
            # least-norm selection among the converged restarts
            converged = [r.kernel_norm for r in trace if r.residual <= 1e-11]
            assert chosen[0].kernel_norm == min(converged)

    def test_design_error_carries_the_trace(self, monkeypatch):
        monkeypatch.setattr(design, "_MAX_NFEV", 2)
        with pytest.raises(DesignError) as err:
            design_device(DeviceSpec(code="T/A", constraint="viii"), restarts=1)
        trace = err.value.restarts
        assert len(trace) == 2
        assert sum(r.chosen for r in trace) == 1
        assert all(r.nfev <= 2 for r in trace)
        assert err.value.best_residual == min(r.residual for r in trace)


class TestOneWayRFilter:
    """R/A, (T^l, T^r, R^l, R^r) = (0, 0, -1, 0): seeds 0-3 at each of
    ``RA_MOMENTA``, designed by the same path as the other devices."""

    def test_converges_with_one_chosen_restart(self, ra_designs):
        for result in ra_designs:
            trace = result.restarts
            assert len(trace) == 17
            chosen = [r for r in trace if r.chosen]
            assert len(chosen) == 1
            assert chosen[0].residual == result.design_residual <= 1e-9

    def test_forward_verifies_at_k0(self, ra_designs):
        want = np.array(DEFAULT_TARGETS["R/A"], dtype=complex)
        for result in ra_designs:
            assert result.residual < 1e-6
            assert np.max(np.abs(np.array(result.verification.quadruple) - want)) < 1e-6

    def test_oracle_agrees_at_k0(self, ra_designs):
        # the finite-difference oracle on criterion 2's grid
        want = np.array(DEFAULT_TARGETS["R/A"], dtype=complex)
        for result in ra_designs:
            got = np.array(scatter_oracle_all(result.kernel, result.spec.k0, 401))
            assert np.max(np.abs(got - want)) < 1e-6, result.spec.k0

    def test_verify_design_passes(self, ra_designs):
        # raises VerificationError on a miss at k0 or a jump in the window
        for result in ra_designs[::4]:  # seed 0 at each momentum
            verify_design(result, n_points=21)

    def test_edge_rows_vanish(self, ra_designs):
        for result in ra_designs:
            assert poly_edge_max(result.kernel) < 1e-9 * poly_max_abs(result.kernel)

    def test_wave_coefficients_match_boundary_form(self, ra_designs):
        for result in ra_designs:
            assert_wave_matches_boundary_form(result)

    def test_satisfies_only_symmetry_i(self, ra_designs):
        for result in ra_designs:
            assert check_symmetries(result.kernel).satisfied() == ("I",)

    def test_adjoint_diverges_at_k0(self, ra_designs):
        # T^l T^r - R^l R^r = 0 at the targets
        for result in ra_designs:
            with pytest.raises(AdjointDivergenceError):
                hatted_from_unhatted(result.verification, tol=1e-4)

    @pytest.mark.parametrize("constraint, symmetry", [("pt", "VII"), ("viii", "VIII")])
    def test_forbidden_constraints_rejected_upfront(self, constraint, symmetry):
        with pytest.raises(ForbiddenDeviceError, match=f"symmetry {symmetry};"):
            design_device(DeviceSpec(code="R/A", constraint=constraint))


class TestAdjointDivergence:
    @pytest.mark.parametrize("code", ["TR/A", "T/R", "T/A", "R/A"])
    def test_divergence_at_k0(self, designs, code):
        # T^l T^r - R^l R^r -> 0 for these devices: the adjoint problem
        # genuinely diverges at the design momentum
        with pytest.raises(AdjointDivergenceError):
            hatted_from_unhatted(designs[code].verification, tol=1e-4)

    def test_trr_adjoint_is_swapped_device(self, designs):
        hat = hatted_from_unhatted(designs["TR/R"].verification)
        np.testing.assert_allclose(
            np.array(hat.quadruple), [0.0, -1.0, -1.0, -1.0], atol=1e-6)

    def test_trr_adjoint_solve_matches_swapped_device(self, designs):
        # the same quadruple from an actual H-dagger solve
        amps = scatter_all(designs["TR/R"].kernel, 1.0,
                           SolverConfig(n_grid=801, quadrature="simpson"),
                           include_adjoint=True)
        np.testing.assert_allclose(
            np.array(amps.hatted.quadruple), [0.0, -1.0, -1.0, -1.0], atol=1e-6)


class TestVerifyDesign:
    def test_one_way_mirror_sweep(self, designs):
        table = verify_design(designs["TR/A"], n_points=11)
        k = table.column("k")
        rl2 = table.column("abs2_Rl")
        at_k0 = np.argmin(np.abs(k - 1.0))
        assert rl2[at_k0] == pytest.approx(1.0, abs=1e-6)

    def test_viii_design_has_equal_reflections_across_window(self, designs):
        # symmetry-implied, not only at k0
        table = verify_design(designs["T/A"], n_points=11)
        rl2 = table.column("abs2_Rl")
        rr2 = table.column("abs2_Rr")
        np.testing.assert_allclose(rl2, rr2, atol=1e-10)

    def test_window_is_relative_to_k0(self):
        # the jump check scales with the largest step, so a window that
        # ignored k0 = 3 would leave a step too wide for it to fail
        result = design_device(DeviceSpec(code="TR/A", k0=3.0), seed=0)
        k = verify_design(result, n_points=5).column("k")
        np.testing.assert_allclose(k, [2.4, 2.7, 3.0, 3.3, 3.6], rtol=0, atol=1e-15)

    def test_k0_off_the_grid_by_a_rounding_is_one_row(self):
        # linspace puts the middle point of [1.36, 2.04] at
        # 1.7000000000000002; k0 used to be swept beside it, one more solve
        result = design_device(DeviceSpec(code="TR/A", k0=1.7), seed=0)
        for n_points in (3, 5, 11):
            k = verify_design(result, n_points=n_points).column("k")
            assert k.size == n_points
            assert np.count_nonzero(k == 1.7) == 1
            assert np.all(np.diff(k) > 0)

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_n_points_below_one_is_named(self, designs, n_points):
        # 0 used to end in numpy's "zero-size array to reduction operation"
        with pytest.raises(ValueError, match="n_points must be an integer of at least 1"):
            verify_design(designs["TR/A"], n_points=n_points)

    # 2.5 died in np.linspace with a TypeError that named no parameter, and
    # True swept one point
    @pytest.mark.parametrize("n_points", [2.5, 3.0, True])
    def test_non_integer_n_points_is_named(self, designs, n_points):
        with pytest.raises(ValueError,
                           match=f"^n_points must be an integer of at least 1, got {n_points!r}$"):
            verify_design(designs["TR/A"], n_points=n_points)

    def test_misses_raise_verification_error(self, designs):
        wrong_spec = DeviceSpec(code="T/R")
        broken = DesignResult(
            designs["TR/A"].kernel, designs["TR/A"].wave_coeffs,
            designs["TR/A"].verification, designs["TR/A"].residual,
            designs["TR/A"].design_residual, wrong_spec)
        with pytest.raises(VerificationError):
            verify_design(broken, n_points=5)


class TestWaveCoefficients:
    @pytest.mark.parametrize("code,constraint", DEVICES)
    def test_interior_wave_matches_boundary_form(self, designs, code, constraint):
        assert_wave_matches_boundary_form(designs[code])
