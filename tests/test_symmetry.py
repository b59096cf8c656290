import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given

from asymscat.errors import AdjointDivergenceError
from asymscat.kernels import (
    SYMMETRY_CODES,
    PolynomialKernel,
    RegularizedInverseSquare,
    SampledKernel,
    compose,
    transform_flags,
)
from asymscat.solver import ScatteringAmplitudes, SolverConfig, hatted_from_unhatted, scatter_all
from asymscat.symmetry import (
    _RELATIONS,
    DEVICE_CODES,
    EQUIVALENT_PAIRS,
    FORBIDDING_SYMMETRIES,
    allowed_devices,
    check_symmetries,
    equivalence_table_check,
    predicted_amplitude_relations,
    symmetrize,
    transformed_amplitudes,
)
from conftest import (
    PROFILE,
    equivariance_problems,
    random_local_kernel,
    random_poly_kernel,
    random_poly_surface,
)

# Device types allowed per satisfied symmetry; kept here purely as a
# cross-check table against the forbidding-set classification.
ALLOWED_BY_SYMMETRY = {
    "I": {"TR/A", "T/R", "T/A", "TR/R", "R/A", "TR/T"},
    "II": set(),
    "III": set(),
    "IV": {"TR/R", "TR/T"},
    "V": {"TR/R"},
    "VI": {"R/A", "TR/T"},
    "VII": {"TR/T"},
    "VIII": {"T/A", "TR/R"},
}


def report_for(satisfied):
    verdicts = {c: (c in satisfied or c == "I") for c in SYMMETRY_CODES}
    residuals = {c: 0.0 if verdicts[c] else 1.0 for c in SYMMETRY_CODES}
    from asymscat.symmetry import SymmetryReport

    return SymmetryReport(residuals, verdicts, 1e-9)


class TestCheckSymmetries:
    def test_identity_always_true(self, rng):
        report = check_symmetries(random_poly_surface(rng, n=41))
        assert report.verdicts["I"]
        assert report.residuals["I"] == 0.0

    def test_real_symmetric_kernel(self, rng):
        base = random_poly_surface(rng, n=41)
        sym = SampledKernel(base.grid, (base.values.real + base.values.real.T) / 2)
        report = check_symmetries(sym)
        for code in ("II", "V", "VI"):
            assert report.verdicts[code], code

    def test_local_complex_potential_satisfies_vi(self, rng):
        ker = random_local_kernel(rng, n=101)
        report = check_symmetries(ker)
        assert report.verdicts["VI"]
        assert report.residuals["VI"] == 0.0

    def test_regularized_profile_is_pt(self):
        pot = RegularizedInverseSquare(alpha=0.1, epsilon=1e-4)
        report = check_symmetries(pot)
        assert report.verdicts["VI"]
        assert report.verdicts["VII"]
        assert not report.verdicts["II"]

    def test_nonlocal_pt_polynomial_pattern(self, rng):
        # v_ij real for i+j even, imaginary for i+j odd: symmetry VII
        c = np.zeros((6, 2), dtype=complex)
        for i in range(6):
            for j in range(2):
                c[i, j] = rng.normal() if (i + j) % 2 == 0 else 1j * rng.normal()
        report = check_symmetries(PolynomialKernel(c))
        assert report.verdicts["VII"]
        assert not report.verdicts["II"]

    @pytest.mark.parametrize("code", SYMMETRY_CODES[1:])
    def test_symmetrized_kernels_are_exact_members(self, rng, code):
        ker = symmetrize(random_poly_surface(rng, n=41), code)
        report = check_symmetries(ker)
        assert report.residuals[code] == 0.0

    def test_zero_kernel_satisfies_everything(self):
        g = np.linspace(-1, 1, 11)
        report = check_symmetries(SampledKernel(g, np.zeros((11, 11))))
        assert all(report.verdicts.values())


class TestInverseSquareClassification:
    # Decided from (alpha, epsilon, d).  Resampled onto 401 points over
    # [-d, d], the eps-scale difference between V and its eps -> -eps twin
    # fell below tol, and every symmetry was reported, once |eps| was below
    # about 6e-4 of the sample spacing (1.3e-5 at d = 4, 3e-6 at d = 1).

    @staticmethod
    def dense_residual(pot, code):
        """max |V - transform(V)| / max |V| on a grid that resolves eps."""
        d, eps = pot.d, abs(pot.epsilon)
        near = eps * np.linspace(-3.0, 3.0, 6001)
        x = np.concatenate([np.linspace(-d, d, 20001), near[np.abs(near) <= d]])
        v = pot.sample_profile(x)
        return np.max(np.abs(v - pot.transform(code).sample_profile(x))) / np.max(np.abs(v))

    @pytest.mark.parametrize("d", [1.0, 4.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("epsilon", [1e-8, 1e-6, 1e-5, 1e-4, 1e-2, 0.3, 1.0, 5.0, 10.0])
    def test_pt_profile_satisfies_exactly_i_iv_vi_vii(self, epsilon, sign, d):
        pot = RegularizedInverseSquare(0.0976, sign * epsilon, d)
        report = check_symmetries(pot)
        assert report.satisfied() == ("I", "IV", "VI", "VII")
        assert [c for c, v in allowed_devices(report).items() if v.allowed] == ["TR/T"]
        for code in SYMMETRY_CODES:
            want = self.dense_residual(pot, code)
            assert report.residuals[code] == pytest.approx(want, rel=1e-5, abs=1e-15), code

    @pytest.mark.parametrize("epsilon", [1e-8, -1e-4, 10.0])
    def test_zero_potential_satisfies_everything(self, epsilon):
        report = check_symmetries(RegularizedInverseSquare(0.0, epsilon))
        assert all(report.verdicts.values())
        assert set(report.residuals.values()) == {0.0}
        assert not any(v.allowed for v in allowed_devices(report).values())


class TestEquivalenceTable:
    def test_hermitian_parity_symmetric_kernel(self, rng):
        ker = symmetrize(symmetrize(random_poly_surface(rng, n=41), "II"), "III")
        # double symmetrization can drift the first residual slightly
        assert check_symmetries(ker).verdicts["II"]
        result = dict(equivalence_table_check(ker, "II"))
        assert result[("III", "IV")] is True

    def test_local_kernel_iv_equals_vii(self, rng):
        ker = random_local_kernel(rng, n=101)
        result = dict(equivalence_table_check(ker, "VI"))
        assert result[("IV", "VII")] is True

    def test_v_only_kernel_pairs_agree_as_false(self, rng):
        ker = symmetrize(random_poly_surface(rng, n=41), "V")
        report = check_symmetries(ker)
        assert report.verdicts["V"] and not report.verdicts["II"]
        result = dict(equivalence_table_check(ker, "V"))
        assert result[("II", "VI")] is True  # both false -> agree

    def test_precondition_violation_names_symmetry(self, rng):
        ker = random_poly_surface(rng, n=41)
        with pytest.raises(ValueError, match="II"):
            equivalence_table_check(ker, "II")

    @pytest.mark.parametrize("first", sorted(EQUIVALENT_PAIRS))
    def test_all_rows_on_constructed_kernels(self, rng, first):
        # a kernel fixed by `first` must have agreeing verdicts on every
        # listed pair; double-symmetrized kernels exercise the both-true
        # branch as well
        for _ in range(5):
            ker = symmetrize(random_poly_surface(rng, n=41), first)
            for pair, agree in equivalence_table_check(ker, first):
                assert agree, (first, pair)
        for pair in EQUIVALENT_PAIRS[first]:
            ker = symmetrize(
                symmetrize(random_poly_surface(rng, n=41), first), pair[0])
            report = check_symmetries(ker)
            if not report.verdicts[first]:
                continue  # second projection can break the first symmetry
            for got_pair, agree in equivalence_table_check(ker, first):
                assert agree, (first, got_pair)


class TestAllowedDevices:
    def test_trivial_kernel_allows_all(self):
        devices = allowed_devices(report_for(set()))
        assert all(v.allowed for v in devices.values())

    def test_symmetry_viii_allows_two(self):
        devices = allowed_devices(report_for({"VIII"}))
        allowed = {c for c, v in devices.items() if v.allowed}
        assert allowed == {"T/A", "TR/R"}

    def test_hermitian_forbids_all(self):
        devices = allowed_devices(report_for({"II"}))
        assert not any(v.allowed for v in devices.values())
        assert all(v.forbidden_by == ("II",) for v in devices.values())

    @pytest.mark.parametrize("code", sorted(ALLOWED_BY_SYMMETRY))
    def test_against_allowed_table(self, code):
        # forbidding sets and the allowed-device table are two views of
        # the same classification
        devices = allowed_devices(report_for({code} - {"I"}))
        allowed = {c for c, v in devices.items() if v.allowed}
        assert allowed == ALLOWED_BY_SYMMETRY[code]

    def test_monotone_in_satisfied_symmetries(self, rng):
        # adding a satisfied symmetry never converts forbidden -> allowed
        codes = list(SYMMETRY_CODES[1:])
        for _ in range(20):
            base = set(rng.choice(codes, size=rng.integers(0, 4), replace=False))
            extra = base | {rng.choice(codes)}
            dev_base = allowed_devices(report_for(base))
            dev_extra = allowed_devices(report_for(extra))
            for dev in DEVICE_CODES:
                if not dev_base[dev].allowed:
                    assert not dev_extra[dev].allowed


class TestPredictedRelations:
    def test_parity_gives_full_equalities(self):
        rels = predicted_amplitude_relations(report_for({"III"}))
        descriptions = {r.description for r in rels}
        assert "T^l = T^r" in descriptions
        assert "R^l = R^r" in descriptions

    def test_time_reversal_gives_reflection_moduli(self):
        rels = predicted_amplitude_relations(report_for({"V"}))
        assert "|R^l| = |R^r|" in {r.description for r in rels}

    def test_trivial_report_gives_empty_set(self):
        assert predicted_amplitude_relations(report_for(set())) == []

    def test_phase_conditions_are_gated(self):
        rels = predicted_amplitude_relations(report_for({"IV"}))
        gated = [r for r in rels if r.condition is not None]
        assert gated, "row-IV phase conditions missing"
        from asymscat.solver import ScatteringAmplitudes

        boring = ScatteringAmplitudes(1.0, 0.5 + 0j, 0.5 + 0j, 0.1 + 0j, 0.1 + 0j)
        for rel in gated:
            assert rel.residual(boring) == 0.0  # gate inactive

    @pytest.mark.parametrize("code", SYMMETRY_CODES[1:])
    @PROFILE
    @given(problem=equivariance_problems())
    def test_relations_hold_on_solver_output(self, code, problem):
        # end-to-end: symmetrized kernel -> solve (with adjoint) -> every
        # emitted predicate holds.  The inverse-square profile is not
        # symmetrized (its family is not closed under averaging); it
        # satisfies VI, VII and so IV natively.
        kernel, k, cfg = problem
        if not isinstance(kernel, RegularizedInverseSquare):
            kernel = symmetrize(kernel, code)
        report = check_symmetries(kernel)
        assert report.verdicts["VII" if isinstance(kernel, RegularizedInverseSquare) else code]
        amps = scatter_all(kernel, k, cfg, include_adjoint=True)
        for rel in predicted_amplitude_relations(report):
            assert rel.residual(amps) <= 1e-10, (code, rel.description)

    def test_hatted_relation_requires_adjoint_solve(self):
        rels = predicted_amplitude_relations(report_for({"II"}))
        from asymscat.solver import ScatteringAmplitudes

        amps = ScatteringAmplitudes(1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="hatted"):
            rels[0].residual(amps)


class TestTransformedAmplitudes:
    AMPS = ScatteringAmplitudes(1.0, 1.0 + 0j, 2.0 + 0j, 3.0 + 0j, 4.0 + 0j,
                                ScatteringAmplitudes(1.0, 5.0 + 0j, 6.0 + 0j, 7.0 + 0j, 8.0 + 0j))

    def test_parity_swaps_sides(self):
        assert transformed_amplitudes(self.AMPS, "III").quadruple == (2.0, 1.0, 4.0, 3.0)

    def test_conjugation_reads_the_hatted_quadruple(self):
        assert transformed_amplitudes(self.AMPS, "V").quadruple == (6.0, 5.0, 7.0, 8.0)
        assert transformed_amplitudes(self.AMPS, "II").quadruple == (5.0, 6.0, 7.0, 8.0)

    def test_conjugating_codes_need_the_adjoint_solve(self):
        direct = ScatteringAmplitudes(1.0, 1.0, 2.0, 3.0, 4.0)
        for code in SYMMETRY_CODES:
            if code in ("II", "IV", "V", "VII"):
                with pytest.raises(ValueError, match="include_adjoint"):
                    transformed_amplitudes(direct, code)
            else:
                transformed_amplitudes(direct, code)

    def test_identity_and_unknown_code(self):
        assert transformed_amplitudes(self.AMPS, "I").quadruple == self.AMPS.quadruple
        with pytest.raises(ValueError, match="unknown symmetry code"):
            transformed_amplitudes(self.AMPS, "IX")


def _representation(kernel) -> np.ndarray:
    """The stored numbers that define a kernel, comparable across transforms."""
    if isinstance(kernel, PolynomialKernel):
        return kernel._square_coeffs()
    if isinstance(kernel, RegularizedInverseSquare):
        return np.array([kernel.alpha, kernel.epsilon, kernel.d])
    return np.asarray(kernel.values)


class TestGroupLaw:
    @PROFILE
    @given(problem=equivariance_problems())
    def test_transforms_compose_by_flags(self, problem):
        # transform(a) then transform(b) is transform(compose(a, b)), within
        # each family, for all 64 pairs of codes
        kernel = problem[0]
        for a in SYMMETRY_CODES:
            once = kernel.transform(a)
            assert type(once) is type(kernel)
            for b in SYMMETRY_CODES:
                np.testing.assert_array_equal(_representation(once.transform(b)),
                                              _representation(kernel.transform(compose(a, b))))

    @pytest.mark.parametrize("first", sorted(EQUIVALENT_PAIRS))
    @PROFILE
    @given(problem=equivariance_problems())
    def test_equivalent_pairs_transform_alike(self, first, problem):
        # on a kernel fixed by `first`, both codes of each listed pair give
        # the same kernel, so they hold or fail together; together the
        # pairs cover every code other than I and `first`
        kernel = problem[0]
        if isinstance(kernel, RegularizedInverseSquare):
            assume(first in ("VI", "VII"))
        else:
            kernel = symmetrize(kernel, first)
        pairs = EQUIVALENT_PAIRS[first]
        assert sorted(c for pair in pairs for c in pair) == sorted(set(SYMMETRY_CODES) - {"I", first})
        for a, b in pairs:
            np.testing.assert_array_equal(_representation(kernel.transform(a)),
                                          _representation(kernel.transform(b)))


def derived_forbidding_symmetries(device: str) -> frozenset:
    """The codes II..VIII whose amplitude relations no target quadruple of
    ``device`` meets: its 0/1 pattern with each unit target's phase drawn
    from {1, -1, i, -i}, and the hatted amplitudes from generalized
    unitarity.  Where D = T^l T^r - R^l R^r = 0 the hatted amplitudes
    diverge, which rules out every code that conjugates."""
    left, right = device.split("/")
    pattern = ("T" in left, "T" in right, "R" in left, "R" in right)
    forbidden = set()
    for code in SYMMETRY_CODES[1:]:
        for phases in itertools.product((1, -1, 1j, -1j), repeat=sum(pattern)):
            phase = iter(phases)
            amps = ScatteringAmplitudes(1.0, *(complex(next(phase)) if p else 0j for p in pattern))
            try:
                amps = replace(amps, hatted=hatted_from_unhatted(amps))
            except AdjointDivergenceError:
                if transform_flags(code)[2]:
                    continue
            if all(r.residual(amps) <= 1e-12 for r in _RELATIONS[code]):
                break
        else:
            forbidden.add(code)
    return frozenset(forbidden)


class TestDeviceTable:
    @pytest.mark.parametrize("device", DEVICE_CODES)
    def test_forbidding_sets_follow_from_the_amplitude_relations(self, device):
        # the stored table is the paper's; this derives each of its 7 cells
        # per device from the code's own relations
        assert derived_forbidding_symmetries(device) == FORBIDDING_SYMMETRIES[device]


class TestForbiddenAsymmetrySoundness:
    def test_class_v_never_shows_reflection_asymmetry(self, rng):
        cfg = SolverConfig(n_grid=121, quadrature="trapezoid")
        for _ in range(5):
            ker = symmetrize(random_poly_surface(rng, n=121), "V")
            for k in np.linspace(0.5, 2.5, 5):
                a = scatter_all(ker, float(k), cfg)
                assert abs(abs(a.Rl) ** 2 - abs(a.Rr) ** 2) < 1e-8

    def test_class_vii_never_shows_transmission_asymmetry(self, rng):
        cfg = SolverConfig(n_grid=121, quadrature="trapezoid")
        for _ in range(5):
            ker = symmetrize(random_poly_surface(rng, n=121), "VII")
            for k in np.linspace(0.5, 2.5, 5):
                a = scatter_all(ker, float(k), cfg)
                assert abs(abs(a.Tl) ** 2 - abs(a.Tr) ** 2) < 1e-8

    @pytest.mark.parametrize("code", ["II", "III"])
    def test_classes_ii_iii_show_no_asymmetry_at_all(self, rng, code):
        cfg = SolverConfig(n_grid=121, quadrature="trapezoid")
        ker = symmetrize(random_poly_surface(rng, n=121), code)
        for k in (0.7, 1.6):
            a = scatter_all(ker, k, cfg)
            assert abs(abs(a.Tl) - abs(a.Tr)) < 1e-9
            assert abs(abs(a.Rl) - abs(a.Rr)) < 1e-9


class TestSymmetrize:
    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_projection_is_idempotent(self, rng, code):
        ker = random_poly_surface(rng, n=41)
        once = symmetrize(ker, code)
        twice = symmetrize(once, code)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_polynomial_symmetrization(self, rng):
        ker = symmetrize(random_poly_kernel(rng), "VIII")
        report = check_symmetries(ker)
        assert report.residuals["VIII"] < 1e-15
