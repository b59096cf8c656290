import re

import numpy as np
import pytest

from asymscat.born import (
    born_prediction,
    born_reflections,
    design_broadband_reflector,
    graded_mesh,
    reflector_config,
    tune_alpha,
)
from asymscat.errors import BracketingError
from asymscat.kernels import fourier_transform_local
from asymscat.solver import generalized_unitarity_residuals, k_sweep, scatter, scatter_all
from asymscat.symmetry import check_symmetries
from conftest import random_local_kernel, random_poly_surface

EPS = 1e-4
ALPHA_REF = 1.225 / (4.0 * np.pi)  # reference tuned strength


@pytest.fixture(scope="module")
def config():
    return reflector_config(EPS)


class TestBornReflections:
    def test_zero_strength(self):
        pot = design_broadband_reflector(0.0, EPS)
        Rl, Rr = born_reflections(pot, 1.0)
        assert Rl == 0.0 and Rr == 0.0

    def test_small_regularizer_limit(self):
        # R^l -> 4 pi i alpha, k-independent; R^r = 0 identically
        alpha = 0.03
        pot = design_broadband_reflector(alpha, 1e-9)
        for k in (0.5, 1.0, 3.0):
            Rl, Rr = born_reflections(pot, k)
            assert Rl == pytest.approx(4j * np.pi * alpha, rel=1e-6)
            assert Rr == 0.0

    def test_finite_regularizer_formula(self):
        alpha, k = 0.05, 1.0
        pot = design_broadband_reflector(alpha, EPS)
        Rl, _ = born_reflections(pot, k)
        assert Rl == pytest.approx(4j * np.pi * alpha * np.exp(-2 * k * EPS), rel=1e-12)

    def test_transmission_from_generalized_unitarity(self):
        pred = born_prediction(design_broadband_reflector(0.05, EPS), 1.0)
        assert pred.Rr == 0.0
        assert pred.T_abs2 == 1.0

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            born_reflections(design_broadband_reflector(0.1, EPS), 0.0)

    @pytest.mark.parametrize("k", [np.nan, np.inf])
    def test_rejects_non_finite_k(self, k):
        with pytest.raises(ValueError, match="positive and finite"):
            born_reflections(design_broadband_reflector(0.1, EPS), k)

    def test_mirrored_profile_reflects_from_the_right(self):
        # negative epsilon is the mirror image: the two sides swap
        pot = design_broadband_reflector(0.1, EPS)
        Rl, Rr = born_reflections(pot, 1.3)
        assert born_reflections(pot.transform("III"), 1.3) == (Rr, Rl)

    @pytest.mark.parametrize("sample", [random_poly_surface, random_local_kernel],
                             ids=["nonlocal", "local"])
    def test_rejects_sampled_kernels(self, sample, rng):
        with pytest.raises(ValueError, match="needs a RegularizedInverseSquare, got SampledKernel"):
            born_reflections(sample(rng, n=21), 1.0)


class TestSpectralOneWayCondition:
    def test_analytic_spectrum_is_one_sided(self):
        pot = design_broadband_reflector(ALPHA_REF, EPS)
        for k in np.linspace(0.5, 5.0, 10):
            assert fourier_transform_local(pot, 2 * k) == 0.0
            assert abs(fourier_transform_local(pot, -2 * k)) > 0.0

    def test_windowed_spectrum_ratio(self):
        # quadrature over a +-1e4*eps window reproduces the one-sidedness;
        # eps sized so the truncated oscillatory tails stay below 1e-3
        eps = 5e-3
        window = 1e4 * eps
        pot = design_broadband_reflector(ALPHA_REF, eps, d=window)
        x = np.linspace(-window, window, 200001)
        prof = pot.sample_profile(x)
        for k in (0.5, 1.0, 2.5, 5.0):
            plus = np.trapezoid(prof * np.exp(-2j * k * x), x)
            minus = np.trapezoid(prof * np.exp(2j * k * x), x)
            assert abs(plus) / abs(minus) < 1e-3


class TestGradedMesh:
    def test_resolves_peak_and_covers_domain(self):
        nodes, weights = graded_mesh(EPS, d=4.0)
        assert nodes[0] == -4.0 and nodes[-1] == 4.0
        assert np.min(np.diff(nodes)) < EPS / 4.0
        assert np.all(np.diff(nodes) > 0)
        # weights integrate a smooth function accurately
        total = np.sum(weights * np.cos(nodes))
        assert total == pytest.approx(2.0 * np.sin(4.0), rel=1e-3)

    @pytest.mark.parametrize("k_max", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_k_max_that_is_not_positive_and_finite(self, k_max):
        # 0 and inf divided by zero, -1 reached numpy's sample count, nan passed
        with pytest.raises(ValueError, match="^k_max must be positive and finite"):
            graded_mesh(EPS, d=4.0, k_max=k_max)

    # far above the 10^6-node cap, so the check must fire before numpy
    # allocates: 1e9 asked for 142 GiB, and 1e308 overflows the count to inf
    @pytest.mark.parametrize("d, k_max", [(4.0, 1e9), (1e9, 5.0), (1e308, 5.0), (4.0, 1e308)])
    def test_rejects_a_mesh_above_the_node_cap(self, d, k_max):
        message = f"graded mesh for k_max={k_max!r} and d={d!r} needs"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            graded_mesh(EPS, d=d, k_max=k_max)

    def test_reflector_config_passes_k_max_through(self):
        with pytest.raises(ValueError, match="^k_max must be positive and finite, got nan$"):
            reflector_config(EPS, k_max=np.nan)

    def test_doubling_the_window_is_converged(self, config):
        pot4 = design_broadband_reflector(ALPHA_REF, EPS, d=4.0)
        pot8 = design_broadband_reflector(ALPHA_REF, EPS, d=8.0)
        cfg8 = reflector_config(EPS, window=8.0)
        for k in (1.0, 3.0):
            a4 = scatter_all(pot4, k, config)
            a8 = scatter_all(pot8, k, cfg8)
            # residual window sensitivity far below the 10% band scale
            assert abs(abs(a4.Rl) ** 2 - abs(a8.Rl) ** 2) < 2e-2


class TestPTCharacter:
    def test_sampled_profile_satisfies_vi_and_vii(self):
        pot = design_broadband_reflector(ALPHA_REF, EPS)
        report = check_symmetries(pot)
        assert report.verdicts["VI"]
        assert report.verdicts["VII"]


class TestTuneAlpha:
    def test_reproduces_reference_strength(self):
        alpha = tune_alpha(EPS, 1.0)
        assert alpha * 4.0 * np.pi == pytest.approx(1.225, rel=0.05)

    def test_unbracketable_target_raises_with_trace(self):
        # at eps = 0.5 the peak is so wide that |R^l|^2 is 0.52 at
        # alpha = 1/pi, the top of the bisection interval
        with pytest.raises(BracketingError, match="does not change sign") as err:
            tune_alpha(0.5, 1.0)
        assert err.value.trace  # scan trace for diagnosis
        assert err.value.trace[0][1] < 1.0

    def test_rejects_nonpositive_kref(self):
        with pytest.raises(ValueError):
            tune_alpha(EPS, -1.0)

    @pytest.mark.parametrize("k_ref", [np.nan, np.inf])
    def test_rejects_non_finite_kref(self, k_ref):
        with pytest.raises(ValueError, match="positive and finite"):
            tune_alpha(EPS, k_ref)


class TestBroadbandReflector:
    def test_tuned_sweep_stays_in_band(self, config):
        alpha = tune_alpha(EPS, 1.0)
        pot = design_broadband_reflector(alpha, EPS, d=4.0)
        table = k_sweep(pot, np.linspace(0.5, 5.0, 10), config)
        rl2 = table.column("abs2_Rl")
        rr2 = table.column("abs2_Rr")
        tl2 = table.column("abs2_Tl")
        assert np.all((rl2 > 0.9) & (rl2 < 1.1))
        assert np.all(rr2 < 0.05)
        assert np.all((tl2 > 0.95) & (tl2 < 1.05))

    def test_transparency_matches_unitarity_estimate(self, config):
        alpha = tune_alpha(EPS, 1.0)
        pot = design_broadband_reflector(alpha, EPS, d=4.0)
        for k in (0.8, 2.0):
            amps = scatter_all(pot, k, config)
            pred = born_prediction(pot, k)
            assert abs(abs(amps.Tl) ** 2 - pred.T_abs2) < 0.05
            assert abs(abs(amps.Tr) ** 2 - pred.T_abs2) < 0.05


    def test_adjoint_solve_keeps_generalized_unitarity(self, config):
        # the adjoint of alpha / (x - i eps)^2 is its mirror image, solved
        # on the same graded mesh
        pot = design_broadband_reflector(0.0976, EPS, d=4.0)
        for k in (0.5, 1.0, 3.0):
            amps = scatter_all(pot, k, config, include_adjoint=True)
            assert np.max(generalized_unitarity_residuals(amps)) <= 1e-6

    def test_designer_needs_positive_epsilon(self):
        with pytest.raises(ValueError, match="positive"):
            design_broadband_reflector(0.1, -EPS)


class TestBornScaling:
    def test_exact_vs_born_error_is_first_order(self, config):
        # relative error in R^l halves (within 20%) when alpha halves
        k = 1.0
        errs = []
        for alpha in (0.04, 0.02, 0.01):
            pot = design_broadband_reflector(alpha, EPS, d=4.0)
            Rb, _ = born_reflections(pot, k)
            Re = scatter(pot, k, "left", config).R
            errs.append(abs(Re - Rb) / abs(Rb))
        for big, small in zip(errs, errs[1:]):
            assert 0.4 < small / big < 0.6
