import json

import numpy as np
import pytest

from asymscat.errors import KernelFormatError
from asymscat.kernel_io import kernel_from_dict, load_kernel, save_kernel
from asymscat.kernels import (
    SYMMETRY_CODES,
    PolynomialKernel,
    RegularizedInverseSquare,
    SampledKernel,
    adjoint,
    evaluate,
    fourier_transform_local,
    transform,
)
from conftest import random_poly_kernel, random_poly_surface


class TestEvaluate:
    def test_constant_polynomial(self):
        ker = PolynomialKernel(np.array([[1.0 + 0j]]))
        assert evaluate(ker, 0.5, 0.3) == 1.0 + 0j

    def test_outside_support_is_exactly_zero(self, rng):
        poly = random_poly_kernel(rng)
        sampled = random_poly_surface(rng, n=41)
        local = RegularizedInverseSquare(alpha=1.0, epsilon=1e-4)
        assert evaluate(poly, 2.0, 0.0) == 0.0
        assert evaluate(sampled, 0.0, -2.0) == 0.0
        assert evaluate(local, 2.0) == 0.0

    def test_regularized_inverse_square_value(self):
        # direct evaluation of alpha/(x - i eps)^2 by independent arithmetic
        alpha, eps = 1.0, 1e-4
        ker = RegularizedInverseSquare(alpha=alpha, epsilon=eps)
        want = alpha / complex(1.0, -eps) ** 2
        got = evaluate(ker, 1.0)
        assert got == pytest.approx(want, abs=1e-15)
        assert got.imag == pytest.approx(2e-4, rel=1e-3)

    def test_regularized_split_on_axis(self):
        # Im V(eps) = alpha/(2 eps^2): the odd/even split of the profile
        alpha, eps = 0.7, 1e-3
        ker = RegularizedInverseSquare(alpha=alpha, epsilon=eps)
        v = evaluate(ker, eps)
        assert v.imag == pytest.approx(alpha / (2 * eps**2), rel=1e-12)
        assert v.real == pytest.approx(0.0, abs=1e-6)
        doubled = RegularizedInverseSquare(alpha=alpha, epsilon=2 * eps)
        assert evaluate(doubled, 2 * eps).imag == pytest.approx(v.imag / 4.0, rel=1e-12)

    def test_sampled_interpolation_matches_surface(self, rng):
        # cubic-spline evaluation between nodes reproduces the smooth
        # surface the kernel was sampled from
        g = np.linspace(-1, 1, 201)
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        vals = np.polynomial.polynomial.polyval2d(*np.meshgrid(g, g, indexing="ij"), c)
        ker = SampledKernel(g, vals)
        x, y = 0.1234, -0.4567
        want = np.polynomial.polynomial.polyval2d(x, y, c)
        assert evaluate(ker, x, y) == pytest.approx(want, rel=1e-7)

    def test_sampled_matrix_is_zero_outside_support(self):
        # The spline would clamp or extrapolate past [-d, d]; sampling must
        # agree with evaluate, which is 0 there.
        g = np.linspace(-1, 1, 41)
        X, Y = np.meshgrid(g, g, indexing="ij")
        ker = SampledKernel(g, np.exp(-X * X - Y * Y))
        x = np.array([-1.5, -1.0, -0.3, 0.0, 0.7, 1.2])
        y = np.array([-2.0, -0.5, 0.25, 1.0])
        got = ker.sample_matrix(x, y)
        np.testing.assert_array_equal(got, evaluate(ker, *np.meshgrid(x, y, indexing="ij")))
        assert np.all(got[[0, 5]] == 0.0)
        assert np.all(got[:, 0] == 0.0)
        assert got[3, 2] == pytest.approx(np.exp(-0.0625), rel=1e-6)

    def test_local_kernel_rejects_two_coordinates(self):
        ker = RegularizedInverseSquare(alpha=1.0, epsilon=1e-2)
        with pytest.raises(ValueError):
            evaluate(ker, 0.1, 0.2)


class TestTransforms:
    def test_identity_row(self, rng):
        ker = random_poly_surface(rng, n=41)
        out = transform(ker, "I")
        np.testing.assert_array_equal(out.values, ker.values)

    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_involutions_sampled(self, rng, code):
        ker = random_poly_surface(rng, n=41)
        out = transform(transform(ker, code), code)
        np.testing.assert_array_equal(out.values, ker.values)

    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_involutions_polynomial(self, rng, code):
        ker = random_poly_kernel(rng)
        out = transform(transform(ker, code), code)
        np.testing.assert_allclose(out.coeffs, ker.coeffs, atol=1e-15)

    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_polynomial_map_matches_pointwise_definition(self, rng, code):
        # coefficient maps agree with evaluating the defining relation
        ker = random_poly_kernel(rng, degree=3)
        out = transform(ker, code)
        xs = np.linspace(-0.9, 0.9, 7)
        ys = np.linspace(-0.8, 0.8, 7)
        defs = {
            "I": lambda x, y: ker.evaluate(x, y),
            "II": lambda x, y: np.conj(ker.evaluate(y, x)),
            "III": lambda x, y: ker.evaluate(-x, -y),
            "IV": lambda x, y: np.conj(ker.evaluate(-y, -x)),
            "V": lambda x, y: np.conj(ker.evaluate(x, y)),
            "VI": lambda x, y: ker.evaluate(y, x),
            "VII": lambda x, y: np.conj(ker.evaluate(-x, -y)),
            "VIII": lambda x, y: ker.evaluate(-y, -x),
        }
        for x in xs:
            for y in ys:
                assert out.evaluate(x, y) == pytest.approx(defs[code](x, y), abs=1e-12)

    def test_parity_flips_odd_coefficient(self):
        ker = PolynomialKernel(np.array([[0.0], [1.0]], dtype=complex))  # v_10 = 1
        out = transform(ker, "III")
        assert out.coeffs[1, 0] == -1.0

    def test_klein_composition(self, rng):
        # conjugation after parity equals the PT transform at kernel level
        ker = random_poly_surface(rng, n=41)
        lhs = transform(transform(ker, "III"), "V")
        rhs = transform(ker, "VII")
        np.testing.assert_array_equal(lhs.values, rhs.values)

    def test_local_profile_transforms(self, rng):
        g = np.linspace(-1, 1, 21)
        prof = rng.normal(size=21) + 1j * rng.normal(size=21)
        ker = SampledKernel(g, prof, is_local=True)
        np.testing.assert_array_equal(transform(ker, "VI").values, prof)
        np.testing.assert_array_equal(transform(ker, "III").values, prof[::-1])


class TestAdjoint:
    def test_hermitian_fixed_point(self, rng):
        base = random_poly_surface(rng, n=31)
        herm = SampledKernel(base.grid, (base.values + base.values.conj().T) / 2)
        np.testing.assert_array_equal(adjoint(herm).values, herm.values)

    def test_polynomial_conjugate_transpose(self):
        ker = PolynomialKernel(np.array([[0.0, 1j]], dtype=complex))  # v_01 = i
        out = adjoint(ker)
        assert out.coeffs[1, 0] == -1j

    def test_adjoint_is_involution(self, rng):
        ker = random_poly_surface(rng, n=31)
        np.testing.assert_array_equal(adjoint(adjoint(ker)).values, ker.values)

    def test_adjoint_equals_transform_ii(self, rng):
        ker = random_poly_surface(rng, n=31)
        np.testing.assert_array_equal(adjoint(ker).values, transform(ker, "II").values)


class TestFourierTransform:
    def test_positive_and_zero_frequencies_vanish(self):
        pot = RegularizedInverseSquare(alpha=1.0, epsilon=1e-4)
        assert fourier_transform_local(pot, 2.0) == 0.0
        assert fourier_transform_local(pot, 0.0) == 0.0

    def test_negative_frequency_formula(self):
        pot = RegularizedInverseSquare(alpha=1.0, epsilon=1e-4)
        got = fourier_transform_local(pot, -2.0)
        want = np.sqrt(2 * np.pi) * (-2.0) * np.exp(-2e-4)
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("k", [0.5, 2.0, 5.0, -0.5, -2.0, -5.0])
    def test_windowed_quadrature_converges_to_analytic(self, k):
        # window +-1e4*eps; eps large enough that the truncated tails are
        # negligible against the oscillatory decay
        alpha, eps = 0.3, 5e-3
        pot = RegularizedInverseSquare(alpha=alpha, epsilon=eps)
        window = 1e4 * eps
        x = np.linspace(-window, window, 400001)
        num = np.trapezoid(pot.profile_raw(x) * np.exp(-1j * k * x), x) / np.sqrt(2 * np.pi)
        ana = fourier_transform_local(pot, k)
        scale = max(abs(ana), np.sqrt(2 * np.pi) * abs(alpha * k))
        assert abs(num - ana) / scale < 1e-3


class TestValidation:
    def test_grid_must_be_symmetric(self):
        with pytest.raises(ValueError):
            SampledKernel(np.array([0.0, 0.5, 1.0]), np.zeros((3, 3)))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            SampledKernel(np.array([-1.0, 1.0]), np.zeros((2, 2)))

    def test_local_shape(self):
        g = np.linspace(-1, 1, 5)
        with pytest.raises(ValueError):
            SampledKernel(g, np.zeros((5, 5)), is_local=True)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            PolynomialKernel(np.zeros((7, 2)))

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            RegularizedInverseSquare(alpha=1.0, epsilon=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [
        lambda bad: SampledKernel(np.linspace(-1, 1, 5), np.array([0, 1, bad, 1, 0])),
        lambda bad: SampledKernel(np.linspace(-1, 1, 5),
                                  np.full(5, bad, dtype=complex), is_local=True),
        lambda bad: SampledKernel(np.array([-bad, -0.5, 0.0, 0.5, bad]), np.zeros(5),
                                  is_local=True),
        lambda bad: PolynomialKernel(np.array([[1.0, 1j * bad]])),
        lambda bad: PolynomialKernel(np.ones((2, 2)), d=bad),
        lambda bad: RegularizedInverseSquare(alpha=bad, epsilon=1e-2),
        lambda bad: RegularizedInverseSquare(alpha=1.0, epsilon=bad),
        lambda bad: RegularizedInverseSquare(alpha=1.0, epsilon=1e-2, d=bad),
    ], ids=["sampled-values", "local-values", "grid", "coeffs", "poly-d",
            "alpha", "epsilon", "d"])
    def test_non_finite_values_are_rejected(self, build, bad):
        with pytest.raises(ValueError, match="finite"):
            build(bad)

    def test_kernels_are_immutable(self, rng):
        ker = random_poly_surface(rng, n=11)
        with pytest.raises(ValueError):
            ker.values[0, 0] = 1.0


class TestJsonRoundTrip:
    def test_sampled_nonlocal(self, rng, tmp_path):
        ker = random_poly_surface(rng, n=21)
        path = tmp_path / "k.json"
        save_kernel(ker, path)
        back = load_kernel(path)
        np.testing.assert_array_equal(back.values, ker.values)
        np.testing.assert_array_equal(back.grid, ker.grid)

    def test_sampled_local(self, rng, tmp_path):
        g = np.linspace(-1, 1, 17)
        ker = SampledKernel(g, rng.normal(size=17) + 1j * rng.normal(size=17), is_local=True)
        path = tmp_path / "k.json"
        save_kernel(ker, path)
        back = load_kernel(path)
        assert back.is_local
        np.testing.assert_array_equal(back.values, ker.values)

    def test_polynomial(self, rng, tmp_path):
        ker = random_poly_kernel(rng, degree=5)
        path = tmp_path / "k.json"
        save_kernel(ker, path)
        back = load_kernel(path)
        np.testing.assert_array_equal(back.coeffs, ker.coeffs)
        assert back.d == ker.d

    def test_inverse_square(self, tmp_path):
        ker = RegularizedInverseSquare(alpha=0.123456789012345, epsilon=1e-4, d=4.0)
        path = tmp_path / "k.json"
        save_kernel(ker, path)
        back = load_kernel(path)
        assert back.alpha == ker.alpha
        assert back.epsilon == ker.epsilon
        assert back.d == ker.d

    def test_missing_field_is_named(self):
        with pytest.raises(KernelFormatError, match="alpha"):
            kernel_from_dict({"type": "inverse_square", "d": 1.0, "epsilon": 1e-4})

    def test_wrong_length_is_reported(self):
        with pytest.raises(KernelFormatError, match="values"):
            kernel_from_dict({
                "type": "sampled", "d": 1.0, "n": 3, "is_local": False,
                "values": [[0.0, 0.0]] * 5,
            })

    @pytest.mark.parametrize("field, doc", [
        ("values", {"type": "sampled", "d": 1.0, "n": 3, "is_local": True,
                    "values": [[0.0, 0.0], [float("nan"), 0.0], [0.0, 0.0]]}),
        ("coeffs", {"type": "polynomial", "d": 1.0, "imax": 0, "jmax": 1,
                    "coeffs": [[1.0, 0.0], [0.0, float("inf")]]}),
        ("d", {"type": "polynomial", "d": float("inf"), "imax": 0, "jmax": 0,
               "coeffs": [[1.0, 0.0]]}),
        ("alpha", {"type": "inverse_square", "d": 1.0, "alpha": float("nan"),
                   "epsilon": 1e-4}),
        ("epsilon", {"type": "inverse_square", "d": 1.0, "alpha": 1.0,
                     "epsilon": float("-inf")}),
    ])
    def test_non_finite_field_is_named(self, tmp_path, field, doc):
        with pytest.raises(KernelFormatError, match=f"'{field}' must be finite"):
            kernel_from_dict(doc)
        # json.load accepts the NaN and Infinity literals json.dump writes
        path = tmp_path / "k.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(KernelFormatError, match=f"'{field}' must be finite"):
            load_kernel(path)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(KernelFormatError):
            load_kernel(path)
