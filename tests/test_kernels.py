import base64
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymscat.errors import KernelFormatError
from asymscat.kernel_io import kernel_from_dict, kernel_to_dict, load_kernel, save_kernel
from asymscat.kernels import (
    SYMMETRY_CODES,
    PolynomialKernel,
    RegularizedInverseSquare,
    SampledKernel,
    adjoint,
    fourier_transform_local,
)
from conftest import PROFILE, random_poly_kernel, random_poly_surface


class TestEvaluate:
    def test_constant_polynomial(self):
        ker = PolynomialKernel(np.array([[1.0 + 0j]]))
        assert ker.evaluate(0.5, 0.3) == 1.0 + 0j

    def test_outside_support_is_exactly_zero(self, rng):
        poly = random_poly_kernel(rng)
        sampled = random_poly_surface(rng, n=41)
        local = RegularizedInverseSquare(alpha=1.0, epsilon=1e-4)
        assert poly.evaluate(2.0, 0.0) == 0.0
        assert sampled.evaluate(0.0, -2.0) == 0.0
        assert local.evaluate(2.0) == 0.0

    def test_regularized_inverse_square_value(self):
        # direct evaluation of alpha/(x - i eps)^2 by independent arithmetic
        alpha, eps = 1.0, 1e-4
        ker = RegularizedInverseSquare(alpha=alpha, epsilon=eps)
        want = alpha / complex(1.0, -eps) ** 2
        got = ker.evaluate(1.0)
        assert got == pytest.approx(want, abs=1e-15)
        assert got.imag == pytest.approx(2e-4, rel=1e-3)

    def test_regularized_split_on_axis(self):
        # Im V(eps) = alpha/(2 eps^2): the odd/even split of the profile
        alpha, eps = 0.7, 1e-3
        ker = RegularizedInverseSquare(alpha=alpha, epsilon=eps)
        v = ker.evaluate(eps)
        assert v.imag == pytest.approx(alpha / (2 * eps**2), rel=1e-12)
        assert v.real == pytest.approx(0.0, abs=1e-6)
        doubled = RegularizedInverseSquare(alpha=alpha, epsilon=2 * eps)
        assert doubled.evaluate(2 * eps).imag == pytest.approx(v.imag / 4.0, rel=1e-12)

    def test_sampled_interpolation_matches_surface(self, rng):
        # cubic-spline evaluation between nodes reproduces the smooth
        # surface the kernel was sampled from
        g = np.linspace(-1, 1, 201)
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        vals = np.polynomial.polynomial.polyval2d(*np.meshgrid(g, g, indexing="ij"), c)
        ker = SampledKernel(g, vals)
        x, y = 0.1234, -0.4567
        want = np.polynomial.polynomial.polyval2d(x, y, c)
        assert ker.evaluate(x, y) == pytest.approx(want, rel=1e-7)

    def test_sampled_matrix_is_zero_outside_support(self):
        # The spline would clamp or extrapolate past [-d, d], and the
        # polynomial continue; sampling must agree with evaluate, which is
        # 0 there.  The spline reads through the same products both ways,
        # so it matches exactly; polyval2d sums in another order.
        g = np.linspace(-1, 1, 41)
        X, Y = np.meshgrid(g, g, indexing="ij")
        x = np.array([-1.5, -1.0, -0.3, 0.0, 0.7, 1.2])
        y = np.array([-2.0, -0.5, 0.25, 1.0])
        for ker, rtol, centre in [
            (SampledKernel(g, np.exp(-X * X - Y * Y)), 0.0, np.exp(-0.0625)),
            # exp(-x^2 - y^2) to second order in each variable
            (PolynomialKernel(np.outer([1.0, 0.0, -1.0], [1.0, 0.0, -1.0])), 1e-14, 0.9375),
        ]:
            got = ker.sample_matrix(x, y)
            want = ker.evaluate(*np.meshgrid(x, y, indexing="ij"))
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0)
            assert np.all(got[[0, 5]] == 0.0)
            assert np.all(got[:, 0] == 0.0)
            assert got[3, 2] == pytest.approx(centre, rel=1e-6)

    def test_local_kernel_rejects_two_coordinates(self):
        ker = RegularizedInverseSquare(alpha=1.0, epsilon=1e-2)
        with pytest.raises(ValueError):
            ker.evaluate(0.1, 0.2)

    # ±inf lies outside the support, so it reads as any point there does;
    # NaN lies nowhere and is named.  On 11 nodes the rank-3 samples stay
    # full rank (cap 11 // 4) and the rank-one product compresses: the
    # two factor forms.
    _G = np.linspace(-1, 1, 11)
    _NONLOCAL = {"full-rank": np.cos(7.0 * np.add.outer(_G**3, _G)) + 0.5j,
                 "low-rank": np.outer(1 - _G**2, _G) + 0j}

    @staticmethod
    def _dense(out):
        out = out if isinstance(out, tuple) else (out,)
        return [f.toarray() if hasattr(f, "toarray") else np.asarray(f) for f in out]

    @pytest.mark.parametrize("kind", list(_NONLOCAL))
    @pytest.mark.parametrize("call, name", [
        (lambda k, v: k.evaluate(v, 0.0), "x"),
        (lambda k, v: k.evaluate(np.array([0.1, 0.2]), np.array([0.0, v])), "y"),
        (lambda k, v: k.sample_matrix(np.array([0.0, v]), np.array([0.1, 0.2])), "x_nodes"),
        (lambda k, v: k.sample_matrix(np.array([0.1, 0.2]), np.array([v, 0.0])), "y_nodes"),
        (lambda k, v: k.factors(np.array([-0.5, v])), "x_nodes"),
    ], ids=["evaluate-x", "evaluate-y", "sample-x", "sample-y", "factors"])
    def test_nan_coordinates_are_named_and_infinities_read_zero(self, kind, call, name):
        ker = SampledKernel(self._G, self._NONLOCAL[kind])
        assert (ker._low_rank is None) == (kind == "full-rank")
        with pytest.raises(ValueError, match=rf"coordinates {name} must not be NaN"):
            call(ker, np.nan)
        outside = self._dense(call(ker, 3.0))
        for inf in (np.inf, -np.inf):
            got = self._dense(call(ker, inf))
            assert all(np.array_equal(a, b) for a, b in zip(got, outside, strict=True))

    @pytest.mark.parametrize("call, name", [
        (lambda k, v: k.evaluate(v), "x"),
        (lambda k, v: k.sample_profile(np.array([0.3, v])), "nodes"),
    ], ids=["evaluate", "sample-profile"])
    def test_local_nan_coordinates_are_named_and_infinities_read_zero(self, call, name):
        ker = SampledKernel(self._G, np.exp(1j * self._G) + 0.5, is_local=True)
        with pytest.raises(ValueError, match=rf"coordinates {name} must not be NaN"):
            call(ker, np.nan)
        for inf in (np.inf, -np.inf):
            got = np.atleast_1d(call(ker, inf))
            assert got[-1] == 0.0 and np.all(got[:-1] != 0.0)


class TestTransforms:
    def test_identity_row(self, rng):
        ker = random_poly_surface(rng, n=41)
        out = ker.transform("I")
        np.testing.assert_array_equal(out.values, ker.values)

    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_involutions_sampled(self, rng, code):
        ker = random_poly_surface(rng, n=41)
        out = ker.transform(code).transform(code)
        np.testing.assert_array_equal(out.values, ker.values)

    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_involutions_polynomial(self, rng, code):
        ker = random_poly_kernel(rng)
        out = ker.transform(code).transform(code)
        np.testing.assert_allclose(out.coeffs, ker.coeffs, atol=1e-15)

    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_polynomial_map_matches_pointwise_definition(self, rng, code):
        # coefficient maps agree with evaluating the defining relation
        ker = random_poly_kernel(rng, degree=3)
        out = ker.transform(code)
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
        out = ker.transform("III")
        assert out.coeffs[1, 0] == -1.0

    def test_klein_composition(self, rng):
        # conjugation after parity equals the PT transform at kernel level
        ker = random_poly_surface(rng, n=41)
        lhs = ker.transform("III").transform("V")
        rhs = ker.transform("VII")
        np.testing.assert_array_equal(lhs.values, rhs.values)

    def test_local_profile_transforms(self, rng):
        g = np.linspace(-1, 1, 21)
        prof = rng.normal(size=21) + 1j * rng.normal(size=21)
        ker = SampledKernel(g, prof, is_local=True)
        np.testing.assert_array_equal(ker.transform("VI").values, prof)
        np.testing.assert_array_equal(ker.transform("III").values, prof[::-1])

    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_inverse_square_stays_in_family(self, code):
        # flip and conjugation each send epsilon -> -epsilon; the result
        # matches the transform of the sampled profile at any node count
        pot = RegularizedInverseSquare(alpha=0.3, epsilon=0.05, d=2.0)
        out = pot.transform(code)
        assert isinstance(out, RegularizedInverseSquare)
        for n in (81, 801):
            g = np.linspace(-2.0, 2.0, n)
            want = SampledKernel(g, pot.sample_profile(g), is_local=True).transform(code)
            np.testing.assert_allclose(out.sample_profile(g), want.values, rtol=1e-12)

    def test_negative_epsilon_is_the_mirror_image(self):
        x = np.linspace(-1.0, 1.0, 11)
        pot = RegularizedInverseSquare(alpha=0.3, epsilon=0.05)
        mirror = RegularizedInverseSquare(alpha=0.3, epsilon=-0.05)
        np.testing.assert_array_equal(mirror.profile_raw(x), pot.profile_raw(-x))


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
        np.testing.assert_array_equal(adjoint(ker).values, ker.transform("II").values)


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

    def test_mirror_image_spectrum(self):
        # V~ of the mirrored profile (epsilon < 0) at k is V~ at -k
        pot = RegularizedInverseSquare(alpha=1.0, epsilon=1e-2)
        mirror = RegularizedInverseSquare(alpha=1.0, epsilon=-1e-2)
        k = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_array_equal(fourier_transform_local(mirror, k),
                                      fourier_transform_local(pot, -k))
        assert fourier_transform_local(mirror, -2.0) == 0.0

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
        with pytest.raises(ValueError, match="symmetric"):
            SampledKernel(np.array([0.0, 0.5, 1.0, 1.5]), np.zeros((4, 4)))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            SampledKernel(np.array([-1.0, 1.0]), np.zeros((2, 2)))
        # the cubic splines behind evaluate and off-grid sampling need 4
        g = np.linspace(-1, 1, 3)
        with pytest.raises(ValueError, match="at least 4"):
            SampledKernel(g, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="at least 4"):
            SampledKernel(g, np.zeros(3), is_local=True)

    def test_local_shape(self):
        g = np.linspace(-1, 1, 5)
        with pytest.raises(ValueError):
            SampledKernel(g, np.zeros((5, 5)), is_local=True)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            PolynomialKernel(np.zeros((7, 2)))

    @pytest.mark.parametrize("shape", [(1, 0), (0, 3), (0,)], ids=["1x0", "0x3", "flat"])
    def test_empty_coefficients_are_rejected(self, shape):
        # (1, 0) used to construct with jmax -1; its file did not load
        with pytest.raises(ValueError, match="at least one coefficient"):
            PolynomialKernel(np.zeros(shape))

    def test_empty_coefficient_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(_poly("", jmax=0)), encoding="utf-8")
        with pytest.raises(KernelFormatError, match="field 'coeffs'"):
            load_kernel(path)

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


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<c16").tobytes()).decode("ascii")


def _local(values, **fields) -> dict:
    return {"format": 2, "type": "sampled", "d": 1.0, "n": 4, "is_local": True,
            "values": values, **fields}


def _poly(coeffs, **fields) -> dict:
    return {"format": 2, "type": "polynomial", "d": 1.0, "imax": 0, "jmax": 1,
            "coeffs": coeffs, **fields}


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
            kernel_from_dict({"format": 2, "type": "inverse_square", "d": 1.0,
                              "epsilon": 1e-4})

    def test_wrong_length_is_reported(self):
        with pytest.raises(KernelFormatError, match="values"):
            kernel_from_dict(_local(_b64(np.zeros(5)), is_local=False))

    @pytest.mark.parametrize("field, doc", [
        # n * n = 4 entries, so only n itself is wrong; numpy used to fail
        # with "Number of samples, -2, must be non-negative."
        ("n", _local(_b64(np.zeros(4)), n=-2, is_local=False)),
        ("n", _local("", n=0)),
        ("n", _local(_b64(np.zeros(3)), n=3)),
        ("n", _local(_b64(np.zeros(9)), n=3, is_local=False)),
        # used to fail with "grid must be strictly increasing"
        ("d", _local(_b64(np.zeros(4)), d=-1.0)),
        ("d", _local(_b64(np.zeros(4)), d=0.0)),
        ("d", _poly(_b64([1]), d=-1.0, jmax=0)),
        ("d", {"format": 2, "type": "inverse_square", "d": 0, "alpha": 1.0, "epsilon": 1e-4}),
        # polynomial degrees outside 0..5 used to fail in numpy's reshape
        # or in PolynomialKernel, without naming the field; coeffs is
        # decoded before the degrees are checked
        ("imax", _poly(_b64([1]), imax=-2, jmax=-2)),
        ("imax", _poly("", imax=-1, jmax=-3)),
        ("jmax", _poly("", jmax=-1)),
        ("imax", _poly(_b64(np.ones(7)), imax=6, jmax=0)),
        ("jmax", _poly(_b64(np.ones(7)), jmax=6)),
    ], ids=["n-negative", "n-zero", "n-three", "n-three-nonlocal", "d-negative", "d-zero",
            "poly-d", "inverse-square-d", "degrees-negative", "degrees-empty", "jmax-negative",
            "imax-six", "jmax-six"])
    def test_out_of_range_size_is_named(self, tmp_path, field, doc):
        with pytest.raises(KernelFormatError, match=f"^field '{field}' must be"):
            kernel_from_dict(doc)
        path = tmp_path / "k.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(KernelFormatError, match=f"^field '{field}' must be"):
            load_kernel(path)

    @pytest.mark.parametrize("field, doc", [
        ("d", _poly(_b64([1]), d=float("inf"), jmax=0)),
        ("alpha", {"format": 2, "type": "inverse_square", "d": 1.0, "alpha": float("nan"),
                   "epsilon": 1e-4}),
        ("epsilon", {"format": 2, "type": "inverse_square", "d": 1.0, "alpha": 1.0,
                     "epsilon": float("-inf")}),
        # float() raises OverflowError on these, not ValueError
        ("d", {"format": 2, "type": "inverse_square", "d": 10**400, "alpha": 0.1,
               "epsilon": 0.01}),
        ("alpha", {"format": 2, "type": "inverse_square", "d": 1.0, "alpha": -10**400,
                   "epsilon": 0.01}),
        ("epsilon", {"format": 2, "type": "inverse_square", "d": 1.0, "alpha": 0.1,
                     "epsilon": 10**400}),
        # the decoded complex128 entries
        ("values", _local(_b64([0, np.nan, 0, 0]))),
        ("coeffs", _poly(_b64([1, complex(0, -np.inf)]))),
    ])
    def test_non_finite_field_is_named(self, tmp_path, field, doc):
        with pytest.raises(KernelFormatError, match=f"'{field}' must be finite"):
            kernel_from_dict(doc)
        # json.load accepts the NaN and Infinity literals json.dump writes
        path = tmp_path / "k.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(KernelFormatError, match=f"'{field}' must be finite"):
            load_kernel(path)

    @pytest.mark.parametrize("field, doc", [
        ("d", _poly(_b64([1]), d=True, jmax=0)),
        ("n", _local(_b64([0]), n=True)),
        ("imax", _poly(_b64([1, 1]), imax=True, jmax=0)),
        ("jmax", _poly(_b64([1]), jmax=False)),
        ("alpha", {"format": 2, "type": "inverse_square", "d": 1.0, "alpha": False,
                   "epsilon": 1e-4}),
        ("epsilon", {"format": 2, "type": "inverse_square", "d": 1.0, "alpha": 1.0,
                     "epsilon": True}),
    ])
    def test_boolean_number_field_is_wrong_type(self, field, doc):
        # bool is a subclass of int, so isinstance alone let these load
        with pytest.raises(KernelFormatError, match=f"'{field}' has wrong type bool"):
            kernel_from_dict(doc)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(KernelFormatError):
            load_kernel(path)

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        # a UTF-16 byte-order mark used to escape as UnicodeDecodeError
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(_poly(_b64([1, 1]))).encode("utf-16-le"))
        with pytest.raises(KernelFormatError, match="^invalid JSON in kernel file: "):
            load_kernel(path)


# Floats whose printing is easy to get wrong: signed zero, the smallest
# subnormal, where repr switches to an exponent (1e16), a power of ten
# beyond 2**53 (1e22), the largest double, integral values and mixed
# exponents.
_AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 1.7976931348623157e308,
            -1.7976931348623157e308, 3.0, -2.0, 1e15, 123456789.0, 0.1, 1e-7, 2.5e-300]


def _awkward_floats(rng, size):
    """Floats from _AWKWARD, or random mantissas at exponents from 1e-320 to 1e299."""
    mixed = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-320, 300, size)
    return np.where(rng.random(size) < 0.5, rng.choice(_AWKWARD, size), mixed)


@st.composite
def kernels_to_write(draw):
    """A random kernel of one of the five shapes written to files: sampled
    nonlocal and local, polynomial 6 x 2 and 6 x 6, inverse-square."""
    family = draw(st.sampled_from(["sampled", "local", "poly6x2", "poly6x6",
                                   "inverse_square"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([0.5, 1.0, 3.0, 1e-300, 1e22]))

    def cplx(shape):  # re + 1j * im would lose an imaginary part of -0.0
        return _awkward_floats(rng, (*shape, 2)).view(complex)[..., 0]

    if family in ("sampled", "local"):
        n = draw(st.integers(4, 12))
        shape = (n,) if family == "local" else (n, n)
        return SampledKernel(np.linspace(-d, d, n), cplx(shape), is_local=family == "local")
    if family.startswith("poly"):
        return PolynomialKernel(cplx((6, 2 if family == "poly6x2" else 6)), d=d)
    alpha, epsilon = _awkward_floats(rng, 2)
    return RegularizedInverseSquare(float(alpha), float(epsilon) or 1.0, d)


def _document(kernel, **layout) -> str:
    return json.dumps(kernel_to_dict(kernel), sort_keys=True, **layout) + "\n"


_FIELDS = {SampledKernel: ("grid", "values", "is_local"),
           PolynomialKernel: ("coeffs", "d"),
           RegularizedInverseSquare: ("alpha", "epsilon", "d")}


def _assert_bit_identical(back, kernel):
    assert type(back) is type(kernel)
    for field in _FIELDS[type(kernel)]:  # bit for bit, so -0.0 is not 0.0
        assert (np.asarray(getattr(back, field)).tobytes()
                == np.asarray(getattr(kernel, field)).tobytes()), field


class TestKernelWriter:
    @PROFILE
    @given(kernels_to_write())
    def test_bytes_are_the_json_document(self, tmp_path_factory, kernel):
        path = tmp_path_factory.mktemp("writer") / "k.json"
        save_kernel(kernel, path)
        assert path.read_bytes() == _document(kernel).encode("utf-8")
        _assert_bit_identical(load_kernel(path), kernel)

    def test_awkward_floats_round_trip(self, tmp_path):
        parts = np.array(_AWKWARD)  # -0.0, subnormals and +-max among them
        values = np.stack([parts, parts[::-1]], axis=1).view(complex)[:, 0]
        kernel = SampledKernel(np.linspace(-1, 1, values.size), values, is_local=True)
        path = tmp_path / "k.json"
        save_kernel(kernel, path)
        assert json.loads(path.read_text(encoding="utf-8"))["values"] == _b64(values)
        _assert_bit_identical(load_kernel(path), kernel)

    def test_401_squared_kernel_round_trips(self, rng, tmp_path):
        g = np.linspace(-1, 1, 401)
        kernel = SampledKernel(g, rng.normal(size=(401, 401)) + 1j * rng.normal(size=(401, 401)))
        path = tmp_path / "k.json"
        save_kernel(kernel, path)
        assert path.read_bytes() == _document(kernel).encode("utf-8")
        _assert_bit_identical(load_kernel(path), kernel)


class TestFormat2Checks:
    @pytest.mark.parametrize("field, doc, message", [
        ("values", _local(_b64(np.zeros(4))[:-1]), "is not valid base64"),
        ("values", _local("*" + _b64(np.zeros(4))[1:]), "is not valid base64"),
        ("values", _local(_b64(np.zeros(2)) + "\n" + _b64(np.zeros(2))),
         "is not valid base64"),
        ("coeffs", _poly("\u00e9" * 44), "is not valid base64"),
        ("values", _local(base64.b64encode(bytes(56)).decode()),
         "holds 56 bytes, not a whole number"),
        ("values", _local(_b64(np.zeros(5))), "holds 5 entries, expected 4"),
        ("coeffs", _poly(_b64(np.ones(3))), "holds 3 entries, expected 2"),
        ("coeffs", _poly(""), "holds 0 entries, expected 2"),
        ("format", _poly(_b64([1, 1]), format=3), "must be 2, got 3"),
        ("format", _poly(_b64([1, 1]), format=1), "must be 2, got 1"),
        ("format", _poly(_b64([1, 1]), format=True), "has wrong type bool"),
        ("format", _poly(_b64([1, 1]), format="2"), "has wrong type str"),
        ("format", _poly(_b64([1, 1]), format=2.0), "has wrong type float"),
        ("format", _poly(_b64([1, 1]), format=None), "has wrong type NoneType"),
        ("values", _local([[0.0, 0.0]] * 4), "has wrong type list"),
        # the base64 fields take strings only: no number, bool, null or object
        ("values", _local(True), "has wrong type bool"),
        ("values", _local(None), "has wrong type NoneType"),
        ("coeffs", _poly(1.5), "has wrong type float"),
        ("coeffs", _poly({"re": [1.0, 1.0], "im": [0.0, 0.0]}), "has wrong type dict"),
    ], ids=["padding", "alphabet", "newline", "non-ascii", "truncated", "count-local",
            "count-poly", "empty", "format-3", "format-1", "format-bool",
            "format-str", "format-float", "format-null", "pairs-in-format-2",
            "values-bool", "values-null", "coeffs-number", "coeffs-object"])
    def test_malformed_file_names_the_field(self, tmp_path, field, doc, message):
        with pytest.raises(KernelFormatError, match=f"field '{field}' {message}"):
            kernel_from_dict(doc)
        path = tmp_path / "k.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(KernelFormatError, match=f"field '{field}' {message}"):
            load_kernel(path)

    def test_missing_format_is_named(self, tmp_path):
        # format 1 files had no format field; they no longer load
        doc = _poly(_b64([1, 1]))
        del doc["format"]
        with pytest.raises(KernelFormatError, match="^missing required field 'format'$"):
            kernel_from_dict(doc)
        path = tmp_path / "k.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(KernelFormatError, match="^missing required field 'format'$"):
            load_kernel(path)
