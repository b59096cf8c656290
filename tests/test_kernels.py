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
from conftest import PROFILE, random_local_kernel, random_poly_kernel, random_poly_surface


def _scipy_reads(kernel, x, y=None):
    """The sampled kernel's not-a-knot cubic spline through its samples
    on the nodes ``x`` (and ``y`` for a nonlocal kernel), built by
    scipy.interpolate alone and 0 outside +-d: the reference for
    sample_profile and sample_matrix."""
    from scipy.interpolate import BSpline, make_interp_spline

    g, t, d = kernel.grid, kernel._knots, kernel.d

    def basis(nodes):
        nodes = np.asarray(nodes, dtype=float)
        b = BSpline.design_matrix(np.clip(nodes, -d, d), t, 3).toarray()
        b[np.abs(nodes) > d] = 0.0
        return b

    c = make_interp_spline(g, kernel.values, k=3, t=t).c
    if kernel.is_local:
        return basis(x) @ c
    return basis(x) @ make_interp_spline(g, c.T, k=3, t=t).c.T @ basis(y).T


class TestReads:
    def test_constant_polynomial(self):
        ker = PolynomialKernel(np.array([[1.0 + 0j]]))
        assert np.array_equal(ker.sample_matrix([0.5], [0.3]), [[1.0 + 0j]])

    def test_outside_support_is_exactly_zero(self, rng):
        poly = random_poly_kernel(rng)
        sampled = random_poly_surface(rng, n=41)
        local = RegularizedInverseSquare(alpha=1.0, epsilon=1e-4)
        assert poly.sample_matrix([2.0], [0.0])[0, 0] == 0.0
        assert sampled.sample_matrix([0.0], [-2.0])[0, 0] == 0.0
        assert local.sample_profile([2.0])[0] == 0.0

    def test_regularized_inverse_square_value(self):
        # direct evaluation of alpha/(x - i eps)^2 by independent arithmetic
        alpha, eps = 1.0, 1e-4
        ker = RegularizedInverseSquare(alpha=alpha, epsilon=eps)
        want = alpha / complex(1.0, -eps) ** 2
        got = ker.sample_profile([1.0])[0]
        assert got == pytest.approx(want, abs=1e-15)
        assert got.imag == pytest.approx(2e-4, rel=1e-3)

    def test_regularized_split_on_axis(self):
        # Im V(eps) = alpha/(2 eps^2): the odd/even split of the profile
        alpha, eps = 0.7, 1e-3
        ker = RegularizedInverseSquare(alpha=alpha, epsilon=eps)
        v = ker.sample_profile([eps])[0]
        assert v.imag == pytest.approx(alpha / (2 * eps**2), rel=1e-12)
        assert v.real == pytest.approx(0.0, abs=1e-6)
        doubled = RegularizedInverseSquare(alpha=alpha, epsilon=2 * eps)
        assert doubled.sample_profile([2 * eps])[0].imag == pytest.approx(v.imag / 4.0, rel=1e-12)

    @pytest.mark.parametrize("d", [0.5, 1.0, 4.0])
    def test_inverse_square_profile_is_the_closed_form(self, rng, d):
        # alpha / (x - i eps)^2 inside the support, exactly 0 beyond it
        pot = RegularizedInverseSquare(alpha=0.3, epsilon=0.05, d=d)
        x = np.concatenate([np.linspace(-1.5 * d, 1.5 * d, 61), [-d, d],
                            rng.uniform(-d, d, 20)])
        got = pot.sample_profile(x)
        for xi, vi in zip(x, got, strict=True):
            if abs(xi) > d:
                assert vi == 0.0
            else:
                assert vi == pytest.approx(0.3 / complex(xi, -0.05) ** 2, rel=1e-15)

    def test_sampled_interpolation_matches_surface(self, rng):
        # cubic-spline evaluation between nodes reproduces the smooth
        # surface the kernel was sampled from
        g = np.linspace(-1, 1, 201)
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        vals = np.polynomial.polynomial.polyval2d(*np.meshgrid(g, g, indexing="ij"), c)
        ker = SampledKernel(g, vals)
        x, y = 0.1234, -0.4567
        want = np.polynomial.polynomial.polyval2d(x, y, c)
        assert ker.sample_matrix([x], [y])[0, 0] == pytest.approx(want, rel=1e-7)

    def test_sampled_matrix_is_zero_outside_support(self):
        # The spline would clamp or extrapolate past [-d, d], and the
        # polynomial continue; both read 0 there, as scipy's spline and
        # polyval2d set to 0 beyond the support do.
        g = np.linspace(-1, 1, 41)
        X, Y = np.meshgrid(g, g, indexing="ij")
        x = np.array([-1.5, -1.0, -0.3, 0.0, 0.7, 1.2])
        y = np.array([-2.0, -0.5, 0.25, 1.0])
        inside = (np.abs(x)[:, None] <= 1.0) & (np.abs(y)[None, :] <= 1.0)
        poly = PolynomialKernel(np.outer([1.0, 0.0, -1.0], [1.0, 0.0, -1.0]))
        sampled = SampledKernel(g, np.exp(-X * X - Y * Y))
        # polyval2d sums in another order than the node product, and
        # scipy's spline builds its coefficients by its own code
        for ker, want, centre, rtol in [
            (sampled, _scipy_reads(sampled, x, y), np.exp(-0.0625), 1e-13),
            # exp(-x^2 - y^2) to second order in each variable
            (poly, np.where(inside, np.polynomial.polynomial.polyval2d(
                *np.meshgrid(x, y, indexing="ij"), poly.coeffs), 0.0), 0.9375,
             1e-14),
        ]:
            got = ker.sample_matrix(x, y)
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0)
            assert np.all(got[[0, 5]] == 0.0)
            assert np.all(got[:, 0] == 0.0)
            assert got[3, 2] == pytest.approx(centre, rel=1e-6)

    # ±inf lies outside the support, so it reads as any point there does;
    # NaN lies nowhere and is named.  On 11 nodes the rank-3 samples stay
    # full rank (cap 11 // 4) and the rank-one product compresses: the
    # two factor forms.
    _G = np.linspace(-1, 1, 11)
    _NONLOCAL = {"full-rank": np.cos(7.0 * np.add.outer(_G**3, _G)) + 0.5j,
                 "low-rank": np.outer(1 - _G**2, _G) + 0j}
    _LOCAL = np.exp(1j * _G) + 0.5
    # on the stored grid, off it, at and beyond +-d
    _OFF = np.array([-np.inf, -3.0, -1.0, -0.95, -0.3, 0.0, 0.123, 0.5, 1.0, 1.5, np.inf])

    @staticmethod
    def _dense(out):
        out = out if isinstance(out, tuple) else (out,)
        return [f.toarray() if hasattr(f, "toarray") else np.asarray(f) for f in out]

    @pytest.mark.parametrize("kind", [*_NONLOCAL, "local"])
    def test_sampled_reads_match_scipy_interpolate(self, kind):
        local = kind == "local"
        ker = SampledKernel(self._G, self._LOCAL if local else self._NONLOCAL[kind],
                            is_local=local)
        for x in (self._G, self._OFF):
            if local:
                got, want = ker.sample_profile(x), _scipy_reads(ker, x)
            else:
                got, want = ker.sample_matrix(x, self._OFF[::-1]), _scipy_reads(
                    ker, x, self._OFF[::-1])
                pc, q = self._dense(ker.factors(x))
                square = _scipy_reads(ker, x, x)
                assert np.max(np.abs(pc @ q.T - square)) <= 1e-13 * np.max(np.abs(square))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.all(got[np.abs(x) > 1.0] == 0.0)

    @pytest.mark.parametrize("kind", [*_NONLOCAL, "local"])
    @pytest.mark.parametrize("nodes", ["stored", "off"])
    def test_sampled_reads_take_lists(self, kind, nodes):
        # a list of nodes reads as the equal array does, on the stored
        # grid (the samples) and off it (the spline)
        local = kind == "local"
        ker = SampledKernel(self._G, self._LOCAL if local else self._NONLOCAL[kind],
                            is_local=local)
        x = self._G if nodes == "stored" else self._OFF
        if local:
            assert np.array_equal(ker.sample_profile(list(x)), ker.sample_profile(x))
            return
        assert np.array_equal(ker.sample_matrix(list(x), list(x)), ker.sample_matrix(x, x))
        assert np.array_equal(ker.sample_matrix(list(x), [0.1]), ker.sample_matrix(x, [0.1]))
        for a, b in zip(self._dense(ker.factors(list(x))), self._dense(ker.factors(x)),
                        strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", list(_NONLOCAL))
    @pytest.mark.parametrize("call, name", [
        (lambda k, v: k.sample_matrix(np.array([0.0, v]), np.array([0.1, 0.2])), "x_nodes"),
        (lambda k, v: k.sample_matrix(np.array([0.1, 0.2]), np.array([v, 0.0])), "y_nodes"),
        (lambda k, v: k.factors(np.array([-0.5, v])), "x_nodes"),
    ], ids=["sample-x", "sample-y", "factors"])
    def test_nan_coordinates_are_named_and_infinities_read_zero(self, kind, call, name):
        ker = SampledKernel(self._G, self._NONLOCAL[kind])
        assert (ker._low_rank is None) == (kind == "full-rank")
        with pytest.raises(ValueError, match=rf"coordinates {name} must not be NaN"):
            call(ker, np.nan)
        outside = self._dense(call(ker, 3.0))
        for inf in (np.inf, -np.inf):
            got = self._dense(call(ker, inf))
            assert all(np.array_equal(a, b) for a, b in zip(got, outside, strict=True))

    def test_local_nan_coordinates_are_named_and_infinities_read_zero(self):
        ker = SampledKernel(self._G, self._LOCAL, is_local=True)
        with pytest.raises(ValueError, match=r"coordinates nodes must not be NaN"):
            ker.sample_profile(np.array([0.3, np.nan]))
        for inf in (np.inf, -np.inf):
            got = ker.sample_profile(np.array([0.3, inf]))
            assert got[-1] == 0.0 and got[0] != 0.0


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

    @pytest.mark.parametrize("kind", ["polynomial", "sampled"])
    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_map_matches_definition_on_node_products(self, rng, kind, code):
        # the transformed kernel read on x x y against the defining
        # relation read from the original kernel on the nodes it names;
        # the sampled kernel is read off its grid, through its spline
        ker = random_poly_kernel(rng, degree=3) if kind == "polynomial" else (
            random_poly_surface(rng, n=41, degree=3))
        v = ker.sample_matrix
        x = np.linspace(-0.9, 0.9, 7)
        y = np.linspace(-0.8, 0.8, 6)
        defs = {
            "I": lambda x, y: v(x, y),
            "II": lambda x, y: np.conj(v(y, x)).T,
            "III": lambda x, y: v(-x, -y),
            "IV": lambda x, y: np.conj(v(-y, -x)).T,
            "V": lambda x, y: np.conj(v(x, y)),
            "VI": lambda x, y: v(y, x).T,
            "VII": lambda x, y: np.conj(v(-x, -y)),
            "VIII": lambda x, y: v(-y, -x).T,
        }
        want = defs[code](x, y)
        assert np.max(np.abs(ker.transform(code).sample_matrix(x, y) - want)) <= (
            1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("code", SYMMETRY_CODES)
    def test_local_map_matches_definition_on_nodes(self, rng, code):
        # V(x) delta(x - y): transposing leaves a local kernel as it is,
        # flipping reads it at -x
        flip = code in ("III", "IV", "VII", "VIII")
        conj = code in ("II", "IV", "V", "VII")
        x = np.linspace(-0.9, 0.9, 7)
        for ker in (random_local_kernel(rng, n=41),
                    RegularizedInverseSquare(alpha=0.3, epsilon=0.05)):
            want = ker.sample_profile(-x if flip else x)
            want = np.conj(want) if conj else want
            got = ker.transform(code).sample_profile(x)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

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
        np.testing.assert_array_equal(mirror.sample_profile(x), pot.sample_profile(-x))


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
        window = 1e4 * eps
        pot = RegularizedInverseSquare(alpha=alpha, epsilon=eps, d=window)
        x = np.linspace(-window, window, 400001)
        num = np.trapezoid(pot.sample_profile(x) * np.exp(-1j * k * x), x) / np.sqrt(2 * np.pi)
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
        # the cubic splines behind off-grid sampling need 4
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

    # transform flips epsilon but never conjugates alpha, so a complex
    # alpha passed VII in check_symmetries that its profile breaks
    @pytest.mark.parametrize("bad", [0.1 + 0.05j, np.complex128(0.1), True, np.bool_(False),
                                     "0.1", None],
                             ids=["complex", "numpy-complex", "bool", "numpy-bool", "str", "none"])
    @pytest.mark.parametrize("build, name", [
        (lambda bad: RegularizedInverseSquare(alpha=bad, epsilon=0.2), "alpha"),
        (lambda bad: RegularizedInverseSquare(alpha=0.1, epsilon=bad), "epsilon"),
        (lambda bad: RegularizedInverseSquare(alpha=0.1, epsilon=0.2, d=bad), "d"),
        (lambda bad: PolynomialKernel(np.ones((2, 2)), d=bad), "d"),
    ], ids=["alpha", "epsilon", "d", "poly-d"])
    def test_scalar_parameters_must_be_real_numbers(self, build, name, bad):
        with pytest.raises(ValueError, match=f"^kernel {name} must be a real number, got "):
            build(bad)

    @pytest.mark.parametrize("value", [2, 0.5, np.int64(2), np.float32(0.5), np.float64(0.5)])
    def test_scalar_parameters_accept_python_and_numpy_reals(self, value):
        pot = RegularizedInverseSquare(alpha=value, epsilon=value, d=value)
        assert (pot.alpha, pot.epsilon, pot.d) == (value, value, value)
        assert PolynomialKernel(np.ones((2, 2)), d=value).d == value

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
