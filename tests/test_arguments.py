"""Every public numeric parameter accepts Python and numpy ints and
floats and refuses anything else with a ValueError that names it and
says why."""
import re

import numpy as np
import pytest

from asymscat.born import born_reflections, design_broadband_reflector, graded_mesh, tune_alpha
from asymscat.design import DeviceSpec, design_device, verify_design
from asymscat.kernels import (PolynomialKernel, RegularizedInverseSquare, SampledKernel,
                              fourier_transform_local)
from asymscat.solver import (
    ScatteringAmplitudes,
    SolverConfig,
    hatted_from_unhatted,
    k_sweep,
    scatter,
    scatter_all,
    scatter_oracle_all,
)
from asymscat.symmetry import check_symmetries

KERNEL = RegularizedInverseSquare(0.1, 0.5)
CONFIG = SolverConfig(n_grid=11)
# T^l T^r - R^l R^r is four times the largest amplitude, so every tol
# below 4 leaves the adjoint finite
AMPS = ScatteringAmplitudes(1.0, 4.0, 4.0, 0.0, 0.0)

# (parameter name in the message, kind, call with the value, cheap to
# accept).  A kind is "real", "positive", "real, positive" (checked real
# first, then positive) or the least value of a count.
PARAMETERS = {
    "scatter-k": ("incident wavenumber k", "positive",
                  lambda v: scatter(KERNEL, v, "left", CONFIG), True),
    "scatter_all-k": ("incident wavenumber k", "positive",
                      lambda v: scatter_all(KERNEL, v, CONFIG), True),
    "oracle-k": ("incident wavenumber k", "positive",
                 lambda v: scatter_oracle_all(KERNEL, v, 11), True),
    "born-k": ("incident wavenumber k", "positive", lambda v: born_reflections(KERNEL, v), True),
    "k_sweep-momenta": ("k_grid[1]", "positive", lambda v: k_sweep(KERNEL, [2.0, v], CONFIG),
                        True),
    "hatted-tol": ("tol", "positive", lambda v: hatted_from_unhatted(AMPS, tol=v), True),
    "symmetry-tol": ("tol", "positive", lambda v: check_symmetries(KERNEL, tol=v), True),
    "mesh-epsilon": ("epsilon", "positive", lambda v: graded_mesh(v, d=1.0), True),
    "mesh-d": ("d", "positive", lambda v: graded_mesh(0.1, d=v), True),
    "mesh-k_max": ("k_max", "positive", lambda v: graded_mesh(0.1, d=1.0, k_max=v), True),
    "tune-k_ref": ("k_ref", "positive", lambda v: tune_alpha(1e-2, v), False),
    "reflector-epsilon": ("epsilon", "positive", lambda v: design_broadband_reflector(0.1, v),
                          True),
    "device-k0": ("design momentum k0", "positive", lambda v: DeviceSpec("TR/A", k0=v), True),
    "design-seed": ("seed", 0, lambda v: design_device(DeviceSpec("TR/A"), seed=v), False),
    "design-restarts": ("restarts", 0,
                        lambda v: design_device(DeviceSpec("TR/A"), restarts=v), False),
    "verify-n_points": ("n_points", 1, lambda v: verify_design(None, n_points=v), False),
    "config-n_grid": ("n_grid", 3, lambda v: SolverConfig(n_grid=v), True),
    "oracle-n_grid": ("n_grid", 3, lambda v: scatter_oracle_all(KERNEL, 1.0, v), True),
    "kernel-alpha": ("kernel alpha", "real", lambda v: RegularizedInverseSquare(v, 0.5), True),
    "kernel-epsilon": ("kernel epsilon", "real", lambda v: RegularizedInverseSquare(0.1, v),
                       True),
    "kernel-d": ("kernel d", "real, positive",
                 lambda v: RegularizedInverseSquare(0.1, 0.5, d=v), True),
    "poly-d": ("kernel d", "real, positive",
               lambda v: PolynomialKernel(np.ones((2, 2)), d=v), True),
}

# Rows whose result holds the value: how to read it back.
KEPT = {"scatter_all-k": lambda amps: amps.k, "device-k0": lambda spec: spec.k0,
        "kernel-alpha": lambda kernel: kernel.alpha,
        "kernel-epsilon": lambda kernel: kernel.epsilon,
        "kernel-d": lambda kernel: kernel.d, "poly-d": lambda kernel: kernel.d}

NOT_REAL = {"bool": True, "numpy-bool": np.bool_(True), "numpy-false": np.bool_(False),
            "complex": 1 + 0j, "complex-imag": 0.1 + 0.05j, "numpy-complex": np.complex128(1.0),
            "numpy-complex-fraction": np.complex128(0.1), "str": "1", "str-fraction": "0.1",
            "none": None, "nan": np.nan, "inf": np.inf, "huge-int": 10**400}

# what the message says after the parameter's name
REAL = "must be a real number, got "
POSITIVE = "must be positive and finite, got "


def _refused(kind):
    """(value, message after the name) for each value a parameter of
    ``kind`` must refuse: beyond NOT_REAL, 0 and -1 for a positive one,
    and for a count of at least ``kind`` the integer below it, -1 and
    ``kind`` as a float."""
    if kind == "real":
        return {vid: (v, REAL) for vid, v in NOT_REAL.items()}
    if kind == "positive":
        return {vid: (v, POSITIVE) for vid, v in {**NOT_REAL, "zero": 0, "minus-one": -1}.items()}
    if kind == "real, positive":
        return {**_refused("real"), "zero": (0, POSITIVE), "minus-one": (-1, POSITIVE)}
    count = f"must be an integer of at least {kind}, got "
    return {vid: (v, count) for vid, v in
            {**NOT_REAL, "below-least": kind - 1, "minus-one": -1, "float": float(kind)}.items()}


def _accepted(kind):
    if isinstance(kind, str):
        return {"int": 1, "float": 1.0, "numpy-int": np.int64(1), "float32": np.float32(1.0),
                "float64": np.float64(1.0), "int-2": 2, "numpy-int-2": np.int64(2),
                "fraction": 0.5, "float32-fraction": np.float32(0.5),
                "float64-fraction": np.float64(0.5), "float-1.5": 1.5,
                "float32-1.5": np.float32(1.5), "float64-1.5": np.float64(1.5)}
    return {"int": kind, "numpy-int": np.int64(kind)}


REFUSED = [pytest.param(row, value, prefix, id=f"{row}-{vid}")
           for row, (_, kind, _, _) in PARAMETERS.items()
           for vid, (value, prefix) in _refused(kind).items()]
ACCEPTED = [pytest.param(row, value, id=f"{row}-{vid}")
            for row, (_, kind, _, cheap) in PARAMETERS.items() if cheap
            for vid, value in _accepted(kind).items()]


@pytest.mark.parametrize("row, value, prefix", REFUSED)
def test_parameter_refuses_a_value_that_is_not_in_range(row, value, prefix):
    name, _, call, _ = PARAMETERS[row]
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} {prefix}")):
        call(value)


@pytest.mark.parametrize("row, value", ACCEPTED)
def test_parameter_accepts_python_and_numpy_numbers(row, value):
    _, _, call, _ = PARAMETERS[row]
    result = call(value)
    if row in KEPT:
        assert KEPT[row](result) == value


# Array parameters: every coordinate array goes through one check, which
# refuses any dtype but int and float, any other number of dimensions and
# NaN, and +-inf where the parameter must be finite.  (name in the
# message, must be finite, may be a scalar, call with the value, a valid
# value): each valid value is integral and exact in float32, so every
# accepted form of it is the same number.
_G = np.linspace(-1.0, 1.0, 9)
_SAMPLED = SampledKernel(_G, np.cos(3.0 * np.add.outer(_G ** 3, _G)) + 0.5j)
_LOW_RANK = SampledKernel(_G, np.outer(1.0 - _G ** 2, _G) + 0j)
_SAMPLED_LOCAL = SampledKernel(_G, np.exp(1j * _G) + 0.5, is_local=True)
_POLY = PolynomialKernel(np.array([[0.3, 0.1j], [0.2, 0.05], [0.1j, 0.4]]))
_OFF = np.array([0.3, -0.7])
_NODES = [-2, -1, 0, 1, 2]
ARRAYS = {
    "config-nodes": ("explicit nodes", True, False,
                     lambda v: scatter_all(KERNEL, 1.0, SolverConfig(nodes=v)).quadruple, _NODES),
    "config-weights": ("weights", True, False, lambda v: scatter_all(
        KERNEL, 1.0, SolverConfig(nodes=np.array(_NODES, float), weights=v)).quadruple,
        [1, 1, 2, 1, 1]),
    "sampled-grid": ("kernel grid", True, False,
                     lambda v: SampledKernel(v, np.outer(_NODES, _NODES) + 1j).sample_matrix(
                         _OFF, _OFF), _NODES),
    "sampled-profile-nodes": ("kernel coordinates nodes", False, False,
                              _SAMPLED_LOCAL.sample_profile, _NODES),
    "sampled-x_nodes": ("kernel coordinates x_nodes", False, False,
                        lambda v: _SAMPLED.sample_matrix(v, _OFF), _NODES),
    "sampled-y_nodes": ("kernel coordinates y_nodes", False, False,
                        lambda v: _SAMPLED.sample_matrix(_OFF, v), _NODES),
    "sampled-factors": ("kernel coordinates x_nodes", False, False, _SAMPLED.factors, _NODES),
    "low-rank-factors": ("kernel coordinates x_nodes", False, False, _LOW_RANK.factors, _NODES),
    "poly-x_nodes": ("kernel coordinates x_nodes", False, False,
                     lambda v: _POLY.sample_matrix(v, _OFF), _NODES),
    "poly-y_nodes": ("kernel coordinates y_nodes", False, False,
                     lambda v: _POLY.sample_matrix(_OFF, v), _NODES),
    "poly-factors": ("kernel coordinates x_nodes", False, False, _POLY.factors, _NODES),
    "inverse-square-nodes": ("kernel coordinates nodes", False, False, KERNEL.sample_profile,
                             _NODES),
    "fourier-k": ("k", True, True, lambda v: fourier_transform_local(KERNEL, v), _NODES),
}

DTYPE = "must hold real numbers, got dtype "


def _refused_arrays(finite, scalar, valid):
    """(value, message after the name) for each value an array parameter
    must refuse, built from its ``valid`` value."""
    a = np.array(valid, dtype=float)
    shape = f"must be {'a scalar or ' if scalar else ''}one-dimensional, got shape "
    cases = {"complex": (a.astype(complex), DTYPE), "complex-imag": (a + 0.5j, DTYPE),
             "bool": (a > 0, DTYPE), "str": (a.astype(str), DTYPE),
             "none": ([*a[1:], None], DTYPE), "huge-int": ([*valid[1:], 10**400], DTYPE),
             "2-D": (a[None, :], shape),
             "nan": ([*a[1:], np.nan], "must be finite" if finite else "must not be NaN")}
    if not scalar:
        cases["scalar"] = (a[0], shape)
    if finite:
        cases |= {"inf": ([*a[1:], np.inf], "must be finite"),
                  "minus-inf": ([-np.inf, *a[1:]], "must be finite")}
    return cases


def _arrays(result):
    """A result as a list of dense arrays: a tuple (of factors or of
    amplitudes) entry by entry, a sparse factor densified."""
    if isinstance(result, tuple):
        return [x for r in result for x in _arrays(r)]
    return [result.toarray() if hasattr(result, "toarray") else np.asarray(result)]


def _same_bits(a, b):
    a, b = _arrays(a), _arrays(b)
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b))


REFUSED_ARRAYS = [pytest.param(row, value, suffix, id=f"{row}-{vid}")
                  for row, (_, finite, scalar, _, valid) in ARRAYS.items()
                  for vid, (value, suffix) in _refused_arrays(finite, scalar, valid).items()]
ACCEPTED_ARRAYS = [pytest.param(row, form, id=f"{row}-{form}")
                   for row in ARRAYS for form in ("list", "tuple", "int", "float32")]


@pytest.mark.parametrize("row, value, suffix", REFUSED_ARRAYS)
def test_array_parameter_refuses_what_is_not_a_real_array(row, value, suffix):
    name, _, _, call, _ = ARRAYS[row]
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} {suffix}")):
        call(value)


@pytest.mark.parametrize("row, form", ACCEPTED_ARRAYS)
def test_array_parameter_reads_every_form_of_a_value_alike(row, form):
    _, _, _, call, valid = ARRAYS[row]
    a = np.array(valid, dtype=float)
    value = {"list": a.tolist(), "tuple": tuple(a.tolist()), "int": np.array(valid),
             "float32": a.astype(np.float32)}[form]
    assert _same_bits(call(value), call(a))


@pytest.mark.parametrize("row", [row for row, (_, finite, _, _, _) in ARRAYS.items()
                                 if not finite])
def test_kernel_reads_infinities_as_zero(row):
    # +-inf lies outside the support, so it reads as any point there does
    _, _, _, call, valid = ARRAYS[row]
    outside = call([3.0, *valid[1:]])
    for inf in (np.inf, -np.inf):
        assert _same_bits(call([inf, *valid[1:]]), outside)


def test_solver_config_keeps_read_only_copies():
    # the config used to hold the caller's array: a NaN written into it
    # afterwards made the next solve fail inside scipy
    nodes, weights = np.linspace(-1.0, 1.0, 21), np.full(21, 0.1)
    weights[[0, -1]] = 0.05
    config = SolverConfig(nodes=nodes, weights=weights)
    before = scatter_all(KERNEL, 1.0, config).quadruple
    nodes[3], weights[3] = np.nan, 5.0
    assert scatter_all(KERNEL, 1.0, config).quadruple == before
    for stored in (config.nodes, config.weights):
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 0.0
