"""Every public numeric parameter accepts Python and numpy ints and
floats and refuses anything else with a ValueError that names it and
says why."""
import re

import numpy as np
import pytest

from asymscat.born import born_reflections, design_broadband_reflector, graded_mesh, tune_alpha
from asymscat.design import DeviceSpec, design_device, verify_design
from asymscat.kernels import PolynomialKernel, RegularizedInverseSquare
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
