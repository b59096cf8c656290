"""Every public numeric parameter accepts Python and numpy ints and
floats and refuses anything else with a ValueError naming it."""
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
AMPS = ScatteringAmplitudes(1.0, 1.0, 1.0, 0.0, 0.0)

# (parameter name in the message, kind, call with the value, cheap to accept)
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
    "kernel-d": ("kernel d", "positive", lambda v: RegularizedInverseSquare(0.1, 0.5, d=v), True),
    "poly-d": ("kernel d", "positive", lambda v: PolynomialKernel(np.ones((2, 2)), d=v), True),
}

NOT_REAL = {"bool": True, "numpy-bool": np.bool_(True), "complex": 1 + 0j, "str": "1",
            "none": None, "nan": np.nan, "inf": np.inf, "huge-int": 10**400}


def _refused(kind):
    """The values a parameter of ``kind`` must refuse: beyond NOT_REAL, 0
    and -1 for a positive one, and for a count of at least ``kind`` the
    integer below it, -1 and ``kind`` as a float."""
    if kind == "real":
        return NOT_REAL
    if kind == "positive":
        return {**NOT_REAL, "zero": 0, "minus-one": -1}
    return {**NOT_REAL, "below-least": kind - 1, "minus-one": -1, "float": float(kind)}


def _accepted(kind):
    if kind in ("real", "positive"):
        return {"int": 1, "float": 1.0, "numpy-int": np.int64(1), "float32": np.float32(1.0),
                "float64": np.float64(1.0)}
    return {"int": kind, "numpy-int": np.int64(kind)}


REFUSED = [pytest.param(row, value, id=f"{row}-{vid}")
           for row, (_, kind, _, _) in PARAMETERS.items()
           for vid, value in _refused(kind).items()]
ACCEPTED = [pytest.param(row, value, id=f"{row}-{vid}")
            for row, (_, kind, _, cheap) in PARAMETERS.items() if cheap
            for vid, value in _accepted(kind).items()]


@pytest.mark.parametrize("row, value", REFUSED)
def test_parameter_refuses_a_value_that_is_not_in_range(row, value):
    name, _, call, _ = PARAMETERS[row]
    with pytest.raises(ValueError, match="^" + re.escape(name) + " "):
        call(value)


@pytest.mark.parametrize("row, value", ACCEPTED)
def test_parameter_accepts_python_and_numpy_numbers(row, value):
    _, _, call, _ = PARAMETERS[row]
    call(value)
