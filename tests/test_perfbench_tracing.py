"""The benchmark tracer's bindings still exist in the package.

``perfbench/tracing.py`` wraps package functions where their callers
bind them and reads some of their arguments by name.  A rename under
``src/`` that drops one of those bindings or parameters breaks the
traced benchmark run; these tests catch it without running a workload.
The tracer module is compiled from its source, so nothing is written
under ``perfbench/``.
"""
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Parameters the tracer's counters read from the bound arguments.
COUNTED_PARAMETERS = {
    "solver.scatter_all": {"config", "include_adjoint"},
    "solver.scatter": {"config"},
    "kernel_io.load_kernel": {"path"},
    "kernel_io.save_kernel": {"path"},
    "kernel_io.sha256_path": {"path"},
    "kernels.sample_matrix": {"x_nodes", "y_nodes"},
}


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_install_wraps_every_binding_and_uninstall_restores_it(tracing):
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.WRAPPED]
    uninstall = tracing.install(tracing.Tracer())
    try:
        for (owner, attr, _, _), original in zip(tracing.WRAPPED, originals):
            assert owner.__dict__[attr] is not original, attr
    finally:
        uninstall()
    for (owner, attr, _, _), original in zip(tracing.WRAPPED, originals):
        assert owner.__dict__[attr] is original, attr


def test_install_raises_on_a_missing_binding(tracing, monkeypatch):
    from asymscat import cli

    monkeypatch.setattr(tracing, "WRAPPED", [(cli, "no_such_function", "cli.none", None)])
    with pytest.raises(KeyError, match="no_such_function"):
        tracing.install(tracing.Tracer())


def test_counted_functions_keep_the_parameters_the_counters_read(tracing):
    seen = set()
    for owner, attr, name, _ in tracing.WRAPPED:
        if name in COUNTED_PARAMETERS:
            seen.add(name)
            parameters = set(inspect.signature(owner.__dict__[attr]).parameters)
            assert COUNTED_PARAMETERS[name] <= parameters, (owner, attr)
    assert seen == set(COUNTED_PARAMETERS)


def test_design_least_squares_is_a_plain_function_the_counter_reads(tracing):
    # the tracer rebinds it in the design module's namespace, and
    # _DesignProblem.solve calls it through that binding
    from asymscat import design

    fit = design.__dict__["least_squares"]
    assert inspect.isfunction(fit) and fit.__module__ == "asymscat.design"
    result = fit(lambda u: u - np.array([1.0, -2.0]), np.zeros(2), lambda u: np.eye(2))
    np.testing.assert_array_equal(result.x, [1.0, -2.0])
    assert tracing._count_least_squares({}, result) == {"nfev": result.nfev, "converged": True}
