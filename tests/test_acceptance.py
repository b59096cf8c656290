"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured figure of merit.

Grids are pinned; identity-level checks (generalized unitarity,
equivariance, symmetry consequences) run on the trapezoid path, where
the discrete problem satisfies them to machine precision at any grid,
while accuracy-level checks (oracle agreement, analytic well, device
verification, broadband reflector) run on the high-order paths.
"""
import subprocess
import sys
import time

import numpy as np
import pytest

from asymscat.born import born_reflections, design_broadband_reflector, reflector_config, tune_alpha
from asymscat.design import DEFAULT_TARGETS, DeviceSpec, design_device, verify_design
from asymscat.errors import AdjointDivergenceError
from asymscat.kernels import SYMMETRY_CODES, SampledKernel
from asymscat.solver import (
    SolverConfig,
    generalized_unitarity_residuals,
    hatted_from_unhatted,
    k_sweep,
    scatter,
    scatter_all,
    scatter_oracle_all,
)
from asymscat.symmetry import equivalence_table_check, symmetrize, transformed_amplitudes
from conftest import cli_env, random_poly_surface, square_well_analytic

TRAP = SolverConfig(n_grid=401, quadrature="trapezoid")
FAST = SolverConfig(n_grid=201, quadrature="trapezoid")


def report(name, value, bound, unit=""):
    status = "PASS" if value < bound else "FAIL"
    print(f"[{status}] {name}: {value:.3e} < {bound:.1e} {unit}")
    assert value < bound, f"{name}: {value:.3e} exceeds {bound:.1e}"


def test_criterion_01_free_space():
    """Zero kernel: |T - 1| and |R| below 1e-12 at 20 random momenta."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    g = np.linspace(-1, 1, 101)
    zero = SampledKernel(g, np.zeros(101, dtype=complex), is_local=True)
    worst = 0.0
    for k in rng.uniform(1e-3, 5.0, size=20):
        a = scatter_all(zero, float(k), FAST)
        worst = max(worst, abs(a.Tl - 1), abs(a.Tr - 1), abs(a.Rl), abs(a.Rr))
    elapsed = time.time() - t0
    report("criterion 1 free space max deviation", worst, 1e-12)
    report("criterion 1 runtime", elapsed, 1.0, "s")


def test_criterion_02_oracle_equivalence():
    """25 random smooth nonlocal kernels: Nystrom (N=801) vs the
    finite-difference oracle agree to 1e-6 relative on all eight
    amplitude components, inside 60 s.  The Richardson pair (401, 801)
    keeps the oracle ~100x under the tolerance at a third of the cost
    of the (801, 1601) pair."""
    t0 = time.time()
    rng = np.random.default_rng(2)
    cfg = SolverConfig(n_grid=801, quadrature="simpson")
    worst = 0.0
    for _ in range(25):
        ker = random_poly_surface(rng, n=801, scale=0.8)
        k = float(rng.uniform(0.4, 3.0))
        for amps, oracle in [
            (scatter_all(ker, k, cfg), scatter_oracle_all(ker, k, 401)),
            (scatter_all(ker.transform("II"), k, cfg),
             scatter_oracle_all(ker.transform("II"), k, 401)),
        ]:
            got = np.array(amps.quadruple)
            want = np.array(oracle)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    elapsed = time.time() - t0
    report("criterion 2 oracle-vs-Nystrom relative deviation", worst, 1e-6)
    report("criterion 2 runtime", elapsed, 60.0, "s")


def test_criterion_03_square_well():
    """Real square well vs the closed-form two-interface amplitudes."""
    g = np.linspace(-1, 1, 801)
    well = SampledKernel(g, np.full(801, -1.0 + 0j), is_local=True)
    cfg = SolverConfig(n_grid=801, quadrature="simpson")
    worst = 0.0
    for k in np.linspace(0.3, 3.0, 10):
        Ta, Ra = square_well_analytic(float(k))
        a = scatter_all(well, float(k), cfg)
        worst = max(worst, abs(a.Tl - Ta), abs(a.Rl - Ra), abs(a.Tr - Ta), abs(a.Rr - Ra))
    report("criterion 3 square-well deviation", worst, 1e-8)


def test_criterion_04_generalized_unitarity():
    """50 random complex kernels: the four on-shell relations linking H
    and H-dagger hold to 1e-8, and the algebraic inversion matches the
    independent adjoint solve wherever |D| > 1e-6."""
    rng = np.random.default_rng(4)
    worst_unit = 0.0
    worst_s9 = 0.0
    for _ in range(50):
        ker = random_poly_surface(rng, n=401)
        amps = scatter_all(ker, float(rng.uniform(0.4, 3.0)), TRAP, include_adjoint=True)
        worst_unit = max(worst_unit, float(np.max(generalized_unitarity_residuals(amps))))
        D = amps.Tl * amps.Tr - amps.Rl * amps.Rr
        if abs(D) > 1e-6:
            hat = hatted_from_unhatted(amps)
            gap = np.array(hat.quadruple) - np.array(amps.hatted.quadruple)
            worst_s9 = max(worst_s9, float(np.max(np.abs(gap))))
    report("criterion 4 generalized-unitarity residual", worst_unit, 1e-8)
    report("criterion 4 algebraic-vs-solved adjoint deviation", worst_s9, 1e-8)


def test_criterion_05_equivariance():
    """20 random kernels x 8 transforms: transformed-kernel amplitudes
    equal the predicted recombination of original/adjoint amplitudes."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        ker = random_poly_surface(rng, n=201)
        k = float(rng.uniform(0.4, 3.0))
        amps = scatter_all(ker, k, FAST, include_adjoint=True)
        for code in SYMMETRY_CODES:
            got = scatter_all(ker.transform(code), k, FAST)
            want = np.array(transformed_amplitudes(amps, code).quadruple)
            worst = max(worst, float(np.max(np.abs(np.array(got.quadruple) - want))))
    report("criterion 5 equivariance deviation (8 transforms)", worst, 1e-8)


def test_criterion_06_symmetry_consequences():
    """Moduli equalities for symmetrized kernels (classes II, III, V,
    VII) and reflection symmetry of class V at every point of a 50-point
    sweep."""
    rng = np.random.default_rng(6)
    checks = {
        "II": lambda a: max(abs(abs(a.Tl) - abs(a.Tr)), abs(abs(a.Rl) - abs(a.Rr))),
        "III": lambda a: max(abs(a.Tl - a.Tr), abs(a.Rl - a.Rr)),
        "V": lambda a: abs(abs(a.Rl) - abs(a.Rr)),
        "VII": lambda a: abs(abs(a.Tl) - abs(a.Tr)),
    }
    worst = 0.0
    for code, check in checks.items():
        for _ in range(10):
            ker = symmetrize(random_poly_surface(rng, n=201), code)
            a = scatter_all(ker, float(rng.uniform(0.4, 3.0)), FAST)
            worst = max(worst, float(check(a)))
    report("criterion 6 moduli-equality deviation", worst, 1e-8)
    ker = symmetrize(random_poly_surface(rng, n=201), "V")
    table = k_sweep(ker, np.linspace(0.3, 3.0, 50), FAST)
    gap = float(np.max(np.abs(table.column("abs2_Rl") - table.column("abs2_Rr"))))
    report("criterion 6 class-V reflection asymmetry over sweep", gap, 1e-8)


def test_criterion_07_equivalence_table():
    """Every double-symmetry equivalence row on constructed kernels."""
    rng = np.random.default_rng(7)
    firsts = ("II", "III", "IV", "V", "VI", "VII", "VIII")
    failures = 0
    total = 0
    for first in firsts:
        for _ in range(10):
            ker = symmetrize(random_poly_surface(rng, n=61), first)
            for _pair, agree in equivalence_table_check(ker, first):
                total += 1
                failures += 0 if agree else 1
    report(f"criterion 7 equivalence-table disagreements ({total} pairs)",
           float(failures), 0.5)


DEVICES = [
    ("TR/A", "none"),
    ("T/R", "none"),
    ("T/A", "viii"),
    ("TR/R", "viii"),
    ("TR/T", "pt"),
]


@pytest.fixture(scope="module")
def device_results():
    t0 = time.time()
    out = {}
    for code, constraint in DEVICES:
        spec = DeviceSpec(code=code, constraint=constraint)
        out[code] = design_device(spec, seed=0, restarts=16)
    out["_elapsed"] = time.time() - t0
    return out


def test_criterion_08_device_designs(device_results):
    """All five designable devices converge, forward-verify to 1e-6 at
    k0 d = 1, and sweep smoothly over kd in [0.8, 1.2]."""
    t0 = time.time()
    worst = 0.0
    for code, constraint in DEVICES:
        result = device_results[code]
        got = np.array(result.verification.quadruple)
        want = np.array(DEFAULT_TARGETS[code], dtype=complex)
        worst = max(worst, float(np.max(np.abs(got - want))))
        table = verify_design(result, n_points=21)
        for name in ("abs2_Tl", "abs2_Tr", "abs2_Rl", "abs2_Rr"):
            col = table.column(name)
            assert np.all(np.isfinite(col))
    elapsed = device_results["_elapsed"] + (time.time() - t0)
    report("criterion 8 worst amplitude deviation at k0", worst, 1e-6)
    report("criterion 8 runtime (designs + sweeps)", elapsed, 300.0, "s")


def test_criterion_09_adjoint_divergence(device_results):
    """TR/A, T/R, T/A hit the exceptional point D = 0 at k0 (adjoint
    amplitudes diverge); TR/R instead yields the l<->r swapped device."""
    for code in ("TR/A", "T/R", "T/A"):
        with pytest.raises(AdjointDivergenceError):
            hatted_from_unhatted(device_results[code].verification, tol=1e-4)
    hat = hatted_from_unhatted(device_results["TR/R"].verification)
    dev = float(np.max(np.abs(np.array(hat.quadruple) - np.array([0.0, -1.0, -1.0, -1.0]))))
    print("[PASS] criterion 9 divergence raised for TR/A, T/R, T/A")
    report("criterion 9 TR/R adjoint-device deviation", dev, 1e-6)


def test_criterion_10_broadband_reflector():
    """Tuned regularized one-way reflector lands on the reference
    strength 1.225/(4 pi) within 5% and stays inside the coefficient
    bands over a 40-point sweep of kd in [0.5, 5]."""
    t0 = time.time()
    eps = 1e-4
    cfg = reflector_config(eps)
    alpha = tune_alpha(eps, 1.0)
    rel = abs(alpha * 4.0 * np.pi - 1.225) / 1.225
    pot = design_broadband_reflector(alpha, eps, d=4.0)
    table = k_sweep(pot, np.linspace(0.5, 5.0, 40), cfg)
    rl2 = table.column("abs2_Rl")
    rr2 = table.column("abs2_Rr")
    tl2 = table.column("abs2_Tl")
    tr2 = table.column("abs2_Tr")
    elapsed = time.time() - t0
    report("criterion 10 tuned-alpha relative offset from 1.225/(4 pi)", rel, 0.05)
    report("criterion 10 |R^l|^2 band excursion", float(np.max(np.abs(rl2 - 1.0))), 0.1)
    report("criterion 10 |R^r|^2 maximum", float(np.max(rr2)), 0.05)
    report("criterion 10 |T|^2 band excursion",
           float(max(np.max(np.abs(tl2 - 1.0)), np.max(np.abs(tr2 - 1.0)))), 0.05)
    report("criterion 10 runtime", elapsed, 300.0, "s")


def test_criterion_11_born_scaling():
    """Exact-vs-Born relative error in R^l halves (within 20%) when
    alpha is halved, at kd = 1."""
    eps = 1e-4
    cfg = reflector_config(eps)
    errs = []
    for alpha in (0.04, 0.02, 0.01):
        pot = design_broadband_reflector(alpha, eps, d=4.0)
        Rb, _ = born_reflections(pot, 1.0)
        Re = scatter(pot, 1.0, "left", cfg).R
        errs.append(abs(Re - Rb) / abs(Rb))
    worst = max(abs(small / big - 0.5) for big, small in zip(errs, errs[1:]))
    report("criterion 11 halving-ratio offset from 1/2", worst, 0.1)


def test_criterion_12_cli_determinism(tmp_path):
    """Every CLI command, run twice with fixed seeds, produces
    byte-identical stdout and output files."""
    from asymscat.kernel_io import save_kernel

    g = np.linspace(-1, 1, 61)
    rng = np.random.default_rng(12)
    vals = rng.normal(size=(61, 61)) + 1j * rng.normal(size=(61, 61))
    save_kernel(SampledKernel(g, (vals + vals.conj().T) / 2), tmp_path / "herm.json")

    commands = {
        "solve": (["solve", "--kernel", "herm.json", "--k", "1.0", "--adjoint",
                   "--n-grid", "201", "--out", "amps.json"], ["amps.json"]),
        "sweep": (["sweep", "--kernel", "herm.json", "--kmin", "0.5", "--kmax", "1.5",
                   "--n", "3", "--n-grid", "201", "--out", "sweep.csv"], ["sweep.csv"]),
        "classify": (["classify", "--kernel", "herm.json", "--out", "class.json"],
                     ["class.json"]),
        "design": (["design", "--device", "ta", "--constraint", "viii", "--seed", "1",
                    "--verify-points", "3", "--out", "ta.json"],
                   ["ta.json", "ta.verify.csv"]),
        "born-design": (["born-design", "--alpha", "0.0975", "--epsilon", "1e-4",
                         "--sweep", "0.9:1.1:3", "--out", "refl.json"],
                        ["refl.json", "refl.sweep.csv"]),
        "verify": (["verify", "--kernel", "herm.json", "--kmin", "0.8", "--kmax", "1.2",
                    "--n", "2", "--n-grid", "201", "--out", "verify.json"],
                   ["verify.json"]),
    }
    for name, (args, outputs) in commands.items():
        blobs = []
        for _ in range(2):
            res = subprocess.run([sys.executable, "-m", "asymscat", *args],
                                 capture_output=True, cwd=tmp_path, env=cli_env())
            assert res.returncode == 0, (name, res.stderr)
            blobs.append((res.stdout, [(tmp_path / f).read_bytes() for f in outputs]))
        identical = blobs[0] == blobs[1]
        print(f"[{'PASS' if identical else 'FAIL'}] criterion 12 {name}: byte-identical")
        assert identical, f"{name} output differs between runs"
