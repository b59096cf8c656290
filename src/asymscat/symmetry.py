"""Klein-group symmetry tests and asymmetric-device classification.

A kernel may commute with 1, parity, time reversal, or their product, or
be pseudo-hermitian under any of them; that gives eight involutive
relations I..VIII on the kernel.  Satisfied relations imply equalities
among scattering amplitudes, which in turn forbid or allow each of the
six extreme asymmetric device types.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import SYMMETRY_CODES, PolynomialKernel, RegularizedInverseSquare, SampledKernel
from .kernels import compose, transform_flags
from .solver import ScatteringAmplitudes

DEVICE_CODES = ("TR/A", "T/R", "T/A", "TR/R", "R/A", "TR/T")

# Symmetries that rule a device out: one satisfied member forbids it.
FORBIDDING_SYMMETRIES = {
    "TR/A": frozenset({"II", "III", "IV", "V", "VI", "VII", "VIII"}),
    "T/R": frozenset({"II", "III", "IV", "V", "VI", "VII", "VIII"}),
    "T/A": frozenset({"II", "III", "IV", "V", "VI", "VII"}),
    "TR/R": frozenset({"II", "III", "VI", "VII"}),
    "R/A": frozenset({"II", "III", "IV", "V", "VII", "VIII"}),
    "TR/T": frozenset({"II", "III", "V", "VIII"}),
}

# Double-symmetry equivalences: for a kernel fixed by the first symmetry
# (key), a and compose(first, a) hold or fail together.
EQUIVALENT_PAIRS = {
    first: tuple((a, compose(first, a)) for a in SYMMETRY_CODES[1:]
                 if SYMMETRY_CODES.index(a) < SYMMETRY_CODES.index(compose(first, a)))
    for first in SYMMETRY_CODES[1:]
}


@dataclass(frozen=True)
class SymmetryReport:
    """Normalized sup-norm residuals and verdicts for codes I..VIII."""

    residuals: dict
    verdicts: dict
    tol: float

    def satisfied(self) -> tuple[str, ...]:
        return tuple(c for c in SYMMETRY_CODES if self.verdicts[c])


def _residuals(stored: np.ndarray, transformed: Callable[[str], np.ndarray]) -> dict:
    """max |stored - transformed(code)| / max |stored| for each code."""
    scale = np.max(np.abs(stored))
    residuals = {}
    for code in SYMMETRY_CODES:
        gap = np.max(np.abs(stored - transformed(code)))
        residuals[code] = 0.0 if scale == 0.0 else float(gap / scale)
    return residuals


def check_symmetries(kernel, tol: float = 1e-9) -> SymmetryReport:
    """Residual of V - transform(V, code) for each code, sup-norm over
    the stored representation, normalized by the sup-norm of V.

    Polynomial kernels are checked through their coefficient relations
    (e.g. VIII holds iff v_ij = (-1)^{i+j} v_ji), inverse-square kernels
    exactly from (alpha, epsilon, d), sampled kernels through their
    samples.  Local kernels satisfy VI identically.
    Raises ValueError unless ``tol`` is positive and finite.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"symmetry tolerance must be positive and finite, got {tol!r}")
    if isinstance(kernel, PolynomialKernel):
        square = PolynomialKernel(kernel._square_coeffs(), d=kernel.d)
        residuals = _residuals(square.coeffs, lambda code: square.transform(code).coeffs)
    elif isinstance(kernel, RegularizedInverseSquare):
        # A transform returns V or its twin with eps -> -eps; with t = |x / eps|,
        # |V - twin| / max|V| = 4t / (1 + t^2)^2, largest at t = min(d / |eps|, 1 / sqrt(3)).
        t = min(kernel.d / abs(kernel.epsilon), 3.0 ** -0.5)
        twin = 0.0 if kernel.alpha == 0 else 4.0 * t / (1.0 + t * t) ** 2
        residuals = {c: 0.0 if kernel.transform(c) == kernel else twin for c in SYMMETRY_CODES}
    else:
        residuals = _residuals(kernel.values, lambda code: kernel.transform(code).values)
    verdicts = {code: residuals[code] < tol for code in SYMMETRY_CODES}
    return SymmetryReport(residuals, verdicts, tol)


def symmetrize(kernel, code: str):
    """Project a kernel onto the class fixed by ``code``:
    (V + transform(V, code)) / 2.  Exact class membership by construction;
    used to generate test kernels of a prescribed symmetry."""
    if code == "I":
        return kernel
    other = kernel.transform(code)
    if isinstance(kernel, SampledKernel):
        return SampledKernel(
            kernel.grid, (np.asarray(kernel.values) + np.asarray(other.values)) / 2.0,
            is_local=kernel.is_local,
        )
    if isinstance(kernel, PolynomialKernel):
        return PolynomialKernel((kernel._square_coeffs() + other._square_coeffs()) / 2.0,
                                d=kernel.d)
    raise TypeError(f"cannot symmetrize kernel of type {type(kernel).__name__}")


def equivalence_table_check(kernel, first: str) -> list:
    """For a kernel satisfying ``first``, report whether each equivalent
    pair of symmetries holds or fails together.

    Returns [(pair, agree)] for the three pairs listed under ``first``.
    Raises ValueError when the kernel does not satisfy ``first``.
    """
    if first not in EQUIVALENT_PAIRS:
        raise ValueError(f"first symmetry must be one of {tuple(EQUIVALENT_PAIRS)}")
    report = check_symmetries(kernel)
    if not report.verdicts[first]:
        raise ValueError(
            f"kernel does not satisfy the first symmetry {first} "
            f"(residual {report.residuals[first]:.3e} >= tol {report.tol:.3e})"
        )
    return [
        (pair, report.verdicts[pair[0]] == report.verdicts[pair[1]])
        for pair in EQUIVALENT_PAIRS[first]
    ]


@dataclass(frozen=True)
class DeviceVerdict:
    allowed: bool
    forbidden_by: tuple[str, ...]


def allowed_devices(report: SymmetryReport) -> dict:
    """Classify all six devices against the satisfied symmetries.

    A device is forbidden iff any satisfied nontrivial symmetry appears
    in its forbidding set; the verdict lists those symmetries.
    """
    satisfied = set(report.satisfied()) - {"I"}
    out = {}
    for code in DEVICE_CODES:
        blockers = tuple(c for c in SYMMETRY_CODES if c in (satisfied & FORBIDDING_SYMMETRIES[code]))
        out[code] = DeviceVerdict(allowed=not blockers, forbidden_by=blockers)
    return out


@dataclass(frozen=True)
class AmplitudeRelation:
    """A machine-checkable equality implied by a satisfied symmetry.

    ``residual`` evaluates |lhs - rhs| on a ScatteringAmplitudes value;
    conditional (phase) relations apply only when the amplitudes show the
    0/1 pattern of ``condition`` (to 1e-2) and report 0 otherwise.  A
    relation of a conjugating code reads ``amps.hatted`` through
    ``transformed_amplitudes``, which raises ValueError without it.
    """

    symmetry: str
    description: str
    _residual: Callable
    condition: str | None = None
    _applies: Callable | None = None

    def applies(self, amps: ScatteringAmplitudes) -> bool:
        if self._applies is None:
            return True
        return self._applies(amps)

    def residual(self, amps: ScatteringAmplitudes) -> float:
        if not self.applies(amps):
            return 0.0
        return float(self._residual(amps))


def transformed_amplitudes(amps: ScatteringAmplitudes, code: str) -> ScatteringAmplitudes:
    """The amplitudes of ``kernel.transform(code)`` from those of the kernel
    (``amps``) and of its adjoint (``amps.hatted``).

    Parity swaps both sides, transposition swaps the transmissions, and
    conjugation swaps them too and reads the hatted quadruple, which must
    then be present (ValueError otherwise).
    """
    flip, transpose, conj = transform_flags(code)
    a = amps.hatted if conj else amps
    if a is None:
        raise ValueError(f"transform {code} reads the hatted amplitudes; "
                         f"solve with include_adjoint=True")
    t = (a.Tr, a.Tl) if flip != (transpose != conj) else (a.Tl, a.Tr)
    r = (a.Rr, a.Rl) if flip else (a.Rl, a.Rr)
    return ScatteringAmplitudes(amps.k, *t, *r)


# Amplitude names, which transformed_amplitudes permutes like the values.
_NAMES = ScatteringAmplitudes(0.0, "T^l", "T^r", "R^l", "R^r",
                              ScatteringAmplitudes(0.0, "That^l", "That^r", "Rhat^l", "Rhat^r"))


def _equalities(code: str) -> list[AmplitudeRelation]:
    """The fields of amps = transformed_amplitudes(amps, code) for a kernel
    fixed by ``code``, less the trivial (X = X) and the mirrored ones."""
    reads_hatted = transform_flags(code)[2]
    names = _NAMES.quadruple
    return [
        AmplitudeRelation(
            code, f"{lhs} = {rhs}",
            lambda a, i=i: abs(a.quadruple[i] - transformed_amplitudes(a, code).quadruple[i]))
        for i, (lhs, rhs) in enumerate(zip(names, transformed_amplitudes(_NAMES, code).quadruple))
        if reads_hatted or names.index(rhs) > i
    ]


def _trans_asym(a: ScatteringAmplitudes) -> bool:
    return abs(abs(a.Tl) - 1.0) < 1e-2 and abs(a.Tr) < 1e-2


def _refl_asym(a: ScatteringAmplitudes) -> bool:
    return abs(abs(a.Rl) - 1.0) < 1e-2 and abs(a.Rr) < 1e-2


# Listed after the equalities; these do not follow from the amplitude action.
_MODULUS_AND_PHASE = {
    "II": [
        AmplitudeRelation("II", "|T^l| = |T^r|", lambda a: abs(abs(a.Tl) - abs(a.Tr))),
        AmplitudeRelation("II", "|R^l| = |R^r|", lambda a: abs(abs(a.Rl) - abs(a.Rr))),
    ],
    "IV": [
        AmplitudeRelation("IV", "R^r conj(R^l) = 1", lambda a: abs(a.Rr * np.conj(a.Rl) - 1.0),
                          "perfect transmission asymmetry", _trans_asym),
        AmplitudeRelation("IV", "T^r conj(T^l) = 1", lambda a: abs(a.Tr * np.conj(a.Tl) - 1.0),
                          "perfect reflection asymmetry", _refl_asym),
    ],
    "V": [
        AmplitudeRelation("V", "|R^l| = |R^r|", lambda a: abs(abs(a.Rl) - abs(a.Rr))),
        AmplitudeRelation("V", "|R^l| = |R^r| = 1",
                          lambda a: max(abs(abs(a.Rl) - 1.0), abs(abs(a.Rr) - 1.0)),
                          "perfect transmission asymmetry", _trans_asym),
    ],
    "VII": [
        AmplitudeRelation("VII", "|T^l| = |T^r|", lambda a: abs(abs(a.Tl) - abs(a.Tr))),
        AmplitudeRelation("VII", "|T^l| = |T^r| = 1",
                          lambda a: max(abs(abs(a.Tl) - 1.0), abs(abs(a.Tr) - 1.0)),
                          "perfect reflection asymmetry", _refl_asym),
    ],
}

_RELATIONS = {code: _equalities(code) + _MODULUS_AND_PHASE.get(code, [])
              for code in SYMMETRY_CODES}


def predicted_amplitude_relations(report: SymmetryReport) -> list[AmplitudeRelation]:
    """Amplitude equalities implied by every satisfied symmetry.

    Relations marked with a ``condition`` are the phase constraints that
    accompany 'possible' verdicts for perfect asymmetric devices; they
    activate only when the amplitudes actually show that 0/1 pattern.
    """
    out = []
    for code in SYMMETRY_CODES:
        if report.verdicts[code]:
            out.extend(_RELATIONS[code])
    return out
