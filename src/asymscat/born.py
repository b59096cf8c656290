"""Born-approximation reflections and the broadband one-way reflector.

For a local potential the first-order reflection amplitudes are
proportional to the potential's Fourier transform at momentum transfer
-+2k:

    R^l = -(sqrt(2 pi) i m / (k hbar^2)) V~(-2k)
    R^r = -(sqrt(2 pi) i m / (k hbar^2)) V~(+2k)

so a potential whose spectrum vanishes for all k >= 0 reflects nothing
from the right at any momentum.  Demanding V~(k) = sqrt(2 pi) alpha k on
the negative axis gives the regularized inverse-square profile
alpha / (x - i eps)^2, a local PT-symmetric potential; transmission
follows from generalized unitarity, |T|^2 = 1 - conj(R^r) R^l.

The exact solves here resolve the eps-scale peak with a graded mesh and
keep alpha adjustable: the Born value is only first order, so alpha is
re-tuned against the exact solver (bisection) to pin |R^l|^2 at a
reference momentum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketingError
from .kernels import RegularizedInverseSquare, fourier_transform_local
from .solver import _MAX_NODES, SolverConfig, _check_momentum, scatter
from .units import HALF_WIDTH

# Nodes of graded_mesh's sinh-mapped core.
_CORE_NODES = 801


@dataclass(frozen=True)
class BornPrediction:
    """First-order amplitudes at one momentum; T_abs2 comes from the
    generalized-unitarity rearrangement, exact when R^r = 0."""

    k: float
    Rl: complex
    Rr: complex
    T_abs2: float


def born_reflections(potential: RegularizedInverseSquare, k: float) -> tuple[complex, complex]:
    """First-order (R^l, R^r) of the regularized inverse-square profile
    at k > 0, from its analytic Fourier transform.

    Any other potential raises ValueError.
    """
    _check_momentum(k)
    if not isinstance(potential, RegularizedInverseSquare):
        raise ValueError(f"born_reflections needs a RegularizedInverseSquare, "
                         f"got {type(potential).__name__}")
    pref = -1j * np.sqrt(2.0 * np.pi) / k
    return (pref * fourier_transform_local(potential, -2.0 * k),
            pref * fourier_transform_local(potential, 2.0 * k))


def born_prediction(potential, k: float) -> BornPrediction:
    Rl, Rr = born_reflections(potential, k)
    return BornPrediction(k, Rl, Rr, float(1.0 - (np.conj(Rr) * Rl).real))


def design_broadband_reflector(alpha: float, epsilon: float,
                               d: float = HALF_WIDTH) -> RegularizedInverseSquare:
    """The one-way reflector profile alpha / (x - i epsilon)^2.

    Its spectrum satisfies V~(k) = 0 for k >= 0 by construction, so the
    Born right-reflection vanishes at every momentum; epsilon > 0.
    """
    if epsilon <= 0:
        raise ValueError("regularizer epsilon must be positive")
    return RegularizedInverseSquare(alpha=alpha, epsilon=epsilon, d=d)


def graded_mesh(epsilon: float, d: float = HALF_WIDTH,
                k_max: float = 5.0) -> tuple[np.ndarray, np.ndarray]:
    """Graded mesh and weights over [-d, d] resolving the eps-scale peak.

    The core |x| <= min(d, 1) holds images of a uniform grid under
    x = eps sinh(t): spacing grows from far below eps/4 at the origin to
    ~2% at the core edge, and the weights are the mapped trapezoid rule,
    whose Euler-Maclaurin error sits only at the (smooth) section ends.
    A chord trapezoid rule on geometrically growing nodes would instead
    accumulate an O(growth^2) error along the 1/x^2 tail that no amount
    of peak refinement removes.  Beyond the core, uniform tails carry the
    slowly varying remainder of the potential out to d, spaced to resolve
    momenta up to k_max.

    The mesh has 801 core nodes plus 2 ceil((d - 1) / s) tail nodes, with
    s = min(0.03, pi / (20 k_max)): about 12.7 (d - 1) k_max for
    k_max > 5.  A two-sided solve on it needs about 1 kB per node (the
    banded LU alone holds 10 band rows x 3 unknowns x 16 B = 480 B per
    node, and LAPACK gets a Fortran-ordered copy), so the mesh is capped
    at 10^6 nodes, about 1 GB per solve: k_max <= ~2.6e4 at the
    reflector's d = 4, or d <= ~1.5e4 at k_max = 5.  Raises ValueError,
    before allocating, for a larger mesh and unless epsilon, d and k_max
    are positive and finite.
    """
    if not (0 < epsilon < np.inf and 0 < d < np.inf):
        raise ValueError(f"epsilon and d must be positive and finite, got {epsilon!r} and {d!r}")
    if not 0 < k_max < np.inf:
        raise ValueError(f"k_max must be positive and finite, got {k_max!r}")
    core = min(d, 1.0)
    tail_spacing = min(0.03 * core, 2.0 * np.pi / k_max / 40.0)
    n_tail = np.ceil((d - core) / tail_spacing)  # may be inf for huge d or k_max
    if _CORE_NODES + 2 * n_tail > _MAX_NODES:
        raise ValueError(f"graded mesh for k_max={k_max!r} and d={d!r} needs "
                         f"{_CORE_NODES + 2 * n_tail:.3g} nodes, above the "
                         f"{_MAX_NODES} allowed; lower k_max or d")
    t_max = np.arcsinh(core / epsilon)
    t = np.linspace(-t_max, t_max, _CORE_NODES)
    xc = epsilon * np.sinh(t)
    wc = epsilon * np.cosh(t) * (t[1] - t[0])
    wc[0] *= 0.5
    wc[-1] *= 0.5
    xc[0], xc[-1] = -core, core  # map is exact at the ends up to roundoff
    if d <= core:
        return xc, wc
    n_tail = int(n_tail)
    xt = np.linspace(core, d, n_tail + 1)
    wt = np.full(n_tail + 1, xt[1] - xt[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5
    x = np.concatenate([-xt[::-1], xc[1:-1], xt])
    w = np.concatenate([wt[::-1], np.zeros(xc.size - 2), wt])
    w[n_tail : n_tail + xc.size] += wc
    return x, w


def reflector_config(epsilon: float, window: float = 4.0 * HALF_WIDTH,
                     k_max: float = 5.0) -> SolverConfig:
    """Solver configuration with the graded mesh for the reflector.

    ``window`` is the half-width of the solve domain; the 1/x^2 tails
    beyond |x| ~ 1 still matter (cutting them re-opens R^r at low k), so
    the default keeps k*window >= 2 down to k d = 0.5.  Nothing here
    checks convergence in the window; ``tests/test_born.py`` doubles it.
    """
    nodes, weights = graded_mesh(epsilon, window, k_max=k_max)
    return SolverConfig(n_grid=nodes.size, quadrature="trapezoid",
                        nodes=nodes, weights=weights)


def tune_alpha(epsilon: float, k_ref: float, window: float = 4.0 * HALF_WIDTH) -> float:
    """Bisect alpha so the exact solver gives |R^l(k_ref)|^2 = 1.

    The solve runs on ``reflector_config(epsilon, window, k_max=max(5,
    k_ref))``.  The Born estimate alpha = 1/(4 pi) under-reflects once
    the exact dynamics are included; bisection on [0, 1/pi] to 1e-4 in
    |R^l|^2 absorbs that.  Raises BracketingError (with the scan trace)
    if the interval does not bracket 1 or 80 steps do not suffice.
    """
    if not 0 < k_ref < np.inf:
        raise ValueError(f"reference wavenumber must be positive and finite, got {k_ref!r}")
    config = reflector_config(epsilon, window, k_max=max(5.0, k_ref))
    trace = []

    def objective(alpha: float) -> float:
        pot = RegularizedInverseSquare(alpha=alpha, epsilon=epsilon, d=window)
        res = scatter(pot, k_ref, "left", config)
        value = abs(res.R) ** 2 - 1.0
        trace.append((alpha, value + 1.0))
        return value

    lo, hi = 0.0, 4.0 / (4.0 * np.pi)
    f_lo, f_hi = -1.0, objective(hi)
    if f_lo * f_hi > 0:
        raise BracketingError(f"|R^l|^2 - 1 does not change sign on [0, {hi}]", trace)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = objective(mid)
        if abs(f_mid) <= 1e-4:
            return mid
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    raise BracketingError("bisection did not reach |1 - |R^l|^2| <= 0.0001 in 80 steps", trace)
