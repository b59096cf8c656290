"""Generalized unitarity in action.

For a non-hermitian kernel, |T|^2 + |R|^2 = 1 fails, but the amplitudes
of H and H-dagger are locked together by S-hat† S = S S-hat† = 1.  This
script shows the failure of plain unitarity, the machine-precision
validity of the generalized relations, and the algebraic reconstruction
of the adjoint amplitudes from the direct ones.
"""
import numpy as np

from asymscat import (
    SYMMETRY_CODES,
    SampledKernel,
    SolverConfig,
    generalized_unitarity_residuals,
    hatted_from_unhatted,
    scatter_all,
    transformed_amplitudes,
)


def main():
    rng = np.random.default_rng(3)
    g = np.linspace(-1, 1, 401)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    vals = np.polynomial.polynomial.polyval2d(*np.meshgrid(g, g, indexing="ij"), c)
    ker = SampledKernel(g, vals)
    cfg = SolverConfig(n_grid=401, quadrature="trapezoid")

    amps = scatter_all(ker, 1.3, cfg, include_adjoint=True)
    tl2, tr2, rl2, rr2 = amps.abs2
    print("random complex nonlocal kernel at k d = 1.3")
    print(f"  |T^l|^2 + |R^l|^2 = {tl2 + rl2:.6f}   (plain unitarity fails)")
    print(f"  |T^r|^2 + |R^r|^2 = {tr2 + rr2:.6f}")

    res = generalized_unitarity_residuals(amps)
    print(f"  generalized-unitarity residuals: {np.max(res):.3e}  (machine precision)")

    hat = hatted_from_unhatted(amps)
    gap = np.max(np.abs(np.array(hat.quadruple) - np.array(amps.hatted.quadruple)))
    print(f"  algebraic adjoint vs independent H† solve: {gap:.3e}\n")

    print("equivariance under the eight kernel transforms:")
    for code in SYMMETRY_CODES[1:]:
        got = scatter_all(ker.transform(code), 1.3, cfg)
        want = transformed_amplitudes(amps, code)
        err = np.max(np.abs(np.array(got.quadruple) - np.array(want.quadruple)))
        print(f"  transform {code:4s}: amplitude recombination error {err:.3e}")


if __name__ == "__main__":
    main()
