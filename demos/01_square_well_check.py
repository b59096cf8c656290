"""Validate the scattering solver against a textbook case.

A real square well admits closed-form transmission and reflection
amplitudes from two-interface matching.  This script compares the
Nystrom solver (both quadratures) and the independent finite-difference
oracle against that formula, then demonstrates the convergence orders.
"""
import numpy as np

from asymscat import SampledKernel, SolverConfig, scatter, scatter_all, scatter_oracle_all


def analytic(k, depth=-1.0, a=1.0):
    q = np.sqrt(k * k - 2.0 * depth + 0j)
    D = np.cos(2 * q * a) - 1j * (k * k + q * q) / (2 * k * q) * np.sin(2 * q * a)
    T = np.exp(-2j * k * a) / D
    return T, T * 1j * (q * q - k * k) / (2 * k * q) * np.sin(2 * q * a)


def main():
    g = np.linspace(-1, 1, 801)
    well = SampledKernel(g, np.full(801, -1.0 + 0j), is_local=True)

    print("square well V = -1 on [-1, 1] (hbar = m = d = 1)")
    print(f"{'k':>5} {'|T|^2':>10} {'|R|^2':>10} {'trap err':>10} {'simp err':>10} {'oracle err':>11}")
    for k in (0.5, 1.0, 2.0, 3.0):
        Ta, Ra = analytic(k)
        trap = scatter(well, k, "left", SolverConfig(n_grid=801, quadrature="trapezoid"))
        simp = scatter(well, k, "left", SolverConfig(n_grid=801, quadrature="simpson"))
        To, _, Ro, _ = scatter_oracle_all(well, k, 801)
        print(f"{k:5.2f} {abs(Ta)**2:10.6f} {abs(Ra)**2:10.6f} "
              f"{max(abs(trap.T - Ta), abs(trap.R - Ra)):10.2e} "
              f"{max(abs(simp.T - Ta), abs(simp.R - Ra)):10.2e} "
              f"{max(abs(To - Ta), abs(Ro - Ra)):11.2e}")

    print("\nconvergence against a refined reference (k = 1):")
    ref = scatter_all(well, 1.0, SolverConfig(n_grid=3201, quadrature="simpson"))
    for quad in ("trapezoid", "simpson"):
        errs = []
        for n in (101, 201, 401):
            a = scatter_all(well, 1.0, SolverConfig(n_grid=n, quadrature=quad))
            errs.append(np.max(np.abs(np.array(a.quadruple) - np.array(ref.quadruple))))
        order = np.log2(errs[0] / errs[2]) / 2
        print(f"  {quad:9s}: errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}"
              f"   observed order ~ {order:.2f}")


if __name__ == "__main__":
    main()
