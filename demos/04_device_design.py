"""Inverse-design the six polynomial asymmetric devices.

Each run finds a nonlocal kernel whose exact amplitudes at k0 d = 1 hit
the device targets, verifies it with the forward solver, sweeps the
neighborhood of k0, and probes the adjoint problem (which diverges for
devices that annihilate T^l T^r - R^l R^r).
"""
from asymscat import (
    AdjointDivergenceError,
    DeviceSpec,
    check_symmetries,
    design_device,
    hatted_from_unhatted,
    verify_design,
)

DEVICES = [
    ("TR/A", "none", "one-way mirror"),
    ("T/R", "none", "one-way barrier"),
    ("T/A", "viii", "one-way T-filter"),
    ("TR/R", "viii", "mirror & one-way transmitter"),
    ("TR/T", "pt", "transparent one-way reflector (nonlocal PT)"),
    ("R/A", "none", "one-way R-filter"),
]


def main():
    for code, constraint, name in DEVICES:
        spec = DeviceSpec(code=code, constraint=constraint)
        result = design_device(spec, seed=0)
        sats = ",".join(check_symmetries(result.kernel).satisfied())
        print(f"{name} [{code}, constraint={constraint}]")
        print(f"  verified amplitudes at k0: "
              + "  ".join(f"{v:+.6f}" for v in result.verification.quadruple))
        print(f"  max deviation from targets: {result.residual:.2e};"
              f" kernel satisfies [{sats}]")

        table = verify_design(result, n_points=9)
        ks = table.column("k")
        print("  sweep   kd     |T^l|^2 |T^r|^2 |R^l|^2 |R^r|^2")
        for i in range(len(ks)):
            print(f"        {ks[i]:5.2f}   "
                  f"{table.column('abs2_Tl')[i]:7.4f} {table.column('abs2_Tr')[i]:7.4f} "
                  f"{table.column('abs2_Rl')[i]:7.4f} {table.column('abs2_Rr')[i]:7.4f}")

        try:
            hat = hatted_from_unhatted(result.verification, tol=1e-4)
            print(f"  adjoint device: " + "  ".join(f"{v:+.3f}" for v in hat.quadruple))
        except AdjointDivergenceError:
            print("  adjoint amplitudes diverge at k0 (T^l T^r - R^l R^r = 0)")
        print()


if __name__ == "__main__":
    main()
