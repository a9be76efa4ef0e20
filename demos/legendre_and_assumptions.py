"""Legendre transform of the kinetic Lagrangian and the model sanity gates.

Builds the reference instance, shows H(x, p) = |p|^2/2 pointwise for the
purely kinetic Lagrangian, then runs the structural checks: superlinearity
and coercivity bounds, coupling geometry, the confinement gap over probe
measures, and the common-minimizer search.
"""

import numpy as np

import mfglab as M
from mfglab.instances import load_instance


def main():
    inst = load_instance("RI-1")
    g, L, coupling = inst.grid, inst.L, inst.coupling

    print("== Legendre transform on the velocity grid ==")
    for x, p in [(0.0, 0.0), (0.0, 1.0), (1.0, -0.5), (2.0, 2.0)]:
        h, (v,) = M.legendre_transform(L, np.array([x]), p, g)
        exact = 0.5 * p * p
        print(f"  H({x:+.1f}, {p:+.1f}) = {h:.6f}   closed form {exact:.6f}   "
              f"maximizer v = {v:+.2f}")

    print("== Tonelli growth bounds ==")
    rep = M.check_strict_tonelli(L, g)
    print(f"  passed={rep.passed}  alpha={rep.alpha}  beta={rep.beta}")
    for v in rep.violations:
        print("  violation:", v)

    print("== Coupling geometry and confinement ==")
    coupling.validate_geometry(g)
    print(f"  K0 = [{coupling.K0_lo}, {coupling.K0_hi}] sits inside the box")
    from mfglab.mfg import default_probes
    gap = M.check_F4_gap(coupling, L, g, default_probes(coupling, g))
    print(f"  confinement gap over probes: {gap:.6f} (declared floor {coupling.delta0})")

    ok, witness = M.check_F5(coupling, L, g, default_probes(coupling, g))
    print(f"  common minimizer exists: {ok}, node x = {g.points[witness]}")


if __name__ == "__main__":
    main()
