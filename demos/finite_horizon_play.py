"""Finite-horizon equilibrium on the reference instance.

Runs fictitious play at T = 2, prints the exploitability of each
iteration, mass conservation along the path, the solver diagnostics, the
weak residual of the continuity equation, and the expected time outside B_2
of the chain that pushes the crowd, swept backward over the step's stencil.
"""

import numpy as np

import mfglab as M
from mfglab.instances import load_instance
from mfglab.mfg import pull


def main():
    inst = load_instance("RI-1")
    sol = M.solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf,
                                 inst.grid, 2.0)
    print(f"converged = {sol.converged} after {sol.iterations} iterations")
    print("exploitability history:", ["%.2e" % r for r in sol.residuals])

    masses = sol.m_path.weights.sum(axis=1)
    print(f"mass drift along the path: {np.abs(masses - 1.0).max():.2e}")

    print("diagnostics:")
    for k, v in sol.diagnostics.items():
        print(f"  {k} = {v}")

    print(f"weak continuity residual: {M.kfp_residual(sol):.2e}")
    g = inst.grid
    outside = pull(M.BellmanStep(inst.L, g), sol.u.policy, g.dt * (g.radii() > 2.0), 0.0)
    print(f"expected time outside B_2 from the support of m0: max "
          f"{outside[inst.m0.support()].max()}")


if __name__ == "__main__":
    main()
