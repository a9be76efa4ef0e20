"""Finite-horizon equilibrium on the reference instance.

Runs fictitious play at T = 2, prints the exploitability of each
iteration, mass conservation along the path, the solver diagnostics, and
the weak residual of the continuity equation.
"""

import numpy as np

import mfglab as M
from mfglab.instances import load_instance


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
    curves = M.trace_optimal_flow(sol.u, inst.m0)
    per, worst = M.occupation_time_outside(curves, 2.0)
    print(f"time spent outside B_2 by the optimal curves: max {worst}")


if __name__ == "__main__":
    main()
