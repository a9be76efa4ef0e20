"""Grid measures and the 1-Wasserstein distance.

Shows the CDF formula in 1-D, the dual Kantorovich witness, weak-*
convergence of shrinking uniforms to a point mass, and the solver's own push
of a point mass along a constant velocity.
"""

import numpy as np

import mfglab as M
from mfglab import mfg


def main():
    n = int(round(4.0 / 0.025)) + 1
    g = M.GridSpec((-2.0,), (2.0,), (n,), 0.02, 1.0, 3)

    d0 = M.GridMeasure.dirac(g, 0.0)
    d1 = M.GridMeasure.dirac(g, 1.0)
    print("d1(delta_0, delta_1) =", M.wasserstein1(d0, d1))

    pot = M.kantorovich_potential_1d(d0, d1)
    gap = M.wasserstein1(d0, d1) - float(np.dot(pot, d0.weights - d1.weights))
    print("duality gap with the CDF witness:", f"{gap:.2e}")

    print("uniform([-h, h]) -> delta_0 in d1:")
    for h in (1.0, 0.5, 0.25, 0.125):
        u = M.GridMeasure.uniform_on(g, -h, h)
        print(f"  h = {h:5.3f}: d1 = {M.wasserstein1(u, d0):.6f}  (h/2 = {h / 2})")

    # mfg.push moves a crowd by the transpose of the backward step; velocity
    # node 0 is v = -1, so delta_1 held there for T = 0.5 arrives at 0.5
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    left = np.zeros((int(round(0.5 / g.dt)), g.n_points), dtype=step.policy_dtype)
    path, _ = mfg.push(step, left, d1.weights, np.zeros(g.n_points))
    print("delta_1 pushed at v = -1 for T = 0.5 has mean", M.GridMeasure(g, path[-1]).mean())


if __name__ == "__main__":
    main()
