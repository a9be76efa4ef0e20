"""Backward value solver against the direct Hopf-Lax oracle.

With L = |v|^2/2, no coupling, and terminal datum x^2/2 on horizon T = 1 the
value function is u(t, x) = x^2 / (2 (1 + T - t)).  The dynamic-programming
solver and the one-shot Hopf-Lax minimization are independent routes to it;
the demo prints both and the refinement behavior of the gap between them.
"""

import numpy as np

import mfglab as M


def run(dx):
    uf = M.TerminalDatum(lambda x: 0.5 * (x ** 2).sum(-1), lip=4.0, c0=0.0)
    L = M.quadratic_kinetic()
    n = int(round(8.0 / dx)) + 1
    g = M.GridSpec((-4.0,), (4.0,), (n,), dx, 4.0, 161)
    T = 1.0
    vf = M.solve_backward(M.BellmanStep(L, g), None, uf, T)
    mask = g.ball_mask(2.0)
    worst = 0.0
    for k, t in enumerate(vf.times):
        exact = (g.points[mask] ** 2).sum(axis=1) / (2.0 * (1.0 + T - t))
        worst = max(worst, float(np.abs(vf.values[k][mask] - exact).max()))
    x = np.array([1.0])
    dp = vf.values[0][g.nearest_node(x)]
    hl = M.hopf_lax_oracle(uf, 0.0, x, T, g)
    return dp, hl, worst


def main():
    print("closed form u(0, 1) =", 1.0 / (2.0 * 2.0))
    for dx in (0.1, 0.05, 0.025):
        dp, hl, worst = run(dx)
        print(f"dx = {dx:.3f}:  dp u(0,1) = {dp:.6f}  hopf-lax = {hl:.6f}  "
              f"max |dp - exact| on B_2 = {worst:.2e}")


if __name__ == "__main__":
    main()
