"""Sup-norm versus L2 interpolation for Lipschitz functions.

For boundary-vanishing f with Lipschitz constant at most D the bound
sup |f| <= sqrt(n + 2) D^(n/(n+2)) ||f||_2^(2/(n+2)) holds.  The tent
functions f_k(t) = max(1/k - t, 0) keep the two sides proportional as the
support shrinks, so they show the exponent cannot be improved; a random
family probes the inequality away from extremizers.
"""

import numpy as np

import mfglab as M


def main():
    print("tent family on [0, 1] (ratio should stay constant):")
    for k in (1, 2, 4, 8, 16):
        n = 16 * k + 1
        g = M.GridSpec((0.0,), (1.0,), (n,), 0.01, 1.0, 3)
        f = np.maximum(1.0 / k - g.axes[0], 0.0)
        lhs, rhs = M.interpolation_bound(g, f, 1.0)
        print(f"  k = {k:2d}: sup = {lhs:.6f}  bound = {rhs:.6f}  "
              f"bound/sup = {rhs / lhs:.12f}")
    print(f"predicted constant ratio: 3^(1/6) = {3.0 ** (1.0 / 6.0):.12f}")

    n = int(round(4.0 / 0.02)) + 1
    g = M.GridSpec((-2.0,), (2.0,), (n,), 0.02, 1.0, 3)
    dx = g.dx[0]
    rng = np.random.default_rng(0)
    margins = []
    for _ in range(500):
        s = rng.uniform(-1.0, 1.0, g.n_points - 1)
        s -= s.mean()
        peak = np.abs(s).max()
        if peak > 1.0:
            s /= peak
        f = np.concatenate([[0.0], np.cumsum(s) * dx])
        lhs, rhs = M.interpolation_bound(g, f, 1.0)
        margins.append(rhs - lhs)
    print(f"random 1-Lipschitz family: min margin {min(margins):.4f} over "
          f"{len(margins)} samples (violations: {sum(m < 0 for m in margins)})")


if __name__ == "__main__":
    main()
