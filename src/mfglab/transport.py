"""Lagrangian side: trace the optimal flow and push the initial measure.

Curves follow the stored policy's velocities, interpolated between nodes,
by forward Euler with the same time step as the backward solve, so the
pair (value field, measure path) discretizes the coupled system consistently.
The sweep is step-major: each step writes one contiguous row of every
curve's position and velocity, and the deposit reads the positions row by
row and normalizes every row after the first, m0 itself, in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EscapedBox
from .hjb import _as_path_values
from .measure import MASS_TOL, MeasurePath, deposit
from .model import interp_grid


@dataclass
class TrajectoryBundle:
    """One traced curve per support node of the initial measure.

    Positions (C, K+1, n) and velocities (C, K, n) hold one n-vector per
    curve and time; trace_optimal_flow fills them step-major, so its
    bundles hold swapaxes views whose [:, k] slices are contiguous.
    """

    grid: object
    times: np.ndarray
    start_nodes: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    masses: np.ndarray  # (C,)

    def max_speed(self):
        return float(np.sqrt((self.velocities**2).sum(axis=-1)).max())

    def radii(self):
        return np.sqrt((self.positions**2).sum(axis=-1))


def trace_optimal_flow(vf, m0):
    """Forward-Euler curves through the velocities of the stored policy.

    One curve starts at each support node of m0.  The sweep fills step-major
    (K+1, C, n) positions and (K, C, n) velocities, one contiguous row of all
    curves per step; the bundle holds them as (C, K+1, n) and (C, K, n)
    views.  Raises EscapedBox if a curve leaves the box, which the clamped
    scheme should prevent for admissible data: it names the first curve out
    at the earliest step at which any is.
    """
    g = vf.grid
    K = len(vf.policy)
    starts = m0.support()
    C = len(starts)
    pos = np.empty((K + 1, C, g.dim))
    vel = np.empty((K, C, g.dim))
    pos[0] = g.points[starts]
    for k in range(K):
        vel[k] = vf.velocity_at(k, pos[k])
        pos[k + 1] = pos[k] + g.dt * vel[k]
    out = ~g.in_box(pos[1:])  # (K, C)
    if out.any():
        k = int(out.any(axis=1).argmax())
        c = int(out[k].argmax())
        raise EscapedBox(int(starts[c]), float(vf.times[k + 1]), pos[k + 1, c])
    masses = m0.weights[starts]
    return TrajectoryBundle(g, vf.times.copy(), starts, pos.swapaxes(0, 1),
                            vel.swapaxes(0, 1), masses)


def measure_path(bundle):
    """Deposit the bundle onto the grid at every time to get m(t).

    Every row after the first is divided by its own sum in place.  Row 0 holds
    the curves' masses at their start nodes, m0 itself: the deposit of a node
    may spread a few ulps to its neighbour when (x - lo) / dx rounds below
    the node's index.
    """
    g = bundle.grid
    rows = deposit(g, np.swapaxes(bundle.positions, 0, 1), bundle.masses)
    s = rows.sum(axis=1)
    lost = np.abs(s - bundle.masses.sum())
    if (lost > MASS_TOL).any():
        k = int(np.argmax(lost > MASS_TOL))
        raise ValueError(f"deposition lost mass at step {k}: {lost[k]:.3e}")
    rows[1:] /= s[1:, None]
    rows[0] = 0.0
    rows[0, bundle.start_nodes] = bundle.masses
    return MeasurePath(g, bundle.times, rows)


def occupation_time_outside(bundle, R):
    """Lebesgue time each curve spends outside the closed ball B_R.

    Left-endpoint rule: dt times the number of sample times t_k < T with
    |xi(t_k)| > R.  Returns (per_curve, max).
    """
    r = bundle.radii()[:, :-1]
    dt = float(bundle.times[1] - bundle.times[0])
    per = (r > R).sum(axis=1) * dt
    return per, float(per.max())


def action_defect(bundle, vf, L, F_path, uf_values):
    """Per-curve gap between the Riemann action along the curve and u(0, .).

    The discrete domination inequality makes this nonnegative up to
    interpolation error; it shrinks at first order under refinement.
    """
    g = bundle.grid
    dt = g.dt
    K = bundle.velocities.shape[1]
    F = _as_path_values(F_path, g, K)
    C = bundle.positions.shape[0]
    action = np.zeros(C)
    for k in range(K):
        x = bundle.positions[:, k]
        v = bundle.velocities[:, k]
        action += dt * (L.eval(x, v) + interp_grid(g, F[k], x))
    action += interp_grid(g, uf_values, bundle.positions[:, K])
    u0 = interp_grid(g, vf.values[0], bundle.positions[:, 0])
    return action - u0
