"""Lagrangian side: trace the optimal flow and deposit its curves.

Curves follow the stored policy's velocities, interpolated between nodes,
by forward Euler with the same time step as the backward solve.  No solve,
criterion or demo reads them: the crowd is pushed, and its statistics
pulled, through the backward step's own stencil (mfg.push, mfg.pull).  The
curves stay for bench/tracer.py, which wraps trace_optimal_flow and
measure_path by name.  The sweep is step-major: each step writes one
contiguous row of every curve's position and velocity, and the deposit
reads the positions row by row and normalizes every row after the first,
m0 itself, in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EscapedBox
from .measure import MASS_TOL, MeasurePath, deposit


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

    Every row after the first is divided by its own sum in place.  Row 0 is
    the deposit of the curves' start nodes, m0 itself bit for bit
    (cell_corners puts a node's whole mass on it).
    """
    g = bundle.grid
    rows = deposit(g, np.swapaxes(bundle.positions, 0, 1), bundle.masses)
    s = rows.sum(axis=1)
    lost = np.abs(s - bundle.masses.sum())
    if (lost > MASS_TOL).any():
        k = int(np.argmax(lost > MASS_TOL))
        raise ValueError(f"deposition lost mass at step {k}: {lost[k]:.3e}")
    rows[1:] /= s[1:, None]
    return MeasurePath(g, bundle.times, rows)
