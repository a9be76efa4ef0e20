"""Stationary (ergodic) mean field game on the box.

For reversible Lagrangians the critical value of the frozen problem is
read off the rest landscape, -min_x L_m(x, 0), and the projected minimizing
measure is a Dirac at the minimizing node.  The stationary MFG is then the
fixed point of  m -> Dirac at the minimizer of L_m(., 0),  and the corrected
value function is a weak-KAM solution of the frozen problem: on the grid, a
fixed point w = T w of its one-step Bellman map T (Gomes, "Viscosity solution
methods and the discrete Aubry-Mather problem", DCDS-A 2005; Fathi & Maderna,
NoDEA 2007).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import CycleDetected, MinOnBoundary, NoStabilization, NotReversible
from .hjb import bellman_step, solve_backward
from .measure import GridMeasure, wasserstein1
from .model import ARGMIN_TOL, check_F5, rest_landscape

MAX_DIRAC_ITERS = 25  # steps of the Dirac iteration before it counts as a cycle
HORIZON_CAP = 128.0  # the weak-KAM loop takes at most ceil(HORIZON_CAP / dt) steps


def _boundary_mask(grid):
    mask = np.ones(grid.nodes, dtype=bool)
    mask[(slice(1, -1),) * grid.dim] = False
    return mask.ravel()


def critical_value(L, coupling, grid, m):
    """lambda(m) = -min over grid nodes of L_m(x, 0), reversible formula.

    Raises NotReversible when the Lagrangian is not declared reversible and
    MinOnBoundary when the minimum sits on the box boundary (the landscape
    is then not confining at this resolution).
    """
    if not L.reversible:
        raise NotReversible("critical value formula needs L(x, v) = L(x, -v)")
    rest = rest_landscape(L, coupling, grid, m)
    j = int(np.argmin(rest))
    if _boundary_mask(grid)[rest <= rest[j] + ARGMIN_TOL].any():
        raise MinOnBoundary(grid.points[j])
    return float(-rest[j])


def mather_point(L, coupling, grid, m):
    """Flat index of the minimizing node of L_m(., 0) inside K0.

    Ties within 1e-10 of the minimum break to the lexicographically
    smallest node.  The projected minimizing measure is the Dirac there.
    """
    if not L.reversible:
        raise NotReversible("atomic minimizing measures need reversibility")
    rest = rest_landscape(L, coupling, grid, m)
    mask = coupling.K0_mask(grid)
    idx = np.flatnonzero(mask)
    vals = rest[idx]
    mn = vals.min()
    if rest.min() < mn - ARGMIN_TOL:
        j = int(np.argmin(rest))
        if _boundary_mask(grid)[j]:
            raise MinOnBoundary(grid.points[j])
        # the landscape dips below its K0 floor outside K0: gap hypothesis
        # has failed, let the caller's check surface it
    return int(idx[np.flatnonzero(vals <= mn + ARGMIN_TOL)[0]])


@dataclass
class ErgodicSolution:
    """Stationary pair; u_bar is 0 at the Mather node.  The weak-KAM loop took
    weak_kam_steps steps (horizon_used = weak_kam_steps * dt) and weak_kam_s
    seconds, and ended at residual ||T w - w||_inf = weak_kam_residual."""

    grid: object
    lam: float
    u_bar: np.ndarray
    m_bar: GridMeasure
    mather_node: int
    iterations: int
    horizon_used: float
    residuals: dict
    weak_kam_steps: int
    weak_kam_residual: float
    weak_kam_s: float


def weak_kam_solution(L, coupling, grid, m_bar, lam, tol=1e-6):
    """Fixed point w = T w of the one-step Bellman map of L + F(., m_bar) + lam.

    From w = 0, w <- T w (``hjb.bellman_step``; w_n is the value at time
    -n dt) runs until ||T w - w||_inf is exactly 0, or ceil(HORIZON_CAP / dt)
    steps.  A residual <= tol is no stop: on RI-1 that w is still 2.2e-5 from
    the fixed point.  A last residual above tol raises NoStabilization.
    Returns (w, steps * dt, steps, residual), w not normalized.
    """
    Fbar = coupling.values_on(grid, m_bar) + lam
    step = bellman_step(L, grid)
    w = np.zeros(grid.n_points)
    for steps in range(1, int(np.ceil(HORIZON_CAP / grid.dt)) + 1):
        w_new = step(w, Fbar, -steps * grid.dt)[0]
        residual = float(np.abs(w_new - w).max())
        w = w_new
        if residual == 0.0:
            break
    if not residual <= tol:  # also a nan residual
        raise NoStabilization(f"weak-KAM residual {residual:.6g} above tol={tol} "
                              f"after {steps} steps (horizon {HORIZON_CAP})")
    return w, steps * grid.dt, steps, residual


def solve_ergodic(L, coupling, grid, m_start=None, tol=1e-6):
    """Fixed point of m -> Dirac at the Mather point, then the weak-KAM limit.

    The projection map is finite-state (node indices), so the iteration
    either hits a fixed node or cycles; a cycle triggers one restart from
    the common-minimizer witness and is fatal if it persists.  Returns an
    ErgodicSolution with lambda, u_bar (normalized to 0 at the Mather node),
    m_bar and consistency residuals.
    """
    if m_start is None:
        m_start = GridMeasure.uniform_on(grid, coupling.K0_lo, coupling.K0_hi)

    def iterate(m0):
        seen = []
        m = m0
        for it in range(MAX_DIRAC_ITERS):
            node = mather_point(L, coupling, grid, m)
            if seen and node == seen[-1]:
                return node, it + 1
            if node in seen:  # proper cycle
                return None, it + 1
            seen.append(node)
            m = GridMeasure.dirac(grid, grid.points[node])
        return None, MAX_DIRAC_ITERS

    node, iters = iterate(m_start)
    if node is None:
        ok, witness = check_F5(coupling, L, grid,
                               [m_start, GridMeasure.dirac(grid, grid.points[0])])
        if ok and witness is not None:
            node, iters2 = iterate(GridMeasure.dirac(grid, grid.points[witness]))
            iters += iters2
        if node is None:
            raise CycleDetected("Dirac iteration cycled; no stationary node found")

    m_bar = GridMeasure.dirac(grid, grid.points[node])
    lam = critical_value(L, coupling, grid, m_bar)
    t0 = time.perf_counter()
    u_bar, horizon, steps, residual = weak_kam_solution(L, coupling, grid, m_bar, lam, tol=tol)
    seconds = time.perf_counter() - t0
    u_bar = u_bar - u_bar[node]
    residuals = {
        "fixed_point_gap": wasserstein1(
            m_bar, GridMeasure.dirac(grid, grid.points[mather_point(L, coupling, grid, m_bar)])
        ),
        "second_equation": verify_second_equation(L, coupling, grid, m_bar, u_bar),
    }
    return ErgodicSolution(grid, lam, u_bar, m_bar, int(node), iters, horizon, residuals,
                           steps, residual, seconds)


def verify_second_equation(L, coupling, grid, m_bar, u_bar):
    """Stationarity of m_bar under the flow of the frozen problem.

    For atomic m_bar the continuity equation reduces to
    <D f(x*), v*(x*)> = 0 for smooth test functions f; the residual is the
    max over a fixed gradient dictionary using, at the support nodes, the
    feedback of one backward step of the frozen problem from u_bar.
    """
    test_gradients = ([[1.0], [-0.7], [2.3]] if grid.dim == 1
                      else [[1.0, 0.0], [0.0, 1.0], [0.7, -0.7]])
    feedback = solve_backward(L, coupling.values_on(grid, m_bar), u_bar, grid, grid.dt,
                              check_boundary=False).feedback[0]
    v = feedback[m_bar.support()]
    return float(np.abs(v @ np.transpose(test_gradients)).max())


def lambda_lipschitz_check(L, coupling, grid, m1, m2):
    """(|lambda(m1) - lambda(m2)|, lip2 * d_1(m1, m2)); lhs <= rhs + 1e-9."""
    l1 = critical_value(L, coupling, grid, m1)
    l2 = critical_value(L, coupling, grid, m2)
    lhs = abs(l1 - l2)
    rhs = coupling.lip2 * wasserstein1(m1, m2)
    return lhs, rhs
