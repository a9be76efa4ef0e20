"""Stationary (ergodic) mean field game on the box.

For reversible Lagrangians the critical value of the frozen problem is
read off the rest landscape, -min_x L_m(x, 0), and the projected minimizing
measure is a Dirac at the minimizing node.  The stationary MFG is then the
fixed point of  m -> Dirac at the minimizer of L_m(., 0),  and the corrected
value function is recovered as the long-horizon limit of the backward solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CycleDetected, MinOnBoundary, NoStabilization, NotReversible
from .hjb import solve_backward
from .measure import GridMeasure, wasserstein1
from .model import ARGMIN_TOL, MeanFieldLagrangian, interp_grid

MAX_DIRAC_ITERS = 25  # steps of the Dirac iteration before it counts as a cycle


def _rest_landscape(L, coupling, grid, m):
    return MeanFieldLagrangian(L, coupling, m).values_at_rest(grid)


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
    rest = _rest_landscape(L, coupling, grid, m)
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
    rest = _rest_landscape(L, coupling, grid, m)
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
    grid: object
    lam: float
    u_bar: np.ndarray
    m_bar: GridMeasure
    mather_node: int
    iterations: int
    horizon_used: float
    residuals: dict = field(default_factory=dict)
    doublings: list = field(default_factory=list)  # see weak_kam_solution


def weak_kam_solution(L, coupling, grid, m_bar, lam, tol=1e-6, horizon_cap=128.0):
    """Corrected long-horizon limit u_bar with u_bar(mather point) = 0.

    Runs the backward solve for the frozen cost L + F(., m_bar) + lam,
    doubling the accumulated horizon (semigroup restarts from the previous
    slice) until the sup-norm change between doublings is below tol.
    Returns (w, total horizon, doublings), one {"change", "seconds"} dict
    per doubling.  Raises NoStabilization past horizon_cap.
    """
    Fbar = coupling.values_on(grid, m_bar) + lam
    w = np.zeros(grid.n_points)
    T_inc = max(1.0, 64 * grid.dt)
    total = 0.0
    doublings = []
    while total < horizon_cap:
        t0 = time.perf_counter()
        vf = solve_backward(L, Fbar, w, grid, T_inc)
        w_new = vf.values[0]
        total += T_inc
        change = float(np.abs(w_new - w).max())
        w = w_new
        doublings.append({"change": change, "seconds": time.perf_counter() - t0})
        if change <= tol:
            return w, total, doublings
        T_inc = total  # doubling
    raise NoStabilization(f"no weak-KAM stabilization below horizon {horizon_cap}")


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
            w = np.zeros(grid.n_points)
            w[node] = 1.0
            m = GridMeasure(grid, w, validate=False)
        return None, MAX_DIRAC_ITERS

    node, iters = iterate(m_start)
    if node is None:
        from .model import check_F5
        ok, witness = check_F5(coupling, L, grid,
                               [m_start, GridMeasure.dirac(grid, grid.points[0])])
        if ok and witness is not None:
            w = np.zeros(grid.n_points)
            w[witness] = 1.0
            node, iters2 = iterate(GridMeasure(grid, w, validate=False))
            iters += iters2
        if node is None:
            raise CycleDetected("Dirac iteration cycled; no stationary node found")

    w = np.zeros(grid.n_points)
    w[node] = 1.0
    m_bar = GridMeasure(grid, w)
    lam = critical_value(L, coupling, grid, m_bar)
    u_bar, horizon, doublings = weak_kam_solution(L, coupling, grid, m_bar, lam, tol=tol)
    u_bar = u_bar - u_bar[node]
    residuals = {
        "fixed_point_gap": wasserstein1(
            m_bar, GridMeasure.dirac(grid, grid.points[mather_point(L, coupling, grid, m_bar)])
        ),
        "second_equation": verify_second_equation(L, coupling, grid, m_bar, u_bar),
    }
    return ErgodicSolution(grid, lam, u_bar, m_bar, int(node), iters, horizon, residuals,
                           doublings)


def _feedback_at(L, coupling, grid, m_bar, u_bar, node):
    """One-step DP minimizer at a node against the frozen u_bar."""
    dt = grid.dt
    Fb = coupling.values_on(grid, m_bar)
    x = grid.points[node]
    V = grid.velocities
    obj = dt * (np.asarray(L.eval(x, V), dtype=float) + Fb[node]) + interp_grid(
        grid, u_bar, x + dt * V
    )
    return V[int(np.argmin(obj))].copy()


def verify_second_equation(L, coupling, grid, m_bar, u_bar):
    """Stationarity of m_bar under the flow of the frozen problem.

    For atomic m_bar the continuity equation reduces to
    <D f(x*), v*(x*)> = 0 for smooth test functions f; the residual is the
    max over a fixed gradient dictionary using the one-step DP feedback at
    the support nodes.
    """
    if grid.dim == 1:
        test_gradients = [1.0, -0.7, 2.3]
    else:
        test_gradients = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                          np.array([0.7, -0.7])]
    worst = 0.0
    for node in m_bar.support():
        v = _feedback_at(L, coupling, grid, m_bar, u_bar, int(node))
        for gvec in test_gradients:
            worst = max(worst, abs(float(np.dot(np.atleast_1d(gvec), np.atleast_1d(v)))))
    return worst


def lambda_lipschitz_check(L, coupling, grid, m1, m2):
    """(|lambda(m1) - lambda(m2)|, lip2 * d_1(m1, m2)); lhs <= rhs + 1e-9."""
    l1 = critical_value(L, coupling, grid, m1)
    l2 = critical_value(L, coupling, grid, m2)
    lhs = abs(l1 - l2)
    rhs = coupling.lip2 * wasserstein1(m1, m2)
    return lhs, rhs
