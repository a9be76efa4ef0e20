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
from .hjb import BellmanStep, solve_backward
from .measure import GridMeasure, wasserstein1
from .model import ARGMIN_TOL, cell_corners, rest_landscape

MAX_DIRAC_ITERS = 25  # steps of the Dirac iteration before it counts as a cycle
HORIZON_CAP = 128.0  # weak-KAM: ceil(HORIZON_CAP / dt) Bellman steps at most, as many sweeps


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
    weak_kam_steps Bellman steps (horizon_used = weak_kam_steps * dt),
    policy_evaluations frozen-policy evaluations of evaluation_sweeps sweeps
    in all, and weak_kam_s seconds, and ended at residual
    ||T w - w||_inf = weak_kam_residual."""

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
    policy_evaluations: int
    evaluation_sweeps: int


def policy_transition(step, jstar):
    """Frozen policy j: per node dt L(x, v_j) and the departure cell of x + dt v_j.

    Returns (cost (N,), corner node indices (2^n, N), corner weights (2^n, N)),
    the clamped multilinear stencil of ``model.cell_corners``.
    """
    grid = step.grid
    departure = grid.points + grid.dt * grid.velocities[jstar]
    idx, weights = zip(*((i, np.prod(w, axis=0))
                         for i, w in cell_corners(grid, departure, clamp=True)))
    return step.dtL[np.arange(grid.n_points), jstar], np.array(idx), np.array(weights)


def is_proper(idx, weights, node):
    """Whether the policy chain (idx, weights) stops at node and every node reaches it.

    node must move only to itself, and every other node must reach it along
    corners of positive weight.  Only then is the evaluation of the policy a
    stochastic shortest-path problem with a unique solution (Bertsekas &
    Tsitsiklis, Math. Oper. Res. 1991); v = 0 everywhere, the policy of
    w = 0, stays put and is not proper.
    """
    moves = weights > 0
    if not (idx[moves[:, node], node] == node).all():
        return False
    reached = np.zeros(idx.shape[1], dtype=bool)
    reached[node] = True
    while True:
        grown = (reached[idx] & moves).any(axis=0)
        grown[node] = True
        if np.array_equal(grown, reached):
            return bool(reached.all())
        reached = grown


def weak_kam_solution(L, coupling, grid, m_bar, lam, tol=1e-6, step=None, counts=None):
    """Fixed point w = T w of the one-step Bellman map of L + F(., m_bar) + lam.

    Modified policy iteration (Howard, Dynamic Programming and Markov
    Processes, 1960; Puterman & Shin, Management Science 1978): from w = 0,
    Bellman steps w <- T w (step, the BellmanStep of L on grid, built here
    when None; w_n is the value at time -n dt).  When two consecutive steps
    pick the same velocity per node and that policy is proper (is_proper,
    toward the Mather node of m_bar), the policy is frozen and evaluated by
    Jacobi sweeps w <- dt L(x, v_j) + Interp[w](x + dt v_j) + dt F, until a
    sweep leaves w bitwise unchanged or after ceil(HORIZON_CAP / dt) sweeps;
    each policy is evaluated at most once.  The Bellman steps run until
    ||T w - w||_inf is exactly 0, or ceil(HORIZON_CAP / dt) steps, so w is a
    bitwise fixed point of T.  A residual <= tol is no stop: on RI-1 the
    value iterate at that residual is still 2.2e-5 from the fixed point.  A
    last residual above tol raises NoStabilization.  Returns
    (w, steps * dt, steps, residual), w not normalized, steps counting
    Bellman steps; counts, when given, receives "policy_evaluations" and
    "evaluation_sweeps".
    """
    Fbar = coupling.values_on(grid, m_bar) + lam
    step = BellmanStep(L, grid) if step is None else step
    dtF = grid.dt * Fbar
    node = int(m_bar.support()[0])
    cap = int(np.ceil(HORIZON_CAP / grid.dt))
    tried, policy, evaluations, sweeps = set(), None, 0, 0
    w = np.zeros(grid.n_points)
    for steps in range(1, cap + 1):
        w_new, jstar = step(w, Fbar, -steps * grid.dt)
        residual = float(np.abs(w_new - w).max())
        w = w_new
        if residual == 0.0:
            break
        if np.array_equal(jstar, policy) and jstar.tobytes() not in tried:
            tried.add(jstar.tobytes())
            cost, idx, weights = policy_transition(step, jstar)
            if is_proper(idx, weights, node):
                evaluations += 1
                for _ in range(cap):
                    sweeps += 1
                    w_new = ((weights * w[idx]).sum(axis=0) + cost) + dtF
                    if np.array_equal(w_new, w):
                        break
                    w = w_new
        policy = jstar
    if counts is not None:
        counts.update(policy_evaluations=evaluations, evaluation_sweeps=sweeps)
    if not residual <= tol:  # also a nan residual
        raise NoStabilization(f"weak-KAM residual {residual:.6g} above tol={tol} "
                              f"after {steps} steps (horizon {HORIZON_CAP})")
    return w, steps * grid.dt, steps, residual


def solve_ergodic(L, coupling, grid, m_start=None, tol=1e-6):
    """Fixed point of m -> Dirac at the Mather point, then the weak-KAM limit.

    From m_start (uniform on K0 by default) the Dirac iteration steps
    m <- Dirac at mather_point(m) and stops when mather_point returns the
    node of the Dirac it was given, a fixed point of the map.  After
    MAX_DIRAC_ITERS steps without one it raises CycleDetected.  Returns an
    ErgodicSolution with lambda, u_bar (normalized to 0 at the Mather node),
    m_bar, the number of Dirac steps and residuals["second_equation"], the
    stationarity check of verify_second_equation.
    """
    m = (GridMeasure.uniform_on(grid, coupling.K0_lo, coupling.K0_hi)
         if m_start is None else m_start)
    node = None
    for iters in range(1, MAX_DIRAC_ITERS + 1):
        nxt = mather_point(L, coupling, grid, m)
        if nxt == node:
            break
        node = nxt
        m = GridMeasure.dirac(grid, grid.points[node])
    else:
        raise CycleDetected("Dirac iteration cycled; no stationary node found")

    lam = critical_value(L, coupling, grid, m)
    step = BellmanStep(L, grid)  # once: the weak-KAM loop and the stationarity check
    counts = {}
    t0 = time.perf_counter()
    u_bar, horizon, steps, residual = weak_kam_solution(L, coupling, grid, m, lam,
                                                        tol=tol, step=step, counts=counts)
    seconds = time.perf_counter() - t0
    u_bar = u_bar - u_bar[node]
    residuals = {"second_equation": verify_second_equation(step, coupling, m, u_bar)}
    return ErgodicSolution(grid, lam, u_bar, m, node, iters, horizon, residuals,
                           steps, residual, seconds, **counts)


def verify_second_equation(step, coupling, m_bar, u_bar):
    """Stationarity of m_bar under the flow of the frozen problem.

    For atomic m_bar the continuity equation reduces to
    <D f(x*), v*(x*)> = 0 for smooth test functions f; the residual is the
    max over a fixed gradient dictionary using, at the support nodes, the
    feedback of one backward step of the frozen problem from u_bar (step is
    the BellmanStep of its Lagrangian on m_bar's grid).
    """
    grid = step.grid
    test_gradients = ([[1.0], [-0.7], [2.3]] if grid.dim == 1
                      else [[1.0, 0.0], [0.0, 1.0], [0.7, -0.7]])
    feedback = solve_backward(step, coupling.values_on(grid, m_bar), u_bar, grid.dt,
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
