"""Stationary (ergodic) mean field game on the box.

For reversible Lagrangians the critical value of the frozen problem is
read off the rest landscape, -min_x L_m(x, 0), and the projected minimizing
measure is a Dirac at the minimizing node.  The stationary MFG is then the
fixed point of  m -> Dirac at the minimizer of L_m(., 0),  and the corrected
value function is a weak-KAM solution of the frozen problem: on the grid, a
fixed point w = T w of its one-step Bellman map T (Gomes, "Viscosity solution
methods and the discrete Aubry-Mather problem", DCDS-A 2005; Fathi & Maderna,
NoDEA 2007).  Policy iteration with capped evaluations finds it, with no
horizon and no tolerance: it stops when T improves no node of a policy
evaluated to its fixed point, and w is then a fixed point of T within a few
ulps of max |w|.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import CycleDetected, MinOnBoundary, NoStabilization, NotReversible
from .hjb import BellmanStep, solve_backward  # noqa: F401  (bench/tracer.py wraps the solve)
from .measure import GridMeasure, wasserstein1
from .model import ARGMIN_TOL, rest_landscape

MAX_DIRAC_ITERS = 25  # steps of the Dirac iteration before it counts as a cycle
EVAL_SWEEPS = 20  # sweeps of a policy's evaluation before it is improved


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
    """Stationary pair; u_bar is 0 at the Mather node, and policy, the stationary
    feedback, is the (N,) argmin row of one Bellman step from u_bar in solve_backward's
    policy dtype.  Policy iteration evaluated weak_kam_steps policies in evaluation_sweeps
    sweeps in all and weak_kam_s seconds, and ended at residual ||T w - w||_inf =
    weak_kam_residual; per policy, policy_sweeps holds the sweeps of its evaluation and
    policy_changes the nodes its improvement changed."""

    grid: object
    lam: float
    u_bar: np.ndarray
    m_bar: GridMeasure
    mather_node: int
    iterations: int
    residuals: dict
    policy: np.ndarray
    weak_kam_steps: int
    weak_kam_residual: float
    weak_kam_s: float
    evaluation_sweeps: int
    policy_sweeps: list
    policy_changes: list


def weak_kam_solution(L, coupling, grid, m_bar, lam, step=None, counts=None):
    """Fixed point w = T w of the one-step Bellman map of L + F(., m_bar) + lam.

    Howard's policy iteration (Dynamic Programming and Markov Processes, 1960;
    Bertsekas & Tsitsiklis, Math. Oper. Res. 1991) with step, the BellmanStep
    of L on grid (built here when None).  The first policy takes, axis by axis,
    the velocity whose departure lies nearest the Mather node of m_bar in cells
    (step.shifts).  A policy is evaluated on its step.transition stencil by
    sweeps with the self-loop solved,
    w_i <- (dt L_i + dt F_i + sum_{j != i} p_ij w_j) / (1 - p_ii), from the
    last w until a sweep leaves w bitwise unchanged or after EVAL_SWEEPS
    sweeps; w stays 0 where the rest cost L(x, 0) + F(x, m_bar) + lam is
    within ARGMIN_TOL of 0.  One Bellman step improves the policy only where
    T gains, (T w)_i < w_i - 4 ulps of max |w|, so that velocities tied within
    rounding do not alternate.  Where it changes no node after a capped
    evaluation, the same policy is swept on to the bitwise fixed point, or to
    N sweeps in all (N the node count), and improved again: modified policy
    iteration (Puterman & Shin, Management Sci. 1978) whose stop rule is
    Howard's.  The loop ends when no node changes, and the velocity edge is
    checked on that policy only.  Raises NoStabilization when
    lam is not the critical value (a rest cost below -ARGMIN_TOL, or above it
    at the Mather node), when w is not finite, or after N policies.  Returns
    (w, steps * dt, steps, ||T w - w||_inf), w not normalized, steps counting
    policies; counts, when given, receives "evaluation_sweeps" and, per
    policy, "policy_sweeps" (a policy swept on counts its sweeps together)
    and "policy_changes".
    """
    Fbar = coupling.values_on(grid, m_bar) + lam
    step = BellmanStep(L, grid) if step is None else step
    node = int(m_bar.support()[0])
    rest = rest_landscape(L, coupling, grid, m_bar) + lam
    if rest.min() < -ARGMIN_TOL or rest[node] > ARGMIN_TOL:
        raise NoStabilization(f"lambda={lam!r} is not the critical value: the rest cost "
                              f"L(x, 0) + F(x, m) + lambda reaches {rest.min():.6g}, and "
                              f"is {rest[node]:.6g} at the Mather node")
    free = np.abs(rest) > ARGMIN_TOL  # w = 0 on the other nodes
    cells = zip(np.unravel_index(np.arange(grid.n_points), grid.nodes),
                np.unravel_index(node, grid.nodes), step.shifts)
    nearest = [np.abs(i[:, None] - at + m + a).argmin(axis=1) for i, at, (m, a) in cells]
    policy = np.ravel_multi_index(nearest, (grid.v_nodes,) * grid.dim)
    n, w, sweeps, changes = grid.n_points, np.zeros(grid.n_points), [], []
    for steps in range(1, n + 1):
        cost, idx, weights = step.transition(policy)
        loop = idx == np.arange(n)
        cost = np.where(free, cost + grid.dt * Fbar, 0.0)
        stay = np.where(free, 1.0 - (weights * loop).sum(axis=0), 1.0)
        weights = np.where(free & ~loop, weights, 0.0)
        done = fixed = 0
        while True:  # capped sweeps, then on to the fixed point where T changes no node
            with np.errstate(divide="ignore", invalid="ignore"):
                for sweep in range(done + 1, (n if done else min(EVAL_SWEEPS, n)) + 1):
                    w_new = ((weights * w[idx]).sum(axis=0) + cost) / stay
                    if fixed := np.array_equal(w_new, w):
                        break
                    w = w_new
            done = sweep
            if not np.isfinite(w).all():
                raise NoStabilization(f"weak-KAM: policy {steps} has a non-finite value")
            Tw, jstar = step(w, Fbar)
            jstar = np.where(Tw < w - 4 * np.spacing(np.abs(w).max()), jstar, policy)
            changed = int(np.count_nonzero(jstar != policy))
            if changed or fixed or done == n:
                break
        sweeps.append(done)
        changes.append(changed)
        if not changed:
            break
        policy = jstar
    else:
        raise NoStabilization(f"weak-KAM: the policy still changed after {steps} policies")
    step.check_edge(policy[None], [0.0])
    if counts is not None:
        counts.update(evaluation_sweeps=sum(sweeps), policy_sweeps=sweeps, policy_changes=changes)
    return w, steps * grid.dt, steps, float(np.abs(Tw - w).max())


def solve_ergodic(L, coupling, grid, m_start=None, step=None):
    """Fixed point of m -> Dirac at the Mather point, then the weak-KAM solution.

    From m_start (uniform on K0 by default) the Dirac iteration steps
    m <- Dirac at mather_point(m) and stops when mather_point returns the
    node of the Dirac it was given, a fixed point of the map.  After
    MAX_DIRAC_ITERS steps without one it raises CycleDetected.  Returns an
    ErgodicSolution with lambda, u_bar (normalized to 0 at the Mather node),
    m_bar, the number of Dirac steps, the feedback and residuals["second_equation"],
    the stationarity check of verify_second_equation, which reads that feedback.
    step is the BellmanStep of L on grid, built here when None.
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
    step = BellmanStep(L, grid) if step is None else step  # policy iteration and the check
    counts = {}
    t0 = time.perf_counter()
    u_bar, _, steps, residual = weak_kam_solution(L, coupling, grid, m, lam,
                                                  step=step, counts=counts)
    seconds = time.perf_counter() - t0
    u_bar = u_bar - u_bar[node]
    second, policy = _stationary_feedback(step, coupling, m, u_bar)
    return ErgodicSolution(grid, lam, u_bar, m, node, iters, {"second_equation": second},
                           policy, steps, residual, seconds, **counts)


def _stationary_feedback(step, coupling, m_bar, u_bar):
    """(verify_second_equation's residual, the feedback row it reads)."""
    policy = step(u_bar, coupling.values_on(step.grid, m_bar))[1].astype(step.policy_dtype)
    v = step.grid.velocities[policy[m_bar.support()]]
    return float(np.linalg.norm(v, axis=1).max()), policy


def verify_second_equation(step, coupling, m_bar, u_bar):
    """Stationarity of m_bar under the flow of the frozen problem.

    For atomic m_bar the continuity equation reduces to v*(x*) = 0, since the
    sup of <D f(x*), v*(x*)> over unit gradients D f(x*) is |v*(x*)|.  The
    residual is the largest Euclidean norm, over the support nodes, of the
    feedback of one Bellman step of the frozen problem from u_bar (step is
    the BellmanStep of its Lagrangian on m_bar's grid).
    """
    return _stationary_feedback(step, coupling, m_bar, u_bar)[0]


def lambda_lipschitz_check(L, coupling, grid, m1, m2):
    """(|lambda(m1) - lambda(m2)|, lip2 * d_1(m1, m2)); lhs <= rhs + 1e-9."""
    l1 = critical_value(L, coupling, grid, m1)
    l2 = critical_value(L, coupling, grid, m2)
    lhs = abs(l1 - l2)
    rhs = coupling.lip2 * wasserstein1(m1, m2)
    return lhs, rhs
