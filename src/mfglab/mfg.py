"""Finite-horizon mean field game solver.

Fictitious play on the measure path W_k, on one discretization of the crowd.
Iteration k solves u_k against F(W_k) and pushes m0 with the transpose of
the backward step, m_{k+1}(j) = sum_i m_k(i) p_ij, p the corner weights of
BellmanStep.transition (Carlini & Silva, SINUM 2014): the best response
BR(W_k).  Every W_k mixes such pushed paths, so it has the cost
cost(W; F) = A(W) + dt sum_{k<K} <W_k, F_k>, A the running dt L plus
terminal <W_K, u_f> part, one scalar mixed with the weights of W.  By
discrete duality BR(W_k) costs <u_k(0), m0>, the least any path costs, so
the exploitability eps_k = cost(W_k; F(W_k)) - <u_k(0), m0> >= 0 is what the
best deviation gains, at a mixed equilibrium as at a pure one.  The solve
returns (u_k, W_k) once eps_k is at most the tolerance or its rounding
floor.  Otherwise W_{k+1} = W_k + theta_k D, D = BR(W_k) - W_k, theta_k the
exact line search on the potential (Lavigne & Pfeiffer, Appl. Math. Optim.
2023): the root in [0, 1] of phi'(theta) = (A(BR) - A(W)) +
dt sum_{k<K} <F(W + theta D)_k, D_k>, and phi'(0) = -eps_k.  Failure to
converge is a flag, not an exception; check_standing_assumptions, not the
solver, checks the standing assumptions.

W_0 is m0 pushed through a start row held at every step (stretched_start):
the stationary feedback ErgodicSolution.policy, or the slowest velocity, at
rest when v = 0 is a node.  Finite-horizon solutions converge to the ergodic
pair (Cardaliaguet, Dyn. Games Appl. 2013) and the middle of a long horizon
sits at it (the turnpike: Porretta, Minimax Theory Appl. 2018), so a solve
started from the feedback takes fewer iterations than from rest: on RI-1,
T = 8 ends after 1 iteration against 3.  The CLI's horizon and converge
start from the feedback; horizon starts at rest when the stationary solve
fails.

The crowd has this one discretization everywhere.  pull, the adjoint of
push, sweeps the same stencil backward for the expected cost of the chain
from every node, such as the time outside B_R; top_speed reads the policy
over a pushed path's support.  Nothing here traces a curve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionFailure
from .hjb import (BellmanStep, TerminalDatum, lipschitz_estimate, solve_backward,
                  time_lipschitz_estimate)
from .measure import SUPPORT_EPS, GridMeasure, MeasurePath, sliced_d1
from .model import check_F4_gap, check_strict_tonelli
from .transport import measure_path, trace_optimal_flow  # noqa: F401  (bench/tracer.py only)

MAX_ITERS = 60  # fictitious-play iterations before giving up unconverged


@dataclass
class MFGSolution:
    """The returned pair (u, m_path) and the run.

    u holds the policy that answers m_path; diagnostics hold, among others,
    "max_speed", the top speed of that policy at a node m_path charges, and
    "path_cost", A(m_path).  history holds one dict per iteration k: "gap",
    eps_k, "gap_lo", the sliced d_1 between BR(W_k) and W_k (above 0 at a
    mixed equilibrium), "theta" (None on the last iteration),
    "floor", eps_k's rounding floor, and the seconds of "backward_s"
    (coupling and backward solve), "forward_s" (push, eps and line search)
    and "d1_s" (the sliced d_1).
    """

    u: object  # ValueField
    m_path: MeasurePath
    converged: bool
    history: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def iterations(self):
        return len(self.history)

    @property
    def residuals(self):
        """eps of each iteration; the last is m_path's."""
        return [h["gap"] for h in self.history]


def default_probes(coupling, grid):
    """Probe measures living on K0: corner/center diracs plus a uniform.

    Raises ValueError when K0 does not sit strictly inside the box or holds
    no grid node.
    """
    coupling.validate_geometry(grid)
    idx = np.flatnonzero(coupling.K0_mask(grid))
    probes = []
    for i in (idx[0], idx[len(idx) // 2], idx[-1]):
        w = np.zeros(grid.n_points)
        w[i] = 1.0
        probes.append(GridMeasure(grid, w))
    probes.append(GridMeasure.uniform_on(grid, coupling.K0_lo, coupling.K0_hi))
    return probes


def check_standing_assumptions(L, coupling, grid, m0=None):
    """Tonelli bounds, K0 geometry, confinement gap and, given m0, m0 inside K0.

    Raises AssumptionFailure (a GapViolated for the gap) or, for K0, a
    ValueError.  Every solving command runs them once, before its first
    solve; neither solve_finite_horizon nor solve_ergodic runs them.
    """
    rep = check_strict_tonelli(L, grid)
    if not rep.passed:
        shown = [f"{kind} at x={x.tolist()}" + ("" if v is None else f", v={v.tolist()}")
                 for kind, x, v, *_ in rep.violations[:3]]
        raise AssumptionFailure(f"Tonelli bounds failed: {'; '.join(shown)}")
    check_F4_gap(coupling, L, grid, default_probes(coupling, grid))
    if m0 is not None and not coupling.K0_mask(grid)[m0.support()].all():
        raise AssumptionFailure("initial measure charges nodes outside K0")


def stretched_start(start, step, K):
    """The (K, N) policy a K-step solve first pushes m0 through: the (N,) row
    start, such as ErgodicSolution.policy, or for None the slowest velocity,
    held at every step as a read-only view with no table of its own.
    ValueError unless start is one integer row of N indices into the step's velocities."""
    V, n = step.grid.velocities, step.grid.n_points
    if start is None:
        start = np.full(n, np.square(V).sum(axis=1).argmin(), step.policy_dtype)
    start = np.asarray(start)
    if not (start.shape == (n,) and start.dtype.kind in "iu"
            and 0 <= start.min() and start.max() < len(V)):
        raise ValueError(f"start must be one row of {n} velocity indices in [0, {len(V)}), "
                         f"got a {start.dtype} array of shape {start.shape}")
    return np.broadcast_to(start, (K, n))


def rounding_floor(K, scale):
    """64 K eps scale, the rounding of a K-step sum of terms up to scale: eps within it is 0."""
    return float(64 * K * np.finfo(float).eps * scale)


def _stencils(step, policy, reverse=False):
    """(k0, dt L, nodes, weights) of step.transition for each block of rows
    policy[k0:], last block first if reverse.  A block's nodes and weights
    together are no larger than the step's (N, nV) candidates, nor than a
    (K + 1, N) path.  A row held at every step (zero row stride, as
    stretched_start gives) has its transition built once; each block gets
    views of it and weights of its own, which push and pull overwrite."""
    K = len(policy)
    block = max(1, min(len(step.grid.velocities), K + 1) >> (step.grid.dim + 1))
    starts = range(0, K, block)
    held = step.transition(policy[:1]) if K > 1 and policy.strides[0] == 0 else None
    for k0 in reversed(starts) if reverse else starts:
        if held is None:
            yield k0, *step.transition(policy[k0:k0 + block])
        else:
            costs, nodes, weights = (np.broadcast_to(a, (min(block, K - k0),) + a.shape[1:])
                                     for a in held)
            yield k0, costs, nodes, weights.copy()


def push(step, policy, m0, uT):
    """(path, A): m0 pushed through the (K, N) policy table by the step's transpose.

    path[k + 1](j) = sum_i path[k](i) p_ij, with p the corners and weights
    of step.transition(policy[k]), one np.bincount per step; path[0] is m0
    bit for bit.  A = sum_k <path[k], dt L of policy[k]> + <path[K], uT> is
    the running plus terminal cost of the path.
    """
    K, N = policy.shape
    path, A = np.empty((K + 1, N)), 0.0
    path[0] = m0
    for k0, costs, nodes, weights in _stencils(step, policy):
        for k, idx, w in zip(range(k0, K), nodes, weights):
            w *= path[k]
            path[k + 1] = np.bincount(idx.ravel(), w.ravel(), N)
        A += np.vdot(path[k0:k0 + len(costs)], costs)
    return path, A + np.dot(path[K], uT)


def pull(step, policy, running, terminal):
    """The (N,) expected cost from every start node of the chain that push moves.

    The adjoint of push, one backward sweep over the same stencil: o_K =
    terminal and o_k(i) = running_k(i) + sum_c w_c o_{k+1}(node_c), with the
    corners and weights of step.transition(policy[k]).  running broadcasts
    to (K, N) and terminal to (N,), so <m0, pull(...)> is the running plus
    terminal cost of m0's push.  With running dt 1[|x| > R] and terminal 0 it
    is the expected time outside B_R.
    """
    K, N = policy.shape
    running = np.broadcast_to(running, (K, N))
    o = np.broadcast_to(np.asarray(terminal, dtype=float), (N,))
    for k0, _, nodes, weights in _stencils(step, policy, reverse=True):
        for idx, w, c in zip(nodes[::-1], weights[::-1], running[k0:k0 + len(nodes)][::-1]):
            w *= o.take(idx)
            o = c + w.sum(axis=0)
    return o


def top_speed(grid, policy, path):
    """The top speed the (K, N) policy gives a node the (K + 1, N) path charges before K."""
    speeds = np.sqrt((grid.velocities ** 2).sum(axis=1))
    return float(speeds[policy[path[:-1] > SUPPORT_EPS]].max())


def line_search(slope, floor):
    """The theta in [0, 1] where slope = phi' changes sign, given phi'(0) < 0: 1 after
    one evaluation when phi'(1) <= 0, else bisection until |phi'| <= floor or
    the bracket no longer halves."""
    if slope(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while lo < (theta := 0.5 * (lo + hi)) < hi:
        s = slope(theta)
        if abs(s) <= floor:
            break
        lo, hi = (theta, hi) if s < 0.0 else (lo, theta)
    return theta


def _potential_slope(coupling, grid, W, best, dA):
    """theta -> phi'(theta) = dA + dt sum_{k<K} <F(W + theta D)_k, D_k>; best stays
    intact, and D = best - W is formed in one buffer for the mix and for the pairing."""
    buf = np.empty_like(W[:-1])

    def slope(theta):
        np.subtract(best[:-1], W[:-1], out=buf)
        np.multiply(buf, theta, out=buf)
        np.add(buf, W[:-1], out=buf)
        F = coupling.path_values(grid, buf)
        np.subtract(best[:-1], W[:-1], out=buf)
        return dA + grid.dt * np.vdot(F, buf)

    return slope


def solve_finite_horizon(L, coupling, m0, uf, grid, T, tol=1e-4, start=None, step=None):
    """Fixed point of the best-response map by fictitious play (module docstring).

    Stops once eps <= max(tol, rounding_floor(K, max |u| + max |dt L|)), so
    tol = 0 ends too, or after MAX_ITERS iterations, unconverged; max |dt L|
    covers the dt L folded into the departure product.  W_0 is m0 pushed
    through stretched_start(start, step, K): start is one (N,) row held at
    every step, the stationary feedback ErgodicSolution.policy, or None.
    step is the BellmanStep of L on grid, built here when None; the CLI
    passes the one its stationary solve used.  m_path(0) is m0 bit for bit
    and u ends at the terminal datum exactly.
    """
    if not isinstance(uf, TerminalDatum):
        raise TypeError("uf must be a TerminalDatum")
    uT = uf.validate(grid)  # once: every backward solve starts from this row

    K = grid.time_steps(T)
    step = BellmanStep(L, grid) if step is None else step  # every backward solve and push
    W, A = push(step, stretched_start(start, step, K), m0.weights, uT)
    history = []
    while True:
        t0 = time.perf_counter()
        F = coupling.path_values(grid, W)
        vf = solve_backward(step, F, uT, T)
        coupled = grid.dt * np.vdot(W[:-1], F[:-1])
        del F  # not alive across the push; the line search evaluates its own
        t1 = time.perf_counter()
        best, A_best = push(step, vf.policy, m0.weights, uT)
        value = np.dot(vf.values[0], m0.weights)
        gap = float(A + coupled - value)
        floor = rounding_floor(K, max(vf.values.max(), -vf.values.min()) + step.dtL_max)
        t2 = time.perf_counter()
        lo = sliced_d1(grid, best, W)
        t3 = time.perf_counter()
        converged = gap <= max(tol, floor)
        theta = None
        if not converged and len(history) + 1 < MAX_ITERS:
            del vf  # the next backward solve replaces it: not alive across the line search
            dA = A_best - A
            theta = line_search(_potential_slope(coupling, grid, W, best, dA), floor)
            if theta == 1.0:  # the pushed best response, bit for bit
                W, A = best, A_best
            else:
                best -= W  # the direction D, in place
                best *= theta
                W += best
                A += theta * dA
        del best  # not alive across the next backward solve
        t4 = time.perf_counter()
        history.append({"gap": gap, "gap_lo": lo, "theta": theta, "floor": floor,
                        "backward_s": t1 - t0, "forward_s": t2 - t1 + t4 - t3,
                        "d1_s": t3 - t2})
        if theta is None:
            break

    path = MeasurePath(grid, vf.times, W)
    diagnostics = {
        "measured_R1": float(max(grid.radii()[(W > SUPPORT_EPS).any(axis=0)].max(), 0.0)),
        "max_speed": top_speed(grid, vf.policy, W),
        "lipschitz_B2": lipschitz_estimate(vf, 2.0),
        "time_lipschitz": time_lipschitz_estimate(vf),
        "mass_drift": float(np.abs(W.sum(axis=1) - 1.0).max()),
        "path_cost": float(A),
    }
    return MFGSolution(vf, path, converged, history, diagnostics)


# ---------------------------------------------------------------------------
# weak-form residual of the continuity equation


class SpaceTimeBump:
    """C-infinity bump psi(t, x), compactly supported in space-time.

    psi is the product over the coordinates of z = (t, x_1, ..., x_n) of
    b((z_d - c_d) / r_d), b(s) = exp(1 - 1 / (1 - s^2)) on |s| < 1 and 0
    outside; time is coordinate 0, with center t_center and radius t_radius,
    and every space axis has center x_center and radius x_radius.  x holds
    (..., n) points and t broadcasts against their leading axes; the spatial
    gradient dx has the shape of x.
    """

    def __init__(self, t_center, t_radius, x_center, x_radius, dim=1):
        xc = np.broadcast_to(np.asarray(x_center, dtype=float), (dim,))
        self.center = np.concatenate(([float(t_center)], xc))
        self.radius = np.array([float(t_radius)] + [float(x_radius)] * dim)
        self.dim = dim

    def _factors(self, t, x):
        """b(s_d) and d/dz_d of it, per coordinate d of z = (t, x) on the last axis."""
        x = np.asarray(x, dtype=float)
        z = np.empty(np.broadcast_shapes(np.shape(t), x.shape[:-1]) + (self.dim + 1,))
        z[..., 0] = t
        z[..., 1:] = x
        s = (z - self.center) / self.radius
        inside = np.abs(s) < 1.0
        q = np.where(inside, 1.0 - s**2, 1.0)
        b = np.where(inside, np.exp(1.0 - 1.0 / q), 0.0)
        return b, b * (-2.0 * s / q**2) / self.radius

    def eval(self, t, x):
        return self._factors(t, x)[0].prod(axis=-1)

    def dx(self, t, x):
        b, db = self._factors(t, x)
        # row d of the product differentiates the factor of x_d only
        one_hot = np.eye(self.dim + 1, dtype=bool)[1:]
        return np.where(one_hot, db[..., None, :], b[..., None, :]).prod(axis=-1)


def default_test_functions(grid, T):
    """Five bumps staggered over (0, T) x interior of the box."""
    out = []
    count = 5
    mid = [(a + b) / 2 for a, b in zip(grid.lo, grid.hi)]
    halfwidth = min(b - a for a, b in zip(grid.lo, grid.hi)) / 2
    for j in range(count):
        tc = T * (j + 1.0) / (count + 1.0)
        tr = T * 0.9 / (count + 1.0) + 0.25 * T / count
        xr = halfwidth * (0.55 + 0.08 * (j % 3))
        out.append(SpaceTimeBump(tc, min(tr, tc * 0.999, (T - tc) * 0.999),
                                 mid, xr, grid.dim))
    return out


def kfp_residual(solution, test_functions=None):
    """Weak residual of the continuity equation along the solved pair.

    For each test function psi the discrete transport identity

        sum_k sum_nodes m_k [psi(t_{k+1}) - psi(t_k) + dt <D psi(t_k), v*>]
            + boundary terms

    should vanish; the boundary terms use m(0) and m(T) and cancel exactly
    for psi compactly supported in (0, T).  The time difference of psi, not
    dt d_t psi, makes the sum telescope, so a path that does not move reads 0
    up to rounding.  v* is the stored policy's velocity at the nodes, and the
    sum runs over steps k < K and the nodes that m charges at any of them, in
    one array expression per psi.  Returns the max absolute residual over the
    dictionary.
    """
    path = solution.m_path
    g = path.grid
    T = float(path.times[-1])
    fns = test_functions or default_test_functions(g, T)
    K = len(path.times) - 1
    charged = (path.weights[:K] > SUPPORT_EPS).any(axis=0)
    w = path.weights[:K, charged]  # (K, S)
    pts = g.points[charged]  # (S, n)
    vstar = g.velocities[solution.u.policy[:, charged]]  # (K, S, n)
    t = path.times[:, None]
    worst = 0.0
    for psi in fns:
        integrand = np.diff(psi.eval(t, pts), axis=0) + g.dt * (
            psi.dx(t[:K], pts) * vstar).sum(axis=-1)
        acc = float((w * integrand).sum())
        bdry = float(np.dot(path.weights[0], psi.eval(0.0, g.points))) - float(
            np.dot(path.weights[K], psi.eval(T, g.points))
        )
        worst = max(worst, abs(acc + bdry))
    return worst


# ---------------------------------------------------------------------------
# space-time energy pairing


def energy_estimate(solution, coupling, m_bar, R):
    """Space-time pairing of the coupling against the stationary measure.

        int_0^T int_{B_R} (F(x, m(t)) - F(x, m_bar)) d(m(t) - m_bar) dt

    Returns (total, per-time integrand array).  For monotone couplings the
    integrand is nonnegative up to float error.
    """
    path = solution.m_path
    g = path.grid
    mask = g.ball_mask(R)
    Fbar = coupling.values_on(g, m_bar)
    F = coupling.path_values(g, path.weights)
    dW = path.weights - m_bar.weights[None, :]
    dF = F - Fbar[None, :]
    integrand = (dF[:, mask] * dW[:, mask]).sum(axis=1)
    dt = g.dt
    total = float(integrand[:-1].sum() * dt)
    return total, integrand
