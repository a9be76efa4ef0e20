"""Finite-horizon mean field game solver.

Fictitious play on the measure path W_k: solve the backward HJ equation
against W_k, push the initial measure through the optimal flow to get the
best response BR(W_k), and stop once the best-response gap
gap_k = sup_t d_1(BR(W_k)(t), W_k(t)) is at most the tolerance.  Each
iteration first takes the sliced lower bound gap_lo_k <= gap_k (exact in
1-D); in 2-D the exact transport LP runs only when gap_lo_k <= tol, since
above it the iteration cannot stop.  The pair returned is (u_k, W_k), the
value that answers W_k and W_k itself, so its exact gap is the one
certified.  Otherwise W_{k+1} = (1 - theta_k) W_k + theta_k BR(W_k), with
theta_k = theta(gaps_lo), read from the bounds, which exist in every
iteration: Picard steps (theta = 1) while the bound falls and, from the
first iteration whose bound does not, the 1/(k+1) weights of fictitious
play, which have a convergence proof (Cardaliaguet & Hadikhanloo,
ESAIM:COCV 2017) where Picard iteration can cycle.  Failure to converge is
a flag, not an exception.  The solver does not check the standing
assumptions; check_standing_assumptions does, once per instance.

The first iterate W_0 is the constant path m0, or, given start (the weights
of a path solved on the same grid at a horizon of K' <= K steps), that path
stretched in the middle: with h = K' // 2, rows 0..h of start, K - K' copies
of a middle row, then rows h+1..K' of start, and row 0 set to m0.  The
middle row is row h of start unless the caller passes one; `mfg converge`
passes the stationary measure m_bar, which it solves before its ladder.  By
the turnpike (Porretta, Minimax Theory Appl. 2018) the middle of a long
horizon is near the stationary pair, so a path solved at T, stretched
through m_bar, is close to the path at 2T; solving a ladder of horizons in
increasing order, each started from the one before it, takes fewer
iterations than starting each from m0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionFailure
from .hjb import (BellmanStep, TerminalDatum, lipschitz_estimate, solve_backward,
                  time_lipschitz_estimate)
from .measure import SUPPORT_EPS, GridMeasure, MeasurePath, sliced_d1, sup_d1
from .model import check_F4_gap, check_strict_tonelli
from .transport import measure_path, trace_optimal_flow

MAX_ITERS = 60  # fictitious-play iterations before giving up unconverged


def theta(gaps):
    """Weight of BR(W_k) in W_{k+1}, given the gaps of iterations 0..k.

    1 while each gap is below the one before it, and 1/(k+1) from the first
    gap that is not, for the rest of the solve.  solve_finite_horizon feeds
    it the lower bounds gap_lo, the one sequence every iteration has.
    """
    falling = all(b < a for a, b in zip(gaps, gaps[1:]))
    return 1.0 if falling else 1.0 / len(gaps)


@dataclass
class MFGSolution:
    """The returned pair (u, m_path) and the run.

    u holds the policy that answers m_path: trace_optimal_flow(u, m0)
    traces its curves, whose top speed is diagnostics["max_speed"].
    history holds one dict per iteration k: "theta" (the schedule's weight
    of BR(W_k), read from the gap_lo values and unused on the iteration
    that stops), "gap_lo", the sliced lower bound on the best-response gap
    (computed every iteration), "gap", the exact gap, or None in 2-D where
    gap_lo already exceeded the tolerance and no LP ran (in 1-D gap equals
    gap_lo, which is exact there), and the seconds spent in "backward_s"
    (coupling along W_k plus the backward solve), "forward_s" (flow trace
    plus deposit) and "d1_s" (the bound and, where it ran, the exact gap).
    A converged solve stopped on an exact gap <= tol.
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
        """Exact best-response gap of each iteration, None where not computed.

        The last one is m_path's, exact whenever the solve converged.
        """
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


def stretched_start(start, m0, K, middle=None):
    """The first iterate of a K-step solve started from the path start.

    start holds K' + 1 rows of weights with K' <= K; with h = K' // 2 the
    result is rows 0..h of start, K - K' copies of middle (row h of start
    by default) and rows h+1..K' of start, with row 0 set to m0.
    ValueError for any other shape of start, or a middle that is not one
    row of m0's width.
    """
    start = np.asarray(start, dtype=float)
    n = m0.weights.size
    if start.ndim != 2 or start.shape[1] != n or not 1 <= len(start) <= K + 1:
        raise ValueError(f"start must hold 1 to {K + 1} rows of {n} weights, "
                         f"got shape {start.shape}")
    Kp = len(start) - 1
    h = Kp // 2
    middle = start[h] if middle is None else np.asarray(middle, dtype=float)
    if middle.shape != (n,):
        raise ValueError(f"middle must be one row of {n} weights, got shape {middle.shape}")
    tail = h + 1 + K - Kp  # the first row after the inserted ones
    W = np.empty((K + 1, n))
    W[:h + 1] = start[:h + 1]
    W[h + 1:tail] = middle
    W[tail:] = start[h + 1:]
    W[0] = m0.weights
    return W


def solve_finite_horizon(L, coupling, m0, uf, grid, T, tol=1e-4, start=None, middle=None):
    """Fixed point of the best-response map by fictitious play.

    Iteration k bounds gap_k = sup_d1(BR(W_k), W_k) from below by
    gap_lo_k = sliced_d1(BR(W_k), W_k), where BR(W_k) is the measure path of
    the optimal flow against W_k.  If gap_lo_k > tol the iteration is not
    done; otherwise gap_k is computed (in 1-D it is gap_lo_k) and the solve
    stops when gap_k <= tol.  It returns (u_k, W_k) with the flag, the
    history and diagnostics, so residuals[-1] is the exact gap of the
    returned path whenever it converged; past MAX_ITERS it returns the last
    pair unconverged.  The step to W_{k+1} has weight theta(gaps_lo)
    (module docstring).  W_0 is stretched_start(start, middle): start
    stretched through K - K' copies of middle (row h of start by default).
    Without a start W_0 is m0 at every time, whatever middle is.  m_path(0)
    equals m0 up to the rounding of the deposit's normalization and the
    value table ends at the terminal datum exactly.
    """
    if not isinstance(uf, TerminalDatum):
        raise TypeError("uf must be a TerminalDatum")
    uT = uf.validate(grid)  # once: every backward solve starts from this row

    K = grid.time_steps(T)
    step = BellmanStep(L, grid)  # once: every backward solve applies it
    if start is None:  # the constant path m0: a cold solve
        start, middle = m0.weights[None], None
    W = stretched_start(start, m0, K, middle)
    gaps_lo, history = [], []
    while True:
        t0 = time.perf_counter()
        vf = solve_backward(step, coupling.path_values(grid, W), uT, T)
        t1 = time.perf_counter()
        bundle = trace_optimal_flow(vf, m0)
        best = measure_path(bundle).weights
        t2 = time.perf_counter()
        lo = sliced_d1(grid, best, W)
        if grid.dim == 1:
            gap = lo  # the bound is exact in 1-D
        elif lo <= tol:
            gap = sup_d1(grid, best, W)
        else:
            gap = None  # gap >= lo > tol: not done, and no LP needed
        t3 = time.perf_counter()
        gaps_lo.append(lo)
        th = theta(gaps_lo)
        history.append({"theta": th, "gap_lo": lo, "gap": gap, "backward_s": t1 - t0,
                        "forward_s": t2 - t1, "d1_s": t3 - t2})
        converged = gap is not None and gap <= tol
        if converged or len(history) == MAX_ITERS:
            break
        W *= 1.0 - th
        best *= th
        W += best

    path = MeasurePath(grid, vf.times, W)
    radii = grid.radii()
    measured_R1 = float(max(radii[(W > SUPPORT_EPS).any(axis=0)].max(), 0.0))
    diagnostics = {
        "measured_R1": measured_R1,
        "max_speed": bundle.max_speed(),
        "lipschitz_B2": lipschitz_estimate(vf, 2.0),
        "time_lipschitz": time_lipschitz_estimate(vf),
        "mass_drift": float(np.abs(W.sum(axis=1) - 1.0).max()),
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
