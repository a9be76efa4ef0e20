"""Finite-horizon mean field game solver.

Fictitious play on the measure path W_k: solve the backward HJ equation
against W_k, push the initial measure through the optimal flow to get the
best response BR(W_k), and stop once the best-response gap
gap_k = sup_t d_1(BR(W_k)(t), W_k(t)) is at most the tolerance.  The pair
returned is (u_k, W_k), the value that answers W_k and W_k itself, so its
gap is the one certified.  Otherwise W_{k+1} = (1 - theta_k) W_k +
theta_k BR(W_k): the default schedule takes Picard steps (theta = 1) while
the gap falls and, from the first iteration whose gap does not, the 1/(k+1)
averaging of fictitious play, which has a convergence proof (Cardaliaguet &
Hadikhanloo, ESAIM:COCV 2017) where Picard iteration can cycle.  Failure to
converge is a flag, not an exception; broken standing assumptions raise
before any iteration runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionFailure
from .hjb import TerminalDatum, lipschitz_estimate, solve_backward, time_lipschitz_estimate
from .measure import GridMeasure, MeasurePath, sup_d1
from .model import check_F4_gap, check_strict_tonelli
from .transport import measure_path, trace_optimal_flow

MAX_ITERS = 60  # fictitious-play iterations before giving up unconverged
PICARD_FIRST = "picard-first"


@dataclass
class MFGParams:
    tol: float = 1e-4
    averaging: object = PICARD_FIRST  # or a fixed theta in (0, 1]
    check_assumptions: bool = True

    def theta(self, gaps):
        """Weight of BR(W_k) in W_{k+1}, given the gaps of iterations 0..k.

        PICARD_FIRST gives 1 while each gap is below the one before it, and
        1/(k+1) from the first gap that is not, for the rest of the solve.
        A fixed theta applies from k = 1: the first update always replaces
        the initial guess.
        """
        k = len(gaps) - 1
        if self.averaging == PICARD_FIRST:
            falling = all(b < a for a, b in zip(gaps, gaps[1:]))
            return 1.0 if falling else 1.0 / (k + 1.0)
        th = float(self.averaging)
        if not 0 < th <= 1:
            raise ValueError("fixed averaging weight must lie in (0, 1]")
        return th if k > 0 else 1.0


@dataclass
class MFGSolution:
    """The returned pair (u, m_path), the best response to m_path, and the run.

    history holds one dict per iteration k: "theta" (the schedule's weight
    of BR(W_k), unused on the iteration that stops), "gap", and the seconds
    spent in "backward_s" (coupling along W_k plus the backward solve),
    "forward_s" (flow trace plus deposit) and "d1_s" (the gap).
    """

    u: object  # ValueField
    m_path: MeasurePath
    bundle: object  # optimal trajectories against m_path
    converged: bool
    history: list
    diagnostics: dict = field(default_factory=dict)

    @property
    def iterations(self):
        return len(self.history)

    @property
    def residuals(self):
        """Best-response gap of each iteration; the last one is m_path's."""
        return [h["gap"] for h in self.history]


def default_probes(coupling, grid):
    """Probe measures living on K0: corner/center diracs plus a uniform."""
    probes = []
    mask = coupling.K0_mask(grid)
    idx = np.flatnonzero(mask)
    for i in (idx[0], idx[len(idx) // 2], idx[-1]):
        w = np.zeros(grid.n_points)
        w[i] = 1.0
        probes.append(GridMeasure(grid, w))
    probes.append(GridMeasure.uniform_on(grid, coupling.K0_lo, coupling.K0_hi))
    return probes


def _check_standing_assumptions(L, coupling, grid, m0, uf):
    rep = check_strict_tonelli(L, grid)
    if not rep.passed:
        raise AssumptionFailure(f"Tonelli bounds failed: {rep.violations[:3]}")
    coupling.validate_geometry(grid)
    check_F4_gap(coupling, L, grid, default_probes(coupling, grid))
    if not coupling.K0_mask(grid)[m0.support()].all():
        raise AssumptionFailure("initial measure charges nodes outside K0")
    uf.validate(grid)


def solve_finite_horizon(L, coupling, m0, uf, grid, T, params=None):
    """Fixed point of the best-response map by fictitious play.

    Iteration k measures gap_k = sup_d1(BR(W_k), W_k), where BR(W_k) is the
    measure path of the optimal flow against W_k, and stops when gap_k <=
    params.tol.  It returns (u_k, W_k) with the flag, the history and
    diagnostics, so residuals[-1] is the gap of the returned path; past
    MAX_ITERS it returns the last pair unconverged.  The step to W_{k+1} is
    set by params.theta (module docstring).  m_path(0) equals m0 exactly
    and the value table ends at the terminal datum exactly.
    """
    params = params or MFGParams()
    if not isinstance(uf, TerminalDatum):
        raise TypeError("uf must be a TerminalDatum")
    if params.check_assumptions:
        _check_standing_assumptions(L, coupling, grid, m0, uf)

    K = grid.time_steps(T)
    f_nodes = None
    if coupling.separable is not None:
        f_nodes = coupling.separable[0](grid.points)

    W = np.tile(m0.weights, (K + 1, 1))
    gaps, history = [], []
    while True:
        t0 = time.perf_counter()
        F = coupling.path_values(grid, W, f_nodes)
        vf = solve_backward(L, F, uf, grid, T)
        t1 = time.perf_counter()
        bundle = trace_optimal_flow(vf, m0)
        best = measure_path(bundle).weights
        t2 = time.perf_counter()
        gaps.append(sup_d1(grid, best, W))
        t3 = time.perf_counter()
        theta = params.theta(gaps)
        history.append({"theta": theta, "gap": gaps[-1], "backward_s": t1 - t0,
                        "forward_s": t2 - t1, "d1_s": t3 - t2})
        if gaps[-1] <= params.tol or len(gaps) == MAX_ITERS:
            break
        W = (1.0 - theta) * W + theta * best
    converged = gaps[-1] <= params.tol

    path = MeasurePath(grid, vf.times, W, validate=False)
    radii = grid.radii()
    sup_mask = W > 1e-15
    measured_R1 = float(max(radii[sup_mask.any(axis=0)].max(), 0.0))
    diagnostics = {
        "measured_R1": measured_R1,
        "max_speed": bundle.max_speed(),
        "lipschitz_B2": lipschitz_estimate(vf, 2.0),
        "time_lipschitz": time_lipschitz_estimate(vf),
        "mass_drift": float(np.abs(W.sum(axis=1) - 1.0).max()),
    }
    return MFGSolution(vf, path, bundle, converged, history, diagnostics)


# ---------------------------------------------------------------------------
# weak-form residual of the continuity equation


class SpaceTimeBump:
    """C-infinity bump psi(t, x) = chi(t) * phi(x), compactly supported.

    phi is the product of one-dimensional bumps over the axes; x has the
    shape of grid points, and so does the spatial gradient dx.
    """

    def __init__(self, t_center, t_radius, x_center, x_radius, dim=1):
        self.tc, self.tr = float(t_center), float(t_radius)
        self.xc = np.atleast_1d(np.asarray(x_center, dtype=float))
        self.xr = float(x_radius)
        self.dim = dim

    @staticmethod
    def _bump(s):
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out

    @staticmethod
    def _bump_prime(s):
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - si**2)) * (-2.0 * si / (1.0 - si**2) ** 2)
        return out

    def _xi(self, x):
        """Scaled offsets from the center, one column per axis."""
        return ((np.asarray(x, dtype=float) - self.xc) / self.xr).reshape(-1, self.dim)

    def _time(self, t, bump):
        return bump(np.asarray((t - self.tc) / self.tr, dtype=float))

    def _product(self, lead, x, deriv_axis=None):
        """lead times phi(x), with the bump along deriv_axis (if any) differentiated."""
        xi = self._xi(x)
        for d in range(self.dim):
            if d == deriv_axis:
                lead = lead * (self._bump_prime(xi[:, d]) / self.xr)
            else:
                lead = lead * self._bump(xi[:, d])
        return lead

    def eval(self, t, x):
        return self._product(self._time(t, self._bump), x)

    def dt(self, t, x):
        return self._product(self._time(t, self._bump_prime) / self.tr, x)

    def dx(self, t, x):
        grad = np.stack([self._product(1.0, x, d) for d in range(self.dim)], axis=-1)
        return (self._time(t, self._bump) * grad).reshape(np.shape(x))


def default_test_functions(grid, T):
    """Five bumps staggered over (0, T) x interior of the box."""
    out = []
    count = 5
    mid = [(a + b) / 2 for a, b in zip(grid.lo, grid.hi)]
    halfwidth = min(b - a for a, b in zip(grid.lo, grid.hi)) / 2
    for j in range(count):
        tc = T * (j + 1.0) / (count + 1.0)
        tr = T * 0.9 / (count + 1.0) + 0.25 * T / count
        tr = min(tr, 0.49 * T)
        xr = halfwidth * (0.55 + 0.08 * (j % 3))
        out.append(SpaceTimeBump(tc, min(tr, tc * 0.999, (T - tc) * 0.999),
                                 mid, xr, grid.dim))
    return out


def kfp_residual(solution, test_functions=None):
    """Weak residual of the continuity equation along the solved pair.

    For each test function psi the discrete transport identity

        sum_k dt sum_nodes m_k [d_t psi + <D psi, v*>] + boundary terms

    should vanish; the boundary terms use m(0) and m(T) and cancel exactly
    for psi compactly supported in (0, T).  v* is the stored feedback.
    Returns the max absolute residual over the dictionary.
    """
    path = solution.m_path
    vf = solution.u
    g = path.grid
    dt = g.dt
    T = float(path.times[-1])
    fns = test_functions or default_test_functions(g, T)
    K = len(path.times) - 1
    worst = 0.0
    for psi in fns:
        acc = 0.0
        for k in range(K):
            t = float(path.times[k])
            w = path.weights[k]
            sup = w > 1e-15
            if not sup.any():
                continue
            pts = g.points[sup]
            vstar = vf.velocity_at(k, pts)
            dpsi_t = psi.dt(t, pts)
            dpsi_x = psi.dx(t, pts)
            integrand = dpsi_t + (dpsi_x * vstar).reshape(len(pts), -1).sum(axis=1)
            acc += dt * float(np.dot(w[sup], integrand))
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
