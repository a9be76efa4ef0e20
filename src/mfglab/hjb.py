"""Backward Hamilton-Jacobi solver on the box.

The value function of

    u(t, x) = inf over curves from (t, x) of
              int_t^T [L(xi, xi') + F(xi, s)] ds + u_f(xi(T))

is computed by semi-Lagrangian dynamic programming: at each step the
velocity is chosen from the grid, the continuation value interpolated
multilinearly, and the minimizing velocity stored as the optimal feedback.
Interpolation clamps to the box, which encodes state constraints at the
(remote) boundary.

The departure points x + dt v depend only on the grid, so their
interpolation is built once per solver run as a sparse operator
(``departure_operator``; N * nV rows of 2^n weights, N * nV * 2^n * 12 bytes:
1.5 MB on RI-1, 8.7 MB on a 25x25 grid with 17^2 velocities).  Fictitious
play and the weak-KAM horizon doubling build it before their loops and hand
it to every ``solve_backward`` call, so it is freed when they return.  A
step is then one sparse product plus the precomputed dt * L, a minimization
over velocities, and dt * F(x, t_k) added afterwards, which is exact because
F does not depend on v.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import MinimizerOnBoundary, NotLipschitz
from .model import interp_grid, interp_operator


@dataclass
class TerminalDatum:
    """Final cost u_f with declared Lipschitz constant and lower bound -c0."""

    eval: callable
    lip: float
    c0: float

    def values_on(self, grid):
        vals = np.asarray(self.eval(grid.points), dtype=float)
        return np.broadcast_to(vals, (grid.n_points,)).copy()

    def validate(self, grid):
        vals = self.values_on(grid)
        if vals.min() < -self.c0 - 1e-12:
            raise ValueError(
                f"terminal datum dips to {vals.min():.6g} below declared -c0={-self.c0}"
            )
        lip = _grid_lipschitz(grid, vals)
        if lip > self.lip * (1 + 1e-9) + 1e-12:
            raise NotLipschitz(
                f"terminal datum has grid Lipschitz {lip:.6g} > declared {self.lip}"
            )
        return vals


def zero_terminal():
    return TerminalDatum(lambda pts: np.zeros(np.shape(pts)[0] if np.ndim(pts) else 1), 0.0, 0.0)


def _grid_lipschitz(grid, vals, mask=None):
    """Max absolute slope over grid edges (optionally within a node mask)."""
    vm = np.reshape(vals, grid.nodes)
    mk = None if mask is None else np.reshape(mask, grid.nodes)
    best = 0.0
    for d, dx in enumerate(grid.dx):
        va = np.moveaxis(vm, d, 0)
        slopes = np.abs(va[1:] - va[:-1]) / dx
        if mk is not None:
            ma = np.moveaxis(mk, d, 0)
            slopes = slopes[ma[:-1] & ma[1:]]
        if slopes.size:
            best = max(best, float(slopes.max()))
    return best


@dataclass
class ValueField:
    """Space-time value table with the stored optimal feedback.

    values has shape (K+1, N); feedback has shape (K, N) (no minimization
    happens at the final time) and holds the chosen grid velocity, or in
    2-D two stacked components with shape (K, N, 2).  Feedback rows thus
    have the shape of grid.points.
    """

    grid: object
    times: np.ndarray
    values: np.ndarray
    feedback: np.ndarray

    @property
    def T(self):
        return float(self.times[-1])

    def velocity_at(self, k, pts):
        """Feedback at arbitrary points, multilinear in space; shaped like pts."""
        k = min(k, self.feedback.shape[0] - 1)
        comps = self.feedback[k].reshape(self.grid.n_points, -1).T
        return np.stack([interp_grid(self.grid, c, pts) for c in comps],
                        axis=-1).reshape(np.shape(pts))

    def to_csv(self, path):
        names, coords = self.grid.csv_columns()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "node_index", *names, "u"])
            for t, row in zip(self.times.tolist(), self.values):
                ts = repr(t)
                w.writerows([ts, i, *c, repr(u)]
                            for i, (c, u) in enumerate(zip(coords, row.tolist())))


def _as_path_values(F_path, grid, K):
    """Normalize the coupling term to an array of node rows per time index."""
    if F_path is None:
        return np.zeros((K + 1, grid.n_points))
    if callable(F_path):
        rows = [np.broadcast_to(np.asarray(F_path(grid.points, k * grid.dt), dtype=float),
                                (grid.n_points,))
                for k in range(K + 1)]
        return np.array(rows)
    F = np.asarray(F_path, dtype=float)
    if F.shape == (grid.n_points,):
        return np.broadcast_to(F, (K + 1, grid.n_points)).copy()
    if F.shape != (K + 1, grid.n_points):
        raise ValueError(f"F_path shape {F.shape} does not match (K+1, N)")
    return F


def departure_operator(grid):
    """Sparse interpolation at the departure points x + dt v, node-major.

    Row i * nV + j interpolates at grid.points[i] + dt * velocities[j]; N * nV
    rows of 2^n corner weights, N * nV * 2^n * 12 bytes.
    """
    return interp_operator(grid, grid.points[:, None] + grid.dt * grid.velocities[None])


def solve_backward(L, F_path, uf, grid, T, check_boundary=True, operator=None):
    """Dynamic-programming solve of the backward HJ equation on [0, T].

    u(t_k, x) = min over grid velocities v of
        dt * [L(x, v) + F(x, t_k)] + Interp[u(t_{k+1})](x + dt v).

    The departure points x + dt v are the same at every step and in every
    solve on one grid, so their interpolation is one sparse operator P
    (``departure_operator(grid)``), built once per solver run: pass it as
    ``operator`` to reuse it across solves; when it is None it is built here.
    A step is ``P @ u(t_{k+1})`` plus the precomputed dt * L.  F does not
    depend on v, so dt * F is added after the minimization.

    Returns a ValueField whose feedback rows hold the minimizing velocity
    per (t_k, node); ties go to the lowest velocity index.  Raises
    MinimizerOnBoundary when a minimizer lands on the velocity-grid edge,
    signalling that v_max is too small for the data.
    """
    K = grid.time_steps(T)
    times = np.arange(K + 1) * grid.dt
    F = _as_path_values(F_path, grid, K)
    uT = uf.validate(grid) if isinstance(uf, TerminalDatum) else np.asarray(uf, dtype=float)
    N = grid.n_points
    dt = grid.dt
    V = grid.velocities
    nV = len(V)
    # node-major (N, nV): the argmin over velocities reads contiguous rows
    dtL = dt * np.asarray(L.eval(grid.points[:, None], V[None]), dtype=float)
    P = departure_operator(grid) if operator is None else operator
    edge = np.zeros(nV, dtype=bool)
    for j in np.unravel_index(np.arange(nV), (grid.v_nodes,) * grid.dim):
        edge |= (j == 0) | (j == grid.v_nodes - 1)
    values = np.empty((K + 1, N))
    feedback = np.empty((K,) + grid.points.shape)
    values[K] = uT
    arangeN = np.arange(N)
    for k in range(K - 1, -1, -1):
        cand = (P @ values[k + 1]).reshape(N, nV)
        cand += dtL
        jstar = cand.argmin(axis=1)
        if check_boundary:
            bad = edge[jstar]
            if bad.any():
                raise MinimizerOnBoundary(times[k], grid.points[bad.argmax()])
        values[k] = cand[arangeN, jstar] + dt * F[k]
        feedback[k] = V[jstar]
    return ValueField(grid, times, values, feedback)


def hopf_lax_oracle(uf, t, x, T, grid):
    """Direct Hopf-Lax value for L = |v|^2/2 and no coupling term.

    inf over grid nodes y of |x - y|^2 / (2 (T - t)) + u_f(y), refined by
    one quadratic fit around the discrete minimizer.  Independent of the
    dynamic-programming route, so it serves as an oracle for it.
    """
    if T <= t:
        vals = uf.values_on(grid) if isinstance(uf, TerminalDatum) else uf
        return float(interp_grid(grid, vals, x))
    tau = T - t
    vals = uf.values_on(grid) if isinstance(uf, TerminalDatum) else np.asarray(uf, dtype=float)
    if grid.dim == 1:
        y = grid.points
        obj = (x - y) ** 2 / (2 * tau) + vals
        j = int(np.argmin(obj))
        lo = max(j - 1, 0)
        hi = min(j + 2, len(y))
        if hi - lo == 3:
            ys = y[lo:hi]
            os_ = obj[lo:hi]
            denom = os_[0] - 2 * os_[1] + os_[2]
            if denom > 1e-300:
                ystar = ys[1] - 0.5 * (ys[1] - ys[0]) * (os_[2] - os_[0]) / denom
                cand = (x - ystar) ** 2 / (2 * tau) + float(
                    interp_grid(grid, vals, ystar)
                )
                return float(min(obj[j], cand))
        return float(obj[j])
    y = grid.points
    obj = ((x - y) ** 2).sum(axis=1) / (2 * tau) + vals
    return float(obj.min())


def gradient(vf, k):
    """Spatial gradient of the value at time index k, upwinded by feedback.

    Where the stored feedback is positive the scheme looked to the right,
    so a forward difference follows the characteristic; negative feedback
    takes the backward difference; near-zero feedback uses the central one.
    Boundary nodes take the available one-sided difference.
    """
    g = vf.grid
    um = vf.values[k].reshape(g.nodes)
    v = vf.feedback[min(k, vf.feedback.shape[0] - 1)].reshape(g.n_points, -1)
    dv = g.v_axis[1] - g.v_axis[0]
    out = np.empty((g.n_points, g.dim))
    for d, dx in enumerate(g.dx):
        ua = np.moveaxis(um, d, 0)
        diff = (ua[1:] - ua[:-1]) / dx
        fwd = np.concatenate([diff, diff[-1:]])
        bwd = np.concatenate([diff[:1], diff])
        ctr = 0.5 * (fwd + bwd)
        va = np.moveaxis(v[:, d].reshape(g.nodes), d, 0)
        sel = np.where(va > 0.5 * dv, fwd, np.where(va < -0.5 * dv, bwd, ctr))
        out[:, d] = np.moveaxis(sel, 0, d).ravel()
    return out.reshape(g.points.shape)


def lipschitz_estimate(vf, R=None):
    """Largest grid-edge slope of u over all times, restricted to B_R."""
    g = vf.grid
    mask = None if R is None else g.ball_mask(R)
    best = 0.0
    for k in range(vf.values.shape[0]):
        best = max(best, _grid_lipschitz(g, vf.values[k], mask))
    return best


def time_lipschitz_estimate(vf):
    """Max |u(t+dt) - u(t)| / dt over the table; reported, never asserted."""
    du = np.abs(np.diff(vf.values, axis=0)).max()
    return float(du / vf.grid.dt)


def hj_residual(vf, L, F_path, sample_ks=None, kink_tol=None):
    """Sup of |-du/dt + H(x, Du) - F| over smooth interior nodes.

    H is evaluated by brute-force Legendre max over the velocity grid.
    Nodes where forward and backward differences disagree by more than
    kink_tol (default 10 dx) are treated as kinks and skipped, as are box
    boundary nodes.
    """
    g = vf.grid
    K = vf.values.shape[0] - 1
    F = _as_path_values(F_path, g, K)
    if sample_ks is None:
        sample_ks = range(K)
    if g.dim != 1:
        raise NotImplementedError("residual diagnostic is 1-D")
    dx = g.dx[0]
    if kink_tol is None:
        kink_tol = 10.0 * dx
    V = g.v_axis
    Lmat = np.asarray(L.eval(g.points[None, :], V[:, None]), dtype=float)
    worst = 0.0
    for k in sample_ks:
        u = vf.values[k]
        dudt = (vf.values[k + 1] - u) / g.dt
        fwd = (u[2:] - u[1:-1]) / dx
        bwd = (u[1:-1] - u[:-2]) / dx
        smooth = np.abs(fwd - bwd) <= kink_tol
        p = 0.5 * (fwd + bwd)
        H = (p[None, :] * V[:, None] - Lmat[:, 1:-1]).max(axis=0)
        res = np.abs(-dudt[1:-1] + H - F[k][1:-1])
        if smooth.any():
            worst = max(worst, float(res[smooth].max()))
    return worst
