"""Backward Hamilton-Jacobi solver on the box.

The value function of

    u(t, x) = inf over curves from (t, x) of
              int_t^T [L(xi, xi') + F(xi, s)] ds + u_f(xi(T))

is computed by semi-Lagrangian dynamic programming: at each step the
velocity is chosen from the grid, the continuation value interpolated
multilinearly, and the minimizing velocity's index stored as the policy.
Interpolation clamps to the box, which encodes state constraints at the
(remote) boundary.

The shift dt * v / dx of a departure point x + dt v is the same at every
node, so each axis of the interpolation is one small (W, nv) weight matrix
applied to a sliding window of the edge-padded value array (a shift-invariant
stencil, see Falcone & Ferretti, Semi-Lagrangian Approximation Schemes for
Linear and Hamilton-Jacobi Equations, SIAM 2013).  Edge padding reproduces
the clamp to the box.  A step is one small matrix product per axis plus the
precomputed dt * L, a minimization over velocities, and dt * F(x, t_k) added
afterwards, which is exact because F does not depend on v.  A row of the last
product is a node and every velocity index but the last.  When dt * L splits
exactly as r(row) + b(v_last), in any dimension, that product returns it too
and the step makes no pass of its own to add it: a kinetic L in 1-D (r = 0)
or 2-D, or one with a potential whose split rounds exactly.  Any other table
is added after the product (_cost_split, _departure_step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MinimizerOnBoundary, NotLipschitz
from .model import interp_grid, write_node_table


@dataclass
class TerminalDatum:
    """Final cost u_f with declared Lipschitz constant and lower bound -c0.

    eval maps (N, n) points to their N values.
    """

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
    return TerminalDatum(lambda pts: np.zeros(np.shape(pts)[:-1]), 0.0, 0.0)


def _grid_lipschitz(grid, vals, mask=None):
    """Max absolute slope over grid edges of node rows (..., N), optionally within a node mask."""
    vm = np.reshape(vals, (-1,) + grid.nodes)
    mk = None if mask is None else np.reshape(mask, grid.nodes)
    best = 0.0
    for d, dx in enumerate(grid.dx):
        va = np.moveaxis(vm, d + 1, 1)
        slopes = np.abs(va[:, 1:] - va[:, :-1]) / dx
        if mk is not None:
            ma = np.moveaxis(mk, d, 0)
            slopes = slopes[:, ma[:-1] & ma[1:]]
        if slopes.size:
            best = max(best, float(slopes.max()))
    return best


@dataclass
class ValueField:
    """Space-time value table with the stored optimal policy.

    values has shape (K+1, N); policy has shape (K, N) (no minimization
    happens at the final time) and holds the index into grid.velocities of
    the velocity chosen at every node.
    """

    grid: object
    times: np.ndarray
    values: np.ndarray
    policy: np.ndarray

    def velocity_at(self, k, pts):
        """Velocity of step k < K at (..., n) points, multilinear in space; shaped like pts."""
        return interp_grid(self.grid, self.grid.velocities.take(self.policy[k], axis=0), pts)

    def to_csv(self, path):
        write_node_table(path, self.grid, "u", self.values, self.times)


def _as_path_values(F_path, grid, K):
    """The coupling term as read-only (K+1, N) rows: None is zero, one row holds at all times."""
    F = np.zeros(grid.n_points) if F_path is None else np.asarray(F_path, dtype=float)
    if F.shape == (grid.n_points,):
        return np.broadcast_to(F, (K + 1, grid.n_points))
    if F.shape != (K + 1, grid.n_points):
        raise ValueError(f"F_path shape {F.shape} does not match "
                         f"(K+1, N) = {(K + 1, grid.n_points)}")
    return F


def _shift_table(grid):
    """Per axis, floor m_j and fraction a_j of dt v_j / dx: x + dt v_j is a_j past node i + m_j."""
    shifts = [grid.dt * grid.v_axis / dx for dx in grid.dx]
    return [(np.floor(s).astype(int), s - np.floor(s)) for s in shifts]


def _cost_split(dtL, nv):
    """(r, b) with dtL.reshape(-1, nv) == r[:, None] + b bit for bit, or None.

    A row of the reshaped table is a node and every velocity index but the
    last (the rows of _departure_step's last product).  b is its first row
    and r its first column less the corner, so r is all zero exactly when
    every row is b, as for an L of v alone in 1-D; that case costs one
    comparison of the table with b.  Otherwise the check runs column by
    column, so it allocates no second (N, nV) float table.
    """
    costs = dtL.reshape(-1, nv)
    b, r = costs[0].copy(), costs[:, 0] - costs[0, 0]  # copies: dtL may be dropped
    if not r.any():
        exact = (costs == b).all()
    else:
        exact = all(np.array_equal(r + b[c], costs[:, c]) for c in range(nv))
    return (r, b) if exact else None


def _departure_step(grid, shifts, cost=None):
    """Function u -> (N, nV) array of Interp[u](grid.points[i] + dt * velocities[j])
    plus dt L(i, j): cost is None (adds nothing), a split (r, b) of dt L
    (_cost_split) folded into the last product, or an (N, nV) table added
    after it.

    Per axis d, with (m, a) its entry of shifts, a (W_d, nv) matrix puts 1 - a_j
    at row m_j - min m and a_j below it, W_d = max m - min m + 2.  Stage d
    contracts axis d of the edge-padded values with it and appends the velocity
    axis, so the last stage is node-major with row-major velocities: a row of
    its product is a node and every velocity index but the last, and a split
    reads dt L(row, v_last) = r(row) + b(v_last).  The fold puts b under the
    last weight matrix as one more row and gives that stage's window copy a
    column of ones; when r varies (an L of x, or a 2-D kinetic L) the matrix
    gets a row of ones too and the copy a column holding r.  Both columns are
    filled here, once, so the product returns interpolation plus dt L with no
    pass of its own.  The fold sums in another order than interpolation plus
    the table, by about eps * (max |u| + max |dt L|) at most.
    Buffers are allocated once: each call overwrites the array the previous
    call returned.
    """
    nv = grid.v_nodes
    r, b = cost if isinstance(cost, tuple) else (None, None)
    folds = [] if b is None else [b] if not r.any() else [b, np.ones(nv)]
    weights, cells = [], []
    for n, (m, a) in zip(grid.nodes, shifts):
        row = m - m.min()
        w = np.zeros((row.max() + 2, nv))
        w[row, np.arange(nv)] = 1 - a
        w[row + 1, np.arange(nv)] = a
        weights.append(w)
        # node of each padded cell, -min m below the axis and max m + 1 above it
        cells.append(np.clip(np.arange(m.min(), n + m.max() + 1), 0, n - 1))
    source = np.ravel_multi_index(np.ix_(*cells), grid.nodes)  # edge padding = clamp
    padded = out = np.empty(source.shape)
    stages = []
    for d, w in enumerate(weights):
        win = sliding_window_view(out, len(w), axis=d)
        width = win.shape[-1]
        if d == grid.dim - 1:
            w = np.vstack([w, *folds])  # meets the columns 1 and r: + b + r
        rows = np.empty(win.shape[:-1] + (len(w),))  # contiguous windows, a GEMM operand
        rows[..., width:] = 1  # the column of ones, if any
        if len(folds) == 2 and d == grid.dim - 1:
            rows[..., width + 1] = r.reshape(win.shape[:-1])  # the column of r
        out = np.empty(win.shape[:-1] + (nv,))
        stages.append((win, rows[..., :width], rows.reshape(-1, len(w)), w,
                       out.reshape(-1, nv)))
    cand = out.reshape(grid.n_points, -1)
    add = None if b is not None else cost

    def step(u):
        np.take(u, source, out=padded)
        for win, dest, rows, w, res in stages:
            np.copyto(dest, win)
            np.matmul(rows, w, out=res)
        if add is not None:
            np.add(cand, add, out=cand)
        return cand

    return step


class BellmanStep:
    """The one-step Bellman map of L on a grid, built once per solve.

    step(u, F) -> (T u, policy), where T u = min over grid velocities v of
    dt L(x, v) + Interp[u](x + dt v), plus dt F (module docstring), and policy
    holds the argmin velocity index per node; ties go to the lowest index.  The
    step checks nothing: each solve passes the policies it keeps to check_edge
    once.  Building it evaluates the (N, nV) table of dt L(x, v), and shifts,
    the one stencil of every x + dt v that the step and transition read
    (_shift_table), and allocates the departure buffers every call reuses.
    The departure product returns Interp[u] + dt L (_departure_step).  When
    the table splits exactly as r(row) + b(v_last) (_cost_split) it is folded
    into the last product's weights, and the step keeps split = (r, b) and
    dtL None: transition reads r + b, bit for bit the table's entry.
    Otherwise split is None and the step keeps dtL, added after the product.
    """

    def __init__(self, L, grid):
        self.grid = grid
        V = grid.velocities
        # node-major (N, nV): the argmin over velocities reads contiguous rows
        dtL = np.asarray(L.eval(grid.points[:, None], V[None]), dtype=float)
        dtL *= grid.dt  # in place: no second (N, nV) table
        self.split = _cost_split(dtL, grid.v_nodes)
        self.dtL = None if self.split else dtL
        del dtL  # a folded table is gone before the departure buffers are made
        self.shifts = _shift_table(grid)
        self._departure = _departure_step(grid, self.shifts, self.split or self.dtL)
        self._edge = (np.abs(V) == grid.v_max).any(axis=1)  # linspace ends exactly
        self._rows = np.arange(grid.n_points)
        self._axis_nodes = np.unravel_index(self._rows, grid.nodes)  # each node's index per axis
        self._row_starts = self._rows * len(V)  # flat index of each node's first candidate

    def transition(self, policy):
        """(dt L, nodes, weights) of rows (..., N) of velocity indices: dt L is
        (..., N), and nodes and weights (..., 2^n, N) are the corners of each
        departure cell, read off shifts and clamped as the edge padding clamps,
        and their weights.  Each row's are its own transition's, bit for bit."""
        g, N = self.grid, self.grid.n_points
        js = np.unravel_index(policy, (g.v_nodes,) * g.dim)
        if self.split is None:
            cost = self.dtL.ravel().take(self._row_starts + policy)
        else:
            r, b = self.split
            row = self._rows  # the product row: the node, then every velocity index but the last
            for j in js[:-1]:
                row = row * g.v_nodes + j
            cost = r.take(row) + b.take(js[-1])
        lead = np.shape(policy)[:-1]
        nodes = weights = None
        for i, j, n, (m, a) in zip(self._axis_nodes, js, g.nodes, self.shifts):
            corner, w = np.empty(lead + (2, N), dtype=np.intp), np.empty(lead + (2, N))
            corner[..., 0, :], w[..., 1, :] = i + m.take(j), a.take(j)
            np.add(corner[..., 0, :], 1, out=corner[..., 1, :])
            np.clip(corner, 0, n - 1, out=corner)
            np.subtract(1, w[..., 1, :], out=w[..., 0, :])
            if nodes is not None:  # the new corner axis goes outside: axis 0 varies fastest
                corner = (nodes[..., None, :, :] * n + corner[..., None, :]).reshape(lead + (-1, N))
                w = (weights[..., None, :, :] * w[..., None, :]).reshape(lead + (-1, N))
            nodes, weights = corner, w
        return cost, nodes, weights

    def __call__(self, u, F):
        cand = self._departure(u)
        policy = cand.argmin(axis=1)
        return cand.ravel().take(self._row_starts + policy) + self.grid.dt * F, policy

    def check_edge(self, policy, times):
        """MinimizerOnBoundary if policy, one row of velocity indices per entry of
        times, picks a velocity on the grid edge: it names the latest such time
        and the first such node in that row."""
        bad = np.take(self._edge, policy)
        if bad.any():
            k = np.argmax(np.where(bad.any(axis=1), times, -np.inf))
            raise MinimizerOnBoundary(times[k], self.grid.points[bad[k].argmax()])


def solve_backward(step, F_path, uf, T, check_boundary=True):
    """Dynamic-programming solve of the backward HJ equation on [0, T].

    u(t_k, x) = min over grid velocities v of
        dt * [L(x, v) + F(x, t_k)] + Interp[u(t_{k+1})](x + dt v),

    one call of step, the BellmanStep of L on its grid, per time step.  The
    argmins fill one (K, N) policy table of uint8 (up to 256 velocities) or
    wider indices, which the returned ValueField holds.
    With check_boundary that table is checked once, after the last step:
    MinimizerOnBoundary (BellmanStep.check_edge) names the latest time with
    an edge velocity, a sign that v_max is too small for the data.
    """
    grid = step.grid
    K = grid.time_steps(T)
    times = np.arange(K + 1) * grid.dt
    F = _as_path_values(F_path, grid, K)
    uT = uf.validate(grid) if isinstance(uf, TerminalDatum) else np.asarray(uf, dtype=float)
    values = np.empty((K + 1, grid.n_points))
    policy = np.empty((K, grid.n_points), dtype=np.min_scalar_type(len(grid.velocities) - 1))
    values[K] = uT
    for k in range(K - 1, -1, -1):
        values[k], policy[k] = step(values[k + 1], F[k])
    if check_boundary:
        step.check_edge(policy, times[:K])
    return ValueField(grid, times, values, policy)


def hopf_lax_oracle(uf, t, x, T, grid):
    """Direct Hopf-Lax value for L = |v|^2/2 and no coupling term.

    inf over grid nodes y of |x - y|^2 / (2 (T - t)) + u_f(y) at an (n,)
    point x, in 1-D refined by one quadratic fit around the discrete
    minimizer.  Independent of the dynamic-programming route, so it serves
    as an oracle for it.  Raises ValueError when x is not one (n,) point.
    """
    x = grid.as_point(x)
    vals = uf.values_on(grid) if isinstance(uf, TerminalDatum) else np.asarray(uf, dtype=float)
    if T <= t:
        return float(interp_grid(grid, vals, x))
    tau = T - t
    obj = ((x - grid.points) ** 2).sum(axis=1) / (2 * tau) + vals
    j = int(np.argmin(obj))
    if grid.dim == 1 and 0 < j < grid.n_points - 1:
        ys = grid.axes[0][j - 1 : j + 2]
        os_ = obj[j - 1 : j + 2]
        denom = os_[0] - 2 * os_[1] + os_[2]
        if denom > 1e-300:
            ystar = ys[1] - 0.5 * (ys[1] - ys[0]) * (os_[2] - os_[0]) / denom
            cand = float(((x - ystar) ** 2).sum() / (2 * tau)
                         + interp_grid(grid, vals, np.array([ystar])))
            return float(min(obj[j], cand))
    return float(obj[j])


def lipschitz_estimate(vf, R):
    """Largest grid-edge slope of u over all times, restricted to B_R."""
    return _grid_lipschitz(vf.grid, vf.values, vf.grid.ball_mask(R))


def time_lipschitz_estimate(vf):
    """Max |u(t+dt) - u(t)| / dt over the table; reported, never asserted."""
    du = np.abs(np.diff(vf.values, axis=0)).max()
    return float(du / vf.grid.dt)
