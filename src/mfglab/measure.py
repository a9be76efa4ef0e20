"""Probability measures on the grid and the 1-Wasserstein machinery.

Measures are nonnegative node-weight vectors summing to one.  d_1 is exact:
the CDF integral in 1-D; in 2-D a transport LP that moves the positive part
of the signed difference of the two measures onto its negative part.  sup_d1
stacks the rows of two measure paths into one block-diagonal LP, so a
fictitious-play residual is one HiGHS solve however many time slices it
compares.  LP_SUPPORT_CAP bounds, per row, the number of nodes in each part
of the difference.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import (EscapedBox, NotLipschitz, SupportTooLarge, TransportLPFailed,
                     UnsupportedDimension)
from .model import cell_corners

MASS_TOL = 1e-12
SUPPORT_EPS = 1e-15
LP_SUPPORT_CAP = 4096


class GridMeasure:
    """Probability measure supported on grid nodes."""

    def __init__(self, grid, weights, validate=True):
        self.grid = grid
        self.weights = np.asarray(weights, dtype=float)
        if validate:
            self.validate()

    def validate(self):
        w = self.weights
        if w.shape != (self.grid.n_points,):
            raise ValueError("weight vector does not match the grid")
        if w.min() < -SUPPORT_EPS:
            raise ValueError(f"negative weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"mass {w.sum()!r} not 1 within {MASS_TOL}")

    # constructors -----------------------------------------------------

    @classmethod
    def dirac(cls, grid, x):
        w = np.zeros(grid.n_points)
        w[grid.nearest_node(x)] = 1.0
        return cls(grid, w)

    @classmethod
    def uniform_on(cls, grid, lo, hi):
        mask = grid.in_box(grid.points, lo, hi)
        if not mask.any():
            raise ValueError("no grid nodes inside the requested sub-box")
        w = mask.astype(float)
        return cls(grid, w / w.sum())

    # queries ----------------------------------------------------------

    def support(self):
        return np.flatnonzero(self.weights > SUPPORT_EPS)

    def support_radius(self):
        r = self.grid.radii()
        return float(r[self.support()].max())

    def integrate(self, values_or_callable):
        v = values_or_callable
        if callable(v):
            v = v(self.grid.points)
        return float(np.dot(self.weights, np.asarray(v, dtype=float)))

    def mean(self):
        return np.dot(self.weights, self.grid.points)

    def cdf(self):
        if self.grid.dim != 1:
            raise UnsupportedDimension("cdf is 1-D only")
        return np.cumsum(self.weights)

    # serialization ------------------------------------------------------

    def to_csv(self, path):
        names, coords = self.grid.csv_columns()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["node_index", *names, "weight"])
            w.writerows([i, *c, repr(x)]
                        for i, (c, x) in enumerate(zip(coords, self.weights.tolist())))

    @classmethod
    def from_csv(cls, grid, path):
        weights = np.zeros(grid.n_points)
        coords = grid.coordinates()
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            next(r)  # header
            for row in r:
                i = int(row[0])
                weights[i] = float(row[-1])
                # node coordinates must match the grid they claim to live on
                got = np.array(row[1 : 1 + grid.dim], dtype=float)
                if np.abs(got - coords[i]).max() > 1e-9:
                    raise ValueError(f"node {i} coordinate mismatch in {path}")
        return cls(grid, weights)


# ---------------------------------------------------------------------------
# Wasserstein-1


def wasserstein1(m1, m2):
    """Exact d_1 between two grid measures on the same grid (see sup_d1)."""
    if m1.grid is not m2.grid and m1.grid.describe() != m2.grid.describe():
        raise ValueError("measures live on different grids")
    return sup_d1(m1.grid, m1.weights[None], m2.weights[None])


def sup_d1(grid, rows1, rows2):
    """max over k of d_1 between weight rows rows1[k] and rows2[k].

    1-D: the integral of |CDF difference| (piecewise constant between
    nodes), on all rows at once.  2-D: one transport LP for all
    rows together (see _d1_lp), so a fictitious-play iteration makes a
    single HiGHS solve; it is exact only to HiGHS's default primal
    feasibility tolerance of 1e-7 relative to each row's mass, so a node
    holding less may be rounded away.
    """
    if grid.dim == 1:
        c = np.cumsum(rows1 - rows2, axis=1)[:, :-1]
        return float(np.abs(c).sum(axis=1).max() * grid.dx[0])
    return float(_d1_lp(grid, rows1 - rows2).max())


def _d1_lp(grid, diffs):
    """d_1 for each row of signed differences diffs[k] = mu_k - nu_k.

    By Kantorovich-Rubinstein, d_1(mu, nu) depends only on mu - nu: row k
    moves its positive part onto its negative part at Euclidean cost.  Every
    row with both parts nonempty becomes one block of a block-diagonal
    transport LP, solved by a single HiGHS call; the blocks are independent,
    so row k's optimum is the cost of its own slice of the solution.  Rows
    without positive or without negative entries (such as equal measures)
    are 0 without an LP.  Entries within SUPPORT_EPS of 0 count as neither
    part, and each part may hold at most LP_SUPPORT_CAP nodes per row.

    Each part of a row is scaled to unit mass, and the block's value is
    scaled back by the mean of the two masses.  HiGHS's primal feasibility
    tolerance (1e-7) is absolute: unscaled, it declared infeasible a row
    whose parts hold 0.0295 each, and the rounding in a difference of two
    nearly equal paths can leave the parts of a small row unequal by more
    than 1e-7 of their mass.  The value is exact only to that tolerance
    relative to the row's mass: a node holding less may be rounded away,
    which moves d_1 by up to its mass times the distance it should travel.
    """
    pts = grid.coordinates()
    out = np.zeros(len(diffs))
    blocks, costs, rows, cols, rhs = [], [], [], [], []
    nvar = ncon = 0
    for k, d in enumerate(diffs):
        src = np.flatnonzero(d > SUPPORT_EPS)
        dst = np.flatnonzero(d < -SUPPORT_EPS)
        if len(src) > LP_SUPPORT_CAP or len(dst) > LP_SUPPORT_CAP:
            raise SupportTooLarge(f"difference supports {len(src)}x{len(dst)} "
                                  f"exceed cap {LP_SUPPORT_CAP}")
        if not len(src) or not len(dst):
            continue
        p, q = len(src), len(dst)
        supply, demand = d[src], -d[dst]
        ij = np.arange(p * q)  # variable (i, j) of the block is i * q + j
        costs.append(np.sqrt(((pts[src, None] - pts[None, dst]) ** 2).sum(axis=2)).ravel())
        rows += [ncon + ij // q, ncon + p + ij % q]  # supply row i, demand row j
        cols += [nvar + ij] * 2
        rhs += [supply / supply.sum(), demand / demand.sum()]
        mass = (supply.sum() + demand.sum()) / 2
        blocks.append((k, slice(nvar, nvar + p * q), mass))
        nvar += p * q
        ncon += p + q
    if not blocks:
        return out
    cost = np.concatenate(costs)
    A = sparse.csr_matrix((np.ones(2 * nvar), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(ncon, nvar))
    res = linprog(cost, A_eq=A, b_eq=np.concatenate(rhs), bounds=(0, None), method="highs")
    if not res.success:
        raise TransportLPFailed(f"transport LP failed: {res.message}")
    for k, s, mass in blocks:
        out[k] = mass * (cost[s] @ res.x[s])
    return out


def kantorovich_potential_1d(m1, m2):
    """A 1-Lipschitz witness achieving d_1 in the dual (1-D only)."""
    g = m1.grid
    if g.dim != 1:
        raise UnsupportedDimension("potential construction is 1-D only")
    c = np.cumsum(m1.weights - m2.weights)
    phi = np.zeros(g.n_points)
    # slope -sign(CDF gap) integrates the dual; Abel summation makes the
    # pairing equal the CDF integral exactly
    steps = -np.sign(c[:-1]) * g.dx[0]
    phi[1:] = np.cumsum(steps)
    return phi


def duality_gap_check(m1, m2, witness):
    """d_1(m1, m2) - (int w dm1 - int w dm2) for a 1-Lipschitz witness.

    Raises NotLipschitz when the witness violates the grid-edge Lipschitz
    bound.  The gap is nonnegative up to float error for any valid witness.
    """
    g = m1.grid
    w = np.asarray(witness, dtype=float)
    wm = w.reshape(g.nodes)
    for d, dx in enumerate(g.dx):
        if np.max(np.abs(np.diff(wm, axis=d))) > dx * (1 + 1e-9) + 1e-12:
            raise NotLipschitz("witness exceeds slope 1 on a grid edge")
    pairing = float(np.dot(w, m1.weights - m2.weights))
    return wasserstein1(m1, m2) - pairing


# ---------------------------------------------------------------------------
# pushforward


def deposit(grid, pts, masses):
    """Area-weight the point masses onto their 2^n neighboring nodes.

    pts holds P points, shaped like grid.points rows, optionally behind
    leading batch axes; each batch row of points gets its own weight row and
    all rows share the P masses.
    """
    masses = np.asarray(masses, dtype=float)
    batch = np.shape(pts)[: np.ndim(pts) - grid.points.ndim]
    rows = math.prod(batch)
    offset = np.repeat(np.arange(rows) * grid.n_points, len(masses))
    m = np.tile(masses, rows)
    w = np.zeros(rows * grid.n_points)
    for idx, weights in cell_corners(grid, pts, clamp=False):
        wt = m
        for f in weights:
            wt = wt * f
        np.add.at(w, idx + offset, wt)
    return w.reshape(batch + (grid.n_points,))


def pushforward(m, images):
    """Image measure of m under a node map, deposited back onto the grid.

    images: array of image points aligned with m's support nodes (or a
    callable applied to the support nodes).  Mass is conserved exactly up to
    float drift <= 1e-14, which is renormalized away; anything larger is an
    error.  Images outside the box raise EscapedBox.
    """
    g = m.grid
    sup = m.support()
    pts = g.points[sup]
    if callable(images):
        img = np.asarray(images(pts), dtype=float)
    else:
        img = np.asarray(images, dtype=float)
        if img.shape[0] == g.n_points:
            img = img[sup]
    inside = g.in_box(img)
    if not inside.all():
        k = int(np.flatnonzero(~inside)[0])
        raise EscapedBox(int(sup[k]), 0.0, img[k])
    w = deposit(g, img, m.weights[sup])
    drift = abs(w.sum() - 1.0)
    if drift > 1e-12:
        raise ValueError(f"pushforward lost mass: drift {drift:.3e}")
    if drift > 0:
        w = w / w.sum()
    return GridMeasure(g, w, validate=False)


class MeasurePath:
    """Time-indexed family of grid measures on a shared grid."""

    def __init__(self, grid, times, weight_rows, validate=True):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.weights = np.asarray(weight_rows, dtype=float)
        if self.weights.shape != (len(self.times), grid.n_points):
            raise ValueError("weight rows do not match times x nodes")
        if validate:
            for k in range(len(self.times)):
                GridMeasure(grid, self.weights[k])

    def __len__(self):
        return len(self.times)

    def measure(self, k):
        return GridMeasure(self.grid, self.weights[k], validate=False)

    def to_csv(self, path):
        names, coords = self.grid.csv_columns()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "node_index", *names, "weight"])
            for t, row_w in zip(self.times.tolist(), self.weights):
                ts = repr(t)
                w.writerows([ts, i, *coords[i], repr(float(row_w[i]))]
                            for i in np.flatnonzero(row_w > SUPPORT_EPS).tolist())

    @classmethod
    def from_csv(cls, grid, path):
        rows = {}
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            next(r)
            for row in r:
                t = float(row[0])
                rows.setdefault(t, np.zeros(grid.n_points))[int(row[1])] = float(row[-1])
        times = sorted(rows)
        return cls(grid, times, np.array([rows[t] for t in times]))
