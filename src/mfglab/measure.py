"""Probability measures on the grid and the 1-Wasserstein machinery.

Measures are nonnegative node-weight vectors summing to one.  d_1 is exact:
the CDF integral in 1-D; in 2-D a transport LP that moves the positive part
of the signed difference of the two measures onto its negative part.  sup_d1
stacks the rows of two measure paths into one block-diagonal LP, so a
fictitious-play residual is one HiGHS solve however many time slices it
compares.  LP_SUPPORT_CAP bounds, per row, the number of nodes in each part
of the difference.

sliced_d1 is the cheap side of the same quantity: the largest 1-D d_1 of
the rows projected onto SLICE_DIRECTIONS directions.  Projection is
1-Lipschitz, so it is a lower bound on sup_d1 in 2-D; in 1-D the one
direction is the axis, and it is the CDF integral itself, the value sup_d1
returns there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EscapedBox, SupportTooLarge, TransportLPFailed, UnsupportedDimension
from .model import cell_corners, write_node_table

MASS_TOL = 1e-12
SUPPORT_EPS = 1e-15
LP_SUPPORT_CAP = 4096
SLICE_DIRECTIONS = 8  # angles pi j / 8 of the 2-D sliced bound


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

    def mean(self):
        return np.dot(self.weights, self.grid.points)

    # serialization ------------------------------------------------------

    def to_csv(self, path):
        write_node_table(path, self.grid, "weight", self.weights[None])


# ---------------------------------------------------------------------------
# Wasserstein-1


def wasserstein1(m1, m2):
    """Exact d_1 between two grid measures on the same grid (see sup_d1)."""
    if m1.grid is not m2.grid and m1.grid.describe() != m2.grid.describe():
        raise ValueError("measures live on different grids")
    return sup_d1(m1.grid, m1.weights[None], m2.weights[None])


def sup_d1(grid, rows1, rows2):
    """max over k of d_1 between weight rows rows1[k] and rows2[k].

    1-D: sliced_d1, the integral of |CDF difference| on all rows at once.
    2-D: one transport LP for all rows together (see _d1_lp), so a
    fictitious-play iteration makes at most one HiGHS solve; it is exact
    only to HiGHS's default primal feasibility tolerance of 1e-7 relative to
    each row's mass, so a node holding less may be rounded away.  sliced_d1
    is a lower bound on the 2-D value that costs no LP.
    """
    if grid.dim == 1:
        return sliced_d1(grid, rows1, rows2)
    return float(_d1_lp(grid, rows1 - rows2).max())


def sliced_d1(grid, rows1, rows2):
    """A lower bound on sup_d1(grid, rows1, rows2), exact in 1-D.

    Projecting onto a unit direction is 1-Lipschitz, so the 1-D d_1 of the
    projected rows, the sum over the sorted projected nodes of |cumulative
    difference| times the gap to the next one, is at most the d_1 of the
    rows.  The bound is the max of that over the rows and over
    SLICE_DIRECTIONS directions at angles pi j / SLICE_DIRECTIONS, the
    sliced Wasserstein distance (Rabin, Peyre, Delon & Bernot, SSVM 2011).
    In 1-D the one direction is the axis and the value is d_1 itself.
    """
    if grid.dim == 1:
        dirs = np.ones((1, 1))
    else:
        angle = np.pi * np.arange(SLICE_DIRECTIONS) / SLICE_DIRECTIONS
        dirs = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    # column-major, as numpy lays out the permuted copy diffs[:, order]: BLAS
    # sums the product below in an order set by the layout, and the 1-D path,
    # which sums diffs itself, must keep the copy's order
    diffs = np.subtract(rows1, rows2, order="F")
    best = 0.0
    for proj in (grid.points @ dirs.T).T:
        order = np.argsort(proj, kind="stable")
        # 1-D nodes are sorted, so order is the identity and diffs, read by
        # this one direction only, is summed itself; 2-D sums a permuted copy
        c = diffs if grid.dim == 1 else diffs[:, order]
        np.cumsum(c, axis=1, out=c)
        np.abs(c, out=c)
        best = max(best, float((c[:, :-1] @ np.diff(proj[order])).max()))
    return best


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
    pts = grid.points
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
    # imported here: scipy.optimize and scipy.sparse are most of a cold start,
    # and a 1-D run never reaches this LP
    from scipy import sparse
    from scipy.optimize import linprog

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


# ---------------------------------------------------------------------------
# pushforward


def deposit(grid, pts, masses):
    """Area-weight the point masses onto their 2^n neighboring nodes.

    pts holds P points as (P, n) rows, optionally behind leading batch axes;
    each batch row of points gets its own weight row and all rows share the
    P masses.  The masses and the row offsets broadcast against the (rows, P)
    stencil, and np.add.at adds corner by corner, each corner's points in
    order.
    """
    masses = np.asarray(masses, dtype=float)
    batch = np.shape(pts)[:-2]
    rows = math.prod(batch)
    shape = (rows, len(masses))
    offset = np.arange(rows)[:, None] * grid.n_points
    w = np.zeros(rows * grid.n_points)
    for idx, weights in cell_corners(grid, pts, clamp=False):
        wt = masses
        for f in weights:
            wt = wt * f.reshape(shape)
        idx = idx.reshape(shape)
        idx += offset  # idx is this corner's own array
        np.add.at(w, idx.ravel(), wt.ravel())  # 1-D indices: np.add.at's fast loop
    return w.reshape(batch + (grid.n_points,))


def pushforward(m, images):
    """Image measure of m under a node map, deposited back onto the grid.

    images: (S, n) image points aligned with m's S support nodes (or a
    callable applied to their points).  Mass is conserved exactly up to
    float drift <= MASS_TOL, which is renormalized away; anything larger is
    an error.  Images outside the box raise EscapedBox.
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
    if drift > MASS_TOL:
        raise ValueError(f"pushforward lost mass: drift {drift:.3e}")
    if drift > 0:
        w = w / w.sum()
    return GridMeasure(g, w, validate=False)


class MeasurePath:
    """Time-indexed family of grid measures on a shared grid."""

    def __init__(self, grid, times, weight_rows):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.weights = np.asarray(weight_rows, dtype=float)
        if self.weights.shape != (len(self.times), grid.n_points):
            raise ValueError("weight rows do not match times x nodes")

    def to_csv(self, path):
        """Only the nodes of each row with weight > SUPPORT_EPS."""
        write_node_table(path, self.grid, "weight", self.weights, self.times,
                         keep=lambda w: w > SUPPORT_EPS)
