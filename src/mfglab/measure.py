"""Probability measures on the grid and the 1-Wasserstein machinery.

Measures are nonnegative node-weight vectors summing to one.  d_1 is exact:
the CDF integral in 1-D; in 2-D a transport LP that moves the positive part
of the signed difference of the two measures onto its negative part.
LP_SUPPORT_CAP bounds the number of nodes in each part of the difference.

sliced_d1 is the cheap side of the same quantity, over stacks of rows: the
largest 1-D d_1 of the rows projected onto SLICE_DIRECTIONS directions.
Projection is 1-Lipschitz, so it is a lower bound on d_1 in 2-D; in 1-D the
one direction is the axis, and it is the CDF integral itself.
"""

from __future__ import annotations

import numpy as np

from .errors import SupportTooLarge, TransportLPFailed, UnsupportedDimension
from .model import write_node_table

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
    """Exact d_1 between two grid measures on the same grid: the CDF integral
    (sliced_d1) in 1-D, the transport LP (_d1_lp) in 2-D."""
    if m1.grid is not m2.grid and m1.grid.describe() != m2.grid.describe():
        raise ValueError("measures live on different grids")
    if m1.grid.dim == 1:
        return sliced_d1(m1.grid, m1.weights[None], m2.weights[None])
    return _d1_lp(m1.grid, m1.weights - m2.weights)


def sliced_d1(grid, rows1, rows2):
    """A lower bound on max over k of d_1(rows1[k], rows2[k]), exact in 1-D.

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


def _d1_lp(grid, diff):
    """d_1 of a signed difference diff = mu - nu of two measures.

    By Kantorovich-Rubinstein, the LP (one HiGHS call) moves the positive part
    of diff onto its negative part at Euclidean cost; without either part it
    is 0 with no LP.  Entries within SUPPORT_EPS of 0 count as neither part,
    and each part may hold at most LP_SUPPORT_CAP nodes.  Each part is scaled
    to unit mass and the value scaled back by their mean mass: HiGHS's primal
    feasibility tolerance (1e-7) is absolute, and unscaled it declared
    infeasible a difference whose parts hold 0.0295 each.  The value is exact
    only to that tolerance relative to the mass: a node holding less may be
    rounded away, which moves d_1 by up to its mass times its distance.
    """
    src = np.flatnonzero(diff > SUPPORT_EPS)
    dst = np.flatnonzero(diff < -SUPPORT_EPS)
    if len(src) > LP_SUPPORT_CAP or len(dst) > LP_SUPPORT_CAP:
        raise SupportTooLarge(f"difference supports {len(src)}x{len(dst)} "
                              f"exceed cap {LP_SUPPORT_CAP}")
    if not len(src) or not len(dst):
        return 0.0
    # imported here: scipy.optimize and scipy.sparse are most of a cold start,
    # and no solving command reaches this LP
    from scipy import sparse
    from scipy.optimize import linprog

    p, q = len(src), len(dst)
    supply, demand = diff[src], -diff[dst]
    pts = grid.points
    cost = np.sqrt(((pts[src, None] - pts[None, dst]) ** 2).sum(axis=2)).ravel()
    ij = np.arange(p * q)  # variable (i, j) is i * q + j
    rows = np.concatenate([ij // q, p + ij % q])  # supply row i, demand row j
    A = sparse.csr_matrix((np.ones(2 * p * q), (rows, np.tile(ij, 2))), shape=(p + q, p * q))
    rhs = np.concatenate([supply / supply.sum(), demand / demand.sum()])
    res = linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise TransportLPFailed(f"transport LP failed: {res.message}")
    return float((supply.sum() + demand.sum()) / 2 * (cost @ res.x))


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
