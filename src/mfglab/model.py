"""Problem data: grids, Lagrangians, couplings, and assumption checks.

The state space is a box [lo, hi]^n (n = 1 or 2) discretized by a uniform
node grid; velocities live on their own symmetric uniform grid.  All
structural hypotheses (uniform convexity in v, confinement gap of the
coupling, common spatial minimizer) are checked numerically on sample
points rather than assumed.
"""

from __future__ import annotations

import math
import operator
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GapViolated,
    MaximizerOnBoundary,
    UnsupportedDimension,
)

ARGMIN_TOL = 1e-10  # two node values within this are treated as tied minima
HESSIAN_RTOL = 1e-3  # relative tolerance on finite-difference matrix bounds
AXIS_NAMES = ("x", "y")  # coordinate column names in CSV outputs
MAX_TABLE_CELLS = 2 ** 23  # cells of the largest array a solve allocates, 64 MiB of float64


# ---------------------------------------------------------------------------
# grids


def _tensor_points(axes):
    """Row-major tensor product of n 1-D axes, as (N, n) rows."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in mesh], axis=-1)


class GridSpec:
    """Uniform box discretization plus the velocity grid and time step.

    lo, hi, nodes may be scalars (1-D) or length-2 sequences.  The velocity
    grid is linspace(-v_max, v_max, v_nodes) per axis; v_nodes should be odd
    so that v = 0 is representable, and an instance document must give an
    odd count.  points (N, n) and velocities (nV, n) are row-major tensor
    grids: a point or a velocity is a row of n coordinates, also when n = 1.
    A grid whose solves would allocate an array over MAX_TABLE_CELLS, or
    whose smallest nonzero departure step dt * 2 v_max / (v_nodes - 1) adds
    nothing to a box-edge coordinate in floating point, raises ValueError
    before any grid array is built.
    """

    def __init__(self, lo, hi, nodes, dt, v_max, v_nodes):
        lo_t = tuple(float(a) for a in np.atleast_1d(lo))
        hi_t = tuple(float(a) for a in np.atleast_1d(hi))
        nodes_t = tuple(int(a) for a in np.atleast_1d(nodes))
        if not (len(lo_t) == len(hi_t) == len(nodes_t)):
            raise ValueError("lo, hi, nodes must agree in length")
        if len(lo_t) not in (1, 2):
            raise UnsupportedDimension(f"dim {len(lo_t)} not supported")
        for a, b, n in zip(lo_t, hi_t, nodes_t):
            if not (0 < b - a < math.inf and n >= 2):
                raise ValueError("grid: need finite lo < hi and at least two nodes per axis")
        for name, val in (("dt", dt), ("v_max", v_max)):
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"grid: need a finite {name} > 0, got {name}={val!r}")
        if v_nodes < 3:
            raise ValueError(f"grid: need v_nodes >= 3, got v_nodes={v_nodes!r}")
        self.dim = len(lo_t)
        self.lo = lo_t
        self.hi = hi_t
        self.nodes = nodes_t
        self.dt = float(dt)
        self.v_max = float(v_max)
        self.v_nodes = int(v_nodes)
        self.dx = tuple((b - a) / (n - 1) for a, b, n in zip(lo_t, hi_t, nodes_t))
        self.n_points = math.prod(nodes_t)
        shift = self.dt * 2 * self.v_max / (self.v_nodes - 1)  # the smallest nonzero dt |v|
        edges = [max(abs(a), abs(b)) for a, b in zip(lo_t, hi_t)]
        if any(e + shift == e for e in edges):
            raise ValueError(f"grid: a departure step dt * 2 v_max / (v_nodes - 1) = "
                             f"{shift:g} is lost to rounding at the box edge (dt={self.dt:g}, "
                             f"v_max={self.v_max:g}, v_nodes={self.v_nodes})")
        self._check_budget()
        self.axes = tuple(
            np.linspace(a, b, n) for a, b, n in zip(lo_t, hi_t, nodes_t)
        )
        self.points = _tensor_points(self.axes)
        self.v_axis = np.linspace(-self.v_max, self.v_max, self.v_nodes)
        self.velocities = _tensor_points((self.v_axis,) * self.dim)

    def _check_budget(self):
        """ValueError if an array every solve on this grid allocates would
        exceed MAX_TABLE_CELLS: the N nodes, the (N, nV) Bellman candidates,
        or the largest operand of a departure stage.  The message names the
        array and the keys that drive it."""
        N, nV = self.n_points, self.v_nodes ** self.dim
        for what, cells, names in (
                (f"{N} nodes", N, ("dx",)),
                (f"{N} nodes x {nV} velocities", N * nV, ("dx", "v_nodes")),
                ("a departure stage", self._departure_cells(), ("dx", "dt", "v_max"))):
            if cells > MAX_TABLE_CELLS:
                keys = {"dx": ",".join(f"{d:g}" for d in self.dx), "dt": f"{self.dt:g}",
                        "v_max": f"{self.v_max:g}", "v_nodes": str(self.v_nodes)}
                given = ", ".join(f"{k}={keys[k]}" for k in names)
                raise ValueError(f"grid: the budget of {MAX_TABLE_CELLS} cells is too "
                                 f"small for {what} ({given})")

    def _departure_cells(self):
        """Cells of the largest array of a stage of hjb._departure_step: the
        contiguous copy of its windows or its (W, nv) weight matrix, the last
        stage's counted with the two rows and columns that fold a dt L whose
        rows vary (the most a fold adds)."""
        if self.dt * self.v_max >= MAX_TABLE_CELLS * min(self.dx):  # W alone is over
            return math.inf
        reach = [self.dt * self.v_max / d for d in self.dx]  # cells one step crosses
        width = [math.floor(r) - math.floor(-r) + 2 for r in reach]  # W per axis
        shape = [n + w - 1 for n, w in zip(self.nodes, width)]  # the edge-padded values
        width[-1] += 2  # the last window copy's columns 1 and r, its matrix's rows b and 1
        largest = 0
        for d, (n, w) in enumerate(zip(self.nodes, width)):
            shape[d] = n
            largest = max(largest, math.prod(shape) * self.v_nodes ** d * w,
                          w * self.v_nodes)
        return largest

    def radii(self):
        """Euclidean norm of every node (distance to the origin)."""
        return np.sqrt((self.points ** 2).sum(axis=1))

    def ball_mask(self, R):
        return self.radii() <= R + 1e-12

    def contains_ball(self, R):
        """Whether the closed ball B_R around the origin fits in the box."""
        return all(a <= -R and b >= R for a, b in zip(self.lo, self.hi))

    def in_box(self, pts, lo=None, hi=None):
        """Which (..., n) points lie in the closed box [lo, hi] (default: the grid's own)."""
        lo = np.asarray(self.lo if lo is None else lo, dtype=float)
        hi = np.asarray(self.hi if hi is None else hi, dtype=float)
        return ((pts >= lo - 1e-12) & (pts <= hi + 1e-12)).all(axis=-1)

    def as_point(self, x):
        """x as one point of the grid's space: a float array of shape (n,).

        Raises ValueError naming that contract for any other shape, such as
        a bare float on a 1-D grid.
        """
        p = np.asarray(x, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(f"a point on a {self.dim}-D grid is an array of shape "
                             f"({self.dim},), got shape {p.shape}")
        return p

    def nearest_node(self, x):
        """Flat index of the node closest to x; a coordinate past the box picks its edge."""
        x = np.atleast_1d(np.asarray(x, dtype=float)).tolist()
        idx = [int(round(min(max((x[d] - self.lo[d]) / self.dx[d], 0.0), self.nodes[d] - 1)))
               for d in range(self.dim)]
        return int(np.ravel_multi_index(idx, self.nodes))

    def time_steps(self, T):
        """Steps K covering [0, T]: T a near-multiple of dt, (K+1) * N <= MAX_TABLE_CELLS."""
        steps = T / self.dt
        if not np.isfinite(steps):
            raise ValueError(f"T={T} is not a finite multiple of dt={self.dt}")
        K = int(round(steps))
        if K < 1 or abs(K * self.dt - T) > 1e-9 * max(1.0, T):
            raise ValueError(f"T={T} must be a positive multiple of dt={self.dt}")
        if (K + 1) * self.n_points > MAX_TABLE_CELLS:
            raise ValueError(f"T={T} needs a {K + 1} x {self.n_points} space-time table, "
                             f"above the budget of {MAX_TABLE_CELLS} cells")
        return K

    def describe(self):
        return {
            "dim": self.dim,
            "lo": list(self.lo),
            "hi": list(self.hi),
            "nodes": list(self.nodes),
            "dx": list(self.dx),
            "dt": self.dt,
            "v_max": self.v_max,
            "v_nodes": self.v_nodes,
        }


def _row_blocks(n_rows):
    """[lo, hi) bounds of contiguous row blocks, one per CPU this process may
    run on, never more than n_rows; one block where affinity or fork is missing."""
    try:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "fork") else 1
    except (AttributeError, OSError):
        cpus = 1
    n = max(1, min(cpus, n_rows))
    bounds = [i * n_rows // n for i in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def write_node_table(path, grid, column, rows, times=None, end="\r\n", keep=None):
    """Write the node table path: the header, then each row of N node values.

    The header is [t,]node_index,x[,y],<column>, and node i of the row at
    time t is the line [t,]i,<coordinates of i>,v, every number as repr
    gives it; times=None writes one row without the t column.  keep(row)
    masks the nodes written, and a row it keeps none of writes no line.

    The rows are split into contiguous blocks, one per CPU of
    os.sched_getaffinity(0) (_row_blocks).  A forked child formats each block
    after the first into an anonymous temporary file in path's directory and
    leaves by os._exit; the parent writes the header and block 0, then appends
    the children's bytes in row order, so the file does not depend on the
    number of blocks.  A child that fails raises OSError naming path.  Every
    child is reaped before this returns or raises.
    """
    heads = np.array([",".join([str(i), *map(repr, p), ""])
                      for i, p in enumerate(grid.points.tolist())], dtype=object)
    names = ["node_index", *AXIS_NAMES[: grid.dim], column]
    header = ",".join(names if times is None else ["t", *names]) + end
    times = [None] if times is None else times.tolist()

    def write_rows(fh, lo, hi):
        for t, row in zip(times[lo:hi], rows[lo:hi]):
            pick = slice(None) if keep is None else keep(row)
            if vals := row[pick].tolist():
                # repr of the list formats each float in C; no float repr
                # holds ", ", so the split recovers them exactly
                lead = "" if t is None else repr(t) + ","
                cells = map(operator.add, heads[pick], repr(vals)[1:-1].split(", "))
                fh.write(lead + (end + lead).join(cells) + end)

    # a forked child reads the rows in place, with nothing pickled, and runs
    # only the row loop, which calls into no threaded library
    blocks = _row_blocks(min(len(times), len(rows)))
    parts, pids = [], {}
    try:
        for lo, hi in blocks[1:]:
            parts.append(tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))))
            pid = os.fork()
            if pid == 0:  # the child writes its block and never returns
                code = 1
                try:
                    with open(parts[-1].fileno(), "w", newline="", closefd=False) as fh:
                        write_rows(fh, lo, hi)
                    code = 0
                finally:
                    os._exit(code)
            pids[pid] = (lo, hi)
        with open(path, "w", newline="") as fh:
            fh.write(header)
            write_rows(fh, *blocks[0])
            fh.flush()  # the children's bytes go to fh.buffer, after block 0's text
            for part, (pid, (lo, hi)) in zip(parts, list(pids.items())):
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del pids[pid]
                if status:
                    raise OSError(f"{path}: the writer of rows {lo} to {hi - 1} "
                                  f"exited with status {status}")
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for part in parts:
            part.close()


def cell_corners(grid, pts, clamp):
    """Multilinear stencil of points: per cell corner, flat node index and weights.

    Yields the 2^n corners of each point's cell, axis 0 varying fastest, as
    (flat index, per-axis weights).  A coordinate x lies in the last cell
    [x_i, x_{i+1}] with node x_i <= x, at fraction (x - x_i) / (x_{i+1} - x_i),
    so a point on a node weighs exactly 1 there.  With clamp the points are
    first moved into the box; without it the weights of a point just outside
    the box extrapolate, which keeps the mass and first moment of a deposit exact.
    """
    c = np.reshape(pts, (-1, grid.dim))
    strides = [math.prod(grid.nodes[d + 1 :]) for d in range(grid.dim)]
    base, frac = 0, []
    for d, axis in enumerate(grid.axes):
        x = np.clip(c[:, d], axis[0], axis[-1]) if clamp else c[:, d]
        i = np.clip(np.searchsorted(axis, x, side="right"), 1, len(axis) - 1) - 1
        left, width = axis.take(i), axis.take(i + 1)
        width -= left
        frac.append(np.subtract(x, left, out=left) / width)
        base = base + i * strides[d]
        del x, i, left, width  # the generator's frame would keep them through the yields
    for corner in range(2**grid.dim):
        bits = [(corner >> d) & 1 for d in range(grid.dim)]
        idx = base + sum(b * s for b, s in zip(bits, strides))
        yield idx, [f if b else 1 - f for b, f in zip(bits, frac)]


def interp_grid(grid, values, pts):
    """Clamped multilinear interpolation of node values at (..., n) points.

    values holds one value per node, (N,), and the result is shaped
    (...); it may hold m columns, (N, m), all interpolated through one
    stencil into (..., m), in any dimension.
    """
    cols = np.shape(values)[1:]
    out = None
    for idx, weights in cell_corners(grid, pts, clamp=True):
        term = values[idx]
        for w in weights:
            term = term * w.reshape(w.shape + (1,) * len(cols))
        out = term if out is None else out + term
    return out.reshape(np.shape(pts)[:-1] + cols)


# ---------------------------------------------------------------------------
# Lagrangians


@dataclass
class LagrangianModel:
    """Running cost L(x, v) with declared Tonelli constants.

    eval(x, v) takes numpy arrays whose last axis holds the n coordinates
    of a position and of a velocity, broadcasts over the leading axes and
    returns one value per pair: the solver and check_strict_tonelli pass it
    all (x, v) pairs at once, as (P, Q, n) arrays.  C1 bounds the
    velocity Hessian from both sides (I/C1 <= D^2_vv L <= C1 I), C2 bounds
    the mixed Hessian, C3 bounds data at v = 0.  alpha and beta are the
    growth constants derived from them.
    """

    eval: callable
    C1: float
    C2: float
    C3: float
    reversible: bool = True
    name: str = "lagrangian"

    @property
    def alpha(self):
        return self.C3 + self.C1

    @property
    def beta(self):
        return 0.5 * self.C1 + self.C3


def quadratic_kinetic(potential=None, C1=1.0, C2=1.0, C3=None, name=None):
    """L(x, v) = |v|^2/2 + phi(x), the reference reversible family."""

    if potential is None:
        def ev(x, v):
            # the x term only forces broadcasting against position arrays
            return 0.5 * (v**2).sum(-1) + 0.0 * x[..., 0]
        c3 = 1.0 if C3 is None else C3
        return LagrangianModel(ev, C1, C2, c3, True, name or "kinetic")

    def ev(x, v):
        return 0.5 * (v**2).sum(-1) + potential(x)

    if C3 is None:
        raise ValueError("declare C3 when a potential is present")
    return LagrangianModel(ev, C1, C2, C3, True, name or "kinetic+potential")


# ---------------------------------------------------------------------------
# couplings


@dataclass
class Coupling:
    """Mean-field cost F(x, m) on the grid nodes, with the declared confinement data.

    values(grid, weight_rows) maps an (R, N) stack of measures, one weight
    row each, to the (R, N) table of F(node, m_r).  K0 is a closed sub-box
    strictly inside the state box; delta0 the declared confinement gap;
    lip2 the declared Lipschitz constant of m -> F(., m) in d_1.
    """

    values: callable
    K0_lo: tuple
    K0_hi: tuple
    delta0: float
    lip2: float
    name: str = "coupling"

    def __post_init__(self):
        self.K0_lo = tuple(float(a) for a in np.atleast_1d(self.K0_lo))
        self.K0_hi = tuple(float(a) for a in np.atleast_1d(self.K0_hi))

    def validate_geometry(self, grid):
        """ValueError naming K0 and the box unless K0 sits strictly inside it and holds a node."""
        inside = all(lo < a < b < hi for a, b, lo, hi
                     in zip(self.K0_lo, self.K0_hi, grid.lo, grid.hi))
        if not (inside and self.K0_mask(grid).any()):
            K0 = [list(self.K0_lo), list(self.K0_hi)]
            box = [list(grid.lo), list(grid.hi)]
            raise ValueError(f"K0 = {K0} must sit strictly inside the box {box} "
                             f"and hold a grid node")

    def K0_mask(self, grid):
        return grid.in_box(grid.points, self.K0_lo, self.K0_hi)

    def values_on(self, grid, m):
        """F(., m) at every grid node: the one-row case of path_values."""
        return self.path_values(grid, m.weights[None, :])[0]

    def path_values(self, grid, weight_rows):
        """F at all nodes for a stack of measures given as weight rows."""
        return self.values(grid, weight_rows)


def separable_coupling(f, G, K0_lo, K0_hi, delta0, lip2, name="separable"):
    """F(x, m) = f(x) G(integral of f dm), for every measure of the stack at once.

    f maps the (N, n) grid points to their N values.
    """

    def values(grid, weight_rows):
        fn = f(grid.points)
        return np.asarray(G(weight_rows @ fn))[:, None] * fn[None, :]

    return Coupling(values, K0_lo, K0_hi, delta0, lip2, name)


def rest_landscape(L, coupling, grid, m):
    """L(x, 0) + F(x, m) at every node: the landscape whose minima confine."""
    base = L.eval(grid.points, np.zeros(grid.dim))
    return np.broadcast_to(base, (grid.n_points,)) + coupling.values_on(grid, m)


# ---------------------------------------------------------------------------
# Legendre transform


def legendre_transform(L, x, p, grid):
    """H(x, p) = max over v of <p, v> - L(x, v), with the maximizing v.

    The max is taken over the velocity grid and refined by one quadratic fit
    per axis around the discrete maximizer.  Raises MaximizerOnBoundary when
    the discrete maximizer sits on the grid edge, and ValueError when x is
    not one (n,) point.  x and p are (n,) arrays, and so is the returned
    maximizing v.
    """
    x = grid.as_point(x)
    V = grid.velocities
    p = np.atleast_1d(np.asarray(p, dtype=float))
    obj = V @ p - L.eval(x, V)
    j = int(np.argmax(obj))
    nv = grid.v_nodes
    jj = np.unravel_index(j, (nv,) * grid.dim)
    if any(jd in (0, nv - 1) for jd in jj):
        raise MaximizerOnBoundary(x, p)
    va = grid.v_axis
    o = obj.reshape((nv,) * grid.dim)
    vstar = np.array([
        _quad_vertex(va[jd - 1 : jd + 2],
                     o[jj[:d] + (slice(jd - 1, jd + 2),) + jj[d + 1 :]])
        for d, jd in enumerate(jj)
    ])
    cand = float(np.dot(p, vstar) - L.eval(x, vstar))
    if cand >= obj[j]:  # on a tie the refined vertex, the exact maximizer of a quadratic L
        return cand, vstar
    return float(obj[j]), V[j].copy()


def _quad_vertex(vs, ys):
    """Vertex of the parabola through three points; middle point if degenerate."""
    denom = ys[0] - 2.0 * ys[1] + ys[2]
    if denom >= -1e-300:  # not strictly concave around the sample
        return vs[1]
    h = vs[1] - vs[0]
    return vs[1] + 0.5 * h * (ys[0] - ys[2]) / denom


# ---------------------------------------------------------------------------
# assumption checks


@dataclass
class TonelliReport:
    passed: bool
    violations: list = field(default_factory=list)
    growth_flags: list = field(default_factory=list)
    alpha: float = 0.0
    beta: float = 0.0


def check_strict_tonelli(L, grid):
    """Finite-difference verification of the strict Tonelli bounds.

    Checks, at sampled (x, v): eigenvalues of D^2_vv L within [1/C1, C1],
    the mixed Hessian norm below C2 (1 + |v|), and the v=0 data bound C3;
    all with relative tolerance 1e-3.  Growth bounds with the derived
    alpha, beta are flagged (not failed) when violated.  Each stencil
    offset is one call of L.eval on all P x Q sample pairs, as (P, Q, n)
    arrays; the step is h = 1e-4 (1 + |v|).  Entries are tuples (kind, x,
    v, ...) with x and v (n,) arrays, listed per sample x, then per sample
    v; the v = 0 data bound does not depend on v, so a c3_bound entry
    appears once per x, with v = None.
    """
    per_x, per_v = (9, 7) if grid.dim == 1 else (4, 3)
    vm = 0.9 * grid.v_max
    xs = _samples(grid.lo, grid.hi, per_x)
    vs = _samples((-vm,) * grid.dim, (vm,) * grid.dim, per_v)
    X, V = np.broadcast_arrays(xs[:, None], vs[None])
    pairs = X.shape[:2]  # (P, Q)

    def ev(x, v):  # L at every sample pair; x, v are (P, Q, n)
        return np.broadcast_to(L.eval(x, v), pairs)

    speed = np.sqrt((V**2).sum(axis=-1))
    h = 1e-4 * (1.0 + speed)
    E = [h[..., None] * e for e in np.eye(grid.dim)]  # the steps h e_i
    Lc = ev(X, V)
    up, down = [ev(X, V + d) for d in E], [ev(X, V - d) for d in E]
    hvv = np.empty(pairs + (grid.dim, grid.dim))
    hvx = np.empty_like(hvv)
    for i, di in enumerate(E):
        hvv[..., i, i] = (up[i] - 2 * Lc + down[i]) / h**2
        for j, dj in enumerate(E):
            if j < i:
                hvv[..., i, j] = hvv[..., j, i] = (
                    ev(X, V + di + dj) - ev(X, V + di - dj)
                    - ev(X, V - di + dj) + ev(X, V - di - dj)) / (4 * h**2)
            hvx[..., i, j] = (  # d/dv_i d/dx_j
                ev(X + dj, V + di) - ev(X + dj, V - di)
                - ev(X - dj, V + di) + ev(X - dj, V - di)) / (4 * h**2)
    grad_v = _length([(u - d) / (2 * h) for u, d in zip(up, down)])
    eig_lo, eig_hi = _eigen_range(hvv)
    hvx_norm = np.sqrt(_eigen_range(np.swapaxes(hvx, -1, -2) @ hvx)[1])

    Z, h0 = np.zeros_like(V), 1e-4  # the data at v = 0, where the step is h0
    E0 = [h0 * e for e in np.eye(grid.dim)]
    c3 = (np.abs(ev(X, Z))
          + _length([(ev(X + d, Z) - ev(X - d, Z)) / (2 * h0) for d in E0])
          + _length([(ev(X, Z + d) - ev(X, Z - d)) / (2 * h0) for d in E0]))

    rtol = HESSIAN_RTOL
    bound = L.C2 * (1.0 + speed)
    nv2 = speed**2
    # each bound is written so that a NaN constant or sample fails it
    bad_vv = ~((eig_lo >= (1.0 / L.C1) * (1 - rtol)) & (eig_hi <= L.C1 * (1 + rtol)))
    bad_vx = ~(hvx_norm <= bound * (1 + rtol))
    bad_c3 = ~(c3 <= L.C3 * (1 + rtol))
    bad_c3[:, 1:] = False  # c3 does not depend on v: one entry per sample x
    bad_energy = ~((nv2 / (4 * L.beta) - L.alpha <= Lc + 1e-9)
                   & (Lc <= 4 * L.beta * nv2 + L.alpha + 1e-9))
    bad_dv = grad_v > L.alpha * (1 + speed) * (1 + rtol)
    rep = TonelliReport(True, [], [], L.alpha, L.beta)
    for p, q in np.argwhere(bad_vv | bad_vx | bad_c3 | bad_energy | bad_dv):
        x, v = xs[p], vs[q]
        if bad_vv[p, q]:
            rep.violations.append(("vv_bounds", x, v, float(eig_lo[p, q]), float(eig_hi[p, q])))
        if bad_vx[p, q]:
            rep.violations.append(("vx_bound", x, v, float(hvx_norm[p, q]), float(bound[p, q])))
        if bad_c3[p, q]:
            rep.violations.append(("c3_bound", x, None, float(c3[p, q]), L.C3))
        if bad_energy[p, q]:
            rep.growth_flags.append(("energy_growth", x, v, float(Lc[p, q])))
        if bad_dv[p, q]:
            rep.growth_flags.append(("dv_growth", x, v))
    rep.passed = not rep.violations
    return rep


def _samples(lo, hi, per_axis):
    """Tensor grid of sample points over the box [lo, hi], as (P, n) rows."""
    return _tensor_points([np.linspace(a, b, per_axis) for a, b in zip(lo, hi)])


def _length(components):
    """Euclidean norm of a vector given as a list of its component arrays."""
    return np.sqrt(sum(c**2 for c in components))


def _eigen_range(S):
    """Smallest and largest eigenvalue of symmetric n x n matrices S[..., :, :], n <= 2.

    They are tr/n -+ |S - (tr/n) I|_F / sqrt(2), in closed form.
    """
    n = S.shape[-1]
    mean = np.trace(S, axis1=-2, axis2=-1) / n
    spread = np.sqrt(((S - mean[..., None, None] * np.eye(n)) ** 2).sum(axis=(-2, -1)) / 2)
    return mean - spread, mean + spread


def check_F4_gap(coupling, L, grid, probes):
    """Confinement gap of x -> L_m(x, 0) between K0 and the rest of the box.

    Returns the minimum over probe measures of
    min outside K0 - min on K0; raises GapViolated when any probe's gap
    falls below the declared delta0.
    """
    coupling.validate_geometry(grid)
    mask = coupling.K0_mask(grid)
    gaps = []
    for k, m in enumerate(probes):
        rest = rest_landscape(L, coupling, grid, m)
        gap = float(rest[~mask].min() - rest[mask].min())
        if not gap >= coupling.delta0:  # a NaN delta0 fails too
            raise GapViolated(f"probe[{k}]", gap, coupling.delta0)
        gaps.append(gap)
    return min(gaps)


def check_F5(coupling, L, grid, probes):
    """Common minimizer of L_m(., 0) over K0 across probes.

    Returns (ok, witness_flat_index).  Minimizing node sets are resolved at
    tolerance 1e-10 on the minimum value.
    """
    mask = coupling.K0_mask(grid)
    idx_k0 = np.flatnonzero(mask)
    common = None
    for m in probes:
        rest = rest_landscape(L, coupling, grid, m)[idx_k0]
        mn = rest.min()
        argset = set(idx_k0[np.flatnonzero(rest <= mn + ARGMIN_TOL)].tolist())
        common = argset if common is None else (common & argset)
        if not common:
            return False, None
    witness = min(common)  # lexicographic = smallest flat index
    return True, int(witness)
