"""Invariants of the grid kernels on generated 1-D and 2-D grids.

Deposit keeps mass and first moment, also over a batch of point sets,
matches a per-point, per-corner reference bit for bit, and deposits a
node's mass on that node alone; the traced flow
matches a per-curve forward-Euler loop bit for bit, or names the same
first curve out of the box;
interpolation, the grid Lipschitz constant and the upwind gradient are
exact on affine functions, and the Lipschitz estimate of a space-time
table is the largest constant of its rows; a policy's velocities interpolate
all their components through one stencil, bit for bit as interp_grid does each;
the backward step's departure values agree with interp_grid at every
x + dt v, past the box too, and its largest operand is the one the grid's
size budget predicts; dt L folded into its last product matches dt L added
after it, within float64 rounding, and is folded exactly when the table
splits as r(row) + b(v_last) bit for bit; a frozen policy's transition cost
is the dt L table's entry, its stencil gives the step's own candidate of
that policy, and a block of policies has the row-by-row transitions bit for
bit.  The push through that stencil keeps mass and starts at m0; by
discrete duality the pushed best response costs <u(0), m0> within the
rounding floor, and no mix of pushed paths costs less, so the
exploitability is at least -floor.  The backward sweep over that stencil
(pull) is the push's adjoint, returns u(0) for the argmin policy's costs, and
on a chain of whole-cell steps counts the time outside a ball exactly; the
line search takes the full step
when the slope at 1 is not positive.  The 2-D d_1 is symmetric,
obeys the triangle inequality, agrees with the 1-D CDF formula on data laid
along an axis and matches a full-support transport LP, and the pair the
solver returns is within its tolerance of its own best response.  A start
row stretched to K steps is that row at every step, a view with no table of
its own, and its push is made of probability rows; the stationary feedback
of RI-1 and bench/ri2.json is at rest on m_bar, whose push it keeps bit for
bit.  The
sliced bound lies
between 0 and that LP, is exact in 1-D and on data along one row of
nodes, and matches its permuted-copy reference bit for bit.  The Legendre transform of the
kinetic Lagrangian |v|^2/2 is |p|^2/2, attained at v = p.  The per-node CSV
writers give the same bytes as a csv.writer of repr'd floats, special
values included, each with its own line terminator.  The blocks that the
forked writer and ladder run are contiguous, cover the items, none empty,
one per allowed CPU but never more than the items, and one where the
platform cannot fork or the affinity is unknown.
"""

import csv
import math
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

import mfglab as M
from mfglab import cli, errors, mfg
from mfglab.hjb import _departure_step, _grid_lipschitz, _shift_table
from mfglab.measure import SLICE_DIRECTIONS, SUPPORT_EPS, _d1_lp, deposit, sliced_d1
from mfglab.model import _blocks

from test_hjb import gradient

SETTINGS = settings(max_examples=40, deadline=None)
RI2 = os.path.join(os.path.dirname(__file__), "..", "bench", "ri2.json")
finite = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def grids(draw, dims=(1, 2), max_nodes=9):
    """A box grid in one or two dimensions with a few nodes per axis."""
    dim = draw(st.sampled_from(dims))
    lo = [draw(st.floats(-3.0, 0.0)) for _ in range(dim)]
    hi = [a + draw(st.floats(0.5, 4.0)) for a in lo]
    nodes = [draw(st.integers(2, max_nodes)) for _ in range(dim)]
    return M.GridSpec(lo, hi, nodes, 0.1, 1.0, 3)


def weights(draw, size):
    """A probability vector of the given size; many entries are exactly 0.

    Entries are small integers over their sum, so every positive mass is far
    above HiGHS's primal feasibility tolerance (1e-7): a mass below it may be
    rounded away by either transport LP, which moves d_1 by up to that mass
    times the distance it should travel.
    """
    w = np.asarray(draw(st.lists(st.integers(0, 9), min_size=size, max_size=size)), float)
    w[draw(st.integers(0, size - 1))] += 1.0
    return w / w.sum()


def policies(grid):
    """One velocity index per node of grid, in the dtype solve_backward stores."""
    nv, N = len(grid.velocities), grid.n_points
    return st.lists(st.integers(0, nv - 1), min_size=N, max_size=N).map(
        lambda p: np.asarray(p, dtype=np.min_scalar_type(nv - 1)))


def points_in(draw, grid, count, margin=0.0):
    """count points, each coordinate uniform over the box widened by margin."""
    cols = []
    for a, b in zip(grid.lo, grid.hi):
        w = margin * (b - a)
        u = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
        cols.append(a - w + np.asarray(u) * (b - a + 2 * w))
    return np.stack(cols, axis=-1)


def affine_on(grid, slope, offset, pts):
    return np.reshape(pts, (-1, grid.dim)) @ np.asarray(slope[: grid.dim]) + offset


@SETTINGS
@given(data=st.data())
def test_deposit_keeps_mass_and_first_moment(data):
    grid = data.draw(grids())
    count = data.draw(st.integers(1, 12))
    pts = points_in(data.draw, grid, count)
    masses = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=count,
                                           max_size=count)))
    w = deposit(grid, pts, masses)
    assert w.shape == (grid.n_points,)
    assert w.sum() == pytest.approx(masses.sum(), abs=1e-12)
    np.testing.assert_allclose(w @ grid.points, masses @ pts,
                               atol=1e-10)
    # a batch of point sets deposits row by row, bit for bit
    batch = deposit(grid, np.stack([pts, pts[::-1]]), masses)
    np.testing.assert_array_equal(batch, [w, deposit(grid, pts[::-1], masses)])


def reference_deposit(grid, pts, masses):
    """deposit one point and one corner at a time, in np.add.at's order:
    corners outermost, then the batch rows, then the points of a row.  A
    coordinate's cell is the last one whose left node is at most it."""
    n, N = grid.dim, grid.n_points
    rows = np.reshape(pts, (-1, len(masses), n))
    strides = [math.prod(grid.nodes[d + 1:]) for d in range(n)]
    w = np.zeros(len(rows) * N)
    for corner in range(2 ** n):
        for r, row in enumerate(rows):
            for x, m in zip(row, masses):
                node, wt = r * N, m
                for d, axis in enumerate(grid.axes):
                    i = max(min(sum(axis <= x[d]) - 1, len(axis) - 2), 0)
                    f = (x[d] - axis[i]) / (axis[i + 1] - axis[i])
                    bit = (corner >> d) & 1
                    node += (i + bit) * strides[d]
                    wt = wt * (f if bit else 1 - f)
                w[node] += wt
    return w.reshape(np.shape(pts)[:-2] + (N,))


@SETTINGS
@given(data=st.data(), batch=st.lists(st.integers(1, 3), max_size=2))
def test_deposit_matches_a_per_point_reference(data, batch):
    grid = data.draw(grids())
    count = data.draw(st.integers(1, 8))
    pts = points_in(data.draw, grid, count * math.prod(batch)).reshape(
        tuple(batch) + (count, grid.dim))
    masses = np.asarray(data.draw(st.lists(st.floats(0.0, 1.0), min_size=count,
                                           max_size=count)))
    np.testing.assert_array_equal(deposit(grid, pts, masses),
                                  reference_deposit(grid, pts, masses))  # bit for bit


@SETTINGS
@given(data=st.data(), batch=st.integers(1, 3))
def test_deposit_of_nodes_is_the_identity(data, batch):
    grid = data.draw(grids())
    w = weights(data.draw, grid.n_points)
    nodes = np.flatnonzero(w)
    pts = np.broadcast_to(grid.points[nodes], (batch, len(nodes), grid.dim))
    got = deposit(grid, pts, w[nodes])  # every batch row deposits the same nodes
    np.testing.assert_array_equal(got, np.broadcast_to(w, got.shape))  # bit for bit


@SETTINGS
@given(data=st.data(), slope=st.lists(finite, min_size=2, max_size=2), offset=finite)
def test_interp_grid_exact_on_affine_with_clamping(data, slope, offset):
    grid = data.draw(grids())
    pts = points_in(data.draw, grid, 10, margin=0.5)  # some points outside the box
    values = affine_on(grid, slope, offset, grid.points)
    clamped = np.clip(pts, grid.lo, grid.hi)
    got = M.interp_grid(grid, values, pts)
    assert got.shape == (10,)
    np.testing.assert_allclose(got, affine_on(grid, slope, offset, clamped), atol=1e-10)


@SETTINGS
@given(data=st.data())
def test_velocity_at_is_interp_grid_per_component(data):
    grid = data.draw(grids())
    pts = points_in(data.draw, grid, 10, margin=0.5)
    policy = data.draw(policies(grid))[None]
    vf = M.ValueField(grid, np.array([0.0, grid.dt]), np.zeros((2, grid.n_points)), policy)
    nodes = grid.velocities[policy[0]]
    want = np.stack([M.interp_grid(grid, c, pts) for c in nodes.T], axis=-1)
    np.testing.assert_array_equal(vf.velocity_at(0, pts), want)  # bit for bit


@st.composite
def step_grids(draw):
    """A grid with its own dt, v_max and v_nodes (even or odd).

    Each axis has its own dx, and the largest shift dt * v_max reaches up to
    1.5 box widths, so departure points fall past the box on either side.
    """
    g = draw(grids())
    dt = draw(st.floats(0.01, 1.0))
    reach = draw(st.floats(0.05, 1.5)) * max(b - a for a, b in zip(g.lo, g.hi))
    return M.GridSpec(g.lo, g.hi, g.nodes, dt, reach / dt, draw(st.integers(3, 12)))


def confining(grid):
    """(N, nV) mask: velocity j keeps node i in the box for one step.  With an
    even v_nodes there is no zero velocity, and on an axis narrower than the
    smallest step a node may have none."""
    return grid.in_box(grid.points[:, None] + grid.dt * grid.velocities[None])


def confined_policies(grid):
    """Like policies, but each node's velocity keeps that node in the box where
    one can (any velocity elsewhere); a traced x + dt v(x) is a convex
    combination of such steps, so it stays in."""
    N = grid.n_points
    ok = confining(grid)
    ok[~ok.any(axis=1)] = True
    return st.lists(st.integers(0, 10**6), min_size=N, max_size=N).map(
        lambda r: np.array([np.flatnonzero(row)[j % row.sum()] for row, j in zip(ok, r)],
                           dtype=np.min_scalar_type(len(grid.velocities) - 1)))


@SETTINGS
@given(grid=step_grids(), data=st.data(), K=st.integers(1, 5))
def test_trace_matches_a_per_curve_euler_loop(grid, data, K):
    N = grid.n_points
    # free nodes may send a curve out of the box, at any step; the rest keep it
    # in, and a node no velocity keeps in is free
    free = np.logical_or(data.draw(st.lists(st.booleans(), min_size=N, max_size=N)),
                         ~confining(grid).any(axis=1))
    policy = np.stack([np.where(free, data.draw(policies(grid)),
                                data.draw(confined_policies(grid))) for _ in range(K)])
    vf = M.ValueField(grid, np.arange(K + 1) * grid.dt, np.zeros((K + 1, N)), policy)
    w = weights(data.draw, N)
    if not all(free) and data.draw(st.booleans()):  # curves from kept nodes only: later exits
        w = np.where(free, 0.0, w + 1.0)
    m0 = M.GridMeasure(grid, w / w.sum())
    starts = m0.support()
    # each curve alone, one forward-Euler step at a time through velocity_at
    pos, vel = [], []
    for node in starts:
        x = [grid.points[node]]
        v = []
        for k in range(K):
            v.append(vf.velocity_at(k, x[-1][None])[0])
            x.append(x[-1] + grid.dt * v[-1])
        pos.append(x)
        vel.append(v)
    pos, vel = np.array(pos), np.array(vel)
    out = ~grid.in_box(pos[:, 1:])  # (C, K)
    first = [int(np.argmax(o)) if o.any() else K for o in out]
    k = min(first)
    if k < K:  # the first curve out at the earliest step any is out
        c = first.index(k)
        want = errors.EscapedBox(int(starts[c]), float(vf.times[k + 1]), pos[c, k + 1])
        with pytest.raises(errors.EscapedBox) as raised:
            M.trace_optimal_flow(vf, m0)
        assert str(raised.value) == str(want)
        return
    b = M.trace_optimal_flow(vf, m0)
    assert b.positions.shape == (len(starts), K + 1, grid.dim)
    assert b.velocities.shape == (len(starts), K, grid.dim)
    np.testing.assert_array_equal(b.positions, pos)  # bit for bit
    np.testing.assert_array_equal(b.velocities, vel)
    np.testing.assert_array_equal(b.start_nodes, starts)
    np.testing.assert_array_equal(b.masses, m0.weights[starts])


def departure_stages(step):
    """The (windows, their copy, GEMM operand, weights, product) of each stage of
    a _departure_step, read from its closure."""
    cells = dict(zip(step.__code__.co_freevars, (c.cell_contents for c in step.__closure__)))
    return cells["stages"]


def folds_cost(step):
    """How many rows of dt L a _departure_step's last weight matrix carries: 0,
    1 (b, against a column of ones) or 2 (b and ones, against 1 and r)."""
    win, _, _, w, _ = departure_stages(step)[-1]
    return len(w) - win.shape[-1]


def dt_lagrangian(L, grid):
    """The (N, nV) table of dt L(x, v) at every node and grid velocity."""
    return grid.dt * L.eval(grid.points[:, None], grid.velocities[None])


@SETTINGS
@given(grid=step_grids(), data=st.data(), slope=st.lists(finite, min_size=2, max_size=2),
       offset=finite)
def test_departure_step_matches_interp_grid(grid, data, slope, offset):
    step = _departure_step(grid, _shift_table(grid))
    pts = grid.points[:, None] + grid.dt * grid.velocities[None]  # every x + dt v
    size = grid.n_points
    vals = np.asarray(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size,
                                         max_size=size)))
    cand = step(vals)
    assert cand.shape == (size, len(grid.velocities))
    # a split of dt L folds as one row, or as two when r varies; the grid's
    # size budget predicts the largest operand a stage allocates in the
    # worst case, two
    nv = grid.v_nodes
    r = (np.arange(cand.size // nv) % 2).astype(float)  # 0, 1, 0, ...: varies
    one = _departure_step(grid, _shift_table(grid), (np.zeros(len(r)), np.zeros(nv)))
    two = _departure_step(grid, _shift_table(grid), (r, np.zeros(nv)))
    assert (folds_cost(step), folds_cost(one), folds_cost(two)) == (0, 1, 2)
    assert grid._departure_cells() == max(max(rows.size, w.size)
                                          for _, _, rows, w, _ in departure_stages(two))
    interp = M.interp_grid(grid, vals, pts)
    for got in (cand, one(vals), two(vals) - r.reshape(cand.shape[0], -1).repeat(nv, axis=1)):
        np.testing.assert_allclose(got, interp, rtol=0, atol=1e-13 * (1 + np.abs(vals).max()))
    clamped = np.clip(pts, grid.lo, grid.hi)
    affine = step(affine_on(grid, slope, offset, grid.points))
    np.testing.assert_allclose(affine.ravel(), affine_on(grid, slope, offset, clamped),
                               atol=1e-10)


@SETTINGS
@given(grid=step_grids(), data=st.data())
def test_policy_transition_is_the_steps_own_stencil(grid, data):
    L = M.quadratic_kinetic()
    step = M.BellmanStep(L, grid)
    N, rows = grid.n_points, np.arange(grid.n_points)
    policy = data.draw(policies(grid))
    u = np.asarray(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=N, max_size=N)))
    cost, nodes, weights = step.transition(policy)
    assert nodes.shape == weights.shape == (2 ** grid.dim, N)
    assert nodes.min() >= 0 and nodes.max() < N and weights.min() >= 0.0
    dtL = dt_lagrangian(L, grid)
    np.testing.assert_array_equal(cost, dtL[rows, policy])  # r + b, when folded
    # the step's own candidate with dt L added after the product; the folded
    # sum is within rounding of it (test_folded_cost_matches_the_added_one)
    want = (_departure_step(grid, step.shifts)(u) + dtL)[rows, policy]
    np.testing.assert_allclose((weights * u[nodes]).sum(axis=0) + cost, want, rtol=0,
                               atol=1e-15 * (1 + np.abs(u).max()))


@SETTINGS
@given(grid=step_grids(), data=st.data(), K=st.integers(1, 4), tilted=st.booleans())
def test_block_transition_is_the_row_by_row_one(grid, data, K, tilted):
    # bit for bit: the stationary solve passes one row, and ubar.csv keeps its bytes
    L = M.quadratic_kinetic(potential=lambda x: 0.3 * x[..., 0], C3=1.0) if tilted else (
        M.quadratic_kinetic())
    step = M.BellmanStep(L, grid)
    policy = np.stack([data.draw(policies(grid)) for _ in range(K)])
    block = step.transition(policy)
    for k, row in enumerate(policy):
        for got, want in zip(block, step.transition(row)):
            np.testing.assert_array_equal(got[k], want)


def pushed_problem(grid, data, K):
    """(step, F, uT, m0) of a kinetic L with a drawn coupling path and terminal row."""
    N = grid.n_points
    F = np.reshape(data.draw(st.lists(finite, min_size=(K + 1) * N, max_size=(K + 1) * N)),
                   (K + 1, N))
    uT = np.asarray(data.draw(st.lists(finite, min_size=N, max_size=N)))
    return M.BellmanStep(M.quadratic_kinetic(), grid), F, uT, weights(data.draw, N)


def path_cost(grid, A, path, F):
    """A(path) plus the coupling term dt sum_{k<K} <path_k, F_k>."""
    return A + grid.dt * np.vdot(path[:-1], F[:-1])


@SETTINGS
@given(grid=step_grids(), data=st.data(), K=st.integers(1, 5))
def test_push_keeps_mass_and_starts_at_m0(grid, data, K):
    step, _, uT, m0 = pushed_problem(grid, data, K)
    policy = np.stack([data.draw(policies(grid)) for _ in range(K)])
    path, A = mfg.push(step, policy, m0, uT)
    assert path.shape == (K + 1, grid.n_points) and path.min() >= 0.0
    np.testing.assert_array_equal(path[0], m0)  # bit for bit
    assert np.abs(path.sum(axis=1) - 1.0).max() <= 4 * K * np.finfo(float).eps
    # A reads dt L off the transition of each step's policy
    costs = step.transition(policy)[0]
    assert A == pytest.approx(np.vdot(path[:-1], costs) + path[-1] @ uT, rel=1e-12, abs=1e-12)


@SETTINGS
@given(grid=step_grids(), data=st.data(), K=st.integers(1, 5), alpha=st.floats(0.0, 1.0))
def test_pushed_best_response_costs_the_value(grid, data, K, alpha):
    step, F, uT, m0 = pushed_problem(grid, data, K)
    vf = M.solve_backward(step, F, uT, K * grid.dt, check_boundary=False)
    value = vf.values[0] @ m0
    floor = mfg.rounding_floor(K, np.abs(vf.values).max() + step.dtL_max)
    # discrete duality: the best response's cost is <u(0), m0> within the floor,
    # which covers the rounding of the dt L folded into the departure product
    best, A = mfg.push(step, vf.policy, m0, uT)
    assert abs(path_cost(grid, A, best, F) - value) <= floor
    # any mix of pushed paths costs at least that: eps >= -floor
    other, B = mfg.push(step, np.stack([data.draw(policies(grid)) for _ in range(K)]), m0, uT)
    mix = (1 - alpha) * best + alpha * other
    assert path_cost(grid, (1 - alpha) * A + alpha * B, mix, F) - value >= -floor


def seeded_problem(grid, data, K):
    """(step, policy, F, uT, m0) of a kinetic L: a (K, N) policy table, a (K + 1, N)
    cost path and a terminal row from one drawn seed, and drawn weights m0.  Up
    to K = 20 steps span blocks of several rows of the push's stencil."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    N, step = grid.n_points, M.BellmanStep(M.quadratic_kinetic(), grid)
    policy = rng.integers(0, len(grid.velocities), (K, N)).astype(step.policy_dtype)
    F, uT = rng.uniform(-3, 3, (K + 1, N)), rng.uniform(-3, 3, N)
    return step, policy, F, uT, weights(data.draw, N)


@SETTINGS
@given(grid=step_grids(), data=st.data(), K=st.integers(1, 20))
def test_pull_is_the_adjoint_of_push(grid, data, K):
    # <m0, pull(c, g)> = sum_{k<K} <path_k, c_k> + <path_K, g>, path the push of m0
    step, policy, F, uT, m0 = seeded_problem(grid, data, K)
    path, _ = mfg.push(step, policy, m0, uT)
    o = mfg.pull(step, policy, F[:-1], uT)
    assert o.shape == (grid.n_points,)
    scale = K * np.abs(F).max() + np.abs(uT).max()  # bounds every o_k
    assert abs(m0 @ o - np.vdot(path[:-1], F[:-1]) - path[-1] @ uT) <= mfg.rounding_floor(K, scale)


@SETTINGS
@given(grid=step_grids(), data=st.data(), K=st.integers(1, 20))
def test_pull_of_the_backward_policy_is_the_value(grid, data, K):
    # dynamic programming: the chain of the argmin policy, charged the step's
    # dt L plus dt F and u_f at the end, costs u(0) from every node; a folded
    # dt L rounds by eps max |dt L| per step (_departure_step), in the floor too
    step, _, F, uT, _ = seeded_problem(grid, data, K)
    vf = M.solve_backward(step, F, uT, K * grid.dt, check_boundary=False)
    running = step.transition(vf.policy)[0] + grid.dt * F[:-1]
    o = mfg.pull(step, vf.policy, running, uT)
    scale = np.abs(vf.values).max() + np.abs(dt_lagrangian(M.quadratic_kinetic(), grid)).max()
    floor = mfg.rounding_floor(K, scale)
    assert np.abs(o - vf.values[0]).max() <= floor


@SETTINGS
@given(dim=st.sampled_from((1, 2)), reach=st.integers(1, 4), data=st.data(),
       K=st.integers(1, 20), R=st.floats(0.0, 3.0))
def test_pull_counts_the_steps_outside_a_ball_on_a_whole_cell_chain(dim, reach, data, K, R):
    # dt = dx = 1/8 and integer velocities up to reach per axis: each step moves
    # whole cells with weight 1, so the occupation is dt times the steps outside B_R
    grid = M.GridSpec((-2.0,) * dim, (2.0,) * dim, (33,) * dim, 0.125, reach, 2 * reach + 1)
    step, policy, _, _, _ = seeded_problem(grid, data, K)
    outside = grid.radii() > R
    o = mfg.pull(step, policy, grid.dt * outside, 0.0)
    moves = np.array(np.unravel_index(policy, (2 * reach + 1,) * dim)) - reach  # (dim, K, N)
    at, want = np.array(np.unravel_index(np.arange(grid.n_points), grid.nodes)), 0
    for k in range(K):  # every start node at once
        node = np.ravel_multi_index(at, grid.nodes)
        want = want + outside[node]
        at = np.clip(at + moves[:, k, node], 0, 32)
    np.testing.assert_array_equal(o, grid.dt * want)  # bit for bit


@SETTINGS
@given(slope=st.floats(0.0, 1e3), at_one=st.floats(-1e3, 0.0), floor=st.floats(0.0, 1.0))
def test_line_search_returns_one_when_the_slope_at_one_is_not_positive(slope, at_one, floor):
    calls = []
    phi = lambda th: calls.append(th) or at_one + slope * (th - 1.0)  # noqa: E731
    assert mfg.line_search(phi, floor) == 1.0 and calls == [1.0]


@SETTINGS
@given(grid=step_grids(), data=st.data())
def test_folded_cost_matches_the_added_one(grid, data):
    N, nv = grid.n_points, grid.v_nodes
    u = np.asarray(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=N, max_size=N)))
    tilted = M.quadratic_kinetic(potential=lambda x: 0.3 * x[..., 0], C3=1.0)
    for L in (M.quadratic_kinetic(), tilted):
        step = M.BellmanStep(L, grid)
        dtL = dt_lagrangian(L, grid)
        # dt L folds exactly when it splits as r(row) + b(v_last), b its first
        # row and r its first column less the corner, bit for bit
        costs = dtL.reshape(-1, nv)
        r, b = costs[:, 0] - costs[0, 0], costs[0]
        if (r[:, None] + b == costs).all():
            assert step.dtL is None
            np.testing.assert_array_equal(step.split[0], r)
            np.testing.assert_array_equal(step.split[1], b)
            assert folds_cost(step._departure) == (2 if r.any() else 1)
        else:
            assert step.split is None and folds_cost(step._departure) == 0
            np.testing.assert_array_equal(step.dtL, dtL)
        # the fold sums in another order than the added table: a bound from
        # float64 rounding, not bit equality
        tol = 8 * np.finfo(float).eps * (np.abs(u).max() + np.abs(dtL).max())
        want = _departure_step(grid, step.shifts)(u) + dtL
        np.testing.assert_allclose(step._departure(u), want, rtol=0, atol=tol)


@SETTINGS
@given(grid=grids(), slope=st.lists(finite, min_size=2, max_size=2), offset=finite)
def test_grid_lipschitz_of_affine_is_largest_slope(grid, slope, offset):
    values = affine_on(grid, slope, offset, grid.points)
    want = max(abs(s) for s in slope[: grid.dim])
    assert _grid_lipschitz(grid, values) == pytest.approx(want, abs=1e-9)


def reference_row_lipschitz(grid, row, mask=None):
    """Largest edge slope of one node row, within the mask: one axis at a time."""
    vm = np.reshape(row, grid.nodes)
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


@SETTINGS
@given(data=st.data(), grid=grids(), rows=st.integers(1, 4), R=st.floats(0.0, 5.0))
def test_lipschitz_estimate_is_the_largest_row_constant(data, grid, rows, R):
    size = rows * grid.n_points
    table = np.reshape(data.draw(st.lists(finite, min_size=size, max_size=size)),
                       (rows, grid.n_points))
    vf = M.ValueField(grid, np.arange(rows) * grid.dt, table, None)
    mask = grid.ball_mask(R)
    want = max(reference_row_lipschitz(grid, row, mask) for row in table)
    assert M.lipschitz_estimate(vf, R) == want
    for row in table:  # one row, as the terminal datum and the analysis checks pass it
        assert _grid_lipschitz(grid, row) == reference_row_lipschitz(grid, row)
        assert _grid_lipschitz(grid, row, mask) == reference_row_lipschitz(grid, row, mask)


@SETTINGS
@given(data=st.data(), slope=st.lists(finite, min_size=2, max_size=2), offset=finite)
def test_gradient_of_affine_is_its_slope(data, slope, offset):
    grid = data.draw(grids())
    u = affine_on(grid, slope, offset, grid.points)
    # any policy: forward, backward and central differences all agree
    vf = M.ValueField(grid, np.array([0.0, grid.dt]), np.stack([u, u]),
                      data.draw(policies(grid))[None])
    got = gradient(vf, 0)
    assert got.shape == grid.points.shape
    want = np.broadcast_to(slope[: grid.dim], (grid.n_points, grid.dim))
    np.testing.assert_allclose(got, want.reshape(grid.points.shape), atol=1e-9)


# ---------------------------------------------------------------------------
# d_1 in two dimensions


def reference_d1(m1, m2):
    """d_1 as the transport LP between the full supports of m1 and m2.

    An independent reference for the difference LP: one solve per pair of
    measures, |supp m1| x |supp m2| variables, and a constraint matrix built
    entry by entry.
    """
    s1 = m1.support()
    s2 = m2.support()
    a = m1.weights[s1]
    b = m2.weights[s2]
    p = m1.grid.points[s1]
    q = m2.grid.points[s2]
    cost = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)).ravel()
    ni, nj = len(s1), len(s2)
    rows, cols, vals = [], [], []
    for i in range(ni):
        rows.extend([i] * nj)
        cols.extend(range(i * nj, (i + 1) * nj))
        vals.extend([1.0] * nj)
    for j in range(nj):
        rows.extend([ni + j] * ni)
        cols.extend(range(j, ni * nj, nj))
        vals.extend([1.0] * ni)
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(ni + nj, ni * nj))
    res = linprog(cost, A_eq=A, b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs")
    assert res.success, res.message
    return float(res.fun)


def reference_max_d1(grid, rows1, rows2):
    return max(reference_d1(M.GridMeasure(grid, a, validate=False),
                            M.GridMeasure(grid, b, validate=False))
               for a, b in zip(rows1, rows2))


@SETTINGS
@given(data=st.data())
def test_d1_2d_is_symmetric_and_obeys_the_triangle_inequality(data):
    grid = data.draw(grids(dims=(2,), max_nodes=6))
    a, b, c = (M.GridMeasure(grid, weights(data.draw, grid.n_points)) for _ in range(3))
    assert M.wasserstein1(a, a) == 0.0
    ab = M.wasserstein1(a, b)
    assert ab >= 0.0
    assert ab == pytest.approx(M.wasserstein1(b, a), rel=1e-12, abs=1e-14)
    assert M.wasserstein1(a, c) <= ab + M.wasserstein1(b, c) + 1e-12


@SETTINGS
@given(data=st.data())
def test_d1_2d_matches_cdf_formula_on_an_axis(data):
    line = data.draw(grids(dims=(1,)))
    n = line.nodes[0]
    axis = data.draw(st.integers(0, 1))
    other = data.draw(st.integers(2, 5))
    nodes = (n, other) if axis == 0 else (other, n)
    lo = (line.lo[0], -1.0) if axis == 0 else (-1.0, line.lo[0])
    hi = (line.hi[0], 1.0) if axis == 0 else (1.0, line.hi[0])
    plane = M.GridSpec(lo, hi, nodes, 0.1, 1.0, 3)
    at = data.draw(st.integers(0, other - 1))  # the row of nodes the data lies on

    def lift(w):
        out = np.zeros(nodes)
        out[(slice(None), at) if axis == 0 else (at, slice(None))] = w
        return M.GridMeasure(plane, out.ravel())

    w1, w2 = weights(data.draw, n), weights(data.draw, n)
    want = M.wasserstein1(M.GridMeasure(line, w1), M.GridMeasure(line, w2))
    assert M.wasserstein1(lift(w1), lift(w2)) == pytest.approx(want, rel=1e-12, abs=1e-14)


@SETTINGS
@given(data=st.data(), same=st.booleans())
def test_d1_2d_matches_full_support_lp(data, same):
    grid = data.draw(grids(dims=(2,), max_nodes=6))
    w1 = weights(data.draw, grid.n_points)
    w2 = w1 if same else weights(data.draw, grid.n_points)  # equal measures need no LP
    want = reference_max_d1(grid, w1[None], w2[None])
    assert _d1_lp(grid, w1 - w2) == pytest.approx(want, rel=1e-12, abs=1e-14)
    got = M.wasserstein1(M.GridMeasure(grid, w1), M.GridMeasure(grid, w2))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


@SETTINGS
@given(data=st.data())
def test_sliced_d1_is_a_lower_bound_on_the_full_support_lp(data):
    grid = data.draw(grids(dims=(2,), max_nodes=6))
    count = data.draw(st.integers(1, 3))
    rows1 = np.array([weights(data.draw, grid.n_points) for _ in range(count)])
    rows2 = np.array([weights(data.draw, grid.n_points) for _ in range(count)])
    lo = sliced_d1(grid, rows1, rows2)
    assert 0.0 <= lo <= reference_max_d1(grid, rows1, rows2) + 1e-12


@SETTINGS
@given(data=st.data())
def test_sliced_d1_is_exact_in_1d(data):
    grid = data.draw(grids(dims=(1,)))
    count = data.draw(st.integers(1, 3))
    rows1 = np.array([weights(data.draw, grid.n_points) for _ in range(count)])
    rows2 = np.array([weights(data.draw, grid.n_points) for _ in range(count)])
    lo = sliced_d1(grid, rows1, rows2)
    cdf = np.abs(np.cumsum(rows1 - rows2, axis=1)[:, :-1]).sum(axis=1).max() * grid.dx[0]
    assert lo == pytest.approx(cdf, rel=1e-12, abs=1e-14)


def reference_sliced_d1(grid, rows1, rows2, dirs):
    """sliced_d1 as its definition reads: per direction, sum a permuted copy
    of the difference rows in the order of the projected nodes."""
    best = 0.0
    for proj in (grid.points @ dirs.T).T:
        order = np.argsort(proj, kind="stable")
        c = (rows1 - rows2)[:, order]
        np.cumsum(c, axis=1, out=c)
        np.abs(c, out=c)
        best = max(best, float((c[:, :-1] @ np.diff(proj[order])).max()))
    return best


@SETTINGS
@given(data=st.data())
def test_sliced_d1_matches_its_permuted_copy_reference(data):
    grid = data.draw(grids())
    count = data.draw(st.integers(1, 8))
    rows1 = np.array([weights(data.draw, grid.n_points) for _ in range(count)])
    rows2 = np.array([weights(data.draw, grid.n_points) for _ in range(count)])
    angle = np.pi * np.arange(SLICE_DIRECTIONS) / SLICE_DIRECTIONS
    dirs = np.ones((1, 1)) if grid.dim == 1 else np.stack([np.cos(angle), np.sin(angle)], 1)
    # bit for bit: the layout of the summed rows sets BLAS's order in the product
    assert sliced_d1(grid, rows1, rows2) == reference_sliced_d1(grid, rows1, rows2, dirs)


@SETTINGS
@given(data=st.data())
def test_sliced_d1_is_exact_on_one_row_of_nodes(data):
    line = data.draw(grids(dims=(1,)))
    n = line.nodes[0]
    axis = data.draw(st.integers(0, 1))
    other = data.draw(st.integers(2, 5))
    nodes = (n, other) if axis == 0 else (other, n)
    lo = (line.lo[0], -1.0) if axis == 0 else (-1.0, line.lo[0])
    hi = (line.hi[0], 1.0) if axis == 0 else (1.0, line.hi[0])
    plane = M.GridSpec(lo, hi, nodes, 0.1, 1.0, 3)
    at = data.draw(st.integers(0, other - 1))  # the row of nodes the data lies on

    def lift(w):
        out = np.zeros(nodes)
        out[(slice(None), at) if axis == 0 else (at, slice(None))] = w
        return out.ravel()[None]

    w1, w2 = weights(data.draw, n), weights(data.draw, n)
    want = M.wasserstein1(M.GridMeasure(line, w1), M.GridMeasure(line, w2))
    assert sliced_d1(plane, lift(w1), lift(w2)) == pytest.approx(want, rel=1e-12, abs=1e-14)


def small_2d():
    return M.from_config({
        "name": "small-2d",
        "coupling": {"kind": "separable", "f": "neg_gaussian_2d", "G": "two_plus_tanh",
                     "K0": [[-1.0, -1.0], [1.0, 1.0]], "delta0": 0.1, "lip2": 0.86},
        "grid": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0], "dx": 0.5, "dt": 0.5,
                 "v_max": 2.0, "v_nodes": 9},
    })


@pytest.mark.parametrize("name, T, tol", [("RI-1", 2.0, 1e-4), ("RI-1", 4.0, 1e-4),
                                          ("small-2d", 2.0, 5e-4)])
def test_returned_pair_is_within_tol_of_its_best_response(ri1_coarse, name, T, tol):
    # the best response is recomputed from the returned path alone: one more
    # backward solve and one more push; the exploitability of the path is its
    # cost under its own coupling less the best response's, <u(0), m0>
    inst = ri1_coarse if name == "RI-1" else small_2d()
    g = inst.grid
    sol = M.solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf, g, T, tol=tol)
    assert sol.converged
    W, uT = sol.m_path.weights, inst.uf.values_on(g)
    step = M.BellmanStep(inst.L, g)
    F = inst.coupling.path_values(g, W)
    vf = M.solve_backward(step, F, uT, T)
    best, A_best = mfg.push(step, vf.policy, inst.m0.weights, uT)
    value = vf.values[0] @ inst.m0.weights
    floor = mfg.rounding_floor(len(W) - 1, np.abs(vf.values).max())
    assert abs(path_cost(g, A_best, best, F) - value) <= floor  # duality
    assert -floor <= path_cost(g, sol.diagnostics["path_cost"], W, F) - value <= tol


@SETTINGS
@given(grid=grids(), data=st.data(), K=st.integers(1, 16))
def test_stretched_start_holds_the_row(grid, data, K):
    step = M.BellmanStep(M.quadratic_kinetic(), grid)
    start = data.draw(policies(grid))
    for row in (start, None):  # None: the slowest velocity, in the step's policy dtype
        P = mfg.stretched_start(row, step, K)
        assert P.shape == (K, grid.n_points) and P.dtype == step.policy_dtype
        assert P.strides[0] == 0 and not P.flags.writeable  # no (K, N) table of its own
    np.testing.assert_array_equal(mfg.stretched_start(start, step, K), np.tile(start, (K, 1)))


@SETTINGS
@given(grid=step_grids(), data=st.data(), K=st.integers(1, 8))
def test_stretched_start_keeps_probability_rows(grid, data, K):
    # the first iterate is the push of the held row: K + 1 probability rows
    step, _, uT, m0 = pushed_problem(grid, data, K)
    W, _ = mfg.push(step, mfg.stretched_start(data.draw(policies(grid)), step, K), m0, uT)
    assert W.shape == (K + 1, grid.n_points) and W.min() >= 0.0
    assert np.abs(W.sum(axis=1) - 1.0).max() <= 4 * K * np.finfo(float).eps


@SETTINGS
@given(grid=step_grids(), data=st.data(), K=st.integers(1, 40))
def test_held_row_pushes_and_pulls_as_its_table(grid, data, K):
    # the held row's transition is built once and shared by every block: push
    # and pull give what they give on the row's (K, N) table, bit for bit, and
    # leave the shared stencil as they found it, so a second push repeats the first
    step, F, uT, m0 = pushed_problem(grid, data, K)
    P = mfg.stretched_start(data.draw(policies(grid)), step, K)
    table = np.ascontiguousarray(P)
    want_path, want_A = mfg.push(step, table, m0, uT)
    for _ in range(2):
        path, A = mfg.push(step, P, m0, uT)
        np.testing.assert_array_equal(path, want_path)
        assert A == want_A
    np.testing.assert_array_equal(mfg.pull(step, P, F[:-1], uT),
                                  mfg.pull(step, table, F[:-1], uT))


@pytest.mark.parametrize("name", ["RI-1", RI2], ids=["ri1", "ri2"])
def test_stationary_feedback_keeps_m_bar(name):
    # the feedback is at rest on m_bar, so m_bar pushed through it, held for
    # the K steps of T = 4, is m_bar at every step, bit for bit
    inst = M.load_instance(name)
    g = inst.grid
    erg = M.solve_ergodic(inst.L, inst.coupling, g)
    step = M.BellmanStep(inst.L, g)
    assert erg.residuals["second_equation"] == 0.0
    assert erg.policy.shape == (g.n_points,) and erg.policy.dtype == step.policy_dtype
    K = g.time_steps(4.0)
    path, _ = mfg.push(step, mfg.stretched_start(erg.policy, step, K), erg.m_bar.weights,
                       np.zeros(g.n_points))
    np.testing.assert_array_equal(path, np.tile(erg.m_bar.weights, (K + 1, 1)))


@SETTINGS
@given(grid=step_grids(), data=st.data(), K=st.integers(1, 5))
def test_cold_start_push_rests_at_m0(grid, data, K):
    _, _, uT, m0 = pushed_problem(grid, data, K)
    L = M.quadratic_kinetic(potential=lambda x: 0.3 * x[..., 0], C3=1.0)
    step = M.BellmanStep(L, grid)
    path, A = mfg.push(step, mfg.stretched_start(None, step, K), m0, uT)
    # an odd v_nodes puts v = 0 in the grid only up to linspace's rounding of the middle node
    if not np.square(grid.velocities).sum(axis=1).min():  # v = 0 exactly: the crowd stays put
        np.testing.assert_array_equal(path, np.tile(m0, (K + 1, 1)))
        at_rest = K * grid.dt * (m0 @ L.eval(grid.points, np.zeros(grid.dim)))
        assert abs(A - at_rest - m0 @ uT) <= mfg.rounding_floor(K, abs(at_rest) + np.abs(uT).max())
    else:  # no velocity exactly at rest: the slowest one still keeps mass
        assert np.abs(path.sum(axis=1) - 1.0).max() <= 4 * K * np.finfo(float).eps


@SETTINGS
@given(data=st.data(), dim=st.sampled_from([1, 2]), v_max=st.floats(0.5, 5.0),
       half=st.integers(3, 40))
def test_legendre_of_kinetic_lagrangian_is_half_square(data, dim, v_max, half):
    grid = M.GridSpec([-1.0] * dim, [1.0] * dim, [3] * dim, 0.1, v_max, 2 * half + 1)
    dv = grid.v_axis[1] - grid.v_axis[0]
    inner = st.floats(-(v_max - 2 * dv), v_max - 2 * dv)  # two steps inside the edge
    p = np.array([data.draw(inner) for _ in range(dim)])
    x = points_in(data.draw, grid, 1)[0]
    H, vstar = M.legendre_transform(M.quadratic_kinetic(), x, p if dim == 2 else p[0], grid)
    sq = float(p @ p)
    assert abs(H - 0.5 * sq) <= 1e-12 * (1.0 + sq)
    np.testing.assert_allclose(np.atleast_1d(vstar), p, rtol=0, atol=1e-12 * (1.0 + sq))


# ---------------------------------------------------------------------------
# CSV tables: byte for byte what csv.writer (or a "\n" join) of repr'd floats gives

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 1e16, -1e16, 1e-5,
           1e-4, 0.1, 1 / 3, 2.5e-15, 123456789012345680.0]
any_float = st.one_of(st.sampled_from(SPECIAL),
                      st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def _ref_table(path, header, times, rows, coords, support_only):
    """The csv.writer layout: [t,] node_index, coordinates, value; CRLF lines."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for t, row in zip(times, rows):
            lead = [] if t is None else [repr(t)]
            for i, v in enumerate(row.tolist()):
                if not support_only or v > SUPPORT_EPS:
                    w.writerow([*lead, i, *coords[i], repr(v)])


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class Draws:
    """Stands in for st.data() in an @example: each draw returns the next value given."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@SETTINGS
@given(data=st.data(), grid=grids())
@example(data=Draws([0.0, 0.5, 1.0], [1.0, 2.0, 3.0], [0.0, -1.0, SUPPORT_EPS], [0.5, 0.0, 0.5]),
         grid=M.GridSpec(0.0, 1.0, 3, 0.5, 1.0, 3))  # a path row with no node in the support
def test_csv_writers_match_the_csv_writer_reference(data, grid):
    n = grid.n_points
    times = np.array(data.draw(st.lists(any_float, min_size=1, max_size=3)))
    values = np.array([data.draw(st.lists(any_float, min_size=n, max_size=n))
                       for _ in times])
    names = list("xy"[: grid.dim])
    coords = [[repr(c) for c in row] for row in grid.points.tolist()]
    vf = M.ValueField(grid, times, values, None)
    path = M.MeasurePath(grid, times, values)
    m = M.GridMeasure(grid, values[0], validate=False)
    sol = SimpleNamespace(lam=0.0, mather_node=0, weak_kam_steps=1, weak_kam_residual=0.0,
                          weak_kam_s=0.0, evaluation_sweeps=0, policy_sweeps=[0],
                          policy_changes=[0], residuals={}, u_bar=values[-1], m_bar=m)
    with mock.patch.object(cli, "solve_ergodic", lambda *a, **k: sol), \
            mock.patch.object(cli, "check_standing_assumptions", lambda *a: None):
        writers = cli._run_ergodic({}, SimpleNamespace(grid=grid, L=None, coupling=None))[0]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
        for write, header, ts, rows, support in (
                (vf.to_csv, ["t", "node_index", *names, "u"], times.tolist(), values, False),
                (path.to_csv, ["t", "node_index", *names, "weight"], times.tolist(), values,
                 True),
                (writers["mbar.csv"], ["node_index", *names, "weight"], [None], values[:1],
                 False)):
            write(got)
            _ref_table(want, header, ts, rows, coords, support)
            text = _read(got)
            assert text == _read(want)
            assert text.count(b"\n") == text.count(b"\r\n") == len(text.splitlines())
        writers["ubar.csv"](got)
        text = _read(got)
        assert text.decode() == "".join(
            ",".join(cells) + "\n" for cells in
            [["node_index", *names, "ubar"]]
            + [[str(i), *c, repr(u)] for i, (c, u) in enumerate(zip(coords, values[-1].tolist()))])
        assert b"\r" not in text


def blocks_at(weights, cpus, mp):
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return _blocks(weights)


@SETTINGS
@given(weights=st.lists(st.integers(1, 10_000), min_size=1, max_size=12),
       cpus=st.integers(1, 8))
def test_blocks_cover_the_items_one_per_cpu(weights, cpus):
    n = min(cpus, len(weights))
    with pytest.MonkeyPatch.context() as mp:
        blocks = blocks_at(weights, cpus, mp)
        assert len(blocks) == n
        assert [lo for lo, _ in blocks] == [0, *(hi for _, hi in blocks[:-1])]
        assert blocks[-1][1] == len(weights)
        assert all(lo < hi for lo, hi in blocks)
        units = blocks_at([1] * len(weights), cpus, mp)
        assert [lo for lo, _ in units] == [i * len(weights) // n for i in range(n)]

        def unknown(pid):
            raise OSError("no affinity")

        mp.setattr(os, "sched_getaffinity", unknown)
        assert _blocks(weights) == [(0, len(weights))]
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        mp.delattr(os, "fork")
        assert _blocks(weights) == [(0, len(weights))]


def test_ri1_ladder_blocks_at_two_cpus(ri1):
    # K = 100, 200 and 400 steps: the running 300 is within half of 700
    with pytest.MonkeyPatch.context() as mp:
        assert blocks_at([ri1.grid.time_steps(T) for T in (2.0, 4.0, 8.0)], 2, mp) \
            == [(0, 2), (2, 3)]
