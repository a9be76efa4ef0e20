"""Invariants of the grid kernels on generated 1-D and 2-D grids.

Deposit keeps mass and first moment, also over a batch of point sets;
interpolation, the grid Lipschitz constant and the upwind gradient are
exact on affine functions; the backward step's departure values agree with
interp_grid at every x + dt v, past the box too.  The 2-D d_1 is symmetric,
obeys the triangle inequality, agrees with the 1-D CDF formula on data laid
along an axis, and matches a full-support transport LP per row, also as the
stopping residual of a 2-D fixed point, and the pair the solver returns is
within its tolerance of its own best response.  The Legendre transform of the
kinetic Lagrangian |v|^2/2 is |p|^2/2, attained at v = p.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

import mfglab as M
from mfglab import mfg
from mfglab.hjb import _departure_step, _grid_lipschitz
from mfglab.measure import _d1_lp, deposit, sup_d1

SETTINGS = settings(max_examples=40, deadline=None)
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


def points_in(draw, grid, count, margin=0.0):
    """count points, each coordinate uniform over the box widened by margin."""
    cols = []
    for a, b in zip(grid.lo, grid.hi):
        w = margin * (b - a)
        u = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
        cols.append(a - w + np.asarray(u) * (b - a + 2 * w))
    pts = np.stack(cols, axis=-1)
    return pts[:, 0] if grid.dim == 1 else pts


def affine_on(grid, slope, offset, pts):
    return grid.coordinates(pts) @ np.asarray(slope[: grid.dim]) + offset


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
    np.testing.assert_allclose(w @ grid.coordinates(), masses @ grid.coordinates(pts),
                               atol=1e-10)
    # a batch of point sets deposits row by row, bit for bit
    batch = deposit(grid, np.stack([pts, pts[::-1]]), masses)
    np.testing.assert_array_equal(batch, [w, deposit(grid, pts[::-1], masses)])


@SETTINGS
@given(data=st.data(), slope=st.lists(finite, min_size=2, max_size=2), offset=finite)
def test_interp_grid_exact_on_affine_with_clamping(data, slope, offset):
    grid = data.draw(grids())
    pts = points_in(data.draw, grid, 10, margin=0.5)  # some points outside the box
    values = affine_on(grid, slope, offset, grid.points)
    clamped = np.clip(grid.coordinates(pts), grid.lo, grid.hi)
    got = M.interp_grid(grid, values, pts)
    assert got.shape == (10,)
    np.testing.assert_allclose(got, affine_on(grid, slope, offset, clamped), atol=1e-10)


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


@SETTINGS
@given(grid=step_grids(), data=st.data(), slope=st.lists(finite, min_size=2, max_size=2),
       offset=finite)
def test_departure_step_matches_interp_grid(grid, data, slope, offset):
    step = _departure_step(grid)
    pts = grid.points[:, None] + grid.dt * grid.velocities[None]  # every x + dt v
    size = grid.n_points
    vals = np.asarray(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size,
                                         max_size=size)))
    cand = step(vals)
    assert cand.shape == (size, len(grid.velocities))
    np.testing.assert_allclose(cand, M.interp_grid(grid, vals, pts), rtol=0,
                               atol=1e-13 * (1 + np.abs(vals).max()))
    clamped = np.clip(grid.coordinates(pts), grid.lo, grid.hi)
    affine = step(affine_on(grid, slope, offset, grid.points))
    np.testing.assert_allclose(affine.ravel(), affine_on(grid, slope, offset, clamped),
                               atol=1e-10)


@SETTINGS
@given(grid=grids(), slope=st.lists(finite, min_size=2, max_size=2), offset=finite)
def test_grid_lipschitz_of_affine_is_largest_slope(grid, slope, offset):
    values = affine_on(grid, slope, offset, grid.points)
    want = max(abs(s) for s in slope[: grid.dim])
    assert _grid_lipschitz(grid, values) == pytest.approx(want, abs=1e-9)


@SETTINGS
@given(data=st.data(), slope=st.lists(finite, min_size=2, max_size=2), offset=finite)
def test_gradient_of_affine_is_its_slope(data, slope, offset):
    grid = data.draw(grids())
    u = affine_on(grid, slope, offset, grid.points)
    # any feedback: forward, backward and central differences all agree
    size = grid.points.size
    fb = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=size, max_size=size))
    vf = M.ValueField(grid, np.array([0.0, grid.dt]), np.stack([u, u]),
                      np.reshape(fb, (1,) + grid.points.shape))
    got = M.gradient(vf, 0)
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
    p = m1.grid.coordinates()[s1]
    q = m2.grid.coordinates()[s2]
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


def reference_sup_d1(grid, rows1, rows2):
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
@given(data=st.data())
def test_sup_d1_2d_matches_full_support_lp_per_row(data):
    grid = data.draw(grids(dims=(2,), max_nodes=6))
    count = data.draw(st.integers(1, 4))
    rows1 = np.array([weights(data.draw, grid.n_points) for _ in range(count)])
    rows2 = np.array([weights(data.draw, grid.n_points) for _ in range(count)])
    for k in data.draw(st.sets(st.integers(0, count - 1))):
        rows2[k] = rows1[k]  # rows without an LP mixed in
    want = [reference_sup_d1(grid, rows1[k : k + 1], rows2[k : k + 1]) for k in range(count)]
    np.testing.assert_allclose(_d1_lp(grid, rows1 - rows2), want, rtol=1e-12, atol=1e-14)
    assert sup_d1(grid, rows1, rows2) == pytest.approx(max(want), rel=1e-12, abs=1e-14)


def small_2d():
    return M.from_config({
        "name": "small-2d",
        "coupling": {"kind": "separable", "f": "neg_gaussian_2d", "G": "two_plus_tanh",
                     "K0": [[-1.0, -1.0], [1.0, 1.0]], "delta0": 0.1, "lip2": 0.86},
        "grid": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0], "dx": 0.5, "dt": 0.5,
                 "v_max": 2.0, "v_nodes": 9},
    })


def test_2d_fixed_point_stops_where_the_reference_lp_stops():
    inst = small_2d()
    params = M.MFGParams(tol=5e-4, averaging=0.5)

    def solve():
        return M.solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf,
                                      inst.grid, 2.0, params)

    with mock.patch.object(mfg, "sup_d1", reference_sup_d1):
        want = solve()
    got = solve()
    assert want.converged and want.iterations == 10
    assert got.iterations == want.iterations
    np.testing.assert_allclose(got.residuals, want.residuals, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(got.m_path.weights, want.m_path.weights)


@pytest.mark.parametrize("name, T, tol", [("RI-1", 2.0, 1e-4), ("RI-1", 4.0, 1e-4),
                                          ("small-2d", 2.0, 5e-4)])
def test_returned_pair_is_within_tol_of_its_best_response(ri1_coarse, name, T, tol):
    # the gap is recomputed from the returned path alone: one more backward
    # solve, one more forward trace, and the full-support reference LP
    inst = ri1_coarse if name == "RI-1" else small_2d()
    g = inst.grid
    sol = M.solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf, g, T,
                                 M.MFGParams(tol=tol))
    assert sol.converged
    vf = M.solve_backward(inst.L, inst.coupling.path_values(g, sol.m_path.weights),
                          inst.uf, g, T)
    best = M.measure_path(M.trace_optimal_flow(vf, inst.m0)).weights
    assert reference_sup_d1(g, best, sol.m_path.weights) <= tol


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
