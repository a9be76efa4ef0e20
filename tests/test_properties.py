"""Invariants of the grid kernels on generated 1-D and 2-D grids.

Deposit keeps mass and first moment, also over a batch of point sets;
interpolation, the grid Lipschitz constant and the upwind gradient are
exact on affine functions; the sparse interpolation operator agrees with
interp_grid and its rows are partitions of unity.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfglab as M
from mfglab import model
from mfglab.hjb import _grid_lipschitz
from mfglab.measure import deposit

SETTINGS = settings(max_examples=40, deadline=None)
finite = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def grids(draw):
    """A box grid in one or two dimensions with a few nodes per axis."""
    dim = draw(st.sampled_from([1, 2]))
    lo = [draw(st.floats(-3.0, 0.0)) for _ in range(dim)]
    hi = [a + draw(st.floats(0.5, 4.0)) for a in lo]
    nodes = [draw(st.integers(2, 9)) for _ in range(dim)]
    return M.GridSpec(lo, hi, nodes, 0.1, 1.0, 3)


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


@SETTINGS
@given(data=st.data(), slope=st.lists(finite, min_size=2, max_size=2), offset=finite)
def test_interp_operator_matches_interp_grid(data, slope, offset):
    grid = data.draw(grids())
    pts = points_in(data.draw, grid, 10, margin=0.5)  # some points outside the box
    with mock.patch.object(model, "OPERATOR_BLOCK", data.draw(st.integers(1, 12))):
        P = model.interp_operator(grid, pts)
    assert P.shape == (10, grid.n_points)
    assert (np.diff(P.indptr) == 2**grid.dim).all()
    np.testing.assert_allclose(P.sum(axis=1).A1, 1.0, rtol=0, atol=1e-15)
    size = grid.n_points
    vals = np.asarray(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size,
                                         max_size=size)))
    np.testing.assert_allclose(P @ vals, M.interp_grid(grid, vals, pts), rtol=0,
                               atol=1e-13 * (1 + np.abs(vals).max()))
    clamped = np.clip(grid.coordinates(pts), grid.lo, grid.hi)
    affine = affine_on(grid, slope, offset, grid.points)
    np.testing.assert_allclose(P @ affine, affine_on(grid, slope, offset, clamped),
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
