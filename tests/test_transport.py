"""Characteristic tracing, excursion times, action defect."""

import tracemalloc

import numpy as np
import pytest

import mfglab as M
from mfglab import errors
from mfglab.measure import sliced_d1


def grid1d(dx, lo=-4.0, hi=4.0, v_max=4.0):
    n = int(round((hi - lo) / dx)) + 1
    vn = int(round(2 * v_max / dx)) + 1
    return M.GridSpec((lo,), (hi,), (n,), dx, v_max, vn)


def quadratic_terminal():
    return M.TerminalDatum(lambda x: 0.5 * (x ** 2).sum(-1), lip=4.0, c0=0.0)


def hl_setup(dx, T=1.0):
    g = grid1d(dx)
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    return g, M.solve_backward(step, None, quadratic_terminal(), T)


def straight_bundle(g, x0, speed, T):
    """Hand-built single curve x(t) = x0 + speed * t with unit mass."""
    K = g.time_steps(T)
    times = np.arange(K + 1) * g.dt
    pos = x0 + speed * times
    return M.TrajectoryBundle(g, times, np.asarray([g.nearest_node(x0)]),
                              pos[None, :, None], np.full((1, K, 1), speed), np.asarray([1.0]))


# ---------------------------------------------------------------------------
# tracing the optimal flow


def test_trace_endpoint_and_velocity():
    # optimal curve from x0 = 1: x(t) = (2 - t)/2 at T = 1, constant speed -1/2
    g, vf = hl_setup(0.02)
    b = M.trace_optimal_flow(vf, M.GridMeasure.dirac(g, 1.0))
    assert b.positions[0, -1] == pytest.approx(0.5, abs=2.0 * (0.02 + 0.02))
    assert np.allclose(b.velocities, -0.5, atol=0.05)
    assert b.max_speed() <= g.v_max + 1e-12


def test_trace_escaping_raises():
    g = grid1d(0.04, v_max=4.0)
    # fabricate a value field whose policy pushes hard away from the origin:
    # velocity index 0 is -4 and index nv - 1 is +4
    K = g.time_steps(1.0)
    times = np.arange(K + 1) * g.dt
    values = np.zeros((K + 1, g.n_points))
    policy = np.where(g.points[:, 0] < 0.0, 0, g.v_nodes - 1)[None].repeat(K, axis=0)
    vf = M.ValueField(g, times, values, policy)
    w = np.zeros(g.n_points)
    w[[g.nearest_node(x) for x in (-3.7, 3.0, 3.8, 3.85)]] = 0.25
    # curves 7, 195 and 196 all leave at the second step; 7 is named
    with pytest.raises(errors.EscapedBox, match=r"curve 7 left the box at t=0\.08,"):
        M.trace_optimal_flow(vf, M.GridMeasure(g, w))


def test_measure_path_mass_and_flat_continuity():
    g, vf = hl_setup(0.02)
    b = M.trace_optimal_flow(vf, M.GridMeasure.uniform_on(g, -1.0, 1.0))
    path = M.measure_path(b)
    masses = path.weights.sum(axis=1)
    np.testing.assert_allclose(masses, 1.0, atol=1e-12)
    # deposition keeps the path Lipschitz in the flat metric:
    # d1(m(t_k), m(t_{k+1})) <= max speed * dt, exactly
    vmax = b.max_speed()
    assert sliced_d1(g, path.weights[:-1], path.weights[1:]) <= vmax * g.dt + 1e-12


def test_measure_path_peak_memory_stays_near_its_output(ri1):
    # the RI-1 T = 8 bundle of the first fictitious-play iteration: one deposit
    # holds its (K+1, N) output and a few per-corner stencil arrays, not
    # (K+1)*C copies of the masses, the row offsets or the normalized rows
    g = ri1.grid
    vf = M.solve_backward(M.BellmanStep(ri1.L, g), ri1.coupling.values_on(g, ri1.m0),
                          ri1.uf, 8.0)
    b = M.trace_optimal_flow(vf, ri1.m0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        path = M.measure_path(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.weights.shape == (401, 401)
    assert peak - entry <= 3 * path.weights.nbytes


# ---------------------------------------------------------------------------
# excursion time on a hand-built curve


def test_occupation_time_straight_curve():
    # x(t) = 2 - t/2 stays outside B_1 until t = 2
    g = grid1d(0.02)
    b = straight_bundle(g, 2.0, -0.5, 4.0)
    per_curve, worst = M.occupation_time_outside(b, 1.0)
    assert worst == per_curve[0]
    assert worst == pytest.approx(2.0, abs=g.dt + 1e-12)


def test_occupation_time_inside_is_zero():
    g = grid1d(0.02)
    b = straight_bundle(g, 0.5, 0.0, 4.0)
    _, worst = M.occupation_time_outside(b, 1.0)
    assert worst == 0.0


# ---------------------------------------------------------------------------
# action defect: traced curves realize the value up to interpolation error


def test_action_defect_small_and_first_order():
    worst = {}
    for dx in (0.04, 0.02):
        g, vf = hl_setup(dx)
        b = M.trace_optimal_flow(vf, M.GridMeasure.uniform_on(g, -1.0, 1.0))
        uf_vals = quadratic_terminal().values_on(g)
        d = M.action_defect(b, vf, M.quadratic_kinetic(), None, uf_vals)
        worst[dx] = float(np.abs(d).max())
        assert worst[dx] <= 0.01
    order = np.log2(worst[0.04] / worst[0.02])
    assert order >= 0.8


def test_action_defect_of_two_curves_is_per_curve():
    # a 1-D bundle of exactly two curves must not be read as one 2-D point
    g = grid1d(0.1, lo=-2.0, hi=2.0)
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    vf = M.solve_backward(step, None, quadratic_terminal(), 0.5)
    uf_vals = quadratic_terminal().values_on(g)

    def defects(nodes):
        w = np.zeros(g.n_points)
        w[nodes] = 1.0 / len(nodes)
        b = M.trace_optimal_flow(vf, M.GridMeasure(g, w))
        return M.action_defect(b, vf, M.quadratic_kinetic(), None, uf_vals)

    together = defects([18, 22])
    assert together.shape == (2,)
    np.testing.assert_array_equal(together, [defects([18])[0], defects([22])[0]])
