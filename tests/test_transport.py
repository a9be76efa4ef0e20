"""Characteristic tracing and the deposit of the traced curves; excursion time
and action of the crowd read off the Bellman stencil (mfg.pull)."""

import tracemalloc

import numpy as np
import pytest

import mfglab as M
from mfglab import errors, mfg
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


# ---------------------------------------------------------------------------
# tracing the optimal flow


def test_trace_endpoint_and_velocity():
    # optimal curve from x0 = 1: x(t) = (2 - t)/2 at T = 1, constant speed -1/2
    g, vf = hl_setup(0.02)
    b = M.trace_optimal_flow(vf, M.GridMeasure.dirac(g, 1.0))
    assert b.positions[0, -1] == pytest.approx(0.5, abs=2.0 * (0.02 + 0.02))
    assert np.allclose(b.velocities, -0.5, atol=0.05)
    assert np.abs(b.velocities).max() <= g.v_max + 1e-12


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
    vmax = np.abs(b.velocities).max()
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
# excursion time on a held velocity, read off the stencil


def held_policy(g, step, speed, T):
    """(K, N) policy table holding the velocity speed at every node and step."""
    j = int(np.argmin(np.abs(g.velocities[:, 0] - speed)))
    assert g.velocities[j, 0] == pytest.approx(speed, abs=1e-12)
    return np.full((g.time_steps(T), g.n_points), j, dtype=step.policy_dtype)


def occupation_outside(g, step, policy, R):
    """Expected time outside the closed ball B_R from every start node."""
    return mfg.pull(step, policy, g.dt * (g.radii() > R), 0.0)


def test_occupation_time_straight_curve():
    # x(t) = 2 - t/2 stays outside B_1 until t = 2; the stencil splits each
    # half-cell step between two nodes, so the chain's mean follows the curve
    g = grid1d(0.02)
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    o = occupation_outside(g, step, held_policy(g, step, -0.5, 4.0), 1.0)
    assert o.shape == (g.n_points,)
    i = g.nearest_node(2.0)
    worst = o[M.GridMeasure.dirac(g, 2.0).weights > 0].max()
    assert worst == o[i]
    assert worst == pytest.approx(2.0, abs=g.dt + 1e-12)


def test_occupation_time_inside_is_zero():
    g = grid1d(0.02)
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    o = occupation_outside(g, step, held_policy(g, step, 0.0, 4.0), 1.0)
    assert o[M.GridMeasure.dirac(g, 0.5).weights > 0].max() == 0.0


# ---------------------------------------------------------------------------
# action defect: the stencil's action against the value


def stencil_action(g, vf):
    """Expected dt L plus terminal cost of the chain vf.policy moves, per start node."""
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    uf_vals = quadratic_terminal().values_on(g)
    return mfg.pull(step, vf.policy, step.transition(vf.policy)[0], uf_vals)


def test_action_defect_small_and_first_order():
    # the stencil's action is the scheme's u(0) within rounding; against the
    # Hopf-Lax value |x|^2 / (2 (1 + T)) it is off by the scheme's first-order error
    worst = {}
    for dx in (0.04, 0.02):
        g, vf = hl_setup(dx)
        action = stencil_action(g, vf)
        floor = mfg.rounding_floor(len(vf.policy), np.abs(vf.values).max())
        assert np.abs(action - vf.values[0]).max() <= floor
        support = M.GridMeasure.uniform_on(g, -1.0, 1.0).weights > 0
        d = action[support] - g.radii()[support] ** 2 / 4.0
        worst[dx] = float(np.abs(d).max())
        assert worst[dx] <= 0.01
    order = np.log2(worst[0.04] / worst[0.02])
    assert order >= 0.8


def test_action_defect_of_two_curves_is_per_curve():
    # a 1-D cloud of exactly two nodes must not be read as one 2-D point: its
    # pushed action is the mass-weighted sum of each node's pulled action
    g = grid1d(0.1, lo=-2.0, hi=2.0)
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    vf = M.solve_backward(step, None, quadratic_terminal(), 0.5)
    action = stencil_action(g, vf)
    uf_vals = quadratic_terminal().values_on(g)
    floor = mfg.rounding_floor(len(vf.policy), np.abs(vf.values).max())

    def pushed(nodes):
        w = np.zeros(g.n_points)
        w[nodes] = 1.0 / len(nodes)
        return mfg.push(step, vf.policy, w, uf_vals)[1]

    together = action[[18, 22]]
    assert together.shape == (2,)
    assert abs(pushed([18]) - together[0]) <= floor
    assert abs(pushed([22]) - together[1]) <= floor
    assert abs(pushed([18, 22]) - together.mean()) <= floor
