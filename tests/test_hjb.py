"""Backward value solver against the closed-form Hopf-Lax solution.

With L = v^2/2, no coupling term, and terminal datum x^2/2 the exact value is
u(t, x) = x^2 / (2 (1 + T - t)), with optimal feedback v(t, x) = -x / (1 + T - t).
"""

import os
import re

import numpy as np
import pytest

import mfglab as M
from mfglab import errors, hjb
from mfglab.instances import PROFILES


def grid1d(dx, lo=-4.0, hi=4.0, v_max=4.0):
    n = int(round((hi - lo) / dx)) + 1
    vn = int(round(2 * v_max / dx)) + 1
    return M.GridSpec((lo,), (hi,), (n,), dx, v_max, vn)


def quadratic_terminal():
    return M.TerminalDatum(lambda x: 0.5 * (x ** 2).sum(-1), lip=4.0, c0=0.0)


def solve_hl(dx, T=1.0):
    g = grid1d(dx)
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    return g, M.solve_backward(step, None, quadratic_terminal(), T)


def gradient(vf, k):
    """Spatial gradient of the value at time index k, upwinded by the policy.

    Where the stored velocity is positive the scheme looked to the right,
    so a forward difference follows the characteristic; a negative velocity
    takes the backward difference; a near-zero one uses the central one.
    Boundary nodes take the available one-sided difference.
    """
    g = vf.grid
    um = vf.values[k].reshape(g.nodes)
    v = g.velocities[vf.policy[min(k, len(vf.policy) - 1)]]
    dv = g.v_axis[1] - g.v_axis[0]
    out = np.empty((g.n_points, g.dim))
    for d, dx in enumerate(g.dx):
        ua = np.moveaxis(um, d, 0)
        diff = (ua[1:] - ua[:-1]) / dx
        fwd = np.concatenate([diff, diff[-1:]])
        bwd = np.concatenate([diff[:1], diff])
        ctr = 0.5 * (fwd + bwd)
        va = np.moveaxis(v[:, d].reshape(g.nodes), d, 0)
        sel = np.where(va > 0.5 * dv, fwd, np.where(va < -0.5 * dv, bwd, ctr))
        out[:, d] = np.moveaxis(sel, 0, d).ravel()
    return out


def hj_residual(vf, L, F_path, sample_ks=None):
    """Sup of |-du/dt + H(x, Du) - F| over smooth interior nodes (1-D).

    H is evaluated by brute-force Legendre max over the velocity grid.
    Nodes where forward and backward differences disagree by more than
    10 dx are treated as kinks and skipped, as are box boundary nodes.
    """
    g = vf.grid
    K = vf.values.shape[0] - 1
    F = hjb._as_path_values(F_path, g, K)
    if sample_ks is None:
        sample_ks = range(K)
    if g.dim != 1:
        raise NotImplementedError("residual diagnostic is 1-D")
    dx = g.dx[0]
    V = g.v_axis
    Lmat = np.asarray(L.eval(g.points[None, :], g.velocities[:, None]), dtype=float)
    worst = 0.0
    for k in sample_ks:
        u = vf.values[k]
        dudt = (vf.values[k + 1] - u) / g.dt
        fwd = (u[2:] - u[1:-1]) / dx
        bwd = (u[1:-1] - u[:-2]) / dx
        smooth = np.abs(fwd - bwd) <= 10.0 * dx
        p = 0.5 * (fwd + bwd)
        H = (p[None, :] * V[:, None] - Lmat[:, 1:-1]).max(axis=0)
        res = np.abs(-dudt[1:-1] + H - F[k][1:-1])
        if smooth.any():
            worst = max(worst, float(res[smooth].max()))
    return worst


def hl_error(g, vf, T=1.0, R=2.0):
    mask = g.ball_mask(R)
    worst = 0.0
    for k, t in enumerate(vf.times):
        exact = (g.points ** 2).sum(axis=1) / (2.0 * (1.0 + T - t))
        worst = max(worst, float(np.abs(vf.values[k] - exact)[mask].max()))
    return worst


def test_hopf_lax_error_bound_and_order():
    errs = {}
    for dx in (0.04, 0.02):
        g, vf = solve_hl(dx)
        errs[dx] = hl_error(g, vf)
        assert errs[dx] <= 2.0 * (dx + dx)
    order = np.log2(errs[0.04] / errs[0.02])
    assert order >= 0.8


def test_hopf_lax_oracle_point_value():
    # min_y { (1 - y)^2/2 + y^2/2 } = 1/4 at y = 1/2
    g = grid1d(0.02)
    val = M.hopf_lax_oracle(quadratic_terminal(), 0.0, np.array([1.0]), 1.0, g)
    assert val == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("dim, x", [(1, 1.0), (1, np.ones((1, 1))), (2, np.ones(1))])
@pytest.mark.parametrize("t", [0.5, 1.0])  # before the horizon and at it
def test_hopf_lax_oracle_names_the_point_shape(dim, x, t):
    g = M.GridSpec((-1.0,) * dim, (1.0,) * dim, (5,) * dim, 0.5, 1.0, 5)
    want = f"a point on a {dim}-D grid is an array of shape ({dim},), got shape {np.shape(x)}"
    with pytest.raises(ValueError, match=re.escape(want)):
        M.hopf_lax_oracle(quadratic_terminal(), t, x, 1.0, g)


def test_solver_agrees_with_oracle():
    g, vf = solve_hl(0.02)
    for x in (-1.5, 0.3, 1.0):
        want = M.hopf_lax_oracle(quadratic_terminal(), 0.0, np.array([x]), 1.0, g)
        got = float(np.interp(x, g.axes[0], vf.values[0]))
        assert got == pytest.approx(want, abs=2.0 * (0.02 + 0.02))


def test_terminal_slice_is_exact():
    g, vf = solve_hl(0.04)
    np.testing.assert_allclose(vf.values[-1], (g.points ** 2).sum(axis=1) / 2, atol=1e-14)


def test_gradient_upwind():
    g, vf = solve_hl(0.02)
    gr = gradient(vf, 0)
    i = g.nearest_node(1.0)
    assert gr[i] == pytest.approx(0.5, abs=g.dx[0])  # exact Du(0, 1) = 1/(1+T)


def test_feedback_velocity():
    g, vf = solve_hl(0.02)
    v = vf.velocity_at(0, np.asarray([1.0]))
    assert v[0] == pytest.approx(-0.5, abs=0.05)  # exact -x/(1+T)


def test_comparison_principle():
    # raising the terminal datum raises the value everywhere
    g = grid1d(0.04)
    L = M.quadratic_kinetic()
    lo = quadratic_terminal()
    hi = M.TerminalDatum(lambda x: 0.5 * (x ** 2).sum(-1) + 0.3, lip=4.0, c0=0.0)
    step = M.BellmanStep(L, g)
    u_lo = M.solve_backward(step, None, lo, 1.0)
    u_hi = M.solve_backward(step, None, hi, 1.0)
    assert (u_hi.values >= u_lo.values - 1e-12).all()
    np.testing.assert_allclose(u_hi.values - u_lo.values, 0.3, atol=1e-12)


def test_lipschitz_estimates_stable_in_horizon(ri1, ergodic_sol):
    # frozen stationary coupling term, growing horizons: interior slopes settle
    erg, _ = ergodic_sol
    g = ri1.grid
    F = ri1.coupling.values_on(g, erg.m_bar)
    uf = M.TerminalDatum(lambda x: np.zeros(len(x)), 0.0, 0.0)
    lips = []
    for T in (2.0, 4.0, 8.0):
        vf = M.solve_backward(M.BellmanStep(ri1.L, g), F, uf, T)
        lips.append(M.lipschitz_estimate(vf, 2.0))
    spread = (max(lips) - min(lips)) / max(lips)
    assert spread <= 0.05
    assert all(np.isfinite(tl) and tl > 0 for tl in lips)


def test_time_lipschitz_bounded():
    g, vf = solve_hl(0.02)
    tl = M.time_lipschitz_estimate(vf)
    assert 0.0 < tl < 10.0


def test_minimizer_on_boundary_detected():
    g = grid1d(0.04, v_max=0.5)
    steep = M.TerminalDatum(lambda x: 5.0 * x[:, 0], lip=5.0, c0=20.0)
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    with pytest.raises(errors.MinimizerOnBoundary):
        M.solve_backward(step, None, steep, 1.0)
    # the check can be disabled for diagnostic runs
    vf = M.solve_backward(step, None, steep, 1.0, check_boundary=False)
    assert np.isfinite(vf.values).all()


def backward_by_node(L, F, uT, g, T):
    """Per-node reference step: min over v of dt*(L + F) + interp of the next values."""
    K = g.time_steps(T)
    V = g.velocities
    values = np.empty((K + 1, g.n_points))
    values[K] = uT
    feedback = np.empty((K,) + g.points.shape)
    for k in range(K - 1, -1, -1):
        for i, x in enumerate(g.points):
            cand = (g.dt * (np.asarray(L.eval(x, V)) + F[k, i])
                    + M.interp_grid(g, values[k + 1], x + g.dt * V))
            j = int(np.argmin(cand))
            values[k, i] = cand[j]
            feedback[k, i] = V[j]
    return values, feedback


SMALL_GRIDS = {
    "1d": M.GridSpec(-2.0, 2.0, 21, 0.1, 1.0, 9),
    "2d": M.GridSpec((-2.0, -1.5), (2.0, 1.5), (9, 7), 0.1, 1.0, 5),
}


# a kinetic L of v alone folds dt L into the 1-D step's product (hjb._departure_step)
@pytest.mark.parametrize("name, kinetic", [("1d", False), ("2d", False), ("1d", True),
                                           ("2d", True)],
                         ids=["1d", "2d", "1d-kinetic", "2d-kinetic"])
def test_backward_step_matches_per_node_loop(name, kinetic):
    g = SMALL_GRIDS[name]
    T = 0.5
    c = g.points
    L = M.quadratic_kinetic() if kinetic else M.quadratic_kinetic(
        potential=lambda x: 0.2 * PROFILES["neg_gaussian"](x), C3=1.0)
    # irrational-looking coefficients: a candidate tie that only rounding
    # breaks would make either order of summation a valid answer
    uT = 0.113 * ((c - 0.317) ** 2).sum(axis=1) + c @ [0.0571, -0.0433][: g.dim]
    ts = np.arange(g.time_steps(T) + 1) * g.dt
    F = 0.217 * np.sin(c[:, 0][None, :] + 3.1 * ts[:, None])  # varies in time
    vf = M.solve_backward(M.BellmanStep(L, g), F, uT, T)
    values, feedback = backward_by_node(L, F, uT, g, T)
    np.testing.assert_allclose(vf.values, values, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(g.velocities[vf.policy], feedback)


@pytest.mark.parametrize("name", sorted(SMALL_GRIDS))
def test_backward_step_ties_go_to_lowest_velocity(name):
    g = SMALL_GRIDS[name]
    kin = M.quadratic_kinetic()
    flat = M.LagrangianModel(lambda x, v: 0.0 * kin.eval(x, v), 1.0, 1.0, 1.0)
    uT = np.zeros(g.n_points)
    F = np.zeros((g.time_steps(0.3) + 1, g.n_points))
    vf = M.solve_backward(M.BellmanStep(flat, g), F, uT, 0.3, check_boundary=False)
    values, feedback = backward_by_node(flat, F, uT, g, 0.3)
    np.testing.assert_array_equal(vf.values, values)
    np.testing.assert_array_equal(g.velocities[vf.policy], feedback)
    assert (g.velocities[vf.policy] == g.velocities[0]).all()


RI2 = os.path.join(os.path.dirname(__file__), "..", "bench", "ri2.json")


@pytest.mark.parametrize("source, velocities, dtype", [("RI-1", 161, np.uint8),
                                                       (RI2, 289, np.uint16)],
                         ids=["ri1", "ri2"])
def test_value_field_keeps_the_compact_policy(source, velocities, dtype):
    inst = M.load_instance(source)
    g = inst.grid
    T = 3 * g.dt
    vf = M.solve_backward(M.BellmanStep(inst.L, g), inst.coupling.values_on(g, inst.m0),
                          inst.uf, T)
    K = g.time_steps(T)
    assert len(g.velocities) == velocities
    assert vf.policy.dtype == dtype
    assert vf.policy.shape == (K, g.n_points)
    # times, values and policy are its only arrays: no (K, N, n) float copy of the control
    tables = {k: a for k, a in vars(vf).items() if isinstance(a, np.ndarray)}
    assert sorted(tables) == ["policy", "times", "values"]
    assert all(a.ndim < 3 for a in tables.values())


def held_arrays(obj):
    """The arrays that own the memory of every array reachable from obj through
    its attributes, closures, tuples and lists."""
    out, todo, seen = {}, [obj], set()
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            out[id(x)] = x
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
        elif callable(x) and getattr(x, "__closure__", None):
            todo.extend(c.cell_contents for c in x.__closure__)
        elif hasattr(x, "__dict__"):
            todo.extend(vars(x).values())
    return list(out.values())


def test_a_folded_step_holds_no_cost_table():
    # bench/ri2.json's kinetic dt L splits exactly as r(row) + b(v_last): the
    # step folds it and keeps (r, b), so its one (N, nV) float array is the
    # candidate buffer, which every call overwrites
    inst = M.load_instance(RI2)
    g = inst.grid
    step = M.BellmanStep(inst.L, g)
    assert step.dtL is None and step.split[0].any()  # r varies: two fold columns
    cand = step._departure(np.zeros(g.n_points))
    tables = [a for a in held_arrays(step) if a.dtype.kind == "f"
              and a.size == g.n_points * len(g.velocities)]
    assert len(tables) == 1 and np.shares_memory(tables[0], cand)


@pytest.mark.parametrize("name", sorted(SMALL_GRIDS))
def test_coupling_path_of_wrong_shape_is_rejected(name):
    g = SMALL_GRIDS[name]
    K = g.time_steps(0.3)
    F = np.zeros((K, g.n_points))  # one row short
    want = f"F_path shape {F.shape} does not match (K+1, N) = {(K + 1, g.n_points)}"
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    with pytest.raises(ValueError, match=re.escape(want)):
        M.solve_backward(step, F, np.zeros(g.n_points), 0.3)


def test_minimizer_on_boundary_detected_2d():
    g = M.GridSpec((-2.0, -2.0), (2.0, 2.0), (11, 11), 0.1, 0.5, 5)
    # steep along y only: the minimizer hits the edge in its second component
    steep = M.TerminalDatum(lambda p: 5.0 * p[:, 1], lip=5.0, c0=10.0)
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    with pytest.raises(errors.MinimizerOnBoundary):
        M.solve_backward(step, None, steep, 1.0)


EDGE_GRIDS = {
    "1d": (M.GridSpec(-2.0, 2.0, 101, 0.04, 0.5, 11), "0.96", "0.04", "[-1.96]"),
    "2d": (M.GridSpec((-2.0, -2.0), (2.0, 2.0), (21, 21), 0.1, 0.5, 5), "0.9", "0.1",
           "[-1.8 -2. ]"),
}


@pytest.mark.parametrize("name", sorted(EDGE_GRIDS))
def test_edge_error_names_the_latest_time_and_its_first_node(name):
    # an edge velocity at every step names t = T - dt; one confined to the
    # first rows (F steep on rows 0..2 only) names the latest of them, t_1
    g, late, early, node = EDGE_GRIDS[name]
    step = M.BellmanStep(M.quadratic_kinetic(), g)
    steep = M.TerminalDatum(lambda p: 5.0 * p[:, 0], lip=5.0, c0=20.0)
    F = np.zeros((g.time_steps(1.0) + 1, g.n_points))
    F[:3] = 40.0 * g.points[:, 0]
    for F_path, uf, t in ((None, steep, late), (F, hjb.zero_terminal(), early)):
        want = f"optimal velocity on velocity-grid boundary at t={t}, x={node}"
        with pytest.raises(errors.MinimizerOnBoundary, match=f"^{re.escape(want)}$"):
            M.solve_backward(step, F_path, uf, 1.0)


def test_terminal_datum_validation():
    g = grid1d(0.04)
    bad_lip = M.TerminalDatum(lambda x: 2.0 * x[:, 0], lip=0.5, c0=10.0)
    with pytest.raises(errors.NotLipschitz):
        bad_lip.validate(g)
    bad_floor = M.TerminalDatum(lambda x: -np.ones(len(x)), lip=0.0, c0=0.1)
    with pytest.raises(ValueError):
        bad_floor.validate(g)


def test_hj_residual_small_and_stable():
    vals = {}
    for dx in (0.04, 0.02):
        g, vf = solve_hl(dx)
        ks = [0, len(vf.times) // 2]
        vals[dx] = hj_residual(vf, M.quadratic_kinetic(), None, sample_ks=ks)
        assert vals[dx] <= 2.0 * (dx + dx)
    assert vals[0.02] <= vals[0.04] * 1.2 + 1e-12
