"""Fictitious-play equilibrium loop: exactness, invariants, weak residuals."""

import os

import numpy as np
import pytest

import mfglab as M
from mfglab import errors, mfg

RI2 = os.path.join(os.path.dirname(__file__), "..", "bench", "ri2.json")


def grid1d(dx, lo=-4.0, hi=4.0, v_max=4.0):
    n = int(round((hi - lo) / dx)) + 1
    vn = int(round(2 * v_max / dx)) + 1
    return M.GridSpec((lo,), (hi,), (n,), dx, v_max, vn)


def zero_terminal():
    return M.TerminalDatum(lambda x: np.zeros(len(x)), lip=0.0, c0=0.0)


def ones_of(s):
    return np.ones_like(np.asarray(s, dtype=float))


def decoupled_coupling():
    """F(x, m) = -exp(-x^2), independent of the measure."""
    return M.separable_coupling(lambda x: -np.exp(-(x ** 2).sum(-1)),
                                ones_of, (-1.0,), (1.0,), 0.3, 0.9,
                                name="decoupled")


def flat_coupling():
    """F == 1 everywhere: no drift at all."""
    return M.separable_coupling(lambda x: np.ones(len(x)), ones_of, (-1.0,), (1.0,), 0.0, 0.0,
                                name="flat")


# ---------------------------------------------------------------------------
# line search on the potential


def test_line_search_bisects_to_the_root_of_the_slope():
    calls = []
    theta = mfg.line_search(lambda th: calls.append(th) or th - 0.3, 0.0)
    assert calls[:3] == [1.0, 0.5, 0.25]  # then bisection on [0, 1]
    assert theta == pytest.approx(0.3, abs=1e-15)
    # a floor ends it as soon as |phi'| is within it
    assert mfg.line_search(lambda th: th - 0.26, 0.02) == 0.25


def test_mixed_equilibrium_ends_on_the_exploitability():
    # bench/ri2.json at T = 4 has a mixed equilibrium only: the sliced d_1 to
    # the pure best response stays near 1e-3 while the exploitability reaches
    # rounding once the line search mixes the best responses
    inst = M.load_instance(RI2)
    sol = M.solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf, inst.grid,
                                 4.0, tol=0.0)
    assert sol.converged and sol.iterations == 4
    thetas = [h["theta"] for h in sol.history]
    assert thetas[:2] == [1.0, 1.0] and 0.0 < thetas[2] < 1.0 and thetas[3] is None
    assert all(isinstance(r, float) for r in sol.residuals)
    assert abs(sol.residuals[-1]) <= sol.history[-1]["floor"]
    assert sol.history[-1]["gap_lo"] > 1e-3
    for h in sol.history:
        assert min(h["backward_s"], h["forward_s"], h["d1_s"]) >= 0.0


# ---------------------------------------------------------------------------
# decoupled problems are solved exactly in two sweeps


def test_decoupled_converges_immediately():
    g = grid1d(0.04)
    m0 = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    sol = M.solve_finite_horizon(M.quadratic_kinetic(), decoupled_coupling(),
                                 m0, zero_terminal(), g, 2.0)
    assert sol.converged
    assert sol.iterations == 2
    assert abs(sol.residuals[-1]) <= sol.history[-1]["floor"]


def test_decoupled_matches_single_backward_solve():
    g = grid1d(0.04)
    m0 = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    coupling = decoupled_coupling()
    sol = M.solve_finite_horizon(M.quadratic_kinetic(), coupling, m0,
                                 zero_terminal(), g, 2.0)
    F = coupling.values_on(g, m0)
    vf = M.solve_backward(M.BellmanStep(M.quadratic_kinetic(), g), F, zero_terminal(),
                          2.0)
    np.testing.assert_array_equal(sol.u.values, vf.values)


# ---------------------------------------------------------------------------
# exact invariants of the returned pair


def test_solution_invariants(ladder):
    sols, _ = ladder
    for T, sol in sols.items():
        np.testing.assert_allclose(sol.m_path.weights.sum(axis=1), 1.0, atol=1e-12)
        assert sol.diagnostics["mass_drift"] <= 1e-12
        assert float(sol.m_path.times[-1]) == T


def test_initial_and_terminal_slices(ri1, ladder):
    sols, _ = ladder
    sol = sols[2.0]
    np.testing.assert_array_equal(sol.m_path.weights[0], ri1.m0.weights)
    np.testing.assert_allclose(sol.u.values[-1], ri1.uf.values_on(ri1.grid), atol=1e-14)


# ---------------------------------------------------------------------------
# warm start from the stationary feedback


@pytest.mark.parametrize("start", [np.zeros((10, 17), dtype=np.uint8), np.zeros(16, int),
                                   np.zeros((1, 17), int), np.zeros(0, int),
                                   np.full(17, 1 / 17), np.full(17, 17, np.uint8)],
                         ids=["too-long", "too-narrow", "one-row-2d", "empty", "float-path",
                              "out-of-range"])
def test_stretched_start_rejects_a_misshaped_path(start):
    g = grid1d(0.5)
    assert g.n_points == 17 and len(g.velocities) == 17
    m0 = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    with pytest.raises(ValueError, match="start must be one row"):
        mfg.stretched_start(start, M.BellmanStep(M.quadratic_kinetic(), g), 9)
    with pytest.raises(ValueError, match="start must be one row"):
        M.solve_finite_horizon(M.quadratic_kinetic(), decoupled_coupling(), m0,
                               zero_terminal(), g, 9 * g.dt, start=start)


def test_warm_start_from_the_stationary_feedback(ri1_coarse):
    inst = ri1_coarse
    tol = 1e-4
    erg = M.solve_ergodic(inst.L, inst.coupling, inst.grid)

    def solve(T, start=None):
        return M.solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf,
                                      inst.grid, T, tol, start=start)

    cold, warm = solve(8.0), solve(8.0, erg.policy)
    assert cold.iterations == 3 and warm.iterations == 1
    assert warm.converged and warm.residuals[-1] <= tol
    np.testing.assert_array_equal(warm.m_path.weights[0], inst.m0.weights)
    # a row at rest, in any integer dtype, is the cold start
    rest = np.full(inst.grid.n_points, np.abs(inst.grid.v_axis).argmin())
    np.testing.assert_array_equal(solve(4.0, rest).m_path.weights, solve(4.0).m_path.weights)


@pytest.mark.parametrize("case", ["ri1", "ri2", "even-vn"])
def test_every_iterate_is_certified(ri1_coarse, case):
    # every iterate, the first included, mixes pushed paths, so its
    # exploitability is no less than 0 up to its rounding floor, cold or from
    # the stationary feedback; bench/ri2.json at T = 4 has only a mixed
    # equilibrium, and a grid of even v_nodes has no velocity at rest
    inst, T, tol = ri1_coarse, 4.0, 1e-4
    if case == "ri2":
        inst, tol = M.load_instance(RI2), 0.0
    g, m0 = inst.grid, inst.m0
    if case == "even-vn":
        g = M.GridSpec(g.lo, g.hi, g.nodes, g.dt, g.v_max, 160)
        m0 = M.GridMeasure(g, m0.weights)

    def solve(T, start=None):
        return M.solve_finite_horizon(inst.L, inst.coupling, m0, inst.uf, g, T, tol, start=start)

    feedback = M.solve_ergodic(inst.L, inst.coupling, g).policy
    for sol in (solve(T / 2), solve(T), solve(T / 2, feedback), solve(T, feedback)):
        assert sol.converged
        for h in sol.history:
            assert isinstance(h["gap"], float) and h["gap"] >= -h["floor"]


def test_assumption_gate_rejects_stray_initial_mass(ri1):
    g = ri1.grid
    outside = M.GridMeasure.dirac(g, 2.5)
    with pytest.raises(errors.AssumptionFailure, match="outside K0"):
        mfg.check_standing_assumptions(ri1.L, ri1.coupling, g, outside)
    assert mfg.check_standing_assumptions(ri1.L, ri1.coupling, g, ri1.m0) is None


def test_assumption_gate_can_be_skipped(ri1):
    # A start outside K0 has no convergence guarantee; the solver does not
    # run the gate and must still produce a complete, mass-conserving solution.
    g = ri1.grid
    outside = M.GridMeasure.dirac(g, 2.5)
    sol = M.solve_finite_horizon(ri1.L, ri1.coupling, outside, ri1.uf, g, 2.0)
    assert sol.iterations >= 1
    assert np.isfinite(sol.u.values).all()
    np.testing.assert_allclose(sol.m_path.weights.sum(axis=1), 1.0, atol=1e-12)


def test_terminal_datum_is_validated_once_per_solve(ri1_coarse, monkeypatch):
    calls = []
    validate = M.TerminalDatum.validate
    monkeypatch.setattr(M.TerminalDatum, "validate",
                        lambda self, grid: calls.append(grid) or validate(self, grid))
    inst = ri1_coarse
    sol = M.solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf, inst.grid, 2.0)
    assert sol.iterations > 1
    assert calls == [inst.grid]


# ---------------------------------------------------------------------------
# weak residual of the continuity equation


def test_bump_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for bump in (M.SpaceTimeBump(1.0, 0.8, 0.1, 1.5),
                 M.SpaceTimeBump(1.0, 0.8, (0.1, -0.2), 1.5, dim=2)):
        ts = rng.uniform(0.3, 1.7, 5)
        xs = rng.uniform(-1.2, 1.4, (5, bump.dim))
        for t in ts:
            dx_num = np.stack([(bump.eval(t, xs + e) - bump.eval(t, xs - e)) / (2 * h)
                               for e in h * np.eye(bump.dim)], axis=-1)
            np.testing.assert_allclose(bump.dx(t, xs), dx_num, atol=1e-6)


def test_default_test_functions_vanish_at_endpoints():
    g = grid1d(0.04)
    for psi in M.default_test_functions(g, 2.0):
        assert np.abs(psi.eval(0.0, g.points)).max() == 0.0
        assert np.abs(psi.eval(2.0, g.points)).max() == 0.0


def test_kfp_residual_static_path_refines():
    # with F == 1 nothing moves, and the time differences of the test
    # functions telescope: the residual is rounding at every dt
    for dx in (0.04, 0.02):
        g = grid1d(dx)
        m0 = M.GridMeasure.uniform_on(g, -1.0, 1.0)
        sol = M.solve_finite_horizon(M.quadratic_kinetic(), flat_coupling(),
                                     m0, zero_terminal(), g, 2.0)
        assert sol.diagnostics["max_speed"] == 0.0
        K = g.time_steps(2.0)
        np.testing.assert_allclose(sol.m_path.weights,
                                   np.tile(m0.weights, (K + 1, 1)), atol=1e-14)
        assert M.kfp_residual(sol, M.default_test_functions(g, 2.0)) <= K * np.finfo(float).eps


def kfp_residual_per_step(solution):
    """Reference: the weak continuity residual summed one step at a time, the
    time difference of psi and the policy's velocities interpolated at the
    nodes m(t_k) charges."""
    path, vf = solution.m_path, solution.u
    g = path.grid
    T = float(path.times[-1])
    K = len(path.times) - 1
    worst = 0.0
    for psi in M.default_test_functions(g, T):
        acc = 0.0
        for k in range(K):
            t, t_next = float(path.times[k]), float(path.times[k + 1])
            w = path.weights[k]
            sup = w > 1e-15
            if not sup.any():
                continue
            pts = g.points[sup]
            integrand = (psi.eval(t_next, pts) - psi.eval(t, pts)
                         + g.dt * (psi.dx(t, pts) * vf.velocity_at(k, pts)).sum(axis=1))
            acc += float(np.dot(w[sup], integrand))
        bdry = (float(np.dot(path.weights[0], psi.eval(0.0, g.points)))
                - float(np.dot(path.weights[K], psi.eval(T, g.points))))
        worst = max(worst, abs(acc + bdry))
    return worst


@pytest.mark.parametrize("source", ["ri1_coarse", "ri2"])
def test_kfp_residual_matches_the_per_step_sum(source, request):
    inst = M.load_instance(RI2) if source == "ri2" else request.getfixturevalue(source)
    sol = M.solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf, inst.grid, 2.0)
    want = kfp_residual_per_step(sol)
    assert want > 0.0
    assert M.kfp_residual(sol) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_kfp_residual_equilibrium_magnitude(ladder):
    sols, _ = ladder
    sol = sols[4.0]
    r = M.kfp_residual(sol)
    assert r <= 5e-3


# ---------------------------------------------------------------------------
# energy pairing and local uniqueness


def test_energy_estimate_decoupled_is_zero():
    g = grid1d(0.04)
    m0 = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    coupling = decoupled_coupling()
    sol = M.solve_finite_horizon(M.quadratic_kinetic(), coupling, m0,
                                 zero_terminal(), g, 2.0)
    total, integrand = M.energy_estimate(sol, coupling, m0, 3.0)
    assert total == 0.0
    assert np.abs(integrand).max() == 0.0


def test_equilibrium_insensitive_to_initial_measure(ri1_coarse):
    # two different departures, same long-run coupling term in the middle
    inst = ri1_coarse
    g = inst.grid
    uf = zero_terminal()
    sa = M.solve_finite_horizon(inst.L, inst.coupling,
                                M.GridMeasure.dirac(g, -0.52), uf, g, 6.0)
    sb = M.solve_finite_horizon(inst.L, inst.coupling,
                                M.GridMeasure.uniform_on(g, 0.0, 1.0), uf, g, 6.0)
    Fa = inst.coupling.path_values(g, sa.m_path.weights)
    Fb = inst.coupling.path_values(g, sb.m_path.weights)
    K = Fa.shape[0] - 1
    mid = slice(K // 3, 2 * K // 3)
    assert np.abs(Fa[mid] - Fb[mid]).max() <= 5e-4


def test_diagnostics_contents(ladder):
    sols, _ = ladder
    for sol in sols.values():
        d = sol.diagnostics
        assert d["measured_R1"] <= 1.0 + 1e-12
        assert d["max_speed"] <= 4.0
        assert d["lipschitz_B2"] > 0
        assert d["mass_drift"] <= 1e-12
