"""Fictitious-play equilibrium loop: exactness, invariants, weak residuals."""

import numpy as np
import pytest

import mfglab as M
from mfglab import errors, mfg


def grid1d(dx, lo=-4.0, hi=4.0, v_max=4.0):
    n = int(round((hi - lo) / dx)) + 1
    vn = int(round(2 * v_max / dx)) + 1
    return M.GridSpec((lo,), (hi,), (n,), dx, v_max, vn)


def zero_terminal():
    return M.TerminalDatum(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                           lip=0.0, c0=0.0)


def ones_of(s):
    return np.ones_like(np.asarray(s, dtype=float))


def zeros_of(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def decoupled_coupling():
    """F(x, m) = -exp(-x^2), independent of the measure."""
    return M.separable_coupling(lambda x: -np.exp(-np.asarray(x) ** 2),
                                ones_of, zeros_of, (-1.0,), (1.0,), 0.3, 0.9,
                                name="decoupled")


def flat_coupling():
    """F == 1 everywhere: no drift at all."""
    return M.separable_coupling(ones_of, ones_of, zeros_of,
                                (-1.0,), (1.0,), 0.0, 0.0, name="flat")


# ---------------------------------------------------------------------------
# averaging schedule


def test_theta_schedules():
    p = M.MFGParams()
    assert p.averaging == "picard-first"
    assert p.theta([0.5]) == 1.0
    assert p.theta([0.5, 0.1, 0.01]) == 1.0  # Picard while the gap falls
    assert p.theta([0.5, 0.5]) == 0.5  # then 1/(k+1) from a gap that does not fall
    assert p.theta([0.5, 0.6, 0.1, 0.01]) == 0.25  # for the rest of the solve
    fixed = M.MFGParams(averaging=0.5)
    assert fixed.theta([1.0]) == 1.0  # first update always replaces the guess
    assert fixed.theta([1.0] * 8) == 0.5
    assert fixed.theta([1.0, 0.1]) == 0.5


def test_schedule_falls_back_to_averaging_after_the_gap_rises(monkeypatch):
    gaps = [0.5, 0.1, 0.2, 0.05, 0.01, 0.0]
    feed = iter(gaps)
    monkeypatch.setattr(mfg, "sup_d1", lambda grid, rows1, rows2: next(feed))
    g = grid1d(0.04)
    m0 = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    sol = M.solve_finite_horizon(M.quadratic_kinetic(), decoupled_coupling(),
                                 m0, zero_terminal(), g, 2.0)
    assert sol.converged and sol.residuals == gaps
    assert [h["theta"] for h in sol.history] == [1.0, 1.0, 1 / 3, 1 / 4, 1 / 5, 1 / 6]
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
    assert sol.residuals[-1] == 0.0


def test_decoupled_matches_single_backward_solve():
    g = grid1d(0.04)
    m0 = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    coupling = decoupled_coupling()
    sol = M.solve_finite_horizon(M.quadratic_kinetic(), coupling, m0,
                                 zero_terminal(), g, 2.0)
    F = coupling.values_on(g, m0)
    vf = M.solve_backward(M.quadratic_kinetic(), F, zero_terminal(), g, 2.0)
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
    np.testing.assert_allclose(sol.m_path.weights[0], ri1.m0.weights, atol=1e-14)
    np.testing.assert_allclose(sol.u.values[-1], ri1.uf.values_on(ri1.grid), atol=1e-14)


def test_assumption_gate_rejects_stray_initial_mass(ri1):
    g = ri1.grid
    outside = M.GridMeasure.dirac(g, 2.5)
    with pytest.raises(errors.AssumptionFailure):
        M.solve_finite_horizon(ri1.L, ri1.coupling, outside, ri1.uf, g, 2.0)


def test_assumption_gate_can_be_skipped(ri1):
    # A start outside K0 has no convergence guarantee; skipping the gate
    # must still produce a complete, mass-conserving solution object.
    g = ri1.grid
    outside = M.GridMeasure.dirac(g, 2.5)
    params = M.MFGParams(check_assumptions=False)
    sol = M.solve_finite_horizon(ri1.L, ri1.coupling, outside, ri1.uf, g, 2.0, params)
    assert sol.iterations >= 1
    assert np.isfinite(sol.u.values).all()
    np.testing.assert_allclose(sol.m_path.weights.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# weak residual of the continuity equation


def test_bump_derivatives_match_finite_differences():
    bump = M.SpaceTimeBump(1.0, 0.8, 0.1, 1.5)
    rng = np.random.default_rng(2)
    ts = rng.uniform(0.3, 1.7, 5)
    xs = rng.uniform(-1.2, 1.4, 5)
    h = 1e-6
    for t in ts:
        dt_num = (bump.eval(t + h, xs) - bump.eval(t - h, xs)) / (2 * h)
        dx_num = (bump.eval(t, xs + h) - bump.eval(t, xs - h)) / (2 * h)
        np.testing.assert_allclose(bump.dt(t, xs), dt_num, atol=1e-6)
        np.testing.assert_allclose(bump.dx(t, xs), dx_num, atol=1e-6)


def test_default_test_functions_vanish_at_endpoints():
    g = grid1d(0.04)
    for psi in M.default_test_functions(g, 2.0):
        assert np.abs(psi.eval(0.0, g.points)).max() == 0.0
        assert np.abs(psi.eval(2.0, g.points)).max() == 0.0


def test_kfp_residual_static_path_refines():
    # with F == 1 nothing moves, so the residual is pure time-quadrature
    # error of the test functions and refines fast under dt refinement
    res = {}
    for dx in (0.04, 0.02):
        g = grid1d(dx)
        m0 = M.GridMeasure.uniform_on(g, -1.0, 1.0)
        sol = M.solve_finite_horizon(M.quadratic_kinetic(), flat_coupling(),
                                     m0, zero_terminal(), g, 2.0)
        assert sol.bundle.max_speed() == 0.0
        K = g.time_steps(2.0)
        np.testing.assert_allclose(sol.m_path.weights,
                                   np.tile(m0.weights, (K + 1, 1)), atol=1e-14)
        res[dx] = M.kfp_residual(sol, M.default_test_functions(g, 2.0))
    assert res[0.02] <= 1e-3
    assert res[0.02] <= res[0.04] / 4.0  # at least second order here


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
