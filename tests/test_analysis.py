"""Rate fitting, the sup-L2 interpolation inequality, coupling monotonicity."""

import re

import numpy as np
import pytest

import mfglab as M
from mfglab import analysis, errors


def grid1d(dx, lo, hi):
    n = int(round((hi - lo) / dx)) + 1
    return M.GridSpec((lo,), (hi,), (n,), dx, 1.0, 3)


# ---------------------------------------------------------------------------
# rate fitting


def test_rate_fit_recovers_power_law():
    T = [2.0, 4.0, 8.0, 16.0, 32.0]
    errs = [3.0 * t ** (-1.0 / 3.0) for t in T]
    fit = M.rate_fit(T, errs)
    assert fit["slope"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert fit["intercept"] == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit["max_residual"] <= 1e-12
    assert fit["points"] == 5


def test_rate_fit_rejects_nonpositive():
    with pytest.raises(errors.NonPositiveError):
        M.rate_fit([2.0, 4.0], [1e-3, 0.0])


def test_rate_fit_floor_drops_points():
    T = [2.0, 4.0, 8.0, 16.0]
    errs = [1e-1, 1e-2, 1e-12, 1e-13]
    fit = M.rate_fit(T, errs, floor=1e-9)
    assert fit["points"] == 2


# ---------------------------------------------------------------------------
# L2 norm of the interpolant


def test_l2_norm_exact_for_linear():
    g = grid1d(1.0 / 16, 0.0, 1.0)
    # ||x||_2 on [0, 1] is 1/sqrt(3), exactly recovered for node values x
    assert M.l2_norm(g, g.axes[0]) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-15)


def test_l2_norm_2d_constant():
    g2 = M.GridSpec((0.0, 0.0), (1.0, 2.0), (11, 21), 0.1, 1.0, 3)
    assert M.l2_norm(g2, np.ones(g2.n_points)) == pytest.approx(np.sqrt(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# interpolation inequality sup|f| <= c(n, D) ||f||_2^{2/(n+2)}


def test_interpolation_constant_formula():
    assert M.interpolation_constant(1, 1.0) == pytest.approx(np.sqrt(3.0))
    assert M.interpolation_constant(1, 8.0) == pytest.approx(2.0 * np.sqrt(3.0))
    assert M.interpolation_constant(2, 4.0) == pytest.approx(4.0)


def test_interpolation_tent_family_ratio():
    # f_k(t) = max(1/k - t, 0) on [0, 1]: sup = 1/k, ||f||_2 = 3^{-1/2} k^{-3/2},
    # so rhs/lhs = sqrt(3) * 3^{-1/3} = 3^{1/6} for every k
    for k in (1, 2, 4, 8):
        g = grid1d(1.0 / (16 * k), 0.0, 1.0)
        f = np.maximum(1.0 / k - g.axes[0], 0.0)
        lhs, rhs = M.interpolation_bound(g, f, 1.0)
        assert lhs == pytest.approx(1.0 / k, abs=1e-15)
        assert rhs / lhs == pytest.approx(3.0 ** (1.0 / 6.0), abs=1e-12)
        assert lhs <= rhs


def test_interpolation_random_lipschitz_family():
    g = grid1d(0.02, -2.0, 2.0)
    dx = g.dx[0]
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = rng.uniform(-1.0, 1.0, g.n_points - 1)
        s -= s.mean()  # boundary-vanishing: f(lo) = f(hi) = 0
        peak = np.abs(s).max()
        if peak > 1.0:
            s /= peak
        f = np.concatenate([[0.0], np.cumsum(s) * dx])
        lhs, rhs = M.interpolation_bound(g, f, 1.0)
        assert lhs <= rhs + 1e-12


def test_interpolation_rejects_undeclared_lipschitz():
    g = grid1d(0.02, -2.0, 2.0)
    with pytest.raises(errors.LipschitzExceeded):
        M.interpolation_bound(g, 3.0 * g.axes[0], 1.0)


# ---------------------------------------------------------------------------
# monotonicity of the coupling


def test_monotonicity_pairing_closed_form(ri1):
    # pairing(d0, d1) = (G(-1) - G(-1/e)) (f(0) - f(1)) for the separable pair
    g = ri1.grid
    r = M.monotonicity_check(ri1.coupling, g,
                             M.GridMeasure.dirac(g, 0.0),
                             M.GridMeasure.dirac(g, 1.0))
    G = lambda s: 2.0 + np.tanh(s)
    f = lambda x: -np.exp(-x ** 2)
    want = (G(f(0.0)) - G(f(1.0))) * (f(0.0) - f(1.0))
    assert r.pairing == pytest.approx(want, abs=1e-14)
    assert r.pairing > 0
    assert r.cf_estimate is not None and r.cf_estimate > 0
    assert r.consistent_iff()


def test_monotonicity_identical_measures(ri1):
    g = ri1.grid
    m = M.GridMeasure.uniform_on(g, -1.0, 1.0)
    r = M.monotonicity_check(ri1.coupling, g, m, m)
    assert r.pairing == 0.0
    assert r.sup_gap == 0.0
    assert r.cf_estimate is None
    assert r.consistent_iff()


def test_monotonicity_negative_control(ri1):
    # decreasing shaping function G flips the sign of the pairing
    g = ri1.grid
    anti = M.separable_coupling(lambda x: -np.exp(-(x ** 2).sum(-1)),
                                lambda s: 2.0 - np.tanh(s),
                                (-1.0,), (1.0,), 0.36, 0.86, name="anti")
    r = M.monotonicity_check(anti, g,
                             M.GridMeasure.dirac(g, 0.0),
                             M.GridMeasure.dirac(g, 1.0))
    assert r.pairing < 0
    assert r.cf_estimate < 0


def test_uniqueness_probe_zero_for_identical(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    dl, df = M.critical_value_uniqueness_probe([sol, sol], ri1.coupling)
    assert dl == 0.0
    assert df == 0.0


# ---------------------------------------------------------------------------
# convergence metrics plumbing


def test_convergence_metrics_radius_guard(ri1, ergodic_sol, ladder):
    sol, _ = ergodic_sol
    sols, _ = ladder
    with pytest.raises(errors.RadiusTooSmall):
        M.convergence_metrics(sols, sol, ri1.coupling, 5.0)  # ball leaves the box
    with pytest.raises(errors.RadiusTooSmall):
        M.convergence_metrics(sols, sol, ri1.coupling, 0.5)  # smaller than measured R1
    R1 = max(s.diagnostics["measured_R1"] for s in sols.values())
    M.convergence_metrics(sols, sol, ri1.coupling, R1)  # support on the sphere of B_R
    R = R1 - ri1.grid.dx[0]  # one node smaller
    first = next(s for _, s in sorted(sols.items()) if s.diagnostics["measured_R1"] > R)
    want = f"measured attainable radius {first.diagnostics['measured_R1']!r} > R={R!r}"
    with pytest.raises(errors.RadiusTooSmall, match=re.escape(want)):
        M.convergence_metrics(sols, sol, ri1.coupling, R)


def test_convergence_report_rows(ri1, ergodic_sol, ladder):
    sol, _ = ergodic_sol
    sols, _ = ladder
    rep = M.convergence_metrics(sols, sol, ri1.coupling, 3.0)
    rows = list(rep.rows())
    assert [r[0] for r in rows] == [2.0, 4.0, 8.0, 16.0, 32.0]
    for T, eu, ef, eu_scaled, ef_scaled in rows:
        assert eu_scaled == pytest.approx(eu * T ** (1.0 / 3.0))
        assert ef_scaled == pytest.approx(ef * T ** (1.0 / 3.0))


def test_e_u_is_the_terminal_gap_over_T(ri1, ergodic_sol, ladder):
    # the sup of e_u sits at t = T, where u^T = u_f: e_u measures sup |u_f - u_bar|
    # over B_3, not the finite-horizon solve
    sol, _ = ergodic_sol
    sols, _ = ladder
    rep = M.convergence_metrics(sols, sol, ri1.coupling, 3.0)
    mask = ri1.grid.ball_mask(3.0)
    gap = np.abs(ri1.uf.values_on(ri1.grid) - sol.u_bar)[mask].max()
    for T, eu in zip(rep.T_list, rep.e_u):
        assert eu == pytest.approx(gap / T, rel=1e-12)
    assert rep.t_sup == [1.0] * len(rep.T_list)


def test_turnpike_tightens_at_every_doubling(ri1, ergodic_sol, ladder):
    # in the middle of the horizon the pair is near-stationary, and nearer
    # the longer the horizon, far faster than the T^(-1/3) envelope of e_u
    sol, _ = ergodic_sol
    sols, _ = ladder
    rep = M.convergence_metrics(sols, sol, ri1.coupling, 3.0)
    late = slice(rep.T_list.index(8.0), None)
    for series in (rep.E_mid[late], rep.D_mid[late]):
        assert all(b < a for a, b in zip(series, series[1:]))
    # m_bar is the Dirac at the Mather node: D_mid is the exact d_1 distance to it
    T = 8.0
    K = len(sols[T].m_path.times) - 1
    rows = sols[T].m_path.weights[-(-K // 4):3 * K // 4 + 1]
    d1 = max(M.wasserstein1(M.GridMeasure(ri1.grid, w), sol.m_bar) for w in rows)
    assert rep.D_mid[rep.T_list.index(T)] == pytest.approx(d1, rel=1e-9)
