"""Acceptance gate: ten pinned criteria for the reference instance RI-1.

Each test prints one `[criterion NN] PASS/FAIL` line (shown in the pytest
summary) and then asserts.  Tolerances are frozen here on purpose; loosening
them is a contract change, not a bug fix.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

import mfglab as M
from mfglab.cli import main as cli_main

LAMBDA_EXACT = 2.0 - np.tanh(1.0)


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. stationary pair: critical value, atomic measure, corrected value


def test_criterion_01_stationary_pair(ri1, ergodic_sol):
    sol, seconds = ergodic_sol
    g = ri1.grid
    lam_err = abs(sol.lam - LAMBDA_EXACT)
    atom_ok = (len(sol.m_bar.support()) == 1
               and sol.mather_node == g.nearest_node(0.0)
               and sol.m_bar.weights[sol.mather_node] == 1.0)
    oracle, quad_err = quad(lambda s: np.sqrt(2 * LAMBDA_EXACT * (1 - np.exp(-s * s))),
                            0.0, 1.0)
    assert quad_err < 1e-10
    u_tol = 5.0 * g.dx[0] * np.sqrt(2 * LAMBDA_EXACT)
    u_err = abs(sol.u_bar[g.nearest_node(1.0)] - oracle)
    ok = lam_err <= 1e-6 and atom_ok and u_err <= u_tol and seconds < 30.0
    report(1, ok, f"lambda err {lam_err:.2e} (tol 1e-6), atom at origin: {atom_ok}, "
                  f"u(1) err {u_err:.4f} (tol {u_tol:.4f}), {seconds:.2f}s (< 30s)")


# ---------------------------------------------------------------------------
# 2. backward solver agrees with the direct variational oracle


def test_criterion_02_value_oracle_agreement():
    uf = M.TerminalDatum(lambda x: 0.5 * (x ** 2).sum(-1), lip=4.0, c0=0.0)
    L = M.quadratic_kinetic()
    T = 1.0
    errs = {}
    for dx in (0.04, 0.02):
        n = int(round(8.0 / dx)) + 1
        vn = int(round(8.0 / dx)) + 1
        g = M.GridSpec((-4.0,), (4.0,), (n,), dx, 4.0, vn)
        vf = M.solve_backward(M.BellmanStep(L, g), None, uf, T)
        mask = g.ball_mask(2.0)
        worst = 0.0
        for k, t in enumerate(vf.times):
            oracle = np.asarray([M.hopf_lax_oracle(uf, t, x, T, g)
                                 for x in g.points[mask][::10]])
            worst = max(worst, float(np.abs(vf.values[k][mask][::10] - oracle).max()))
        errs[dx] = worst
    order = float(np.log2(errs[0.04] / errs[0.02]))
    bound_ok = all(errs[dx] <= 2.0 * (dx + dx) for dx in errs)
    ok = bound_ok and order >= 0.8
    report(2, ok, f"max |dp - oracle| on B_2: {errs[0.04]:.2e} @ dx=0.04, "
                  f"{errs[0.02]:.2e} @ dx=0.02 (bounds 2(dx+dt)), order {order:.2f} (>= 0.8)")


# ---------------------------------------------------------------------------
# 3. long-horizon convergence toward the stationary pair at rate T^{-1/(n+2)}


def test_criterion_03_long_time_rates(ri1, ergodic_sol, ladder):
    erg, _ = ergodic_sol
    sols, seconds = ladder
    rep = M.convergence_metrics(sols, erg, ri1.coupling, 3.0)
    eu, ef, Ts = rep.e_u, rep.e_F, rep.T_list
    dec_u = all(a > b for a, b in zip(eu, eu[1:]))
    dec_f = all(a > b for a, b in zip(ef, ef[1:]))
    p = 1.0 / 3.0
    Cu, Cf = eu[0] * Ts[0] ** p, ef[0] * Ts[0] ** p
    env_u = all(e <= Cu / T ** p + 1e-12 for e, T in zip(eu, Ts))
    env_f = all(e <= Cf / T ** p + 1e-12 for e, T in zip(ef, Ts))
    slope = rep.rate_F["slope"]
    ok = dec_u and dec_f and env_u and env_f and slope <= -0.28 and seconds < 480.0
    report(3, ok, f"e_u {eu[0]:.3f}->{eu[-1]:.3f}, e_F {ef[0]:.4f}->{ef[-1]:.4f} "
                  f"strictly decreasing: {dec_u and dec_f}; envelopes C/T^(1/3) hold: "
                  f"{env_u and env_f}; slope(e_F) {slope:.2f} (<= -0.28); "
                  f"{seconds:.1f}s (< 480s)")


# ---------------------------------------------------------------------------
# 4. excursion time outside B_R stays bounded as T grows


def test_criterion_04_uniform_excursion(ri1, long_ladder):
    sols, wides = long_ladder
    eq_occ = {T: M.occupation_time_outside(M.trace_optimal_flow(s.u, ri1.m0), 2.0)[1]
              for T, s in sols.items()}
    wide_occ = {T: M.occupation_time_outside(w, 2.0)[1] for T, w in wides.items()}
    Ts = sorted(wide_occ)
    vals = [wide_occ[T] for T in Ts]
    spread = max(vals) - min(vals)
    trend = float(np.polyfit(Ts, vals, 1)[0])
    dt = sols[Ts[0]].m_path.grid.dt
    ok = (all(v == 0.0 for v in eq_occ.values())
          and spread <= dt + 1e-12 and abs(trend) <= 1e-3)
    report(4, ok, f"equilibrium cloud never leaves B_2: {eq_occ}; wide-cloud "
                  f"occupation {vals[0]:.3f} with spread {spread:.2e} (<= dt) and "
                  f"trend {trend:.1e}/T (<= 1e-3)")


# ---------------------------------------------------------------------------
# 5. value-function Lipschitz bounds uniform in the horizon


def test_criterion_05_uniform_lipschitz(ri1, long_ladder):
    sols, wides = long_ladder
    Ts = sorted(sols)
    lips = [M.lipschitz_estimate(sols[T].u, 3.0) for T in Ts]
    speeds = [wides[T].max_speed() for T in Ts]
    lip_spread = (max(lips) - min(lips)) / max(lips)
    spd_spread = (max(speeds) - min(speeds)) / max(speeds)
    inside = all(sols[T].diagnostics["max_speed"] < ri1.grid.v_max for T in Ts)
    ok = lip_spread <= 0.05 and spd_spread <= 0.05 and inside
    report(5, ok, f"Lip(u) on B_3 spread {lip_spread:.2e} (<= 5%), max speed spread "
                  f"{spd_spread:.2e} (<= 5%), speeds inside the velocity box: {inside}")


# ---------------------------------------------------------------------------
# 6. space-time energy pairing stays bounded and pointwise nonnegative


def test_criterion_06_energy_pairing(ri1, ergodic_sol, long_ladder):
    erg, _ = ergodic_sol
    sols, _ = long_ladder
    totals, mins = {}, {}
    for T, sol in sols.items():
        tot, integrand = M.energy_estimate(sol, ri1.coupling, erg.m_bar, 3.0)
        totals[T] = tot
        mins[T] = float(integrand.min())
    vals = list(totals.values())
    spread = (max(vals) - min(vals)) / max(vals)
    nonneg = min(mins.values()) >= -1e-12
    ok = spread <= 0.10 and nonneg
    report(6, ok, f"pairing totals {min(vals):.6f}..{max(vals):.6f}, spread "
                  f"{spread:.2e} (<= 10%), min integrand {min(mins.values()):.1e} "
                  f"(>= -1e-12)")


# ---------------------------------------------------------------------------
# 7. monotone coupling: positive pairings, C_F floor, unique stationary pair


def test_criterion_07_monotonicity_uniqueness(ri1, ergodic_sol):
    g = ri1.grid
    from mfglab.analysis import l2_norm
    rng = np.random.default_rng(11)
    idx = np.flatnonzero(ri1.coupling.K0_mask(g))

    def rand_measure():
        w = np.zeros(g.n_points)
        w[idx] = rng.random(len(idx))
        return M.GridMeasure(g, w / w.sum())

    pair_min, cf_min = np.inf, np.inf
    for _ in range(100):
        r = M.monotonicity_check(ri1.coupling, g, rand_measure(), rand_measure())
        pair_min = min(pair_min, r.pairing)
        if r.cf_estimate is not None:
            cf_min = min(cf_min, r.cf_estimate)
    f_l2sq = l2_norm(g, -np.exp(-g.axes[0] ** 2)) ** 2
    floor = (1.0 / np.cosh(1.0) ** 2) / f_l2sq
    sol0, _ = ergodic_sol
    others = [M.solve_ergodic(ri1.L, ri1.coupling, g, m_start=s) for s in
              (M.GridMeasure.dirac(g, -0.52), M.GridMeasure.uniform_on(g, 0.2, 1.0))]
    dl, df = M.critical_value_uniqueness_probe([sol0] + others, ri1.coupling)
    ok = pair_min >= -1e-12 and cf_min >= floor and dl <= 1e-9 and df <= 1e-9
    report(7, ok, f"min pairing {pair_min:.1e} (>= -1e-12), min C_F {cf_min:.3f} "
                  f"(>= floor {floor:.3f}), 3-start spreads d_lambda {dl:.1e}, "
                  f"d_F {df:.1e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# 8. sup-L2 interpolation inequality with the pinned constant


def test_criterion_08_interpolation_inequality():
    n = int(round(4.0 / 0.02)) + 1
    g = M.GridSpec((-2.0,), (2.0,), (n,), 0.02, 1.0, 3)
    dx = g.dx[0]
    rng = np.random.default_rng(8)
    violations = 0
    for _ in range(1000):
        s = rng.uniform(-1.0, 1.0, g.n_points - 1)
        s -= s.mean()
        peak = np.abs(s).max()
        if peak > 1.0:
            s /= peak
        f = np.concatenate([[0.0], np.cumsum(s) * dx])
        lhs, rhs = M.interpolation_bound(g, f, 1.0)
        if lhs > rhs + 1e-12:
            violations += 1
    ratios = []
    for k in (1, 2, 4, 8):
        nk = 16 * k + 1
        gk = M.GridSpec((0.0,), (1.0,), (nk,), 0.01, 1.0, 3)
        f = np.maximum(1.0 / k - gk.axes[0], 0.0)
        lhs, rhs = M.interpolation_bound(gk, f, 1.0)
        ratios.append(rhs / lhs)
    tent_err = max(abs(r - 3.0 ** (1.0 / 6.0)) for r in ratios)
    ok = violations == 0 and tent_err <= 1e-6
    report(8, ok, f"random 1-Lipschitz family: {violations}/1000 violations; tent "
                  f"family max |ratio - 3^(1/6)| = {tent_err:.1e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# 9. conservation and byte-level reproducibility


def test_criterion_09_determinism(ladder, tmp_path):
    sols, _ = ladder
    drift = max(float(np.abs(s.m_path.weights.sum(axis=1) - 1.0).max())
                for s in sols.values())
    erg_dir = str(tmp_path / "erg")
    hz_dir = str(tmp_path / "hz")
    codes = [
        cli_main(["ergodic", "--instance", "RI-1", "--out", erg_dir]),
        cli_main(["reproduce", os.path.join(erg_dir, "manifest.json")]),
        cli_main(["horizon", "--instance", "RI-1", "--T", "2.0", "--out", hz_dir]),
        cli_main(["reproduce", os.path.join(hz_dir, "manifest.json")]),
    ]
    man = json.load(open(os.path.join(erg_dir, "manifest.json")))
    ok = drift <= 1e-12 and codes == [0, 0, 0, 0] and len(man["outputs"]) == 2
    report(9, ok, f"max mass drift {drift:.1e} (<= 1e-12); ergodic and horizon "
                  f"runs reproduce byte-identically (exit codes {codes})")


# ---------------------------------------------------------------------------
# 10. weak residuals of both equations vanish under refinement


def test_criterion_10_weak_residuals(ri1, ri1_coarse, ergodic_sol, ladder):
    sols, _ = ladder
    fine_kfp = M.kfp_residual(sols[4.0])
    coarse_sol = M.solve_finite_horizon(ri1_coarse.L, ri1_coarse.coupling,
                                        ri1_coarse.m0, ri1_coarse.uf,
                                        ri1_coarse.grid, 4.0)
    coarse_kfp = M.kfp_residual(coarse_sol)
    erg_fine, _ = ergodic_sol
    fine_2nd = M.verify_second_equation(M.BellmanStep(ri1.L, ri1.grid), ri1.coupling,
                                        erg_fine.m_bar, erg_fine.u_bar)
    erg_coarse = M.solve_ergodic(ri1_coarse.L, ri1_coarse.coupling, ri1_coarse.grid)
    coarse_2nd = M.verify_second_equation(M.BellmanStep(ri1_coarse.L, ri1_coarse.grid),
                                          ri1_coarse.coupling, erg_coarse.m_bar,
                                          erg_coarse.u_bar)

    def refines(coarse, fine):
        if max(coarse, fine) <= 1e-10:
            return True, "both <= 1e-10"
        order = float(np.log2(coarse / fine))
        return order >= 0.8, f"order {order:.2f}"

    ok_kfp, how_kfp = refines(coarse_kfp, fine_kfp)
    ok_2nd, how_2nd = refines(coarse_2nd, fine_2nd)
    ok = ok_kfp and ok_2nd
    report(10, ok, f"transport residual {coarse_kfp:.2e} -> {fine_kfp:.2e} "
                   f"({how_kfp}); stationarity residual {coarse_2nd:.1e} -> "
                   f"{fine_2nd:.1e} ({how_2nd})")
