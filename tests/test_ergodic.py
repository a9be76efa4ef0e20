"""Stationary system: critical value, Mather point, corrected value function.

For the reference instance the rest landscape is L(x, 0) + F(x, m) =
G(<f, m>) f(x) with f(x) = -exp(-x^2) and G(s) = 2 + tanh(s).  The fixed
point is the Dirac at the origin, so lambda = -min_x G(-1) f(x) = 2 - tanh(1)
exactly, and the corrected value function solves (u')^2 / 2 = lambda (1 - e^{-x^2}),
which integrates to u(x) = int_0^x sqrt(2 lambda (1 - e^{-s^2})) ds.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import mfglab as M
from mfglab import errors

LAMBDA_EXACT = 2.0 - np.tanh(1.0)


def ubar_oracle(x):
    lam = LAMBDA_EXACT
    val, err = quad(lambda s: np.sqrt(2.0 * lam * (1.0 - np.exp(-s * s))), 0.0, x)
    assert err < 1e-10
    return val


def zeros_of(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def ones_of(s):
    return np.ones_like(np.asarray(s, dtype=float))


# ---------------------------------------------------------------------------
# critical value and Mather point


def test_lambda_matches_closed_form(ergodic_sol):
    sol, _ = ergodic_sol
    assert sol.lam == pytest.approx(LAMBDA_EXACT, abs=1e-12)


def test_stationary_measure_is_atomic_at_origin(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    assert sol.mather_node == ri1.grid.nearest_node(0.0)
    support = sol.m_bar.support()
    assert len(support) == 1
    assert sol.m_bar.weights[support[0]] == 1.0
    assert ri1.grid.points[support[0]] == 0.0


def test_residuals_vanish(ergodic_sol):
    sol, _ = ergodic_sol
    assert sol.residuals["fixed_point_gap"] <= 1e-12
    assert sol.residuals["second_equation"] <= 1e-10


def test_doublings_record_the_stopping_change(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    changes = [d["change"] for d in sol.doublings]
    assert changes[-1] <= 1e-6 < min(changes[:-1])
    first = max(1.0, 64 * ri1.grid.dt)
    assert sol.horizon_used == pytest.approx(first * 2 ** (len(changes) - 1))
    assert all(d["seconds"] >= 0.0 for d in sol.doublings)


def test_corrected_value_matches_quadrature(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    g = ri1.grid
    assert sol.u_bar[sol.mather_node] == 0.0
    for x in (1.0, 3.0):
        got = sol.u_bar[g.nearest_node(x)]
        assert got == pytest.approx(ubar_oracle(x), abs=0.05)
    # symmetry of the instance carries over to the solution
    flipped = sol.u_bar[::-1]
    assert np.abs(sol.u_bar - flipped).max() <= 1e-9


def test_multistart_agreement(ri1, ergodic_sol):
    sol0, _ = ergodic_sol
    g = ri1.grid
    starts = [M.GridMeasure.dirac(g, -0.52), M.GridMeasure.uniform_on(g, 0.2, 1.0)]
    sols = [sol0] + [M.solve_ergodic(ri1.L, ri1.coupling, g, m_start=s) for s in starts]
    dl, df = M.critical_value_uniqueness_probe(sols, ri1.coupling)
    assert dl <= 1e-9
    assert df <= 1e-9


# ---------------------------------------------------------------------------
# second equation: positive and negative control


def test_second_equation_clean_and_perturbed(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    r0 = M.verify_second_equation(ri1.L, ri1.coupling, ri1.grid, sol.m_bar, sol.u_bar)
    assert r0 <= 1e-10
    tilted = sol.u_bar + 0.1 * np.sin(ri1.grid.points)
    r1 = M.verify_second_equation(ri1.L, ri1.coupling, ri1.grid, sol.m_bar, tilted)
    assert r1 >= 1e-2


# ---------------------------------------------------------------------------
# Lipschitz dependence of lambda on the measure


def test_lambda_lipschitz_in_flat_metric(ri1):
    g = ri1.grid
    lhs, rhs = M.lambda_lipschitz_check(ri1.L, ri1.coupling, g,
                                        M.GridMeasure.dirac(g, 0.0),
                                        M.GridMeasure.dirac(g, 1.0))
    # |lambda(d0) - lambda(d1)| = tanh(1) - tanh(1/e) against lip2 * d1 = 0.86
    assert lhs == pytest.approx(np.tanh(1.0) - np.tanh(np.exp(-1.0)), abs=1e-12)
    assert rhs == pytest.approx(0.86, abs=1e-12)
    assert lhs <= rhs


# ---------------------------------------------------------------------------
# guards


def test_critical_value_requires_reversibility(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    L_irrev = M.LagrangianModel(lambda x, v: 0.5 * np.asarray(v) ** 2 + np.asarray(v),
                                C1=1.0, C2=1.0, C3=1.0, reversible=False)
    with pytest.raises(errors.NotReversible):
        M.critical_value(L_irrev, ri1.coupling, ri1.grid, sol.m_bar)


def test_critical_value_rejects_boundary_minimum(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    tilt = M.quadratic_kinetic(potential=lambda x: 0.1 * np.asarray(x, dtype=float),
                               C3=1.0)
    flat = M.separable_coupling(ones_of, zeros_of, zeros_of, (-1.0,), (1.0,), 0.0, 0.0)
    with pytest.raises(errors.MinOnBoundary):
        M.critical_value(tilt, flat, ri1.grid, sol.m_bar)


def test_cycle_detected_for_flip_flop_well(ri1):
    # the well bottom mirrors the measure's mean, so the Dirac iteration
    # alternates between two nodes and no common minimizer exists
    g = ri1.grid
    flip = M.Coupling(lambda pts, m: -np.exp(-(pts + m.mean()) ** 2),
                      (-1.0,), (1.0,), 0.1, 1.0, name="flip-flop")
    with pytest.raises(errors.CycleDetected):
        M.solve_ergodic(M.quadratic_kinetic(), flip, g,
                        m_start=M.GridMeasure.dirac(g, 0.5))


def test_weak_kam_needs_enough_horizon(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    with pytest.raises(errors.NoStabilization):
        M.weak_kam_solution(ri1.L, ri1.coupling, ri1.grid, sol.m_bar, sol.lam,
                            horizon_cap=1.0)


def test_weak_kam_rejects_wrong_multiplier(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    with pytest.raises((errors.NoStabilization, errors.AssumptionFailure, ValueError)):
        M.weak_kam_solution(ri1.L, ri1.coupling, ri1.grid, sol.m_bar,
                            sol.lam - 0.5, horizon_cap=16.0)
