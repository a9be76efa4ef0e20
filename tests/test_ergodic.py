"""Stationary system: critical value, Mather point, corrected value function.

For the reference instance the rest landscape is L(x, 0) + F(x, m) =
G(<f, m>) f(x) with f(x) = -exp(-x^2) and G(s) = 2 + tanh(s).  The fixed
point is the Dirac at the origin, so lambda = -min_x G(-1) f(x) = 2 - tanh(1)
exactly, and the corrected value function solves (u')^2 / 2 = lambda (1 - e^{-x^2}),
which integrates to u(x) = int_0^x sqrt(2 lambda (1 - e^{-s^2})) ds.

The weak-KAM solve runs Howard's policy iteration; value_iteration, the
plain w <- T w from 0, is its reference.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mfglab as M
from mfglab import errors
from mfglab.instances import BUILTIN

RI2 = os.path.join(os.path.dirname(__file__), "..", "bench", "ri2.json")

LAMBDA_EXACT = 2.0 - np.tanh(1.0)


def ubar_oracle(x):
    lam = LAMBDA_EXACT
    val, err = quad(lambda s: np.sqrt(2.0 * lam * (1.0 - np.exp(-s * s))), 0.0, x)
    assert err < 1e-10
    return val


def value_iteration(L, coupling, grid, m_bar, lam):
    """w <- T w from w = 0 until ||T w - w||_inf is exactly 0, or
    ceil(128 / dt) steps: (w, steps, last residual)."""
    Fbar = coupling.values_on(grid, m_bar) + lam
    step = M.BellmanStep(L, grid)
    w = np.zeros(grid.n_points)
    for steps in range(1, int(np.ceil(128.0 / grid.dt)) + 1):
        w_new = step(w, Fbar)[0]
        residual = float(np.abs(w_new - w).max())
        w = w_new
        if residual == 0.0:
            break
    return w, steps, residual


def zeros_of(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def ones_of(pts):
    return np.ones(len(pts))


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


def test_residuals_vanish(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    assert M.mather_point(ri1.L, ri1.coupling, ri1.grid, sol.m_bar) == sol.mather_node
    assert sol.residuals["second_equation"] <= 1e-10


def bellman_residual(inst, sol, w):
    """||T w - w||_inf and the bound it must meet, 16 ulps of max |w|."""
    F = inst.coupling.values_on(inst.grid, sol.m_bar) + sol.lam
    Tw = M.BellmanStep(inst.L, inst.grid)(w, F)[0]
    return float(np.abs(Tw - w).max()), 16 * np.spacing(np.abs(w).max())


def test_weak_kam_stops_at_a_bitwise_fixed_point(ri1, ergodic_sol):
    # the policy repeats bit for bit; w is a fixed point of T within a few ulps
    sol, _ = ergodic_sol
    g = ri1.grid
    w, horizon, steps, residual = M.weak_kam_solution(ri1.L, ri1.coupling, g,
                                                      sol.m_bar, sol.lam)
    got, bound = bellman_residual(ri1, sol, w)
    assert residual == sol.weak_kam_residual == got <= bound
    assert horizon == steps * g.dt
    assert steps == sol.weak_kam_steps
    assert np.array_equal(w - w[sol.mather_node], sol.u_bar)
    assert sol.weak_kam_s >= 0.0


def test_policy_record_adds_up_to_the_totals(ri1_coarse):
    inst = ri1_coarse
    sol = M.solve_ergodic(inst.L, inst.coupling, inst.grid)
    assert len(sol.policy_sweeps) == len(sol.policy_changes) == sol.weak_kam_steps
    assert sum(sol.policy_sweeps) == sol.evaluation_sweeps
    assert sol.policy_changes[-1] == 0 and min(sol.policy_changes[:-1]) > 0


def test_weak_kam_is_value_iteration_on_ri2():
    inst = M.load_instance(RI2)
    sol = M.solve_ergodic(inst.L, inst.coupling, inst.grid)
    w, _, steps, _ = M.weak_kam_solution(inst.L, inst.coupling, inst.grid, sol.m_bar, sol.lam)
    w_vi, _, _ = value_iteration(inst.L, inst.coupling, inst.grid, sol.m_bar, sol.lam)
    assert np.abs(w - w_vi).max() <= 1e-14 * np.abs(w_vi).max()
    assert steps == sol.weak_kam_steps and sol.evaluation_sweeps > 0


@st.composite
def mutated_instances(draw):
    """RI-1 or bench/ri2.json on another grid.

    dt stays near dx and the velocity step at most 0.5, as in both
    documents.  The origin is a node, or in about 30% of draws it lies
    halfway between two nodes per axis, so the rest landscape has 2^n tied
    minima.
    """
    if draw(st.booleans()):
        doc = json.loads(json.dumps(BUILTIN["RI-1"]))
        dim, dx, half, most = 1, draw(st.floats(0.05, 0.4)), draw(st.floats(3.0, 4.0)), 40
    else:
        with open(RI2) as fh:
            doc = json.load(fh)
        dim, dx, half, most = 2, draw(st.floats(0.25, 0.6)), draw(st.floats(2.0, 3.0)), 12
    half = dx * (round(half / dx) + 0.5 * (draw(st.integers(0, 9)) < 3))
    v_max = draw(st.floats(3.0, 5.0))
    doc["grid"].update(lo=[-half] * dim, hi=[half] * dim, dx=dx,
                       dt=dx * draw(st.floats(0.5, 1.5)), v_max=v_max,
                       v_nodes=2 * draw(st.integers(int(np.ceil(2 * v_max)), most)) + 1)
    return M.load_instance(doc)


@settings(max_examples=30, deadline=None)
@given(inst=mutated_instances())
def test_weak_kam_is_a_fixed_point_within_rounding_of_value_iteration(inst):
    sol = M.solve_ergodic(inst.L, inst.coupling, inst.grid)
    args = (inst.L, inst.coupling, inst.grid, sol.m_bar, sol.lam)
    w, _, _, residual = M.weak_kam_solution(*args)
    got, bound = bellman_residual(inst, sol, w)
    assert residual == got <= bound
    # against value iteration where it reaches a bitwise fixed point: on about
    # 96% of these grids with the origin a node and 55% with it off the grid
    w_vi, _, residual_vi = value_iteration(*args)
    assume(residual_vi == 0.0)
    assert np.abs(w - w_vi).max() <= 1e-14 * np.abs(w_vi).max()


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
    step = M.BellmanStep(ri1.L, ri1.grid)
    r0 = M.verify_second_equation(step, ri1.coupling, sol.m_bar, sol.u_bar)
    assert r0 <= 1e-10
    tilted = sol.u_bar + 0.1 * np.sin(ri1.grid.points[:, 0])
    r1 = M.verify_second_equation(step, ri1.coupling, sol.m_bar, tilted)
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
    L_irrev = M.LagrangianModel(lambda x, v: (0.5 * v ** 2 + v).sum(-1),
                                C1=1.0, C2=1.0, C3=1.0, reversible=False)
    with pytest.raises(errors.NotReversible):
        M.critical_value(L_irrev, ri1.coupling, ri1.grid, sol.m_bar)


def test_critical_value_rejects_boundary_minimum(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    tilt = M.quadratic_kinetic(potential=lambda x: 0.1 * x[..., 0], C3=1.0)
    flat = M.separable_coupling(ones_of, zeros_of, (-1.0,), (1.0,), 0.0, 0.0)
    with pytest.raises(errors.MinOnBoundary):
        M.critical_value(tilt, flat, ri1.grid, sol.m_bar)


def test_cycle_detected_for_flip_flop_well(ri1):
    # the well bottom mirrors the measure's mean, so the Dirac iteration
    # alternates between two nodes and no common minimizer exists
    g = ri1.grid
    flip = M.Coupling(
        lambda grid, W: -np.exp(-((grid.points + (W @ grid.points)[:, None]) ** 2).sum(-1)),
        (-1.0,), (1.0,), 0.1, 1.0, name="flip-flop")
    with pytest.raises(errors.CycleDetected):
        M.solve_ergodic(M.quadratic_kinetic(), flip, g,
                        m_start=M.GridMeasure.dirac(g, 0.5))


def test_weak_kam_rejects_wrong_multiplier(ri1, ergodic_sol):
    sol, _ = ergodic_sol
    with pytest.raises((errors.NoStabilization, errors.AssumptionFailure, ValueError)):
        M.weak_kam_solution(ri1.L, ri1.coupling, ri1.grid, sol.m_bar,
                            sol.lam - 0.5)
