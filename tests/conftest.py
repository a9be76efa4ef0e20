"""Session fixtures: the reference instance and the expensive ladder solves.

Everything heavy is solved once per session and shared between the module
tests and the acceptance gate; the timings are kept alongside the solutions
because two acceptance criteria carry wall-clock budgets.

Each run draws fresh hypothesis examples; the profile loaded here prints the
@reproduce_failure decorator of a failing draw, so it can be replayed.
"""

import time

import pytest
from hypothesis import settings

import mfglab as M
from mfglab import mfg

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


@pytest.fixture(scope="session")
def ri1():
    return M.load_instance("RI-1")


@pytest.fixture(scope="session")
def ri1_coarse():
    return M.load_instance("RI-1", dx=0.04, dt=0.04)


@pytest.fixture(scope="session")
def ergodic_sol(ri1):
    """(solution, seconds) for the stationary system at production resolution."""
    t0 = time.perf_counter()
    sol = M.solve_ergodic(ri1.L, ri1.coupling, ri1.grid)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="session")
def ladder(ri1, ergodic_sol):
    """(solutions dict, seconds) for the doubling horizons T in {2,...,32}.

    Each horizon starts from the stationary feedback, held at every step, as
    `mfg converge` solves its ladder.  The seconds exclude the stationary solve.
    """
    feedback = ergodic_sol[0].policy
    t0 = time.perf_counter()
    sols = {T: M.solve_finite_horizon(ri1.L, ri1.coupling, ri1.m0, ri1.uf, ri1.grid, T,
                                      start=feedback)
            for T in (2.0, 4.0, 8.0, 16.0, 32.0)}
    return sols, time.perf_counter() - t0


@pytest.fixture(scope="session")
def long_ladder(ri1):
    """Solutions plus the crowd's statistics on the step's stencil for each T
    in {5,10,20,40}.

    stats[T] holds the worst expected time outside B_2 (mfg.pull) from the
    support of the equilibrium cloud m0 and of a wide cloud, uniform on
    [-3, 3], and the top speed over the support of the wide cloud's push
    (mfg.top_speed).  The wide cloud follows the equilibrium feedback, so its
    statistics are not trivially zero the way the equilibrium cloud's are
    (that one never leaves K0).
    """
    g = ri1.grid
    step = M.BellmanStep(ri1.L, g)
    m_wide = M.GridMeasure.uniform_on(g, -3.0, 3.0)
    outside, uT = g.dt * (g.radii() > 2.0), ri1.uf.values_on(g)
    sols, stats = {}, {}
    for T in (5.0, 10.0, 20.0, 40.0):
        sol = M.solve_finite_horizon(ri1.L, ri1.coupling, ri1.m0, ri1.uf, g, T)
        sols[T] = sol
        occupation = mfg.pull(step, sol.u.policy, outside, 0.0)
        wide, _ = mfg.push(step, sol.u.policy, m_wide.weights, uT)
        stats[T] = {"eq_occupation": float(occupation[ri1.m0.support()].max()),
                    "wide_occupation": float(occupation[m_wide.support()].max()),
                    "wide_speed": mfg.top_speed(g, sol.u.policy, wide)}
    return sols, stats
