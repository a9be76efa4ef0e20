"""Session fixtures: the reference instance and the expensive ladder solves.

Everything heavy is solved once per session and shared between the module
tests and the acceptance gate; the timings are kept alongside the solutions
because two acceptance criteria carry wall-clock budgets.
"""

import time

import pytest

import mfglab as M


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
    """Solutions plus a wide-cloud trace for each T in {5,10,20,40}.

    The wide cloud starts uniform on [-3, 3] and follows the equilibrium
    feedback, so its excursion statistics are not trivially zero the way the
    equilibrium cloud's are (that one never leaves K0).
    """
    m_wide = M.GridMeasure.uniform_on(ri1.grid, -3.0, 3.0)
    sols, wides = {}, {}
    for T in (5.0, 10.0, 20.0, 40.0):
        sol = M.solve_finite_horizon(ri1.L, ri1.coupling, ri1.m0, ri1.uf,
                                     ri1.grid, T)
        sols[T] = sol
        wides[T] = M.trace_optimal_flow(sol.u, m_wide)
    return sols, wides
