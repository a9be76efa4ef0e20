"""The benchmark tracer still finds every mfglab name it wraps.

bench/tracer.py replaces module and class attributes by name; a refactor
that unbinds one of them breaks the benchmark only when it runs.  One test
installs the tracer on a fresh Patches/Tracer pair and undoes it; another
reads the weak-KAM step count off a real solve's return value, the way the
tracer does.
"""

import importlib.util
import os

import mfglab as M

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_tracer()
    patches = tracer.Patches()
    tracer.install(patches, tracer.Tracer())
    wrapped = list(patches._saved)
    try:
        assert wrapped
        for owner, attr, orig in wrapped:
            assert vars(owner)[attr] is not orig
    finally:
        patches.restore()
    for owner, attr, orig in wrapped:
        assert vars(owner)[attr] is orig


def test_weak_kam_count_is_the_bellman_step_count(ri1_coarse):
    inst = ri1_coarse
    sol = M.solve_ergodic(inst.L, inst.coupling, inst.grid)
    args = (inst.L, inst.coupling, inst.grid, sol.m_bar, sol.lam)
    out = M.weak_kam_solution(*args)
    counts = load_tracer()._weak_kam_counts(args, {}, out)
    assert counts == {"ergodic.weak_kam_steps": out[2]} and out[2] == sol.weak_kam_steps
