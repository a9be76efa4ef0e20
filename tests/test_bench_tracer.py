"""The benchmark tracer still finds every mfglab name it wraps.

bench/tracer.py replaces module and class attributes by name; a refactor
that unbinds one of them breaks the benchmark only when it runs.  One test
installs the tracer on a fresh Patches/Tracer pair and undoes it; another
reads the weak-KAM step count off a real solve's return value, the way the
tracer does.  A traced horizon --out plus reproduce pins that reproduce
writes its fresh outputs as real files at the paths the tracer measures.
The benchmark's oracles read what the CLI's solvers return through taps on
their cli names, so a test counts the calls each tap sees.
"""

import importlib.util
import os

import pytest

import mfglab as M
from mfglab import cli

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


def test_traced_reproduce_writes_real_files(tmp_path):
    tracer = load_tracer()
    patches, spans = tracer.Patches(), tracer.Tracer()
    tracer.install(patches, spans)
    out = str(tmp_path / "hz")
    try:
        spans.pass_id = 1
        assert cli.main(["horizon", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04",
                         "--T", "2", "--out", out]) == 0
        spans.pass_id = 2
        assert cli.main(["reproduce", os.path.join(out, "manifest.json")]) == 0
    finally:
        patches.restore()
    for pass_id in (1, 2):
        assert tracer.layer_metrics(spans, pass_id, 0.0)["cli.out_bytes"] > 0


@pytest.mark.parametrize("args, counts", [
    (["converge", "--T", "2,4,8", "--R", "3"], (1, 3, 1)),
    (["horizon", "--T", "2"], (1, 1, 0)),
], ids=["converge", "horizon"])
def test_benchmark_taps_see_every_solve(tmp_path, args, counts):
    # bench/run.py keeps what these three names return, as wrapped here; each
    # call appends a line to a file, so that a call in a forked child counts too
    names = ("solve_ergodic", "solve_finite_horizon", "convergence_metrics")
    log = tmp_path / "calls"
    log.write_text("")

    def tap(name, fn):
        def counted(*a, **kw):
            with open(log, "a") as fh:
                fh.write(name + "\n")
            return fn(*a, **kw)
        return counted

    patches = load_tracer().Patches()
    for name in names:
        patches.wrap(cli, name, lambda fn, name=name: tap(name, fn))
    try:
        assert cli.main([*args, "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04"]) == 0
    finally:
        patches.restore()
    calls = log.read_text().split()
    assert tuple(calls.count(name) for name in names) == counts
