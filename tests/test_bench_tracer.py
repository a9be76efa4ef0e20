"""The benchmark tracer still finds every mfglab name it wraps.

bench/tracer.py replaces module and class attributes by name; a refactor
that unbinds one of them breaks the benchmark only when it runs.  This test
installs the tracer on a fresh Patches/Tracer pair and undoes it.
"""

import importlib.util
import os

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
