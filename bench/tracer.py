"""Outside-in tracer for the benchmark.

mfglab itself is not instrumented.  The tracer replaces module and class
attributes with wrappers, at the names the calling module looks them up
under (for example ``mfglab.mfg.solve_backward``), and puts the originals
back afterwards.  Each wrapped call appends one span to an in-memory list:
name, start, end, parent span, pass id and the counters computed from its
arguments and return value.  Self time is a span's duration minus the time
covered by its direct children; the benchmark runs single-threaded while
tracing, so children never overlap.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


class Patches:
    """Attribute replacements that can be undone, newest first."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)``."""
        orig = vars(owner)[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class Tracer:
    """Span recorder; spans are tagged with the current ``pass_id``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id, counters]
        self.pass_id = None
        self._stack = []

    def span(self, name, fn, counters=None):
        """Wrap ``fn`` so that each call records a span.

        ``counters(args, kwargs, result)`` returns a dict of computed counts
        for the call; it runs after the span has closed.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counters is not None:
                rec[5] = counters(args, kwargs, out)
            return out

        return traced

    def summary(self, pass_id):
        """Per-name busy seconds, self seconds and calls, summed counters,
        and the seconds covered by top-level spans, for one pass."""
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(float)
        covered = defaultdict(float)  # span index -> time covered by children
        top = 0.0
        for i, (name, t0, t1, parent, pid, ctr) in enumerate(self.spans):
            if pid != pass_id:
                continue
            dur = t1 - t0
            busy[name] += dur
            calls[name] += 1
            if parent < 0:
                top += dur
            else:
                covered[parent] += dur
            for key, val in (ctr or {}).items():
                counts[key] = max(counts[key], val) if key in MAXED else counts[key] + val
        for i, (name, t0, t1, parent, pid, _) in enumerate(self.spans):
            if pid == pass_id:
                own[name] += (t1 - t0) - covered[i]
        return busy, own, calls, counts, top

    def dump(self):
        """Spans as JSON-ready dicts."""
        return [{"name": n, "start": t0, "end": t1, "parent": p, "pass": pid,
                 "counters": c}
                for n, t0, t1, p, pid, c in self.spans]


# Counters combined by maximum rather than by sum.
MAXED = {"hjb.cand_mb"}


def _backward_counts(args, kwargs, vf):
    K = vf.values.shape[0] - 1
    N = vf.values.shape[1]
    V = len(vf.grid.velocities)
    return {"hjb.steps": K, "hjb.cells": K * N * V, "hjb.cand_mb": V * N * 8 / 1e6}


def _flow_counts(args, kwargs, bundle):
    C, Kp1 = bundle.positions.shape[:2]
    return {"transport.curve_steps": C * (Kp1 - 1)}


def _w1_counts(args, kwargs, out):
    m1, m2 = args[:2]
    if m1.grid.dim == 1:  # CDF formula, no LP
        return {"measure.lp_vars": 0}
    return {"measure.lp_vars": len(m1.support()) * len(m2.support())}


def _weak_kam_counts(args, kwargs, out):
    grid = args[2]
    return {"ergodic.weak_kam_steps": round(out[1] / grid.dt)}


def _iteration_counts(args, kwargs, sol):
    return {"mfg.iterations": sol.iterations}


def _csv_bytes(args, kwargs, out):
    return {"cli.out_bytes": os.path.getsize(args[1])}


def _manifest_bytes(args, kwargs, path):
    return {"cli.out_bytes": os.path.getsize(path)}


def install(patches, tracer):
    """Wrap every traced mfglab function; undo with ``patches.restore()``."""
    from mfglab import cli, ergodic, hjb, measure, mfg, model

    def wrap(owner, attr, name, counters=None):
        patches.wrap(owner, attr, lambda fn: tracer.span(name, fn, counters))

    for owner in (mfg, ergodic):
        wrap(owner, "solve_backward", "hjb.solve_backward", _backward_counts)
    wrap(hjb, "interp_grid", "model.interp_grid")
    wrap(model.Coupling, "path_values", "model.Coupling.path_values")
    wrap(mfg, "check_strict_tonelli", "model.check_strict_tonelli")
    wrap(mfg, "check_F4_gap", "model.check_F4_gap")
    wrap(mfg, "trace_optimal_flow", "transport.trace_optimal_flow", _flow_counts)
    wrap(mfg, "measure_path", "transport.measure_path")
    # mfg imports wasserstein1 from mfglab.measure at call time
    for owner in (measure, ergodic):
        wrap(owner, "wasserstein1", "measure.wasserstein1", _w1_counts)
    wrap(cli, "solve_finite_horizon", "mfg.solve_finite_horizon", _iteration_counts)
    wrap(cli, "solve_ergodic", "ergodic.solve_ergodic")
    wrap(ergodic, "weak_kam_solution", "ergodic.weak_kam_solution", _weak_kam_counts)
    wrap(ergodic, "mather_point", "ergodic.mather_point")
    wrap(cli, "convergence_metrics", "analysis.convergence_metrics")
    wrap(hjb.ValueField, "to_csv", "cli.write.ValueField.to_csv", _csv_bytes)
    wrap(measure.MeasurePath, "to_csv", "cli.write.MeasurePath.to_csv", _csv_bytes)
    wrap(cli, "write_manifest", "cli.write.write_manifest", _manifest_bytes)
    wrap(cli, "_cmd_reproduce", "cli.reproduce")
    wrap(cli, "load_instance", "instances.load_instance")


LAYERS = ("hjb", "model", "transport", "measure", "mfg", "ergodic", "analysis",
          "cli", "instances")


def layer_metrics(tracer, pass_id, wall):
    """The per-layer metrics of one traced pass that took ``wall`` seconds."""
    busy, own, calls, counts, top = tracer.summary(pass_id)

    def total(prefix, table=busy):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    steps = counts["hjb.steps"]
    iters = counts["mfg.iterations"]
    out = {
        "hjb.solve_backward.calls": calls["hjb.solve_backward"],
        "hjb.solve_backward.s": busy["hjb.solve_backward"],
        "hjb.solve_backward.self_s": own["hjb.solve_backward"],
        "hjb.step_us": busy["hjb.solve_backward"] / steps * 1e6 if steps else 0.0,
        "hjb.cells": counts["hjb.cells"],
        "hjb.cand_mb": counts["hjb.cand_mb"],
        "model.interp_grid.calls": calls["model.interp_grid"],
        "model.interp_grid.s": busy["model.interp_grid"],
        "model.Coupling.path_values.s": busy["model.Coupling.path_values"],
        "model.check_assumptions.s": (busy["model.check_strict_tonelli"]
                                      + busy["model.check_F4_gap"]),
        "transport.trace_optimal_flow.s": busy["transport.trace_optimal_flow"],
        "transport.measure_path.s": busy["transport.measure_path"],
        "transport.curve_steps": counts["transport.curve_steps"],
        "measure.wasserstein1.calls": calls["measure.wasserstein1"],
        "measure.wasserstein1.s": busy["measure.wasserstein1"],
        "measure.lp_vars": counts["measure.lp_vars"],
        "mfg.solve_finite_horizon.s": busy["mfg.solve_finite_horizon"],
        "mfg.solve_finite_horizon.self_s": own["mfg.solve_finite_horizon"],
        "mfg.iterations": iters,
        "mfg.iter_s": busy["mfg.solve_finite_horizon"] / iters if iters else 0.0,
        "ergodic.solve_ergodic.s": busy["ergodic.solve_ergodic"],
        "ergodic.weak_kam_solution.s": busy["ergodic.weak_kam_solution"],
        "ergodic.weak_kam_steps": counts["ergodic.weak_kam_steps"],
        "ergodic.mather_point.calls": calls["ergodic.mather_point"],
        "analysis.convergence_metrics.s": busy["analysis.convergence_metrics"],
        "cli.write_s": total("cli.write."),
        "cli.out_bytes": counts["cli.out_bytes"],
        "cli.reproduce_s": busy["cli.reproduce"],
        "instances.load_instance.s": busy["instances.load_instance"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total(layer + ".", own)
    out["trace.unattributed_s"] = wall - top
    return out
