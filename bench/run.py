"""mfglab benchmark: three workloads driven through ``mfglab.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload ri1-converge --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload: after a warm-up pass it repeats the
workload's pass until ``--seconds`` have been used (at least three timed
passes), checks every pass against closed forms and byte-level
comparisons, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, with set-up timed in fresh interpreters and times
rescaled to a reference machine speed; ``--trace 1`` alternates traced
and untraced passes and reports the per-layer metrics of ``tracer.py``.
A record of each run, with the machine, versions, passes and spans, goes
to ``.bench_out/``.  See bench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported here or in a probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

LAMBDA = 2.0 - math.tanh(1.0)  # closed-form multiplier of RI-1 and of the 2-D doc
RI2 = str(HERE / "ri2.json")
SETUP_PROBES = 3
CAL_REF = 0.27  # median seconds of calibrate() on the reference machine, see README
MIN_PASSES = 3  # timed passes per untraced run; a traced run makes 2 traced + 2 timed
RATE_MAX = -1.0 / 3.0  # log-log slope bound for e_u and e_F, rate T^(-1/(n+2))


class Workload:
    """One pass of mfg commands, its set-up target and its oracle checks."""

    def __init__(self, name, instance, run):
        self.name = name
        self.instance = instance  # what ``load_instance`` gets in the set-up probe
        self.run = run  # run(bench) -> (seconds, failures)


def ri1_converge(bench, threads=1):
    t0 = time.perf_counter()
    code, _ = bench.mfg("converge", "--instance", "RI-1", "--T", "2,4,8", "--R", "3",
                        "--threads", str(threads))
    secs = time.perf_counter() - t0
    fails = exit_ok(code, "converge")
    if not fails:
        fails += check_lambda(bench.kept["solve_ergodic"][0].lam)
        rep = bench.kept["convergence_metrics"][0]
        for label, errs in (("e_u", rep.e_u), ("e_F", rep.e_F)):
            slope = loglog_slope(rep.T_list, errs)
            if not slope <= RATE_MAX:
                fails.append(f"slope({label}) = {slope!r} > {RATE_MAX!r}")
    return secs, fails


def ri1_horizon_io(bench):
    out = Path(tempfile.mkdtemp(prefix="hz-", dir=bench.work))
    manifest = out / "manifest.json"
    try:
        t0 = time.perf_counter()
        code, _ = bench.mfg("horizon", "--instance", "RI-1", "--T", "8", "--out", str(out),
                            "--threads", "1")
        code_r, text = bench.mfg("reproduce", str(manifest))
        secs = time.perf_counter() - t0
        fails = exit_ok(code, "horizon") + exit_ok(code_r, "reproduce")
        if not fails:
            if "2 output(s) byte-identical" not in text:
                fails.append(f"reproduce reported {text.strip()!r}")
            fails += check_hashes(manifest)
            fails += [f for sol in bench.kept["solve_finite_horizon"] for f in check_mass(sol)]
    finally:
        shutil.rmtree(out)
    return secs, fails


def ri2_horizon(bench):
    # ergodic runs without --out: its ubar.csv writer fails on 2-D grids.
    t0 = time.perf_counter()
    code_e, _ = bench.mfg("ergodic", "--config", RI2, "--threads", "1")
    code_h, _ = bench.mfg("horizon", "--config", RI2, "--T", "2", "--tol", "5e-4",
                          "--threads", "1")
    secs = time.perf_counter() - t0
    fails = exit_ok(code_e, "ergodic") + exit_ok(code_h, "horizon")
    if not fails:
        fails += check_lambda(bench.kept["solve_ergodic"][0].lam)
        fails += check_mass(bench.kept["solve_finite_horizon"][0])
    return secs, fails


WORKLOADS = {w.name: w for w in (
    Workload("ri1-converge", "RI-1", ri1_converge),
    Workload("ri1-horizon-io", "RI-1", ri1_horizon_io),
    Workload("ri2-horizon", RI2, ri2_horizon),
)}


# ---------------------------------------------------------------------------
# oracles: closed forms and byte counts, never the solver's own verdicts


def exit_ok(code, what):
    return [] if code == 0 else [f"mfg {what} exited {code}"]


def check_lambda(lam):
    if abs(lam - LAMBDA) <= 1e-12:
        return []
    return [f"lambda = {lam!r}, closed form 2 - tanh(1) = {LAMBDA!r}"]


def check_mass(sol):
    drift = max(abs(math.fsum(row) - 1.0) for row in sol.m_path.weights)
    return [] if drift <= 1e-12 else [f"mass drift {drift:.3e} > 1e-12"]


def check_hashes(manifest):
    recorded = json.loads(manifest.read_text())["outputs"]
    fails = []
    for fname, digest in recorded.items():
        actual = hashlib.sha256((manifest.parent / fname).read_bytes()).hexdigest()
        if actual != digest:
            fails.append(f"{fname}: sha256 differs from the manifest")
    return fails


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


# ---------------------------------------------------------------------------
# running passes


class Bench:
    """The in-process CLI plus taps that keep what its solvers return."""

    def __init__(self, patches, work):
        from mfglab import cli

        self.cli = cli
        self.work = work
        self.kept = {}
        for name in ("solve_ergodic", "solve_finite_horizon", "convergence_metrics"):
            patches.wrap(cli, name, lambda fn, name=name: self._keep(name, fn))

    def _keep(self, name, fn):
        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.kept.setdefault(name, []).append(out)
            return out
        return kept

    def mfg(self, *argv):
        """``mfg argv`` in this process; returns (exit code, captured output)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue()

    def one_pass(self, run):
        """(seconds, failures) of ``run(self)``; an exception fails the pass."""
        self.kept = {}
        gc.collect()
        t0 = time.perf_counter()
        try:
            return run(self)
        except Exception:
            return time.perf_counter() - t0, [traceback.format_exc(limit=-3)]
        finally:
            self.kept = {}


def setup_seconds(workload):
    """Wall seconds of a fresh interpreter importing the CLI and loading
    the workload's instance, as every ``mfg`` invocation does."""
    code = ("import mfglab.cli\n"
            "from mfglab.instances import load_instance\n"
            f"load_instance({workload.instance!r})\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def environment(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "seed": seed,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def calibrate():
    """Seconds of a fixed loop shaped like the program's work: 1-D
    semi-Lagrangian steps on RI-1's array shapes, then repr-formatting of
    floats as the CSV writers do.  It never calls mfglab, so no change to
    the program moves it; it only tracks the speed of the machine."""
    rng = np.random.default_rng(0)
    nodes, vels = 401, 161
    axis = np.linspace(-4.0, 4.0, nodes)
    pos = rng.uniform(-4.0, 4.0, vels * nodes)
    cost = rng.random((vels, nodes))
    vals = rng.random(nodes)
    cols = np.arange(nodes)
    t0 = time.perf_counter()
    for _ in range(25):
        cand = np.interp(pos, axis, vals).reshape(vels, nodes) + cost
        vals = cand[cand.argmin(axis=0), cols] - 1.0
    for _ in range(120):
        "".join(f"{float(v)!r},{float(x)!r}\n" for v, x in zip(vals, axis))
    return time.perf_counter() - t0


def run_pass(bench, run, kind):
    secs, fails = bench.one_pass(run)
    print(f"pass {kind}: {secs:.3f} s" + (f" FAILED: {'; '.join(fails)}" if fails else ""),
          flush=True)
    return {"kind": kind, "seconds": secs, "failures": fails}


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (record, attempted, failed, metrics)."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    taps = tr.Patches()
    tracer = tr.Tracer()
    passes, record = [], {"workload": workload.name, "trace": trace}
    # A traced run interleaves traced and untraced passes; the seed picks
    # which kind goes first.  The inputs themselves have no randomness.
    traced_first = random.Random(seed).random() < 0.5
    try:
        bench = Bench(taps, work)
        setups, cals = [], []

        def probe():
            # untraced runs time a calibration loop before each pass and a
            # set-up probe before each of the first passes, so that both see
            # the same machine as the passes
            if not trace:
                cals.append(calibrate())
                if len(setups) < SETUP_PROBES:
                    setups.append(setup_seconds(workload))

        t_start = time.perf_counter()
        # pass 0 warms lazy imports and allocator pools; it is checked but not timed
        probe()
        passes.append(run_pass(bench, workload.run, "warm-up"))
        while True:
            timed = len(passes) - 1
            if (timed >= (4 if trace else MIN_PASSES)
                    and time.perf_counter() - t_start + passes[-1]["seconds"] > seconds):
                break
            probe()
            if trace and (timed % 2 == 0) == traced_first:
                tracer.pass_id = len(passes)
                spans = tr.Patches()
                tr.install(spans, tracer)
                try:
                    passes.append(run_pass(bench, workload.run, "traced"))
                finally:
                    spans.restore()
            else:
                passes.append(run_pass(bench, workload.run, "timed"))
        for _ in range(SETUP_PROBES - len(setups)):
            probe()
        if trace and workload.name == "ri1-converge":
            passes.append(run_pass(bench, lambda b: ri1_converge(b, threads=2), "threads-2"))
            record["threads2_wall_s"] = passes[-1]["seconds"]
    finally:
        taps.restore()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(p["failures"]) for p in passes)
    plain = [p["seconds"] for p in passes if p["kind"] == "timed"]
    if trace:
        traced = [(i, p["seconds"]) for i, p in enumerate(passes) if p["kind"] == "traced"]
        rows = [tr.layer_metrics(tracer, i, secs) for i, secs in traced]
        metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        metrics["trace.wall_s"] = statistics.median(secs for _, secs in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
        record["spans"] = tracer.dump()
        print(f"tracing overhead {metrics['trace.overhead_s']:.3f} s per pass")
    else:
        # times are rescaled to the reference machine speed, see bench/README.md
        speed = CAL_REF / statistics.median(cals)
        metrics = {
            "wall_s": statistics.median(plain) * speed,
            "setup_s": statistics.median(setups) * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(setup_samples=setups, calibration=cals, speed=speed)
        q1, _, q3 = statistics.quantiles(plain, n=4)
        print(f"measured: pass median {statistics.median(plain):.3f} s over {len(plain)}"
              f" passes (q1 {q1:.3f}, q3 {q3:.3f}), set-up median"
              f" {statistics.median(setups):.3f} s over {len(setups)} probes")
        print(f"speed factor {speed:.4f} = {CAL_REF} s / calibration median"
              f" {statistics.median(cals):.4f} s over {len(cals)} loops")
        print(f"wall_s {metrics['wall_s']:.3f} s, setup_s {metrics['setup_s']:.3f} s"
              f" (at reference speed), peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {failed / len(passes)!r} ({failed}/{len(passes)} passes)")
    record.update(passes=passes, metrics=metrics, failed=failed)
    return record, len(passes), failed, metrics


def run_all(args):
    """Each workload in its own process, in an order shuffled by the seed."""
    names = sorted(WORKLOADS)
    random.Random(args.seed).shuffle(names)
    attempted = failed = 0
    metrics = {}
    for name in names:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if res is None:
            print(f"{name}: no result (exit {proc.returncode})", flush=True)
            attempted += 1
            failed += 1
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description="mfglab benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "mfglab" / "__init__.py").is_file():
        print(f"error: no mfglab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mfglab

    if Path(mfglab.__file__).resolve().parent != SRC / "mfglab":
        print(f"error: imported mfglab from {mfglab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("env: " + json.dumps(env), flush=True)
    if args.workload == "all":
        attempted, failed, metrics = run_all(args)
    else:
        record, attempted, failed, metrics = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
        record["env"] = env
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(record) + "\n")
        unit = units()
        metrics = {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
