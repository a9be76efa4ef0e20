"""Command-line front end.

Subcommands: verify | ergodic | horizon | converge | reproduce.
Exit codes: 0 success, 1 reproduce mismatch, 2 assumption failure,
3 non-convergence, 4 I/O, configuration or usage error, 5 solver failure
(any other MFGLabError, such as MinimizerOnBoundary).  Every run
writes a manifest.json that round-trips byte-identically and lists the
SHA-256 of each CSV output; `mfg reproduce <manifest>` re-runs the same
configuration and asserts the outputs are byte-identical.  A `--config` run
embeds the parsed instance document and its SHA-256 in the manifest params,
so reproduce rebuilds the instance from the manifest alone, from any working
directory and whatever happened to the JSON file since.

horizon and converge share one solve pipeline (_solve): check the standing
assumptions, build one BellmanStep for every solve, solve the stationary pair,
then each distinct horizon from its feedback; _solve_record gives the manifest
each solve's iterations.  The feedback only warms the start: where the
stationary solve fails, horizon prints its error on stderr and starts at rest
(measured.start "rest", measured.start_error the error, null after a feedback
start), while converge, whose metrics need the pair, fails.  Once the pair is
known the horizons do not depend on each other, so one process per allowed
CPU solves a contiguous block of them (_solve_horizons); horizon's one T, and
a run pinned to one CPU, stay in this process.  The node-table writer forks
the same way (model.in_blocks), and a failed block, a child's or this
process's, raises what one process would raise, so no exit code depends on
the number of CPUs.  --threads is accepted and ignored.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from collections import namedtuple

from . import __version__
from .analysis import convergence_metrics
from .ergodic import solve_ergodic
from .errors import AssumptionFailure, MFGLabError, Mismatch, NoStabilization
from .hjb import BellmanStep
from .instances import load_instance, parse_json
from .mfg import check_standing_assumptions, default_probes, solve_finite_horizon
from .model import check_F4_gap, check_F5, check_strict_tonelli, in_blocks, write_node_table

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ASSUMPTION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4
EXIT_SOLVER = 5
_CHUNK = 1 << 20  # bytes of each file that reproduce compares at a time


def _atomic_write(path, writer):
    """Run writer(tmp) on a temp file in path's directory, then rename it to path."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except OSError as e:  # name the output: the temp file is gone when this is read
        raise OSError(str(e).replace(tmp, path)) from e
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _text(make):
    """Writer that saves the string make() returns."""
    def write(path):
        with open(path, "w") as fh:
            fh.write(make())
    return write


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _lines(fh):
    """The lines of a binary file as bytes.splitlines gives them, one read line at a time."""
    return (line for piece in fh for line in piece.splitlines())


def _check_same_bytes(fname, orig, fresh):
    """Raise Mismatch unless the files orig and fresh hold the same bytes.

    Both are read in _CHUNK pieces; only after a piece differs are they read
    again from the start, line by line, to name the first differing line,
    or the line after the shorter file's last as <eof>.
    """
    with open(orig, "rb") as fw, open(fresh, "rb") as fg:
        while (want := fw.read(_CHUNK)) == fg.read(_CHUNK):
            if not want:
                return
        fw.seek(0)
        fg.seek(0)
        n = 0
        for n, (lw, lg) in enumerate(zip(_lines(fw), _lines(fg)), 1):
            if lw != lg:
                raise Mismatch(fname, n, lg[:80], lw[:80])
        raise Mismatch(fname, n + 1, "<eof>", "<eof>")


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _config_hash(cfg):
    return hashlib.sha256(_canonical_json(cfg).encode()).hexdigest()


def write_manifest(out_dir, subcommand, params, outputs, measured, timings):
    cfg = {"subcommand": subcommand, "params": params, "version": __version__}
    manifest = {
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
        "measured": measured,
        "timings": timings,
    }
    path = os.path.join(out_dir, "manifest.json")
    _atomic_write(path, _text(lambda: _canonical_json(manifest)))
    return path


def read_manifest(path):
    with open(path) as fh:
        raw = fh.read()
    manifest = parse_json(raw, path)
    if _canonical_json(manifest) != raw:
        raise ValueError("manifest does not round-trip byte-identically")
    return manifest


# ---------------------------------------------------------------------------
# subcommand bodies (shared between the CLI and reproduce): each takes the
# params and the loaded instance and returns ({filename: writer(path)},
# measured, timings, exit code, lines to print)

_PHASES = ("backward_s", "forward_s", "d1_s")  # of each fictitious-play iteration
_SOLVE_PHASES = ("check_s", "step_s", "stationary_s", "horizons_s")  # of _solve, in order
_RECORD = {"gaps": "gap", "gaps_lo": "gap_lo", "thetas": "theta", "floors": "floor"}


def _solve_record(sol):
    """(measured, timings) of one fictitious-play solve: {key: one entry per iteration}."""
    return ({key: [h[field] for h in sol.history] for key, field in _RECORD.items()},
            {p: [round(h[p], 4) for h in sol.history] for p in _PHASES})


def _solve_horizons(solve, grid, horizons):
    """{T: (solve(T), its seconds)} for each distinct horizon, one block of them per
    allowed CPU (model.in_blocks): the horizons in increasing order, cut where
    the running step count K crosses each equal share.  A child pickles its
    block's solutions with the grid left out, and they are loaded here onto
    this process's grid.  A failed horizon raises its own exception (the
    smallest failing T first), so it exits as it would in one process."""
    import pickle

    Ts = sorted(set(horizons))
    done = {}

    def own(lo, hi):
        for T in Ts[lo:hi]:
            t0 = time.perf_counter()
            done[T] = solve(T), time.perf_counter() - t0

    def work(lo, hi, part):
        own(lo, hi)
        pickler = pickle.Pickler(part, pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: "grid" if obj is grid else None
        pickler.dump(done)

    def take(lo, hi, part):
        unpickler = pickle.Unpickler(part)
        unpickler.persistent_load = lambda key: grid
        done.update(unpickler.load())

    in_blocks([grid.time_steps(T) for T in Ts], own, work, take,
              lambda lo, hi: "the solve of T = " + ", ".join(map(repr, Ts[lo:hi])))
    return done


def _solve(params, inst, horizons, need_pair):
    """(stationary pair, its error, {T: MFGSolution}, timings) of horizon and converge
    (module docstring): each distinct horizon once (_solve_horizons).  Where the
    stationary solve fails, need_pair re-raises; otherwise the error's message
    is printed and returned, the pair is None and every horizon starts at rest.
    timings holds the seconds of its phases here, one after another: check_s,
    step_s, stationary_s and horizons_s (all the horizons), and solve_s, those
    of each horizon's solve in the order of horizons."""
    g = inst.grid
    marks = [time.perf_counter()]
    check_standing_assumptions(inst.L, inst.coupling, g, inst.m0)
    marks.append(time.perf_counter())
    step = BellmanStep(inst.L, g)
    marks.append(time.perf_counter())
    erg = error = None
    try:
        erg = solve_ergodic(inst.L, inst.coupling, g, step=step)
    except MFGLabError as e:
        if need_pair:
            raise
        error = str(e)
        print(f"stationary solve failed, starting at rest: {error}", file=sys.stderr)
    marks.append(time.perf_counter())
    done = _solve_horizons(
        lambda T: solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf, g, T,
                                       params.get("tol", 1e-4), step=step,
                                       start=None if erg is None else erg.policy),
        g, horizons)
    marks.append(time.perf_counter())
    timings = {p: round(b - a, 4) for p, a, b in zip(_SOLVE_PHASES, marks, marks[1:])}
    timings["solve_s"] = [round(done[T][1], 4) for T in horizons]
    return erg, error, {T: sol for T, (sol, _) in done.items()}, timings


def _instance(params):
    """The embedded document of a --config run, else the built-in instance."""
    return load_instance(params.get("document", params["instance"]),
                         dx=params.get("dx"), dt=params.get("dt"))


def _run_verify(params, inst):
    lines = []
    ok = True
    rep = check_strict_tonelli(inst.L, inst.grid)
    lines.append(f"tonelli_bounds: {'pass' if rep.passed else 'FAIL'}")
    ok &= rep.passed
    if rep.growth_flags:
        lines.append(f"growth_flags: {len(rep.growth_flags)} sample(s) flagged")
    probes = default_probes(inst.coupling, inst.grid)
    try:
        gap = check_F4_gap(inst.coupling, inst.L, inst.grid, probes)
        lines.append(f"confinement_gap: pass (min gap {gap:.6f} >= {inst.coupling.delta0})")
    except AssumptionFailure as e:
        lines.append(f"confinement_gap: FAIL ({e})")
        ok = False
        gap = None
    common, witness = check_F5(inst.coupling, inst.L, inst.grid, probes)
    lines.append(f"common_minimizer: {'pass' if common else 'FAIL'}"
                 + (f" (node {witness})" if common else ""))
    ok &= common
    in_k0 = inst.coupling.K0_mask(inst.grid)[inst.m0.support()].all()
    lines.append(f"initial_measure_in_K0: {'pass' if in_k0 else 'FAIL'}")
    ok &= bool(in_k0)
    try:
        inst.uf.validate(inst.grid)
        lines.append("terminal_datum: pass")
    except Exception as e:
        lines.append(f"terminal_datum: FAIL ({e})")
        ok = False
    measured = {"min_gap": gap, "witness_node": witness, "passed": bool(ok)}
    writers = {"verify.txt": _text(lambda: "".join(line + "\n" for line in lines))}
    return writers, measured, {}, (EXIT_OK if ok else EXIT_ASSUMPTION), lines


def _run_ergodic(params, inst):
    g = inst.grid
    check_standing_assumptions(inst.L, inst.coupling, g)
    sol = solve_ergodic(inst.L, inst.coupling, g)

    measured = {
        "lambda": sol.lam,
        "mather_node": sol.mather_node,
        "mather_x": g.points[sol.mather_node].tolist(),
        "weak_kam_steps": sol.weak_kam_steps,
        "weak_kam_residual": sol.weak_kam_residual,
        "evaluation_sweeps": sol.evaluation_sweeps,
        "policy_sweeps": sol.policy_sweeps,
        "policy_changes": sol.policy_changes,
        "residuals": {k: float(v) for k, v in sol.residuals.items()},
    }
    timings = {"weak_kam_s": round(sol.weak_kam_s, 4)}
    lines = [f"lambda = {sol.lam!r}", f"mather node x = {measured['mather_x']!r}"]
    writers = {"ubar.csv": lambda path: write_node_table(path, g, "ubar", [sol.u_bar], end="\n"),
               "mbar.csv": sol.m_bar.to_csv}
    return writers, measured, timings, EXIT_OK, lines


def _run_horizon(params, inst):
    inst.grid.time_steps(params["T"])  # reject a bad horizon before any solve
    erg, error, sols, solve_timings = _solve(params, inst, [params["T"]], need_pair=False)
    sol = sols[params["T"]]
    record, phases = _solve_record(sol)
    measured = {
        "start": "rest" if erg is None else "feedback", "start_error": error,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "final_residual": sol.residuals[-1],
        **record,
        **{k: float(v) for k, v in sol.diagnostics.items()},
    }
    lines = [f"converged = {sol.converged} after {sol.iterations} iterations",
             f"final residual = {measured['final_residual']!r}"]
    code = EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE
    writers = {"u.csv": sol.u.to_csv, "mpath.csv": sol.m_path.to_csv}
    timings = {"weak_kam_s": None if erg is None else round(erg.weak_kam_s, 4), **phases,
               **solve_timings}
    return writers, measured, timings, code, lines


def _run_converge(params, inst):
    T_list = params["T_list"]
    R = params.get("R", 3.0)
    for T in T_list:  # reject a bad horizon before any solve
        inst.grid.time_steps(T)
    if len(set(T_list)) < 2:  # a rate needs two horizons
        raise ValueError(f"converge needs at least two distinct horizons, got {T_list!r}")
    if not inst.grid.contains_ball(R):  # the errors are measured on B_R
        raise ValueError(f"R={R!r}: the ball B_R does not fit the box "
                         f"lo={list(inst.grid.lo)}, hi={list(inst.grid.hi)}")
    erg, _, sols, solve_timings = _solve(params, inst, T_list, need_pair=True)
    all_converged = all(s.converged for s in sols.values())
    t0 = time.perf_counter()
    rep = convergence_metrics(sols, erg, inst.coupling, R)
    solve_timings["metrics_s"] = round(time.perf_counter() - t0, 4)
    records, phases = zip(*(_solve_record(sols[T]) for T in T_list))  # one per T, as in T_list

    def report_csv():
        rows = ["T,e_u,e_F,e_u_scaled,e_F_scaled\n"]
        for T, eu, ef, eus, efs in rep.rows():
            rows.append(f"{T!r},{eu!r},{ef!r},{eus!r},{efs!r}\n")
        return "".join(rows)

    def dat(which, es):
        return lambda: "".join([f"# T  e_{which}\n"]
                               + [f"{T!r} {e!r}\n" for T, e in zip(rep.T_list, es)])

    fit = {"rate_u": rep.rate_u, "rate_F": rep.rate_F,
           "C_hat_u": rep.C_hat_u, "C_hat_F": rep.C_hat_F,
           "R": R, "lambda": erg.lam}
    writers = {"report.csv": _text(report_csv),
               "eu.dat": _text(dat("u", rep.e_u)),
               "ef.dat": _text(dat("F", rep.e_F)),
               "fit.json": _text(lambda: _canonical_json(fit))}
    measured = {
        "lambda": erg.lam, "all_converged": all_converged,
        **{key: getattr(rep, key) for key in ("e_u", "e_F", "E_mid", "D_mid", "t_sup",
                                              "rate_u", "rate_F", "C_hat_u", "C_hat_F")},
        **{key: [r[key] for r in records] for key in _RECORD},
    }
    timings = {"weak_kam_s": round(erg.weak_kam_s, 4),
               **{p: [t[p] for t in phases] for p in _PHASES}, **solve_timings}
    lines = [f"T={T!r}: e_u={eu!r} e_F={ef!r}" for T, eu, ef in
             zip(rep.T_list, rep.e_u, rep.e_F)]
    lines.append(f"slope(e_u) = {rep.rate_u['slope']:.3f}, "
                 f"slope(e_F) = {rep.rate_F['slope']:.3f}")
    code = EXIT_OK if all_converged else EXIT_NO_CONVERGENCE
    return writers, measured, timings, code, lines


# each subcommand's body, help line, the params it reads besides instance, dx
# and dt (the horizon params are required and read from --T), and the files
# it writes, in the order it writes them
_Command = namedtuple("_Command", "body help reads outputs")
_COMMANDS = {
    "verify": _Command(_run_verify, "run the assumption checks", (), ("verify.txt",)),
    "ergodic": _Command(_run_ergodic, "solve the stationary system", (),
                        ("ubar.csv", "mbar.csv")),
    "horizon": _Command(_run_horizon, "solve the finite-horizon system", ("T", "tol"),
                        ("u.csv", "mpath.csv")),
    "converge": _Command(_run_converge, "long-time convergence study", ("T_list", "tol", "R"),
                         ("report.csv", "eu.dat", "ef.dat", "fit.json")),
}
_HORIZONS = {"T": float, "T_list": lambda arg: [float(s) for s in arg.split(",")]}
_HELP = {"tol": "stop once the exploitability is at most this (default 1e-4; 0: within rounding)"}


# ---------------------------------------------------------------------------
# argument parsing


def _parser():
    p = argparse.ArgumentParser(prog="mfg",
                                description="mean field game numerical laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_line, reads, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--instance", default=None, help="built-in name, e.g. RI-1")
        sp.add_argument("--config", default=None, help="path to a JSON instance document")
        if any(key in _HORIZONS for key in reads):
            sp.add_argument("--T", required=True,
                            help="horizon (comma-separated list for converge)")
        for key in ("dx", "dt", *(key for key in reads if key not in _HORIZONS)):
            sp.add_argument(f"--{key}", type=float, default=None, help=_HELP.get(key))
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    rp = sub.add_parser("reproduce", help="re-run a manifest and compare outputs")
    rp.add_argument("manifest")
    return p


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


# what each numeric param must be, on the command line and in a manifest; a
# NaN, infinite or negative tolerance can never be met (NaN fails both tests)
_PARAM_RULES = {
    "T": (_is_number, "a number"),
    "T_list": (lambda v: isinstance(v, list) and v and all(map(_is_number, v)),
               "a non-empty list of numbers"),
    "tol": (lambda v: _is_number(v) and math.isfinite(v) and v >= 0, "a finite number >= 0"),
    "R": (lambda v: _is_number(v) and math.isfinite(v) and v > 0, "a finite radius > 0"),
}


def _check_params(params, prefix):
    """ValueError naming the first param that breaks its rule, as prefix + key."""
    for key, (ok, what) in _PARAM_RULES.items():
        if key in params and not ok(params[key]):
            raise ValueError(f"{prefix}{key} must be {what}, got {params[key]!r}")


def _collect_params(args):
    if not args.instance and not args.config:
        raise ValueError("pass --instance or --config")
    params = {"instance": args.config or args.instance}
    if args.config:
        with open(args.config) as fh:
            params["document"] = parse_json(fh.read(), args.config)
        params["document_sha256"] = _config_hash(params["document"])
    for key in ("dx", "dt", *_COMMANDS[args.command].reads):
        if key in _HORIZONS:
            params[key] = _HORIZONS[key](args.T)
        elif getattr(args, key) is not None:
            params[key] = getattr(args, key)
    _check_params(params, "--")
    return params


def _dispatch(command, params, out_dir):
    """Run a subcommand and write its outputs into out_dir, if one is given.

    Shared between normal runs and reproduce re-runs.  Returns (output
    paths, measured, timings, exit code, lines to print); timings holds the
    seconds of the instance load (load_s), of the solve (seconds) and of the
    output writes (write_s).
    """
    t0 = time.perf_counter()
    inst = _instance(params)
    t1 = time.perf_counter()
    writers, measured, timings, code, lines = _COMMANDS[command].body(params, inst)
    t2 = time.perf_counter()
    outputs = []
    if out_dir:
        for fname in _COMMANDS[command].outputs:
            outputs.append(os.path.join(out_dir, fname))
            _atomic_write(outputs[-1], writers[fname])
    timings = {"load_s": round(t1 - t0, 4), "seconds": round(t2 - t1, 3),
               "write_s": round(time.perf_counter() - t2, 4), **timings}
    return outputs, measured, timings, code, lines


def _manifest_field(manifest, path):
    """The value at a dotted key path of a manifest; ValueError if it is missing."""
    obj, keys = manifest, path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"manifest: missing key {'.'.join(keys[:i + 1])}")
        obj = obj[key]
    return obj


def _cmd_reproduce(manifest_path):
    manifest = read_manifest(manifest_path)
    command = _manifest_field(manifest, "config.subcommand")
    params = _manifest_field(manifest, "config.params")
    outputs = _manifest_field(manifest, "outputs")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValueError(f"manifest: unknown subcommand {command!r}")
    if not isinstance(params, dict) or not isinstance(outputs, dict):
        raise ValueError("manifest: config.params and outputs must be JSON objects")
    for key in ("instance", *(key for key in _COMMANDS[command].reads if key in _HORIZONS)):
        _manifest_field(manifest, f"config.params.{key}")
    _check_params(params, "manifest: config.params.")
    doc = params.get("document")
    if doc is not None and _config_hash(doc) != params.get("document_sha256"):
        raise ValueError("manifest: the embedded instance document does not match "
                         "its document_sha256")
    names = _COMMANDS[command].outputs
    for fname in names:
        if fname not in outputs:
            raise ValueError(f"manifest: outputs lack {fname}, which {command} writes")
    for fname in sorted(outputs):
        if fname not in names:
            raise ValueError(f"manifest: outputs name {fname}, which {command} does not write")
    base = os.path.dirname(os.path.abspath(manifest_path))
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        _dispatch(command, params, tmp)
        for fname in outputs:
            orig = os.path.join(base, fname)
            fresh = os.path.join(tmp, fname)
            if not os.path.exists(orig):
                raise FileNotFoundError(f"original output {fname} missing next to manifest")
            _check_same_bytes(fname, orig, fresh)
    return list(outputs)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_IO if e.code else EXIT_OK
    try:
        if args.command == "reproduce":
            files = _cmd_reproduce(args.manifest)
            print(f"reproduce: {len(files)} output(s) byte-identical")
            return EXIT_OK
        params = _collect_params(args)
        out_dir = args.out
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        outputs, measured, timings, code, lines = _dispatch(args.command, params, out_dir)
        for line in lines:
            print(line)
        if out_dir:
            write_manifest(out_dir, args.command, params, outputs, measured, timings)
            print(f"outputs in {out_dir}")
        return code
    except Mismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except AssumptionFailure as e:
        print(f"assumption failure: {e}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except NoStabilization as e:
        print(f"no convergence: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"i/o or configuration error: {e}", file=sys.stderr)
        return EXIT_IO
    except MFGLabError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
