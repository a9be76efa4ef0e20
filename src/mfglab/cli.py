"""Command-line front end.

Subcommands: verify | ergodic | horizon | converge | reproduce.
Exit codes: 0 success, 1 reproduce mismatch, 2 assumption failure,
3 non-convergence, 4 I/O or configuration error, 5 solver failure (any
other MFGLabError, such as MinimizerOnBoundary or EscapedBox).  Every run
writes a manifest.json that round-trips byte-identically and lists the
SHA-256 of each CSV output; `mfg reproduce <manifest>` re-runs the same
configuration and asserts the outputs are byte-identical.  A `--config` run
embeds the parsed instance document and its SHA-256 in the manifest params,
so reproduce rebuilds the instance from the manifest alone, from any working
directory and whatever happened to the JSON file since.
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

from . import __version__
from .analysis import convergence_metrics
from .ergodic import solve_ergodic
from .errors import AssumptionFailure, MFGLabError, Mismatch, NoStabilization
from .instances import load_instance
from .mfg import MFGParams, default_probes, solve_finite_horizon
from .model import check_F4_gap, check_F5, check_strict_tonelli

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ASSUMPTION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4
EXIT_SOLVER = 5


def _atomic_write(path, writer):
    """Run writer(tmp) on a temp file in path's directory, then rename it to path."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    manifest = json.loads(raw)
    if _canonical_json(manifest) != raw:
        raise ValueError("manifest does not round-trip byte-identically")
    return manifest


# ---------------------------------------------------------------------------
# subcommand bodies (shared between the CLI and reproduce): each takes the
# params and the loaded instance and returns ({filename: writer(path)},
# measured, timings, exit code, lines to print)

_PHASES = ("backward_s", "forward_s", "d1_s")  # of each fictitious-play iteration


def _phase_seconds(history):
    """{phase: seconds of each iteration} of one fictitious-play solve."""
    return {p: [round(h[p], 4) for h in history] for p in _PHASES}


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
    sol = solve_ergodic(inst.L, inst.coupling, g, tol=params.get("tol", 1e-6))

    def ubar_csv():
        names, coords = g.csv_columns()
        rows = [",".join(["node_index", *names, "ubar"]) + "\n"]
        for i, (c, u) in enumerate(zip(coords, sol.u_bar.tolist())):
            rows.append(",".join([str(i), *c, repr(u)]) + "\n")
        return "".join(rows)

    measured = {
        "lambda": sol.lam,
        "mather_node": sol.mather_node,
        "mather_x": g.points[sol.mather_node].tolist(),
        "horizon_used": sol.horizon_used,
        "weak_kam_changes": [d["change"] for d in sol.doublings],
        "residuals": {k: float(v) for k, v in sol.residuals.items()},
    }
    timings = {"weak_kam_s": [round(d["seconds"], 4) for d in sol.doublings]}
    lines = [f"lambda = {sol.lam!r}", f"mather node x = {measured['mather_x']!r}"]
    writers = {"ubar.csv": _text(ubar_csv), "mbar.csv": sol.m_bar.to_csv}
    return writers, measured, timings, EXIT_OK, lines


def _run_horizon(params, inst):
    sol = solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf, inst.grid,
                               params["T"], MFGParams(tol=params.get("tol", 1e-4)))
    measured = {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "final_residual": sol.residuals[-1],
        "gaps": sol.residuals,
        **{k: float(v) for k, v in sol.diagnostics.items()},
    }
    lines = [f"converged = {sol.converged} after {sol.iterations} iterations",
             f"final residual = {measured['final_residual']!r}"]
    code = EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE
    writers = {"u.csv": sol.u.to_csv, "mpath.csv": sol.m_path.to_csv}
    return writers, measured, _phase_seconds(sol.history), code, lines


def _run_converge(params, inst):
    T_list = params["T_list"]
    R = params.get("R", 3.0)
    for T in T_list:  # reject a bad horizon before any solve
        inst.grid.time_steps(T)
    erg = solve_ergodic(inst.L, inst.coupling, inst.grid, tol=params.get("tol", 1e-6))
    mfg_params = MFGParams(tol=params.get("tol", 1e-4))
    sols = {T: solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf, inst.grid,
                                    T, mfg_params)
            for T in T_list}
    all_converged = all(s.converged for s in sols.values())
    rep = convergence_metrics(sols, erg, inst.coupling, R)

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
        "lambda": erg.lam,
        "e_u": rep.e_u,
        "e_F": rep.e_F,
        "rate_u": rep.rate_u,
        "rate_F": rep.rate_F,
        "C_hat_u": rep.C_hat_u,
        "C_hat_F": rep.C_hat_F,
        "all_converged": all_converged,
        "gaps": [s.residuals for s in sols.values()],  # one list per T, as in T_list
    }
    per_solve = [_phase_seconds(s.history) for s in sols.values()]
    timings = {p: [t[p] for t in per_solve] for p in _PHASES}
    lines = [f"T={T!r}: e_u={eu!r} e_F={ef!r}" for T, eu, ef in
             zip(rep.T_list, rep.e_u, rep.e_F)]
    lines.append(f"slope(e_u) = {rep.rate_u['slope']:.3f}, "
                 f"slope(e_F) = {rep.rate_F['slope']:.3f}")
    code = EXIT_OK if all_converged else EXIT_NO_CONVERGENCE
    return writers, measured, timings, code, lines


_RUNS = {"verify": _run_verify, "ergodic": _run_ergodic,
         "horizon": _run_horizon, "converge": _run_converge}
# params each subcommand reads without a default, besides "instance"
_PARAMS_READ = {"horizon": ("T",), "converge": ("T_list",)}


# ---------------------------------------------------------------------------
# argument parsing


def _parser():
    p = argparse.ArgumentParser(prog="mfg",
                                description="mean field game numerical laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_T=False):
        sp.add_argument("--instance", default=None, help="built-in name, e.g. RI-1")
        sp.add_argument("--config", default=None, help="path to a JSON instance document")
        if needs_T:
            sp.add_argument("--T", required=True,
                            help="horizon (comma-separated list for converge)")
        sp.add_argument("--dx", type=float, default=None)
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--R", type=float, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--threads", type=int, default=1,
                        help="recorded in the manifest and otherwise ignored")

    common(sub.add_parser("verify", help="run the assumption checks"))
    common(sub.add_parser("ergodic", help="solve the stationary system"))
    common(sub.add_parser("horizon", help="solve the finite-horizon system"), needs_T=True)
    common(sub.add_parser("converge", help="long-time convergence study"), needs_T=True)
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


def _collect_params(args, needs_T=False, T_is_list=False):
    if not args.instance and not args.config:
        raise ValueError("pass --instance or --config")
    params = {"instance": args.config or args.instance, "threads": args.threads}
    if args.config:
        with open(args.config) as fh:
            params["document"] = json.load(fh)
        params["document_sha256"] = _config_hash(params["document"])
    for key in ("dx", "dt", "tol", "R"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    if needs_T:
        if T_is_list:
            params["T_list"] = [float(s) for s in str(args.T).split(",")]
        else:
            params["T"] = float(args.T)
    _check_params(params, "--")
    return params


def _dispatch(command, params, out_dir):
    """Run a subcommand and write its outputs into out_dir, if one is given.

    Shared between normal runs and reproduce re-runs.  Returns (output
    paths, measured, timings, exit code, lines to print).
    """
    inst = _instance(params)
    t0 = time.perf_counter()
    writers, measured, timings, code, lines = _RUNS[command](params, inst)
    timings = {"seconds": round(time.perf_counter() - t0, 3), **timings}
    outputs = []
    if out_dir:
        for fname, writer in writers.items():
            outputs.append(os.path.join(out_dir, fname))
            _atomic_write(outputs[-1], writer)
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
    if not isinstance(command, str) or command not in _RUNS:
        raise ValueError(f"manifest: unknown subcommand {command!r}")
    if not isinstance(params, dict) or not isinstance(outputs, dict):
        raise ValueError("manifest: config.params and outputs must be JSON objects")
    for key in ("instance", *_PARAMS_READ.get(command, ())):
        _manifest_field(manifest, f"config.params.{key}")
    _check_params(params, "manifest: config.params.")
    doc = params.get("document")
    if doc is not None and _config_hash(doc) != params.get("document_sha256"):
        raise ValueError("manifest: the embedded instance document does not match "
                         "its document_sha256")
    base = os.path.dirname(os.path.abspath(manifest_path))
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        _dispatch(command, params, tmp)
        for fname in outputs:
            orig = os.path.join(base, fname)
            fresh = os.path.join(tmp, fname)
            if not os.path.exists(orig):
                raise FileNotFoundError(f"original output {fname} missing next to manifest")
            with open(orig, "rb") as fh:
                want = fh.read()
            with open(fresh, "rb") as fh:
                got = fh.read()
            if want != got:
                for n, (lw, lg) in enumerate(zip(want.splitlines(), got.splitlines()), 1):
                    if lw != lg:
                        raise Mismatch(fname, n, lg[:80], lw[:80])
                raise Mismatch(fname, min(len(want.splitlines()),
                                          len(got.splitlines())) + 1, "<eof>", "<eof>")
    return list(outputs)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            files = _cmd_reproduce(args.manifest)
            print(f"reproduce: {len(files)} output(s) byte-identical")
            return EXIT_OK
        needs_T = args.command in ("horizon", "converge")
        params = _collect_params(args, needs_T, T_is_list=(args.command == "converge"))
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
