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
from concurrent.futures import ThreadPoolExecutor

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


def _atomic_write(path, data):
    """Write via a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_move_into(out_dir, writer, filename):
    """Run writer(tmp_path) then rename tmp into out_dir/filename."""
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp_", suffix=filename)
    os.close(fd)
    try:
        writer(tmp)
        dest = os.path.join(out_dir, filename)
        os.replace(tmp, dest)
        return dest
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    _atomic_write(path, _canonical_json(manifest))
    return path


def read_manifest(path):
    with open(path) as fh:
        raw = fh.read()
    manifest = json.loads(raw)
    if _canonical_json(manifest) != raw:
        raise ValueError("manifest does not round-trip byte-identically")
    return manifest


# ---------------------------------------------------------------------------
# subcommand bodies (shared between the CLI and reproduce)


def _instance(params):
    """The embedded document of a --config run, else the built-in instance."""
    return load_instance(params.get("document", params["instance"]),
                         dx=params.get("dx"), dt=params.get("dt"))


def _run_verify(params, out_dir):
    inst = _instance(params)
    t0 = time.perf_counter()
    lines = []
    ok = True
    rep = check_strict_tonelli(inst.L, inst.grid)
    lines.append(f"tonelli_bounds: {'pass' if rep.passed else 'FAIL'}")
    ok &= rep.passed
    if rep.growth_flags:
        lines.append(f"growth_flags: {len(rep.growth_flags)} sample(s) flagged")
    probes = default_probes(inst.coupling, inst.grid, seed=params.get("seed", 0))
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
    outputs = []
    if out_dir:
        report = "".join(line + "\n" for line in lines)
        dest = _atomic_move_into(out_dir, lambda p: _atomic_write(p, report), "verify.txt")
        outputs.append(dest)
    timings = {"seconds": round(time.perf_counter() - t0, 3)}
    return ok, lines, outputs, measured, timings


def _run_ergodic(params, out_dir):
    inst = _instance(params)
    t0 = time.perf_counter()
    sol = solve_ergodic(inst.L, inst.coupling, inst.grid, tol=params.get("tol", 1e-6))
    timings = {"seconds": round(time.perf_counter() - t0, 3)}
    outputs = []
    if out_dir:
        g = inst.grid

        def write_ubar(p):
            names, coords = g.csv_columns()
            rows = [",".join(["node_index", *names, "ubar"]) + "\n"]
            for i, (c, u) in enumerate(zip(coords, sol.u_bar.tolist())):
                rows.append(",".join([str(i), *c, repr(u)]) + "\n")
            _atomic_write(p, "".join(rows))

        outputs.append(_atomic_move_into(out_dir, write_ubar, "ubar.csv"))
        outputs.append(_atomic_move_into(out_dir, lambda p: sol.m_bar.to_csv(p), "mbar.csv"))
    measured = {
        "lambda": sol.lam,
        "mather_node": sol.mather_node,
        "mather_x": inst.grid.points[sol.mather_node].tolist(),
        "horizon_used": sol.horizon_used,
        "residuals": {k: float(v) for k, v in sol.residuals.items()},
    }
    return sol, outputs, measured, timings


def _run_horizon(params, out_dir):
    inst = _instance(params)
    t0 = time.perf_counter()
    mfg_params = MFGParams(tol=params.get("tol", 1e-4),
                           max_iters=params.get("max_iters", 60))
    sol = solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf,
                               inst.grid, params["T"], mfg_params)
    timings = {"seconds": round(time.perf_counter() - t0, 3)}
    outputs = []
    if out_dir:
        outputs.append(_atomic_move_into(out_dir, lambda p: sol.u.to_csv(p), "u.csv"))
        outputs.append(_atomic_move_into(out_dir, lambda p: sol.m_path.to_csv(p), "mpath.csv"))
    measured = {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "final_residual": sol.residuals[-1] if sol.residuals else None,
        **{k: float(v) for k, v in sol.diagnostics.items()},
    }
    return sol, outputs, measured, timings


def _run_converge(params, out_dir):
    inst = _instance(params)
    t0 = time.perf_counter()
    T_list = params["T_list"]
    R = params.get("R", 3.0)
    for T in T_list:  # reject a bad horizon before any solve
        inst.grid.time_steps(T)
    erg = solve_ergodic(inst.L, inst.coupling, inst.grid, tol=params.get("tol", 1e-6))
    mfg_params = MFGParams(tol=params.get("tol", 1e-4),
                           max_iters=params.get("max_iters", 60))

    def run_one(T):
        return T, solve_finite_horizon(inst.L, inst.coupling, inst.m0, inst.uf,
                                       inst.grid, T, mfg_params)

    threads = max(1, int(params.get("threads", 1)))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            sols = dict(ex.map(run_one, T_list))
    else:
        sols = dict(map(run_one, T_list))
    all_converged = all(s.converged for s in sols.values())
    rep = convergence_metrics(sols, erg, inst.coupling, R)
    timings = {"seconds": round(time.perf_counter() - t0, 3)}
    outputs = []
    if out_dir:
        def write_report(p):
            rows = ["T,e_u,e_F,e_u_scaled,e_F_scaled\n"]
            for T, eu, ef, eus, efs in rep.rows():
                rows.append(f"{T!r},{eu!r},{ef!r},{eus!r},{efs!r}\n")
            _atomic_write(p, "".join(rows))

        outputs.append(_atomic_move_into(out_dir, write_report, "report.csv"))

        def write_dat(which):
            def w(p):
                rows = [f"# T  e_{which}\n"]
                es = rep.e_u if which == "u" else rep.e_F
                for T, e in zip(rep.T_list, es):
                    rows.append(f"{T!r} {e!r}\n")
                _atomic_write(p, "".join(rows))
            return w

        outputs.append(_atomic_move_into(out_dir, write_dat("u"), "eu.dat"))
        outputs.append(_atomic_move_into(out_dir, write_dat("F"), "ef.dat"))
        fit = {"rate_u": rep.rate_u, "rate_F": rep.rate_F,
               "C_hat_u": rep.C_hat_u, "C_hat_F": rep.C_hat_F,
               "R": R, "lambda": erg.lam}
        outputs.append(_atomic_move_into(
            out_dir, lambda p: _atomic_write(p, _canonical_json(fit)), "fit.json"))
    measured = {
        "lambda": erg.lam,
        "e_u": rep.e_u,
        "e_F": rep.e_F,
        "rate_u": rep.rate_u,
        "rate_F": rep.rate_F,
        "C_hat_u": rep.C_hat_u,
        "C_hat_F": rep.C_hat_F,
        "all_converged": all_converged,
    }
    return rep, outputs, measured, timings, all_converged


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
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=1)

    common(sub.add_parser("verify", help="run the assumption checks"))
    common(sub.add_parser("ergodic", help="solve the stationary system"))
    common(sub.add_parser("horizon", help="solve the finite-horizon system"), needs_T=True)
    common(sub.add_parser("converge", help="long-time convergence study"), needs_T=True)
    rp = sub.add_parser("reproduce", help="re-run a manifest and compare outputs")
    rp.add_argument("manifest")
    return p


def _collect_params(args, needs_T=False, T_is_list=False):
    if not args.instance and not args.config:
        raise ValueError("pass --instance or --config")
    params = {"instance": args.config or args.instance, "seed": args.seed,
              "threads": args.threads}
    if args.config:
        with open(args.config) as fh:
            params["document"] = json.load(fh)
        params["document_sha256"] = _config_hash(params["document"])
    for key in ("dx", "dt", "tol", "R"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    # a NaN, infinite or negative tolerance can never be met (NaN fails both tests)
    if "tol" in params and not (math.isfinite(params["tol"]) and params["tol"] >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {params['tol']}")
    if "R" in params and not (math.isfinite(params["R"]) and params["R"] > 0):
        raise ValueError(f"--R must be a finite radius > 0, got {params['R']}")
    if needs_T:
        if T_is_list:
            params["T_list"] = [float(s) for s in str(args.T).split(",")]
        else:
            params["T"] = float(args.T)
    return params


def _ensure_out(args):
    out = args.out
    if out:
        os.makedirs(out, exist_ok=True)
    return out


def _dispatch(command, params, out_dir):
    """Shared between normal runs and reproduce re-runs."""
    if command == "verify":
        ok, lines, outputs, measured, timings = _run_verify(params, out_dir)
        return outputs, measured, timings, (EXIT_OK if ok else EXIT_ASSUMPTION), lines
    if command == "ergodic":
        sol, outputs, measured, timings = _run_ergodic(params, out_dir)
        lines = [f"lambda = {sol.lam!r}", f"mather node x = {measured['mather_x']!r}"]
        return outputs, measured, timings, EXIT_OK, lines
    if command == "horizon":
        sol, outputs, measured, timings = _run_horizon(params, out_dir)
        lines = [f"converged = {sol.converged} after {sol.iterations} iterations",
                 f"final residual = {measured['final_residual']!r}"]
        code = EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE
        return outputs, measured, timings, code, lines
    if command == "converge":
        rep, outputs, measured, timings, all_conv = _run_converge(params, out_dir)
        lines = [f"T={T!r}: e_u={eu!r} e_F={ef!r}" for T, eu, ef in
                 zip(rep.T_list, rep.e_u, rep.e_F)]
        lines.append(f"slope(e_u) = {rep.rate_u['slope']:.3f}, "
                     f"slope(e_F) = {rep.rate_F['slope']:.3f}")
        code = EXIT_OK if all_conv else EXIT_NO_CONVERGENCE
        return outputs, measured, timings, code, lines
    raise ValueError(f"unknown command {command!r}")


def _cmd_reproduce(manifest_path):
    manifest = read_manifest(manifest_path)
    cfg = manifest["config"]
    doc = cfg["params"].get("document")
    if doc is not None and _config_hash(doc) != cfg["params"].get("document_sha256"):
        raise ValueError("manifest: the embedded instance document does not match "
                         "its document_sha256")
    base = os.path.dirname(os.path.abspath(manifest_path))
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        _dispatch(cfg["subcommand"], cfg["params"], tmp)
        for fname in manifest["outputs"]:
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
    return list(manifest["outputs"])


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            files = _cmd_reproduce(args.manifest)
            print(f"reproduce: {len(files)} output(s) byte-identical")
            return EXIT_OK
        needs_T = args.command in ("horizon", "converge")
        params = _collect_params(args, needs_T, T_is_list=(args.command == "converge"))
        out_dir = _ensure_out(args)
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
