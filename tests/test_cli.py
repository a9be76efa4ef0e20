"""Command-line front end: exit codes, manifests, byte-level reproduction."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

from mfglab import cli, mfg
from mfglab.cli import main
from mfglab.errors import MFGLabError, Mismatch, TransportLPFailed
from mfglab.instances import BUILTIN
from mfglab.measure import GridMeasure, wasserstein1
from mfglab.model import GridSpec, write_node_table


RI2 = os.path.join(os.path.dirname(__file__), "..", "bench", "ri2.json")


def run(args):
    return main(list(args))


def manifest_of(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_reference_instance(tmp_path):
    out = str(tmp_path / "ver")
    assert run(["verify", "--instance", "RI-1", "--out", out]) == 0
    text = (tmp_path / "ver" / "verify.txt").read_text()
    for line in ("tonelli_bounds: pass", "confinement_gap: pass",
                 "common_minimizer: pass", "initial_measure_in_K0: pass",
                 "terminal_datum: pass"):
        assert line in text


def test_verify_instance_from_config_file(tmp_path):
    cfg = {
        "name": "RI-1-coarse",
        "lagrangian": {"kind": "kinetic"},
        "coupling": {"kind": "separable", "f": "neg_gaussian", "G": "two_plus_tanh",
                     "K0": [-1.0, 1.0], "delta0": 0.36, "lip2": 0.86},
        "grid": {"lo": -4.0, "hi": 4.0, "dx": 0.04, "dt": 0.04,
                 "v_max": 4.0, "v_nodes": 81},
        "terminal": {"kind": "zero"},
        "initial": {"kind": "uniform_K0"},
    }
    cfg_path = tmp_path / "inst.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "ver")
    assert run(["verify", "--config", str(cfg_path), "--out", out]) == 0


# ---------------------------------------------------------------------------
# ergodic and horizon runs


def test_ergodic_run_and_manifest(tmp_path):
    out = str(tmp_path / "erg")
    assert run(["ergodic", "--instance", "RI-1", "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "mbar.csv", "ubar.csv"]
    man = manifest_of(out)
    assert sorted(man.keys()) == ["config", "config_hash", "measured",
                                  "outputs", "timings"]
    assert sorted(man["outputs"].keys()) == ["mbar.csv", "ubar.csv"]
    assert man["measured"]["lambda"] == pytest.approx(1.2384058440442351, abs=1e-12)
    assert man["measured"]["mather_x"] == [0.0]
    measured = man["measured"]
    assert sorted(measured) == ["evaluation_sweeps", "lambda", "mather_node", "mather_x",
                                "policy_changes", "policy_sweeps", "residuals",
                                "weak_kam_residual", "weak_kam_steps"]
    assert measured["weak_kam_residual"] <= 16 * math.ulp(5.3)  # 16 ulps of max |ubar|
    assert measured["evaluation_sweeps"] >= measured["weak_kam_steps"] > 0
    assert isinstance(man["timings"]["weak_kam_s"], float)


def test_ergodic_runs_at_a_dt_that_does_not_divide_one(tmp_path):
    assert run(["ergodic", "--instance", "RI-1", "--dt", "0.015",
                "--out", str(tmp_path / "erg")]) == 0


@pytest.mark.parametrize("dt", ["0.005", "0.001", "1e-11", "1e-14"])
def test_ergodic_runs_at_a_small_dt(dt):
    # value iteration passed through an edge velocity on its way to ubar; at
    # a tiny dt the policy alternated between velocities that tie within rounding
    assert run(["ergodic", "--instance", "RI-1", "--dx", "0.1", "--dt", dt]) == 0


def test_ergodic_runs_with_the_origin_off_the_grid(tmp_path):
    # the rest landscape has two tied minima, at the nodes -0.1 and 0.1
    doc = json.loads(json.dumps(BUILTIN["RI-1"]))
    doc["grid"].update(lo=-3.5, hi=3.5, dx=0.2, dt=0.078)
    cfg_path = tmp_path / "off.json"
    cfg_path.write_text(json.dumps(doc))
    out = str(tmp_path / "erg")
    assert run(["ergodic", "--config", str(cfg_path), "--out", out]) == 0
    with open(os.path.join(out, "ubar.csv")) as fh:
        top = max(abs(float(line.split(",")[-1])) for line in list(fh)[1:])
    assert manifest_of(out)["measured"]["weak_kam_residual"] <= 16 * math.ulp(top)


def test_manifest_is_canonical_json(tmp_path):
    out = str(tmp_path / "erg")
    assert run(["ergodic", "--instance", "RI-1", "--out", out]) == 0
    raw = open(os.path.join(out, "manifest.json"), "rb").read()
    redumped = (json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n").encode()
    assert raw == redumped


def test_horizon_run(tmp_path):
    out = str(tmp_path / "hz")
    assert run(["horizon", "--instance", "RI-1", "--T", "2.0", "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "mpath.csv", "u.csv"]
    measured = manifest_of(out)["measured"]
    assert measured["converged"] is True
    # every iterate has an eps; each but the last took a step theta in (0, 1]
    assert all(isinstance(g, float) for g in measured["gaps"])
    thetas = measured["thetas"]
    assert len(thetas) == measured["iterations"] and thetas[-1] is None
    assert all(0.0 < t <= 1.0 for t in thetas[:-1])
    certifies_the_stop(measured, 1e-4)


def test_horizon_starts_from_the_stationary_feedback(tmp_path):
    # horizon starts as every converge horizon does, so on the same grid its
    # T = 8 solve is converge's, and from the feedback it ends after one iteration
    coarse = ["--instance", "RI-1", "--dx", "0.04", "--dt", "0.04"]
    hz, cv = str(tmp_path / "hz"), str(tmp_path / "cv")
    assert run(["horizon", *coarse, "--T", "8", "--out", hz]) == 0
    assert run(["converge", *coarse, "--T", "2,8", "--out", cv]) == 0
    horizon, converge = manifest_of(hz), manifest_of(cv)
    assert horizon["measured"]["start"] == "feedback"
    assert horizon["measured"]["start_error"] is None
    assert len(horizon["measured"]["gaps"]) == 1
    for key in ("gaps", "gaps_lo", "thetas", "floors"):  # one solve, recorded alike
        assert horizon["measured"][key] == converge["measured"][key][1], key
    for man in (horizon, converge):  # the stationary solve's seconds, as ergodic writes them
        assert isinstance(man["timings"]["weak_kam_s"], float)


def certifies_the_stop(measured, tol):
    """A converged run's last eps is within tol or its rounding floor, both in the manifest."""
    gaps, floors = measured["gaps"], measured["floors"]
    assert measured["converged"] and len(floors) == len(gaps) == measured["iterations"]
    assert all(isinstance(f, float) and f > 0.0 for f in floors)
    assert gaps[-1] <= max(tol, floors[-1])


def test_manifest_times_the_load_and_the_writes(tmp_path):
    out = str(tmp_path / "hz")
    t0 = time.perf_counter()
    assert run(["horizon", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04", "--T", "2",
                "--out", out]) == 0
    wall = time.perf_counter() - t0
    timings = manifest_of(out)["timings"]
    parts = [timings[key] for key in ("load_s", "seconds", "write_s")]
    assert all(isinstance(p, float) and p >= 0.0 for p in parts)
    # seconds is rounded to 1e-3 and the others to 1e-4, each by at most half of it
    assert sum(parts) <= wall + 0.5e-3 + 2 * 0.5e-4


def test_tol_zero_stop_is_checked_from_the_manifest(tmp_path):
    out = str(tmp_path / "hz")
    assert run(["horizon", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04", "--T", "2",
                "--tol", "0", "--out", out]) == 0
    certifies_the_stop(manifest_of(out)["measured"], 0.0)


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_byte_identical(tmp_path):
    out = str(tmp_path / "erg")
    assert run(["ergodic", "--instance", "RI-1", "--out", out]) == 0
    assert run(["reproduce", os.path.join(out, "manifest.json")]) == 0


def test_reproduce_detects_tampering(tmp_path, capsys):
    out = str(tmp_path / "erg")
    assert run(["ergodic", "--instance", "RI-1", "--out", out]) == 0
    p = os.path.join(out, "ubar.csv")
    body = open(p).read()
    open(p, "w").write(body.replace("0.0", "0.1", 1))
    assert run(["reproduce", os.path.join(out, "manifest.json")]) == 1
    err = capsys.readouterr().err
    assert "mismatch" in err
    assert "ubar.csv" in err
    assert "line" in err


def whole_file_mismatch(fname, want, got):
    """The Mismatch of the first differing line, with both files read whole: the reference."""
    for n, (lw, lg) in enumerate(zip(want.splitlines(), got.splitlines()), 1):
        if lw != lg:
            return Mismatch(fname, n, lg[:80], lw[:80])
    return Mismatch(fname, min(len(want.splitlines()), len(got.splitlines())) + 1,
                    "<eof>", "<eof>")


def edited(body, edit, newline):
    """body with the first line that starts past the first chunk changed or cut off."""
    start = body.index(newline, cli._CHUNK) + len(newline)
    if edit == "tamper":
        return body[:start] + b"9" + body[start + 1:]
    return body[:start]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("edit", ["tamper", "truncate"])
def test_chunked_compare_names_the_line_past_the_first_chunk(tmp_path, edit, newline):
    want = b"".join(b"%d,%r,%r" % (i, i * 0.1, i * 1e-3) + newline for i in range(100_000))
    assert len(want) > 2 * cli._CHUNK
    got = edited(want, edit, newline)
    orig, fresh = tmp_path / "orig.csv", tmp_path / "fresh.csv"
    orig.write_bytes(want)
    fresh.write_bytes(got)
    with pytest.raises(Mismatch) as exc:
        cli._check_same_bytes("out.csv", orig, fresh)
    ref = whole_file_mismatch("out.csv", want, got)
    assert str(exc.value) == str(ref)
    assert exc.value.line_no == want[:cli._CHUNK].count(newline) + 2
    assert ("<eof>" in str(exc.value)) == (edit == "truncate")


def test_reproduce_names_a_tampered_line_past_the_first_chunk(tmp_path, capsys):
    out = tmp_path / "hz"
    assert run(["horizon", "--instance", "RI-1", "--T", "4", "--out", str(out)]) == 0
    want = (out / "u.csv").read_bytes()
    assert len(want) > 3 * cli._CHUNK
    got = edited(want, "tamper", b"\r\n")
    (out / "u.csv").write_bytes(got)
    capsys.readouterr()
    assert run(["reproduce", str(out / "manifest.json")]) == 1
    # the re-run wrote want; the file next to the manifest now holds got
    ref = whole_file_mismatch("u.csv", got, want)
    assert capsys.readouterr().err == f"error: {ref}\n"


def test_chunked_compare_holds_chunks_not_files(tmp_path):
    body = b"0.12345678901234567,-3.9800000000000004\r\n" * 210_000
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_bytes(body)
    b.write_bytes(body)
    size = len(body)
    del body
    tracemalloc.start()
    try:
        cli._check_same_bytes("a.csv", a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 8 * cli._CHUNK
    assert peak < 3 * cli._CHUNK  # one chunk of each file at a time


def test_reproduce_missing_manifest(tmp_path):
    assert run(["reproduce", str(tmp_path / "none" / "manifest.json")]) == 4


def test_config_manifest_reproduces_from_any_directory(tmp_path, monkeypatch, capsys):
    # the manifest carries the document, so neither the working directory
    # nor later edits of the JSON file matter; edits of the embedded copy do
    (tmp_path / "run").mkdir()
    (tmp_path / "elsewhere").mkdir()
    doc = {"name": "embedded", "coupling": dict(RI1_COUPLING),
           "grid": {"lo": -4.0, "hi": 4.0, "dx": 0.04, "dt": 0.04,
                    "v_max": 4.0, "v_nodes": 81}}
    (tmp_path / "run" / "inst.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path / "run")
    assert run(["verify", "--config", "inst.json", "--out", "ver"]) == 0
    manifest = str(tmp_path / "run" / "ver" / "manifest.json")
    params = manifest_of(os.path.dirname(manifest))["config"]["params"]
    assert params["instance"] == "inst.json" and params["document"] == doc
    assert len(params["document_sha256"]) == 64
    (tmp_path / "run" / "inst.json").write_text(json.dumps({**doc, "coupling": 3}))
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert run(["reproduce", manifest]) == 0
    m = manifest_of(os.path.dirname(manifest))
    m["config"]["params"]["document"]["coupling"]["lip2"] = 0.5
    with open(manifest, "w") as fh:
        fh.write(json.dumps(m, sort_keys=True, indent=2) + "\n")
    assert run(["reproduce", manifest]) == 4
    assert "document_sha256" in capsys.readouterr().err


def test_instance_manifest_records_no_document(tmp_path):
    out = str(tmp_path / "ver")
    assert run(["verify", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04",
                "--out", out]) == 0
    assert set(manifest_of(out)["config"]["params"]) == {"instance", "dx", "dt"}


def write_canonical(path, manifest):
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("args, old_params", [
    (["verify"], {"seed": 7}),
    (["converge", "--T", "2,4", "--R", "3.0"], {"seed": 0, "threads": 2}),
    (["verify"], {"tol": 7.0, "R": 9.0}),  # flags verify accepted, but never read
])
def test_old_manifest_reproduces(tmp_path, args, old_params):
    # manifests of earlier versions carry "seed", and "threads" that ran a pool
    out = tmp_path / "run"
    assert run([*args, "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04",
                "--out", str(out)]) == 0
    manifest = manifest_of(out)
    manifest["config"]["params"].update(old_params)
    write_canonical(out / "manifest.json", manifest)
    assert run(["reproduce", str(out / "manifest.json")]) == 0


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.clear(), "missing key config"),
    (lambda m: m["config"].pop("subcommand"), "missing key config.subcommand"),
    (lambda m: m["config"].pop("params"), "missing key config.params"),
    (lambda m: m["config"].update(params=[]), "config.params and outputs must be JSON objects"),
    (lambda m: m.pop("outputs"), "missing key outputs"),
    (lambda m: m["config"]["params"].pop("instance"), "missing key config.params.instance"),
    (lambda m: m["config"]["params"].pop("T"), "missing key config.params.T"),
    (lambda m: m["config"].update(subcommand="converge"), "missing key config.params.T_list"),
    (lambda m: m["config"].update(subcommand=["horizon"]), "unknown subcommand ['horizon']"),
    (lambda m: m["config"]["params"].update(T="abc"), "config.params.T must be a number, got 'abc'"),
    (lambda m: m["config"].update(subcommand="converge", params={"instance": "RI-1", "T_list": 3}),
     "config.params.T_list must be a non-empty list of numbers, got 3"),
    (lambda m: m["config"].update(subcommand="converge",
                                  params={"instance": "RI-1", "T_list": [2.0, "4"]}),
     "config.params.T_list must be a non-empty list of numbers, got [2.0, '4']"),
    (lambda m: m["config"]["params"].update(tol="x"),
     "config.params.tol must be a finite number >= 0, got 'x'"),
    (lambda m: m["config"]["params"].update(R=-1.0),
     "config.params.R must be a finite radius > 0, got -1.0"),
    # outputs name exactly the files the subcommand writes
    (lambda m: m["outputs"].pop("u.csv"), "outputs lack u.csv, which horizon writes"),
    (lambda m: m["outputs"].update({"extra.csv": "0" * 64}),
     "outputs name extra.csv, which horizon does not write"),
])
def test_malformed_manifest_is_config_error(tmp_path, monkeypatch, capsys, edit, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    manifest = {"config": {"subcommand": "horizon", "version": "0.1.0",
                           "params": {"instance": "RI-1", "T": 2.0}},
                "outputs": {"u.csv": "0" * 64, "mpath.csv": "0" * 64}}
    edit(manifest)
    path = tmp_path / "manifest.json"
    write_canonical(path, manifest)
    monkeypatch.setattr(cli, "solve_finite_horizon", no_solve)
    assert run(["reproduce", str(path)]) == 4
    assert capsys.readouterr().err.endswith(f"manifest: {message}\n")


# ---------------------------------------------------------------------------
# converge


def test_converge_checks_the_standing_assumptions_once(monkeypatch):
    calls = []
    check = mfg.check_strict_tonelli
    monkeypatch.setattr(mfg, "check_strict_tonelli",
                        lambda *args: calls.append(args) or check(*args))
    assert run(["converge", "--instance", "RI-1", "--T", "2,4",
                "--dx", "0.04", "--dt", "0.04"]) == 0
    assert len(calls) == 1


def test_converge_run_and_thread_determinism(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    args = ["converge", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04",
            "--T", "2,4,8", "--R", "3.0"]
    assert run(args + ["--out", a, "--threads", "1"]) == 0
    assert run(args + ["--out", b, "--threads", "2"]) == 0
    names = sorted(os.listdir(a))
    assert names == ["ef.dat", "eu.dat", "fit.json", "manifest.json", "report.csv"]
    for name in ("report.csv", "eu.dat", "ef.dat", "fit.json"):
        wa = open(os.path.join(a, name), "rb").read()
        wb = open(os.path.join(b, name), "rb").read()
        assert wa == wb, f"{name} differs across thread counts"
    fit = json.load(open(os.path.join(a, "fit.json")))
    assert fit["rate_F"]["slope"] < 0


def test_converge_repeated_horizon_keeps_one_entry_per_T(tmp_path, monkeypatch):
    calls = []
    solve = cli.solve_finite_horizon
    monkeypatch.setattr(cli, "solve_finite_horizon",
                        lambda *args, **kw: calls.append(args[5]) or solve(*args, **kw))
    out = str(tmp_path / "rep")
    assert run(["converge", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04",
                "--T", "2,4,2", "--R", "3", "--out", out]) == 0
    assert calls == [2.0, 4.0]  # each distinct horizon once, in increasing order
    man = manifest_of(out)
    assert man["config"]["params"]["T_list"] == [2.0, 4.0, 2.0]
    gaps, thetas = man["measured"]["gaps"], man["measured"]["thetas"]
    assert len(gaps) == 3 and gaps[0] == gaps[2] != gaps[1]
    assert [len(t) for t in thetas] == [len(g) for g in gaps] and thetas[0] == thetas[2]
    floors = man["measured"]["floors"]
    assert [len(f) for f in floors] == [len(g) for g in gaps] and floors[0] == floors[2]
    assert all(g[-1] <= max(1e-4, f[-1]) for g, f in zip(gaps, floors))
    for phase in ("backward_s", "forward_s", "d1_s"):
        assert len(man["timings"][phase]) == 3
    report = (tmp_path / "rep" / "report.csv").read_bytes()
    assert report.startswith(b"T,e_u,e_F,e_u_scaled,e_F_scaled\n") and b"\r" not in report


def test_converge_outputs_do_not_depend_on_the_order_of_T(tmp_path):
    args = ["converge", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04", "--R", "3"]
    dirs = {order: str(tmp_path / order.replace(",", "-")) for order in ("2,4,8", "8,2,4", "2,8")}
    for order, out in dirs.items():
        assert run([*args, "--T", order, "--out", out]) == 0

    def read(order, name):
        with open(os.path.join(dirs[order], name), "rb") as fh:
            return fh.read()

    for name in ("report.csv", "eu.dat", "ef.dat", "fit.json"):
        assert read("2,4,8", name) == read("8,2,4", name), name
    # every horizon starts from the stationary feedback, not from its neighbour,
    # so dropping T = 4 leaves the rows of T = 2 and 8 as they were
    rows = read("2,4,8", "report.csv").splitlines()
    assert read("2,8", "report.csv").splitlines() == [rows[0], rows[1], rows[3]]
    man = manifest_of(dirs["8,2,4"])
    # per-T lists follow the order given; the turnpike lists are per sorted T
    assert [len(g) for g in man["measured"]["gaps"]] == [1, 2, 1]
    assert all(len(man["measured"][key]) == 3 for key in ("E_mid", "D_mid", "t_sup"))


def test_2d_long_time_rate_meets_the_papers_bound(tmp_path):
    # bounds fixed from the paper before any run: in n = 2 dimensions e_F decays
    # at least like T^(-1/(n+2)), and the turnpike distance D_mid falls too
    out = str(tmp_path / "ri2")
    assert run(["converge", "--config", RI2, "--T", "2,4,8,16", "--R", "2.5",
                "--out", out]) == 0
    measured = manifest_of(out)["measured"]
    e_F, D_mid = measured["e_F"], measured["D_mid"]
    assert all(a > b for a, b in zip(e_F, e_F[1:]))
    assert all(a > b for a, b in zip(D_mid, D_mid[1:]))
    assert measured["rate_F"]["slope"] <= -1 / 4


# ---------------------------------------------------------------------------
# failures map to documented exit codes


def test_unknown_instance_is_io_error(tmp_path):
    assert run(["ergodic", "--instance", "NOPE", "--out", str(tmp_path / "x")]) == 4


def test_missing_instance_flag_is_io_error(tmp_path):
    assert run(["ergodic", "--out", str(tmp_path / "x")]) == 4


def test_assumption_failure_exit_code(tmp_path):
    cfg = {
        "name": "bad-gap",
        "lagrangian": {"kind": "kinetic"},
        "coupling": {"kind": "separable", "f": "neg_gaussian", "G": "two_plus_tanh",
                     "K0": [-1.0, 1.0], "delta0": 10.0, "lip2": 0.86},
        "grid": {"lo": -4.0, "hi": 4.0, "dx": 0.04, "dt": 0.04,
                 "v_max": 4.0, "v_nodes": 81},
        "terminal": {"kind": "zero"},
        "initial": {"kind": "uniform_K0"},
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", str(cfg_path),
                "--out", str(tmp_path / "v")]) == 2


_COLD_START = """
import sys
from mfglab.cli import main
assert main(["horizon", "--instance", "RI-1", "--T", "1", "--dx", "0.1", "--dt", "0.1"]) == 0
print(sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
print("csv loaded:", "csv" in sys.modules)
assert main(["horizon", "--config", sys.argv[1], "--T", "2", "--tol", "5e-4"]) == 0
print(sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
import numpy as np
import mfglab as M
g = M.GridSpec([0.0, 0.0], [1.0, 1.0], [3, 3], 0.1, 1.0, 3)
mu, nu = np.zeros(9), np.zeros(9)
mu[0] = nu[8] = 1.0
print(repr(M.wasserstein1(M.GridMeasure(g, mu), M.GridMeasure(g, nu))))
print(sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
"""


def test_1d_run_never_imports_scipy():
    # scipy.optimize and scipy.sparse take most of a cold start; only the 2-D d_1 LP
    # needs them, and no solve runs it: the exploitability decides every stop
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _COLD_START, RI2], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    loaded = [line for line in lines if line.startswith("[")]  # after each run
    assert loaded == ["[]", "[]", "['scipy.optimize', 'scipy.sparse']"]  # wasserstein1 is the LP
    assert lines[lines.index("[]") + 1] == "csv loaded: False"  # writers format their own lines
    assert float(lines[-2]) == pytest.approx(2 ** 0.5)  # corner to corner of the unit square


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-m", "mfglab.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for word in ("verify", "ergodic", "horizon", "converge", "reproduce"):
        assert word in proc.stdout



@pytest.mark.parametrize("section, patch, key", [
    ("coupling", {"f": "nope"}, "f"),
    ("coupling", {"G": "nope"}, "G"),
    ("lagrangian", {"kind": "kinetic_plus_potential", "potential": "nope"}, "potential"),
    ("coupling", {"K0": None}, "K0"),  # None drops the key
    ("coupling", {"K0": 3}, "K0"),
    ("grid", {"dx": "a"}, "dx"),
    ("grid", {"v_nodes": "x"}, "v_nodes"),
    ("grid", {"dx": 0}, "dx"),
    ("coupling", {"delta0": [0.36]}, "delta0"),
    ("initial", {"kind": "dirac", "at": [0.0, 1.0]}, "at"),  # two coordinates in 1-D
    ("grid", {"dt": float("nan")}, "dt"),
    ("grid", {"v_max": float("inf")}, "v_max"),
    ("grid", {"v_nodes": 80}, "v_nodes"),  # v = 0 is no velocity node
    ("grid", {"lo": -1e308}, "lo"),  # a node count past any float
    ("grid", {"lo": 1e308}, "lo"),
    ("grid", {"hi": 1e308}, "hi"),
    ("grid", {"hi": -1e308}, "hi"),
    ("grid", {"lo": -math.inf}, "lo"),
    ("grid", {"lo": math.inf}, "lo"),
    ("grid", {"hi": math.inf}, "hi"),
    ("grid", {"hi": -math.inf}, "hi"),
    ("grid", {"dx": 5e-324}, "dx"),
    ("grid", {"nodes": 41, "dx": None, "lo": -1e308, "hi": 1e308}, "lo"),  # no float spans it
    ("initial", {"kind": "dirac", "at": math.inf}, "at"),
    ("initial", {"kind": "dirac", "at": math.nan}, "at"),
    ("coupling", {"delta0": math.nan}, "delta0"),  # would pass every gap check
    ("coupling", {"delta0": -math.inf}, "delta0"),
    ("coupling", {"delta0": 0}, "delta0"),
    ("coupling", {"lip2": math.nan}, "lip2"),
    ("coupling", {"lip2": math.inf}, "lip2"),
    ("coupling", {"lip2": -1}, "lip2"),
    ("lagrangian", {"kind": "kinetic_plus_potential", "potential": "gaussian",
                    "C3": math.nan}, "C3"),
    ("lagrangian", {"kind": "kinetic_plus_potential", "potential": "gaussian",
                    "C3": math.inf}, "C3"),
])
def test_bad_instance_document_is_config_error(tmp_path, capsys, section, patch, key):
    cfg = {
        "name": "bad-doc",
        "lagrangian": {"kind": "kinetic"},
        "coupling": {"kind": "separable", "f": "neg_gaussian", "G": "two_plus_tanh",
                     "K0": [-1.0, 1.0], "delta0": 0.36, "lip2": 0.86},
        "grid": {"lo": -4.0, "hi": 4.0, "dx": 0.04, "dt": 0.04,
                 "v_max": 4.0, "v_nodes": 81},
        "initial": {"kind": "uniform_K0"},
    }
    for k, v in patch.items():
        if v is None:
            del cfg[section][k]
        else:
            cfg[section][k] = v
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["ergodic", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 4
    err = capsys.readouterr().err
    assert section in err
    assert repr(key) in err or f" {key} " in err
    if "nope" in patch.values():
        assert "known:" in err


@pytest.mark.parametrize("args, value", [
    (["horizon", "--T", "inf"], "T=inf"),
    (["horizon", "--T", "nan"], "T=nan"),
    (["converge", "--T", "2,inf"], "T=inf"),
    (["horizon", "--T", "2", "--dt", "nan"], "dt=nan"),
    (["horizon", "--T", "2", "--tol", "nan"], "got nan"),
    (["horizon", "--T", "2", "--tol", "-1"], "got -1.0"),
    (["converge", "--T", "2,4", "--tol", "nan"], "got nan"),
    (["horizon", "--T", "2", "--tol", "inf"], "got inf"),
    # the smallest nonzero departure step, dt / 20, is lost to rounding at x = 4
    (["ergodic", "--dt", "1e-300"], "(dt=1e-300, v_max=4, v_nodes=161)"),
])
def test_bad_number_flag_is_config_error(tmp_path, capsys, args, value):
    assert run([*args, "--instance", "RI-1", "--out", str(tmp_path / "x")]) == 4
    assert value in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["-1", "nan"])
def test_bad_radius_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch, radius):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(cli, "solve_ergodic", no_solve)
    assert run(["converge", "--instance", "RI-1", "--T", "2,4", "--R", radius,
                "--out", str(tmp_path / "x")]) == 4
    assert f"--R must be a finite radius > 0, got {float(radius)}" in capsys.readouterr().err


@pytest.mark.parametrize("horizons", ["2", "2,2"])
def test_single_horizon_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch, horizons):
    # a rate fit needs two distinct horizons
    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(cli, "solve_ergodic", no_solve)
    assert run(["converge", "--instance", "RI-1", "--T", horizons, "--R", "3",
                "--out", str(tmp_path / "x")]) == 4
    assert "at least two distinct horizons" in capsys.readouterr().err


def test_ball_outside_the_box_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch):
    # B_R must fit the box, which R and the grid settle without a solve
    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    monkeypatch.setattr(cli, "solve_ergodic", no_solve)
    monkeypatch.setattr(cli, "solve_finite_horizon", no_solve)
    assert run(["converge", "--instance", "RI-1", "--T", "2,4,8", "--R", "5",
                "--out", str(tmp_path / "x")]) == 4
    want = "R=5.0: the ball B_R does not fit the box lo=[-4.0], hi=[4.0]"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("T", ["0", "-1", "0.01"])
def test_horizon_below_one_step_names_a_positive_multiple(tmp_path, capsys, T):
    code = run(["horizon", "--instance", "RI-1", "--dx", "0.1", "--dt", "0.1", "--T", T,
                "--out", str(tmp_path / "x")])
    assert code == 4
    want = f"T={float(T)} must be a positive multiple of dt=0.1"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("command, horizons", [("horizon", "1e7"), ("converge", "2,1e7")])
def test_oversized_horizon_is_rejected_before_any_table(tmp_path, capsys, command, horizons):
    tracemalloc.start()
    try:
        code = run([command, "--instance", "RI-1", "--T", horizons,
                    "--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "T=10000000.0 needs a 500000001 x 401 space-time table" in capsys.readouterr().err
    assert peak < 16e6  # one RI-1 table of T = 2 is 0.3 MB; T = 1e7 would be 1.6 TB


@pytest.mark.parametrize("override, given", [
    (["--dx", "1e-7"], "80000001 nodes (dx=1e-07)"),
    (["--dx", "1e-5"], "800001 nodes x 161 velocities (dx=1e-05, v_nodes=161)"),
    (["--dt", "60"], "a departure stage (dx=0.02, dt=60, v_max=4)"),
], ids=["nodes", "candidates", "departure"])
def test_oversized_grid_is_rejected_before_any_array(capsys, override, given):
    tracemalloc.start()
    try:
        code = run(["ergodic", "--instance", "RI-1", *override])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert f"budget of 8388608 cells is too small for {given}" in capsys.readouterr().err
    assert peak < 16e6  # at --dx 1e-5 the window copy alone would be 95 GiB


def test_failed_transport_lp_is_solver_failure(monkeypatch):
    def failed(*args, **kwargs):
        return OptimizeResult(success=False, status=2, message="The problem is infeasible.")

    # measure._d1_lp imports linprog when it builds the LP, so this is what it calls;
    # no solving command runs the LP, so the oracle is called directly
    monkeypatch.setattr(scipy.optimize, "linprog", failed)
    g = GridSpec([0.0, 0.0], [1.0, 1.0], [3, 3], 0.1, 1.0, 3)
    mu, nu = np.zeros(9), np.zeros(9)
    mu[0] = nu[8] = 1.0
    with pytest.raises(TransportLPFailed, match="transport LP failed: The problem is infeasible."):
        wasserstein1(GridMeasure(g, mu), GridMeasure(g, nu))
    assert issubclass(TransportLPFailed, MFGLabError)  # which main maps to exit 5


# SHA-256 of every CSV these runs write, recorded from the 0.1.0 solver; the
# bytes are the same with one or two BLAS threads.  The two ergodic pairs were
# recorded from the weak-KAM solve by Howard's policy iteration: their ubar.csv
# differs in last digits from the one value iteration wrote.  The RI-1 horizon
# and converge outputs were recorded with every iterate a pushed path: m0 pushed
# through a starting row held at every step, the stationary feedback in the
# converge ladder, and a step of theta = 1 taking the pushed best response bit
# for bit
PINNED_CSV = [
    (["horizon", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04", "--T", "2"], {
        "u.csv": "2d2d4c94de6282a6c17b94cb89f00e90bde4d149c2d316a08d37cc4722fc378d",
        "mpath.csv": "662eb4ec0005ba9a63a83a7b22153f4c9cabe1df7cf5d828e5d1c221b74b30ed"}),
    (["ergodic", "--config", RI2], {
        "ubar.csv": "c37cc372b99320746efe366027d3502a232d33da3cb96ea21b1eba0398c7bf39",
        "mbar.csv": "96259e563b5402aecbb39214b343a8f2ac1b3c827a3a08d60caa860f45a567c3"}),
    (["horizon", "--config", RI2, "--T", "2", "--tol", "5e-4"], {
        "u.csv": "a3cc77cb3addc358b4c54517265b934c55231d09e3674127988fe17b6fb22193",
        "mpath.csv": "e6a6313b65fff88e14953006299a33350055ed275fd4d193b95bd922318d0fbb"}),
    (["ergodic", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04"], {
        "ubar.csv": "c4523c2d11d5ebce20d7a806122509c227693ca60aa48a582b3cdf36b178c500",
        "mbar.csv": "8a2745d877f31e92b6f52153e9ff01b264be0dbec506074cb23695a4d7df9619"}),
    (["converge", "--instance", "RI-1", "--T", "2,4,8", "--R", "3"], {
        "report.csv": "65ca5904e07c5c3e5b679a6c90086185989eceb3f30040425b7e4c734613cf66",
        "eu.dat": "52eafc2caea8cbbbdcf37d3017065e3dd1ead34e3bdd889b15290c00be0051e0",
        "ef.dat": "8cf2abe476bbee9ef2885f47908ed2dba612c50f2b04e25afa930f89a30393cd",
        "fit.json": "3f26b0bda4b83e982855d6298bfcf9fe0e2f272542f186854c7f8d5d831682df"}),
]


@pytest.mark.parametrize("args, digests", PINNED_CSV, ids=["ri1-horizon", "ri2-ergodic",
                                                           "ri2-horizon", "ri1-ergodic",
                                                           "ri1-converge"])
def test_outputs_keep_their_pinned_bytes(tmp_path, args, digests):
    out = str(tmp_path / "out")
    assert run([*args, "--out", out]) == 0
    assert {name: cli._sha256(os.path.join(out, name)) for name in digests} == digests
    if args[0] == "converge":  # iterations per T, each started from the stationary feedback
        assert [len(g) for g in manifest_of(out)["measured"]["gaps"]] == [2, 1, 1]


def test_a_profile_works_in_either_dimension(tmp_path):
    # neg_gaussian sums over the coordinates; neg_gaussian_2d is another name for it
    with open(RI2) as fh:
        doc = json.load(fh)
    doc["coupling"]["f"] = "neg_gaussian"
    cfg_path = tmp_path / "ri2.json"
    cfg_path.write_text(json.dumps(doc))
    out = str(tmp_path / "erg")
    assert run(["ergodic", "--config", str(cfg_path), "--out", out]) == 0
    args, digests = PINNED_CSV[1]
    assert args == ["ergodic", "--config", RI2]
    assert {name: cli._sha256(os.path.join(out, name)) for name in digests} == digests


def test_ergodic_2d_writes_and_reproduces(tmp_path):
    cfg = {
        "name": "two-d",
        "lagrangian": {"kind": "kinetic"},
        "coupling": {"kind": "separable", "f": "neg_gaussian_2d", "G": "two_plus_tanh",
                     "K0": [[-1.0, -1.0], [1.0, 1.0]], "delta0": 0.1, "lip2": 0.86},
        "grid": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0], "dx": 0.25, "dt": 0.25,
                 "v_max": 4.0, "v_nodes": 17},
    }
    cfg_path = tmp_path / "two_d.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "erg")
    assert run(["ergodic", "--config", str(cfg_path), "--out", out]) == 0
    with open(os.path.join(out, "ubar.csv")) as fh:
        assert fh.readline() == "node_index,x,y,ubar\n"
    assert manifest_of(out)["measured"]["mather_x"] == [0.0, 0.0]
    assert run(["reproduce", os.path.join(out, "manifest.json")]) == 0


RI1_COUPLING = {"kind": "separable", "f": "neg_gaussian", "G": "two_plus_tanh",
                "K0": [-1.0, 1.0], "delta0": 0.36, "lip2": 0.86}


@pytest.mark.parametrize("doc, section", [
    ([RI1_COUPLING], "document"),
    ({"grid": {"dx": 0.04}, "coupling": 3}, "coupling"),
    ({"grid": [], "coupling": RI1_COUPLING}, "grid"),
])
def test_non_object_document_is_config_error(tmp_path, capsys, doc, section):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert run(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 4
    err = capsys.readouterr().err
    assert section in err and "must be a JSON object" in err


def test_solver_failure_has_its_own_exit_code(tmp_path, capsys):
    # v_max = 0.5 cannot follow the slope of the half-square terminal datum
    cfg = {
        "name": "narrow-velocities",
        "lagrangian": {"kind": "kinetic"},
        "coupling": RI1_COUPLING,
        "grid": {"lo": -4, "hi": 4, "dx": 0.04, "dt": 0.04,
                 "v_max": 0.5, "v_nodes": 11},
        "terminal": {"kind": "half_square"},
    }
    cfg_path = tmp_path / "narrow.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["horizon", "--T", "1", "--config", str(cfg_path),
                "--out", str(tmp_path / "hz")]) == 5
    assert "velocity-grid boundary" in capsys.readouterr().err


def no_solve(*args, **kwargs):
    raise AssertionError("a solver ran")


@pytest.mark.parametrize("command, K0", [
    (["verify"], [0.01, 0.03]),  # inside the box, between the nodes 0.0 and 0.04
    (["horizon", "--T", "1"], [0.01, 0.03]),
    (["verify"], [5.0, 6.0]),  # outside the box [-4, 4]
    (["ergodic"], [5.0, 6.0]),
    (["horizon", "--T", "1"], [5.0, 6.0]),
    (["converge", "--T", "1,2"], [5.0, 6.0]),
], ids=["verify-between-nodes", "horizon-between-nodes", "verify-outside-box",
        "ergodic-outside-box", "horizon-outside-box", "converge-outside-box"])
def test_K0_without_grid_nodes_is_config_error(tmp_path, capsys, monkeypatch, command, K0):
    # the initial measure uniform on K0 is built only after K0 is checked
    monkeypatch.setattr(mfg, "solve_backward", no_solve)
    monkeypatch.setattr(cli, "solve_ergodic", no_solve)
    cfg = {
        "name": "empty-K0",
        "coupling": dict(RI1_COUPLING, K0=K0),
        "grid": {"lo": -4.0, "hi": 4.0, "dx": 0.04, "dt": 0.04,
                 "v_max": 4.0, "v_nodes": 81},
        "initial": {"kind": "uniform_K0"},
    }
    cfg_path = tmp_path / "empty_k0.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run([*command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 4
    K0_box = [[K0[0]], [K0[1]]]
    assert f"K0 = {K0_box} must sit strictly inside the box [[-4.0], [4.0]]" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", [["ergodic"], ["converge", "--T", "2,4"],
                                     ["horizon", "--T", "2"]])
@pytest.mark.parametrize("patch, failed", [
    ({"lagrangian": {"kind": "kinetic_plus_potential", "potential": "neg_gaussian",
                     "C3": 0.1}}, "Tonelli bounds failed"),
    ({"coupling": dict(RI1_COUPLING, delta0=10.0)}, "confinement gap"),
], ids=["tonelli", "gap"])
def test_stationary_solve_checks_assumptions_first(tmp_path, capsys, monkeypatch,
                                                   command, patch, failed):
    monkeypatch.setattr(cli, "solve_ergodic", no_solve)
    monkeypatch.setattr(cli, "solve_finite_horizon", no_solve)
    cfg = {"name": "bad-assumption", "coupling": RI1_COUPLING,
           "grid": {"lo": -4.0, "hi": 4.0, "dx": 0.04, "dt": 0.04,
                    "v_max": 4.0, "v_nodes": 81},
           "initial": {"kind": "dirac", "at": 0.0}, **patch}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run([*command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert failed in err
    if "C3" in str(patch):  # the three c3_bound entries shown are three distinct x
        for x in (-1.0, 0.0, 1.0):
            assert f"c3_bound at x=[{x}]" in err


@pytest.mark.parametrize("args", [
    ["verify", "--instance", "RI-1", "--tol", "7"],
    ["verify", "--instance", "RI-1", "--R", "9"],
    ["ergodic", "--instance", "RI-1", "--R", "9"],
    ["horizon", "--instance", "RI-1", "--T", "2", "--R", "9"],
    ["horizon", "--instance", "RI-1"],  # --T is required
    ["nope"],
])
def test_usage_error_is_config_error(tmp_path, capsys, args):
    assert run([*args, "--out", str(tmp_path / "x")]) == 4
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [[], ["verify"], ["converge"]])
def test_help_exits_0(capsys, command):
    assert run([*command, "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_a_far_dirac_point_starts_at_the_edge_node(tmp_path):
    cfg = json.loads(json.dumps(BUILTIN["RI-1"]))
    cfg["initial"] = {"kind": "dirac", "at": 1e308}
    cfg_path = tmp_path / "far.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "far")
    assert run(["verify", "--config", str(cfg_path), "--dx", "0.1", "--out", out]) == 2
    with open(os.path.join(out, "verify.txt")) as fh:
        assert "initial_measure_in_K0: FAIL" in fh.read()


# ---------------------------------------------------------------------------
# fuzz: one document key or one number flag changed, any accepted input ends
# in a documented exit code

MISSING = object()
FUZZ_VALUES = [MISSING, "x", [1.0], {}, True, None, 0, -1, 1e308, 1e-300,
               math.nan, math.inf, -math.inf]
FUZZ_DOCS = {"RI-1": {**BUILTIN["RI-1"],
                      "grid": {**BUILTIN["RI-1"]["grid"], "dx": 0.1, "dt": 0.1,
                               "v_nodes": 41}}}
with open(RI2) as _fh:
    FUZZ_DOCS["ri2"] = json.load(_fh)
FUZZ_T = {"RI-1": "0.4", "ri2": "0.5"}  # two or more steps of each document's dt


def _key_paths(doc, prefix=()):
    for key, val in doc.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _key_paths(val, prefix + (key,))


FUZZ_KEYS = sorted(_key_paths(FUZZ_DOCS["RI-1"]))
assert FUZZ_KEYS == sorted(_key_paths(FUZZ_DOCS["ri2"]))


@settings(max_examples=300, deadline=None)
@example(doc_name="RI-1", command="ergodic", target="dt", value=1e-300)
@given(doc_name=st.sampled_from(sorted(FUZZ_DOCS)),
       command=st.sampled_from(["verify", "ergodic", "horizon"]),
       target=st.sampled_from(FUZZ_KEYS + ["dx", "dt", "tol", "R", "T"]),
       value=st.sampled_from(FUZZ_VALUES))
def test_fuzzed_input_ends_in_a_documented_exit_code(doc_name, command, target, value):
    doc = json.loads(json.dumps(FUZZ_DOCS[doc_name]))
    flags = {"T": FUZZ_T[doc_name]} if command == "horizon" else {}
    if isinstance(target, tuple):  # a document key
        *path, key = target
        section = doc
        for k in path:
            section = section[k]
        if value is MISSING:
            del section[key]
        else:
            section[key] = value
    elif value is MISSING:
        flags.pop(target, None)
    else:
        flags[target] = json.dumps(value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "doc.json")
        with open(cfg_path, "w") as fh:
            json.dump(doc, fh)
        args = [command, "--config", cfg_path, "--out", os.path.join(tmp, "out"),
                *(f"--{k}={v}" for k, v in flags.items())]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(args)
    assert code in (0, 2, 3, 4, 5), (args, doc)


@pytest.mark.parametrize("grid, code, start", [
    ({"v_max": 1.0}, 0, "rest"),
    ({"dt": 1.0}, 4, None),
], ids=["no-stationary-pair", "horizon-below-one-step"])
def test_horizon_without_a_stationary_pair_starts_at_rest(tmp_path, capsys, monkeypatch,
                                                          grid, code, start):
    # the feedback only warms the start: where the stationary solve fails
    # (ergodic exits 5) the horizon starts at rest and still solves, and a bad
    # horizon is rejected before the stationary solve runs
    doc = json.loads(json.dumps(FUZZ_DOCS["RI-1"]))
    doc["grid"].update(grid)
    cfg_path = tmp_path / "doc.json"
    cfg_path.write_text(json.dumps(doc))
    if start is None:
        monkeypatch.setattr(cli, "solve_ergodic", no_solve)
    else:
        assert run(["ergodic", "--config", str(cfg_path)]) == 5
        reason = capsys.readouterr().err.removeprefix("solver failure: ").strip()
        assert reason.startswith("optimal velocity on velocity-grid boundary")
    out = str(tmp_path / "hz")
    assert run(["horizon", "--config", str(cfg_path), "--T", "0.4", "--out", out]) == code
    err = capsys.readouterr().err
    if start is None:
        assert "T=0.4 must be a positive multiple of dt=1.0" in err
    else:  # the reason ergodic gave, printed and in the manifest
        assert f"stationary solve failed, starting at rest: {reason}\n" in err
        man = manifest_of(out)
        assert man["measured"]["start"] == start and man["timings"]["weak_kam_s"] is None
        assert man["measured"]["start_error"] == reason


# ---------------------------------------------------------------------------
# node tables: one process per allowed CPU formats a block of rows


def allow_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("args, forks", [
    (["horizon", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04", "--T", "2"],
     {1: 0, 2: 2, 5: 8}),  # u.csv and mpath.csv, 51 rows each
    (["ergodic", "--config", RI2], {1: 0, 2: 0, 5: 0}),  # one row each: never forked
], ids=["ri1-horizon", "ri2-ergodic"])
def test_node_tables_do_not_depend_on_the_process_count(tmp_path, monkeypatch, args, forks):
    fork, forked, written = os.fork, [], {}
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    for n in forks:
        allow_cpus(monkeypatch, n)
        forked.clear()
        out = tmp_path / str(n)
        assert run([*args, "--out", str(out)]) == 0
        assert len(forked) == forks[n]
        written[n] = {name: (out / name).read_bytes() for name in cli._COMMANDS[args[0]].outputs}
        assert sorted(os.listdir(out)) == sorted(["manifest.json", *written[n]])
    assert written[1] == written[2] == written[5]
    assert no_child_left()


def small_table():
    """A 1-D grid of 4 nodes and 10 rows; row k holds k + x at node x."""
    grid = GridSpec(lo=0.0, hi=0.3, nodes=4, dt=0.5, v_max=1.0, v_nodes=3)
    times = 0.5 * np.arange(10)
    rows = np.arange(10)[:, None] + grid.points[:, 0]
    return grid, times, rows


def test_a_block_of_empty_rows_writes_no_line(tmp_path, monkeypatch):
    # rows 4 and 5 keep no node: the last row of block 0 and the first of
    # block 1 with two processes, the whole of block 2 with five
    grid, times, rows = small_table()

    def keep(row):
        return (row > 0.15) & ~((4 <= row[0]) & (row[0] < 6))

    want = ["t,node_index,x,weight\r\n"]
    for t, row in zip(times.tolist(), rows):
        want += [f"{t!r},{i},{x!r},{v!r}\r\n" for i, (x, v, k)
                 in enumerate(zip(grid.points[:, 0].tolist(), row.tolist(), keep(row))) if k]
    for n in (1, 2, 5):
        allow_cpus(monkeypatch, n)
        path = tmp_path / f"{n}.csv"
        write_node_table(str(path), grid, "weight", rows, times, keep=keep)
        assert path.read_bytes() == "".join(want).encode()
    assert sorted(os.listdir(tmp_path)) == ["1.csv", "2.csv", "5.csv"]
    assert no_child_left()


def keep_failing_at(bad_row):
    """A keep that raises on the row equal to bad_row and keeps the rest."""
    def keep(row):
        if np.array_equal(row, bad_row):
            raise RuntimeError("keep failed")
        return row > 1e-15
    return keep


@pytest.mark.parametrize("cpus, block", [(2, "5 to 9"), (5, "4 to 5")])
def test_a_failed_block_raises_and_leaves_nothing(tmp_path, monkeypatch, cpus, block):
    # row 5 fails in a child; with five processes two later children are
    # still to be reaped when the writer raises
    grid, times, rows = small_table()
    allow_cpus(monkeypatch, cpus)
    path = str(tmp_path / "m.csv")
    with pytest.raises(OSError, match=f"m.csv: the writer of rows {block} exited with status 1"):
        write_node_table(path, grid, "weight", rows, times, keep=keep_failing_at(rows[5]))
    assert os.listdir(tmp_path) == ["m.csv"]  # what block 0 wrote; no block file
    assert no_child_left()


def test_a_failed_block_exits_4_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    allow_cpus(monkeypatch, 2)

    def to_csv(self, path):  # the path writer with a keep that fails on its last row
        write_node_table(path, self.grid, "weight", self.weights, self.times,
                         keep=keep_failing_at(self.weights[-1]))

    monkeypatch.setattr(mfg.MeasurePath, "to_csv", to_csv)
    out = tmp_path / "hz"
    assert run(["horizon", "--instance", "RI-1", "--dx", "0.04", "--dt", "0.04", "--T", "2",
                "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"{out / 'mpath.csv'}: the writer of rows 25 to 50 exited with status 1" in err
    assert os.listdir(out) == ["u.csv"]  # no .tmp_* file, no block file, no manifest
    assert no_child_left()
