"""Command-line front end: exit codes, manifests, byte-level reproduction."""

import json
import os
import subprocess
import sys

import pytest
from scipy.optimize import OptimizeResult

from mfglab import cli, measure
from mfglab.cli import main


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
    assert man["measured"]["mather_x"] == 0.0


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
    man = manifest_of(out)
    assert man["measured"]["converged"] is True


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
    assert set(manifest_of(out)["config"]["params"]) == {"instance", "threads", "dx", "dt"}


def write_canonical(path, manifest):
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("args, old_params", [
    (["verify"], {"seed": 7}),
    (["converge", "--T", "2,4", "--R", "3.0"], {"seed": 0, "threads": 2}),
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
])
def test_malformed_manifest_is_config_error(tmp_path, monkeypatch, capsys, edit, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran")

    manifest = {"config": {"subcommand": "horizon", "version": "0.1.0",
                           "params": {"instance": "RI-1", "T": 2.0}},
                "outputs": {"u.csv": "0" * 64}}
    edit(manifest)
    path = tmp_path / "manifest.json"
    write_canonical(path, manifest)
    monkeypatch.setattr(cli, "solve_finite_horizon", no_solve)
    assert run(["reproduce", str(path)]) == 4
    assert capsys.readouterr().err.endswith(f"manifest: {message}\n")


# ---------------------------------------------------------------------------
# converge


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


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mfglab.cli", "--help"],
                          capture_output=True, text=True)
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
    (["ergodic", "--tol", "nan"], "got nan"),
    (["ergodic", "--tol", "inf"], "got inf"),
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


def test_failed_transport_lp_is_solver_failure(tmp_path, capsys, monkeypatch):
    def failed(*args, **kwargs):
        return OptimizeResult(success=False, status=2, message="The problem is infeasible.")

    monkeypatch.setattr(measure, "linprog", failed)
    config = os.path.join(os.path.dirname(__file__), "..", "bench", "ri2.json")
    assert run(["horizon", "--config", config, "--T", "2", "--tol", "5e-4",
                "--out", str(tmp_path / "x")]) == 5
    assert "transport LP failed: The problem is infeasible." in capsys.readouterr().err


def test_zero_tolerance_is_accepted(tmp_path):
    assert run(["ergodic", "--instance", "RI-1", "--tol", "0",
                "--out", str(tmp_path / "erg")]) == 0


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
