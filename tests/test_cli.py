import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wildbregman.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset(tmp_path):
    prefix = tmp_path / "data"
    assert run(["simulate", "--n", 60, "--d", 2, "--seed", 5,
                "--out", prefix]) == 0
    return prefix.with_suffix(".csv")


def test_simulate_outputs(dataset, tmp_path):
    assert dataset.exists()
    manifest = json.loads((tmp_path / "data.json").read_text())
    assert manifest["n"] == 60 and manifest["d"] == 2
    oracle = json.loads((tmp_path / "data_oracle.json").read_text())
    assert oracle["w_inf"] > 0
    assert (tmp_path / "data_oracle.csv").exists()


def test_refit_radius_certify_pipeline(dataset, tmp_path):
    refit1 = tmp_path / "refit1.json"
    assert run(["refit", "--rho", 1.0, "--seed", 3, "--cset-bound", 0.3,
                "--data", dataset, "--out", refit1]) == 0
    payload = json.loads(refit1.read_text())
    assert payload["rho"] == 1.0
    assert payload["achieved_radius"] > 0

    fp_radius = tmp_path / "fp_radius.json"
    assert run(["radius", "--delta", 1e-4, "--mode", "fixed-point",
                "--refit-result", refit1, "--out", fp_radius]) == 0
    fp = json.loads(fp_radius.read_text())
    assert fp["method"] == "fixed_point"
    assert fp["r_certified"] > 0

    # certify against a radius report matched to an achievable calibration
    # target (the fixed-point floor log(1/delta)/sqrt(n) is out of reach of
    # the clamped trainer at this sample size)
    r_cert = payload["achieved_radius"] / 3.0
    radius = tmp_path / "radius.json"
    radius.write_text(json.dumps({"r_hat_n": r_cert, "r_diamond_rho":
                                  payload["achieved_radius"],
                                  "r_certified": r_cert, "method": "oracle"}))
    target = 3.0 * r_cert
    refit2 = tmp_path / "refit2.json"
    assert run(["refit", "--target-radius", target, "--seed", 3,
                "--cset-bound", 0.3, "--data", dataset, "--out", refit2]) == 0

    cert = tmp_path / "cert.json"
    assert run(["certify", "--mode", "fixed", "--delta", 1e-4,
                "--refit-result", refit2, "--radius-report", radius,
                "--pilot", 0.0, "--misspec", 0.0, "--out", cert]) == 0
    out = json.loads(cert.read_text())
    assert out["mode"] == "fixed_design"
    assert out["total"] >= out["training_error"]
    assert out["failure_budget"] == pytest.approx(8e-4)

    cert_r = tmp_path / "cert_random.json"
    assert run(["certify", "--mode", "random", "--delta", 1e-4,
                "--refit-result", refit2, "--radius-report", radius,
                "--pilot", 0.0, "--misspec", 0.0, "--out", cert_r]) == 0
    out_r = json.loads(cert_r.read_text())
    assert out_r["mode"] == "random_design"
    assert out_r["total"] > out["total"]
    assert out_r["stability_addend"] > 0


def test_radius_convex_class_mode(dataset, tmp_path):
    refit = tmp_path / "refit.json"
    assert run(["refit", "--rho", 1.0, "--seed", 1, "--cset-bound", 0.3,
                "--data", dataset, "--out", refit]) == 0
    out = tmp_path / "radius.json"
    assert run(["radius", "--delta", math.exp(-9.0), "--mode", "convex-class",
                "--refit-result", refit, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["method"] == "convex_class_bound"
    assert rep["r_certified"] > 0


def test_validate_pass_and_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"n": 50, "d": 2}, "cset_bound": 0.4}))
    code = run(["validate", "--theorem", "lemma_5_1", "--reps", 25,
                "--delta", 0.05, "--seed", 7, "--config", cfg, "--out", out])
    assert code == 0
    cov = json.loads((out / "coverage.json").read_text())
    assert cov["passed"] and cov["replications"] == 25
    assert (out / "replications.csv").exists()
    assert "PASS" in (out / "summary.txt").read_text()


def test_validate_byte_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"n": 40, "d": 2}, "cset_bound": 0.4}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["validate", "--theorem", "lemma_5_1", "--reps", 10,
                    "--delta", 0.05, "--seed", 3, "--config", cfg,
                    "--out", out]) == 0
        outs.append(out)
    for fname in ("coverage.json", "replications.csv", "summary.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_validate_unknown_config_key(tmp_path):
    # keys of no experiment field, of a deleted field, or set by a flag,
    # trainer descriptors with a key their kind does not take, and a spec
    # that is not an object
    cfg = tmp_path / "cfg.json"
    for config in ({"bogus": 1}, {"radius_policy": "oracle"},
                   {"spec": {"design": "random"}}, {"spec": {"bogus": 1}},
                   {"spec": {"seed": 3}}, {"reps": 5},
                   {"trainer": {"kind": "linear", "max_iter": 5}},
                   {"trainer": {"kind": "saturated", "max_iters": 5}},
                   {"potential_params": {"eta0": 0.1}},
                   {"spec": [50, 2]}):
        cfg.write_text(json.dumps(config))
        code = run(["validate", "--theorem", "lemma_5_1", "--reps", 5,
                    "--delta", 0.05, "--config", cfg, "--out", tmp_path / "x"])
        assert code == 2, config


def test_validate_thm52_saturated_rejected_before_reps(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["validate", "--theorem", "thm_5_2_excess", "--reps", 100,
                "--delta", 0.01, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: RejectedInputError")
    assert not out.exists()


def test_unbounded_radius_exits_3_with_one_line(tmp_path, capsys):
    # the convex-class bound diverges on this refit: a solve with no answer,
    # reported on one line with its own exit code
    prefix = tmp_path / "data"
    refit = tmp_path / "refit.json"
    assert run(["simulate", "--n", 2000, "--d", 2, "--seed", 11,
                "--out", prefix]) == 0
    assert run(["refit", "--rho", 1, "--trainer", "linear", "--cset-bound",
                2.5, "--seed", 5, "--data", prefix.with_suffix(".csv"),
                "--out", refit]) == 0
    capsys.readouterr()
    assert run(["radius", "--mode", "convex-class", "--delta", 0.0001234,
                "--refit-result", refit, "--out", tmp_path / "r.json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: UnboundedRadiusError")
    assert err.count("\n") == 1


def test_certificate_demo_script_runs():
    # the demo drives the certificate API end to end outside the CLI
    root = Path(__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + ([path] if path else [])))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "certificate_demo.py"),
         "--n", "100"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "random design" in proc.stdout
