import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wildbregman import cli
from wildbregman.cli import _as_refit, _potential_params, build_parser, main
from wildbregman.design import (FixedDesignDataset, _read_json, load_dataset,
                                save_dataset)
from wildbregman.trainers import LinearTrainer, SaturatedTrainer, build_model
from wildbregman.wildfit import wild_refit


def run(argv):
    return main([str(a) for a in argv])


def _refusal(capsys, argv, code=2):
    """The one stderr line of a run of argv that must exit with code: 2 for
    a RejectedInputError, 3 for a SolveError."""
    capsys.readouterr()
    assert run(argv) == code, argv
    err = capsys.readouterr().err
    kind = "RejectedInputError" if code == 2 else "SolveError"
    assert err.startswith(f"error: {kind}") and err.count("\n") == 1, err
    return err


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


def test_simulate_writes_the_files_it_names_under_a_dotted_prefix(tmp_path,
                                                                  capsys):
    prefix = tmp_path / "run.v2"
    assert run(["simulate", "--n", 20, "--seed", 1, "--out", prefix]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "run.v2.csv", "run.v2.json", "run.v2_oracle.csv", "run.v2_oracle.json"]
    assert capsys.readouterr().out == (f"wrote {prefix}.csv, {prefix}.json, "
                                       f"{prefix}_oracle.csv\n")
    assert load_dataset(tmp_path / "run.v2.csv").n == 20


def test_simulate_prefixes_that_differ_after_a_dot_keep_apart(tmp_path):
    for seed in (1, 2):
        assert run(["simulate", "--n", 20, "--seed", seed,
                    "--out", tmp_path / f"exp.{seed}"]) == 0
    one, two = (load_dataset(tmp_path / f"exp.{seed}.csv") for seed in (1, 2))
    assert not np.array_equal(one.responses, two.responses)
    for seed in (1, 2):
        manifest = json.loads((tmp_path / f"exp.{seed}.json").read_text())
        assert manifest["seed"] == seed


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
                                  "r_certified": r_cert, "method": "oracle",
                                  "delta": 1e-4}))
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
    # keys of no experiment field, of a deleted field (the slack, the
    # lemma's rho cycle and the held-out size are constants), or set by a flag,
    # trainer descriptors with a key other than kind (max_iters and tol are
    # constants), values of the wrong type, a spec that is not an object, a
    # config that is not an object, and a spec refused once at construction
    # rather than inside every rep
    cfg = tmp_path / "cfg.json"
    for config in ({"bogus": 1}, {"radius_policy": "oracle"},
                   {"spec": {"design": "random"}}, {"spec": {"bogus": 1}},
                   {"spec": {"seed": 3}}, {"reps": 5},
                   {"trainer": {"kind": "linear", "max_iter": 5}},
                   {"trainer": {"kind": "linear", "max_iters": 5}},
                   {"trainer": {"kind": "linear", "tol": 1e-8}},
                   {"trainer": {"kind": "saturated", "max_iters": 5}},
                   {"potential_params": {"eta0": 0.1}},
                   {"slack": 0}, {"rhos": [1]}, {"heldout_m": 10},
                   {"spec": [50, 2]}, {"trainer": "linear"},
                   {"trainer": {"kind": []}}, {"potential_kind": []},
                   {"cset_bound": "x"}, {"potential_params": [1]},
                   {"spec": {"n": 0}}, {"spec": {"n": "x"}},
                   {"spec": {"fstar_family": "cubic"}},
                   {"spec": {"noise_family": "gaussian"}}, [{"reps": 5}]):
        cfg.write_text(json.dumps(config))
        code = run(["validate", "--theorem", "lemma_5_1", "--reps", 5,
                    "--delta", 0.05, "--config", cfg, "--out", tmp_path / "x"])
        assert code == 2, config


def test_flags_that_change_nothing_exit_2(dataset, tmp_path, capsys):
    # --pilot enters only the convex-class bound, and --eps0/--eta0 only
    # their own potential: anywhere else they are refused, not ignored
    refit = tmp_path / "refit.json"
    assert run(["refit", "--rho", 1.0, "--seed", 1, "--data", dataset,
                "--out", refit]) == 0
    out = tmp_path / "out"
    for flag, argv in (
            ("pilot", ["radius", "--mode", "fixed-point", "--delta", 1e-4,
                       "--pilot", 123, "--refit-result", refit]),
            ("eps0", ["simulate", "--eps0", 0.05]),
            ("eta0", ["simulate", "--potential", "sqrt_bernoulli",
                      "--eta0", 0.1]),
            ("eta0", ["refit", "--rho", 1.0, "--eta0", 0.1, "--data", dataset]),
            ("eps0", ["refit", "--rho", 1.0, "--potential",
                      "clipped_simplex_kl", "--eps0", 0.05,
                      "--data", dataset])):
        assert flag in _refusal(capsys, argv + ["--out", out])
    assert list(tmp_path.glob("out*")) == []
    # only the flags given are passed on: `builtin_loss` holds the defaults
    parse = build_parser().parse_args
    base = ["refit", "--rho", "1", "--data", "d.csv", "--out", "o.json"]
    assert _potential_params(parse(base)) == {}
    assert _potential_params(parse(base + ["--potential", "sqrt_bernoulli"])) \
        == {}
    assert _potential_params(parse(base + ["--potential", "clipped_simplex_kl",
                                           "--eta0", "0.2"])) == {"eta0": 0.2}


def test_parser_is_built_once_and_carries_nothing_between_runs(tmp_path,
                                                              capsys):
    assert build_parser() is build_parser()
    # a radius run with --pilot, then a validate parse in the same process:
    # the second namespace holds validate's flags only
    assert run(["radius", "--mode", "convex-class", "--delta", 1e-4,
                "--pilot", 2.0, "--refit-result", tmp_path / "none.json",
                "--out", tmp_path / "r.json"]) == 2  # no refit file
    capsys.readouterr()
    args = build_parser().parse_args(["validate", "--theorem", "lemma_5_1",
                                      "--reps", "2", "--delta", "0.05",
                                      "--out", "o"])
    assert set(vars(args)) == {"command", "func", "theorem", "reps", "delta",
                               "seed", "config", "out"}
    assert args.func is cli._cmd_validate


@pytest.mark.parametrize("theorem", ["thm_5_1_optimism", "thm_5_1_excess",
                                     "thm_5_2_excess"])
def test_validate_thm52_saturated_rejected_before_reps(tmp_path, capsys,
                                                      theorem):
    # the thm_5_* checks calibrate rho, which the default saturated trainer
    # cannot reach: refused before the first rep
    out = tmp_path / "run"
    _refusal(capsys, ["validate", "--theorem", theorem, "--reps", 100,
                      "--delta", 0.01, "--out", out])
    assert not out.exists()


def test_unbounded_radius_exits_3_with_one_line(tmp_path, capsys):
    # a pilot above r_max^2 = (10 * diameter)^2 = 5000 keeps the convex-class
    # inequality holding up to r_max: a solve with no answer, reported on one
    # line with its own exit code
    prefix = tmp_path / "data"
    refit = tmp_path / "refit.json"
    assert run(["simulate", "--n", 2000, "--d", 2, "--seed", 11,
                "--out", prefix]) == 0
    assert run(["refit", "--rho", 1, "--trainer", "linear", "--cset-bound",
                2.5, "--seed", 5, "--data", prefix.with_suffix(".csv"),
                "--out", refit]) == 0
    assert "r_max" in _refusal(capsys, [
        "radius", "--mode", "convex-class", "--delta", 0.0001234, "--pilot",
        1e6, "--refit-result", refit, "--out", tmp_path / "r.json"], 3)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("case", ["stability", "KL"])
def test_convex_class_refusals_exit_2_before_any_wn_call(tmp_path, capsys,
                                                         monkeypatch, case):
    # residues near 1 give kappa = 6 w_inf sqrt(2) / sqrt(log(1/delta)) > 2,
    # where the inequality holds at every radius; the KL ball is not convex
    # in mirror coordinates, so its holding set need not be an interval
    refit = tmp_path / "refit.json"
    if case == "stability":
        prefix = tmp_path / "data"
        assert run(["simulate", "--noise-scale", 1, "--out", prefix]) == 0
        argv = ["--trainer", "linear", "--data", prefix.with_suffix(".csv")]
    else:
        argv = ["--potential", "clipped_simplex_kl",
                "--data", _kl_dataset(tmp_path / "kl")]
    assert run(["refit", "--rho", 1, *argv, "--out", refit]) == 0
    calls = []
    wn = cli.wn
    monkeypatch.setattr(cli, "wn", lambda *a: calls.append(1) or wn(*a))
    assert case in _refusal(capsys, ["radius", "--mode", "convex-class",
                                     "--delta", 1e-4, "--refit-result", refit,
                                     "--out", tmp_path / "r.json"])
    assert calls == [] and not (tmp_path / "r.json").exists()


def test_radius_floor_above_r_max_exits_3(tmp_path, capsys):
    # at n = 60 and delta = 1e-4 the floor log(1/delta)/sqrt(n) is 1.19,
    # above r_max = max(10 * diameter, 1) = 1 on the box [-0.03, 0.03]^2
    prefix = tmp_path / "data"
    refit = tmp_path / "refit.json"
    assert run(["simulate", "--n", 60, "--d", 2, "--seed", 5,
                "--out", prefix]) == 0
    assert run(["refit", "--rho", 1, "--cset-bound", 0.03, "--seed", 5,
                "--data", prefix.with_suffix(".csv"), "--out", refit]) == 0
    assert "r_max" in _refusal(capsys, [
        "radius", "--mode", "fixed-point", "--delta", 1e-4, "--refit-result",
        refit, "--out", tmp_path / "r.json"], 3)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("delta", ["nan", 0, -1, 0.5])
@pytest.mark.parametrize("mode", ["fixed-point", "convex-class"])
def test_radius_refuses_delta_outside_the_range(dataset, tmp_path, capsys,
                                                mode, delta):
    # both solvers need 0 < delta <= e^-9; NaN fails every comparison
    refit = tmp_path / "refit.json"
    assert run(["refit", "--rho", 1.0, "--seed", 1, "--cset-bound", 0.3,
                "--data", dataset, "--out", refit]) == 0
    out = tmp_path / "radius.json"
    _refusal(capsys, ["radius", "--mode", mode, "--delta", delta,
                      "--refit-result", refit, "--out", out])
    assert not out.exists()


# a delta outside (0, 1), or whose failure budget b delta reaches 1, leaves
# no coverage target: refused before the first rep
@pytest.mark.parametrize("theorem, reps, delta", [
    ("lemma_5_1", 5, 5), ("lemma_5_1", 5, "nan"), ("lemma_5_1", 5, 0),
    ("thm_5_1_excess", 100, 0.2), ("thm_5_1_optimism", 100, 0.125),
    ("thm_6_1_rhat", 100, 0.5), ("thm_5_2_excess", 100, 0.1)])
def test_validate_refuses_delta_without_a_target(tmp_path, capsys, theorem,
                                                 reps, delta):
    out = tmp_path / "run"
    assert "delta" in _refusal(capsys, ["validate", "--theorem", theorem,
                                        "--reps", reps, "--delta", delta,
                                        "--out", out])
    assert not out.exists()


def _edit_json(src, dst, edit):
    payload = json.loads(Path(src).read_text())
    edit(payload)
    Path(dst).write_text(json.dumps(payload))


# each unreadable input: (flag, what the bad file holds; None = no file)
UNREADABLE = {
    "data_missing": ("--data", None),
    "data_non_numeric": ("--data", "x_1,y_1\r\n0.5,abc\r\n"),
    "data_ragged_row": ("--data", "x_1,y_1\r\n0.5,1.0\r\n0.25\r\n"),
    "data_blank_line": ("--data", "x_1,y_1\r\n0.5,1.0\r\n\r\n0.25,2.0\r\n"),
    "data_no_rows": ("--data", "x_1,y_1\r\n"),
    "radius_refit_missing": ("--refit-result", None),
    "radius_refit_not_json": ("--refit-result", "{not json"),
    "radius_refit_no_config": ("--refit-result",
                               lambda p: p.pop("config")),
    "radius_refit_shapes_differ": ("--refit-result",
                                   lambda p: p["residues"].pop()),
    "radius_refit_sign_not_pm_one": ("--refit-result",
                                     lambda p: p["signs"][0].__setitem__(0, 0.5)),
    "certify_refit_no_config": ("--refit-result", lambda p: p.pop("config")),
    "certify_report_missing": ("--radius-report", None),
    "certify_report_not_json": ("--radius-report", "[1,"),
    "certify_report_no_key": ("--radius-report",
                              lambda p: p.pop("r_certified")),
    "certify_report_no_delta": ("--radius-report", lambda p: p.pop("delta")),
    "validate_config_missing": ("--config", None),
    "validate_config_not_json": ("--config", "spec: {n: 50}"),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_input_exits_2_with_one_line(dataset, tmp_path, capsys,
                                                case):
    refit, radius = tmp_path / "refit.json", tmp_path / "radius.json"
    assert run(["refit", "--rho", 1.0, "--seed", 1, "--data", dataset,
                "--out", refit]) == 0
    assert run(["radius", "--mode", "fixed-point", "--delta", 1e-4,
                "--refit-result", refit, "--out", radius]) == 0
    flag, content = UNREADABLE[case]
    bad = tmp_path / "bad"
    if callable(content):
        _edit_json(radius if flag == "--radius-report" else refit, bad, content)
    elif content is not None:
        bad.write_text(content, newline="")
    files = {"--data": dataset, "--refit-result": refit,
             "--radius-report": radius, "--config": None} | {flag: bad}
    out = tmp_path / "out"
    argv = {
        "data": ["refit", "--rho", 1.0, "--data", files["--data"]],
        "radius": ["radius", "--mode", "fixed-point", "--delta", 1e-4,
                   "--refit-result", files["--refit-result"]],
        "certify": ["certify", "--mode", "fixed", "--delta", 1e-4,
                    "--refit-result", files["--refit-result"],
                    "--radius-report", files["--radius-report"],
                    "--pilot", 0.0, "--misspec", 0.0],
        "validate": ["validate", "--theorem", "lemma_5_1", "--reps", 5,
                     "--delta", 0.05, "--config", files["--config"]],
    }[case.split("_")[0]]
    _refusal(capsys, argv + ["--out", out])
    assert not out.exists()


@pytest.fixture
def certify(dataset, tmp_path):
    """A fixed-design `certify` command on the seed-5 dataset, with a refit
    and a radius report it is calibrated to, as in the pipeline test."""
    refit = tmp_path / "refit.json"
    assert run(["refit", "--rho", 1.0, "--seed", 3, "--cset-bound", 0.3,
                "--data", dataset, "--out", refit]) == 0
    r_dia = json.loads(refit.read_text())["achieved_radius"]
    radius = tmp_path / "radius.json"
    radius.write_text(json.dumps({"r_hat_n": r_dia / 3.0, "r_diamond_rho": r_dia,
                                  "r_certified": r_dia / 3.0,
                                  "method": "oracle", "delta": 1e-4}))
    return ["certify", "--mode", "fixed", "--delta", 1e-4,
            "--refit-result", refit, "--radius-report", radius,
            "--pilot", 0.0, "--misspec", 0.0, "--out", tmp_path / "cert.json"]


def test_certify_refuses_dataset_changed_after_refit(certify, tmp_path, capsys):
    # the refit was fit on the seed-5 responses; certifying it against the
    # seed-6 dataset written to the same path would mix two datasets
    assert run(certify) == 0
    assert run(["simulate", "--n", 60, "--d", 2, "--seed", 6,
                "--out", tmp_path / "data"]) == 0
    assert "data.csv" in _refusal(capsys, certify)


def test_certify_refuses_refit_file_with_edited_fdiamond(certify, tmp_path,
                                                       capsys):
    # the wild radius certify checks is recomputed from the file's fhat and
    # fdiamond: moving fdiamond off the refit breaks the calibration
    refit = tmp_path / "refit.json"
    payload = json.loads(refit.read_text())
    payload["fdiamond"] = (0.5 * np.asarray(payload["fdiamond"])).tolist()
    refit.write_text(json.dumps(payload))
    assert "calibration mismatch" in _refusal(capsys, certify)
    assert not (tmp_path / "cert.json").exists()


# a certificate input that is negative or not finite makes a total that is
# no upper bound, or no JSON number, and so does a delta other than the one
# the radius was solved at (1e-4); a NaN tolerance turns the calibration
# gate off
@pytest.mark.parametrize("flag, value", [
    ("--pilot", -5), ("--pilot", "nan"), ("--misspec", "nan"),
    ("--w-inf", "nan"), ("--w-inf", "inf"), ("--calibration-tol", "nan"),
    ("--delta", 1e-3)])
def test_certify_refuses_input_that_is_no_upper_bound(certify, tmp_path,
                                                      capsys, flag, value):
    _refusal(capsys, certify + [flag, value])
    assert not (tmp_path / "cert.json").exists()


# a radius report the refit is not calibrated to: at r = 0 the calibration
# check was skipped, and NaN passed as a radius
@pytest.mark.parametrize("r_certified", [0.0, math.nan])
def test_certify_refuses_zero_and_nan_radius(certify, tmp_path, capsys,
                                             r_certified):
    radius = tmp_path / "radius.json"
    radius.write_text(json.dumps(json.loads(radius.read_text())
                                 | {"r_certified": r_certified}))
    err = _refusal(capsys, certify)
    assert not (tmp_path / "cert.json").exists()
    if math.isnan(r_certified):  # a well-formed file, named with its value
        assert err == (f"error: RejectedInputError: {radius}: r_certified "
                       f"must be finite and >= 0\n"), err


def test_certify_refuses_an_unknown_radius_method(certify, tmp_path, capsys):
    radius = tmp_path / "radius.json"
    radius.write_text(json.dumps(json.loads(radius.read_text())
                                 | {"method": "guess"}))
    assert _refusal(capsys, certify) == (f"error: RejectedInputError: {radius}"
                                         f": unknown radius method 'guess'\n")
    assert not (tmp_path / "cert.json").exists()


# a noise scale or target radius that is not finite and > 0 is refused by
# name: an infinite target passed calibration at its first point, NaN was
# blamed on the responses, and a NaN rho in a refit file on the domain
@pytest.mark.parametrize("case, value", [
    ("--rho", "nan"), ("--rho", "inf"), ("--target-radius", "nan"),
    ("--target-radius", "inf"), ("rho", math.nan), ("rho", math.inf)])
def test_rho_and_target_radius_refused_unless_finite_and_positive(
        certify, dataset, tmp_path, capsys, case, value):
    out = tmp_path / "refit2.json"
    if case.startswith("--"):
        argv = ["refit", case, value, "--cset-bound", 0.3, "--data", dataset,
                "--out", out]
    else:  # a refit file edited by hand, read by certify
        refit = tmp_path / "refit.json"
        refit.write_text(json.dumps(json.loads(refit.read_text())
                                    | {case: value}))
        argv, out = certify, tmp_path / "cert.json"
    assert case.strip("-").replace("-", "_") in _refusal(capsys, argv)
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--rho", "nan"], ["--target-radius", "nan"],
                                   ["--rho", 1, "--seed", -1]],
                         ids=["--rho", "--target-radius", "--seed"])
def test_bad_rho_or_target_radius_refused_before_any_fit(dataset, tmp_path,
                                                         monkeypatch, flags):
    fits = []
    fit = LinearTrainer.fit
    monkeypatch.setattr(LinearTrainer, "fit",
                        lambda self, X, Y: fits.append(1) or fit(self, X, Y))
    assert run(["refit", *flags, "--trainer", "linear", "--data", dataset,
                "--out", tmp_path / "refit.json"]) == 2
    assert fits == []


# responses the loss cannot score are refused before any fit: the linear fit
# used to diverge on them (exit 3), and the saturated refit to exit 0
@pytest.mark.parametrize("trainer", ["linear", "saturated"])
@pytest.mark.parametrize("potential", ["sqrt_bernoulli", "clipped_simplex_kl"])
def test_responses_outside_the_loss_domain_refused_before_any_fit(
        dataset, tmp_path, capsys, monkeypatch, potential, trainer):
    fits = []
    for cls in (LinearTrainer, SaturatedTrainer):
        monkeypatch.setattr(cls, "fit", lambda self, X, Y, fit=cls.fit:
                            fits.append(1) or fit(self, X, Y))
    out = tmp_path / "refit.json"
    _refusal(capsys, ["refit", "--rho", 1, "--potential", potential,
                      "--trainer", trainer, "--data", dataset, "--out", out])
    assert fits == [] and not out.exists()


def test_sqrt_bernoulli_linear_refit_then_fixed_point_radius(tmp_path):
    # a dataset inside (0.05, 0.95)^2 written by hand; the linear model's
    # set is that domain, so the radius solve stays on it
    x = np.linspace(-1.0, 1.0, 300)
    w = 0.1 * (-1.0) ** np.arange(300)
    Y = np.column_stack([0.5 + 0.3 * x + w, 0.5 - 0.2 * x - w])
    data = save_dataset(tmp_path / "sb", FixedDesignDataset(x[:, None], Y))
    refit, radius = tmp_path / "refit.json", tmp_path / "radius.json"
    assert run(["refit", "--rho", 1, "--potential", "sqrt_bernoulli",
                "--trainer", "linear", "--data", data, "--out", refit]) == 0
    assert run(["radius", "--mode", "fixed-point", "--delta", 1e-4,
                "--refit-result", refit, "--out", radius]) == 0
    r = json.loads(radius.read_text())["r_certified"]
    assert math.isfinite(r) and r > 0
    # eps0 was not given, so the refit file records no parameter
    assert json.loads(refit.read_text())["config"]["potential_params"] == {}


# fields SyntheticSpec refuses beyond n, d and the families: through the
# simulate flags and through a validate config, both exit 2 before any work
@pytest.mark.parametrize("argv", [
    ["simulate", "--noise-scale", -1], ["simulate", "--noise-scale", "nan"],
    ["simulate", "--fstar-scale", "inf"], ["simulate", "--p", 0],
    ["simulate", "--seed", -1],
    {"fstar_scale": "x"}, {"noise_scale": "x"}, {"p": "x"}, {"p": True},
    {"n": True}, {"fstar_scale": False}, {"noise_scale": -0.5},
    {"noise_scale": float("nan")}], ids=str)
def test_spec_fields_refused_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if isinstance(argv, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec": argv}))
        argv = ["validate", "--theorem", "lemma_5_1", "--reps", 5,
                "--delta", 0.05, "--config", cfg]
    _refusal(capsys, argv + ["--out", out])
    assert list(tmp_path.glob("out*")) == []


def _kl_dataset(path):
    rng = np.random.default_rng(0)
    responses = 0.1 + 0.7 * rng.dirichlet(np.ones(3), size=40)
    return save_dataset(path, FixedDesignDataset(rng.uniform(-1, 1, (40, 2)),
                                                 responses))


@pytest.mark.parametrize("potential, trainer", [
    ("squared_l2", "saturated"), ("clipped_simplex_kl", "linear")])
def test_refit_file_rebuilds_result_bit_for_bit(dataset, tmp_path, potential,
                                                trainer):
    # the file stores no wild responses: loading rebuilds them, and their
    # clip count, from fhat, residues, signs and rho
    data_csv = dataset if potential == "squared_l2" else _kl_dataset(
        tmp_path / "kl")
    refit = tmp_path / "refit.json"
    assert run(["refit", "--rho", 1.5, "--seed", 2, "--potential", potential,
                "--trainer", trainer, "--cset-bound", 0.3, "--data", data_csv,
                "--out", refit]) == 0
    assert "wild_responses" not in json.loads(refit.read_text())
    data = load_dataset(data_csv)
    params = {"clipped_simplex_kl": {"eta0": 0.1}}.get(potential, {})
    loss, cset, fit = build_model(data.d, potential, params, 0.3,
                                  {"kind": trainer})
    want = wild_refit(loss, cset, fit, data, 1.5, seed=2)
    data_path, _, _, got = _read_json(refit, _as_refit)
    assert data_path == str(data_csv)
    for field in ("fhat", "fdiamond"):
        assert getattr(got, field).values.tobytes() == \
            getattr(want, field).values.tobytes(), field
    for field in ("signs", "wild_responses", "residues"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert (got.rho, got.clip_count) == (want.rho, want.clip_count)
    # recomputed from the file's fhat and fdiamond, not read from the file
    assert np.float64(got.discrepancy).tobytes() == \
        np.float64(want.discrepancy).tobytes()
    assert json.loads(refit.read_text())["sign_seed"] == 2
    assert (want.clip_count > 0) == (potential == "clipped_simplex_kl")


def _run_script(name, *args):
    """Run scripts/<name> in a subprocess with the package source importable."""
    root = Path(__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + ([path] if path else [])))
    return subprocess.run([sys.executable, str(root / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_certificate_demo_script_runs():
    # the demo drives the certificate API end to end outside the CLI
    proc = _run_script("certificate_demo.py", "--n", "100")
    assert proc.returncode == 0, proc.stderr
    assert "random design" in proc.stdout


def test_coverage_study_script_writes_reports(tmp_path):
    proc = _run_script("run_coverage_study.py", "--reps", "100", "--n", "40",
                       "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = sorted(tmp_path.glob("*.json"))
    assert len(reports) == 5
    for path in reports:
        rep = json.loads(path.read_text())
        assert rep["passed"] and rep["theorem"] == path.stem
        assert set(rep) == {"theorem", "delta", "replications", "successes",
                            "errors", "empirical_coverage", "target_coverage",
                            "passed"}
