import dataclasses

import numpy as np
import pytest

from wildbregman import certify, harness
from wildbregman.certify import fixed_design_certificate
from wildbregman.errors import RejectedInputError
from wildbregman.harness import (CoverageExperiment, SyntheticSpec,
                                 generate_synthetic, run_coverage)
from wildbregman.potentials import builtin_loss
from wildbregman.trainers import LinearTrainer


def test_generate_deterministic():
    spec = SyntheticSpec(n=30, d=2, seed=11)
    d1, o1 = generate_synthetic(spec)
    d2, o2 = generate_synthetic(spec)
    assert np.array_equal(d1.responses, d2.responses)
    assert np.array_equal(o1.noise, o2.noise)


@pytest.mark.parametrize("family", harness._FSTAR_FAMILIES)
def test_responses_reconstruct_exactly(family):
    spec = SyntheticSpec(n=25, d=3, fstar_family=family, seed=2)
    data, oracle = generate_synthetic(spec)
    assert np.array_equal(data.responses,
                          oracle.fstar_preds.values + oracle.noise)
    if family == "constant":
        F = oracle.fstar_preds.values
        assert np.all(F == F[0])


def test_zero_noise_amplitude():
    spec = SyntheticSpec(n=10, d=1, noise_scale=0.0, seed=0)
    data, oracle = generate_synthetic(spec)
    assert oracle.w_inf == 0.0
    assert np.array_equal(data.responses, oracle.fstar_preds.values)


def test_scaled_rademacher_amplitude():
    spec = SyntheticSpec(n=50, d=2, noise_family="scaled_rademacher",
                         noise_scale=0.3, seed=1)
    _, oracle = generate_synthetic(spec)
    assert np.all(np.abs(oracle.noise) == pytest.approx(0.3))
    assert oracle.w_inf == pytest.approx(0.3)


def test_heteroskedastic_amplitudes_differ():
    spec = SyntheticSpec(n=5000, d=3, noise_family="heteroskedastic",
                         noise_scale=0.5, seed=4)
    _, oracle = generate_synthetic(spec)
    maxes = np.max(np.abs(oracle.noise), axis=0)
    assert maxes[0] < maxes[1] < maxes[2]


def test_domain_overflow_rejected():
    loss = builtin_loss("sqrt_bernoulli", 2, eps0=0.1)
    spec = SyntheticSpec(n=20, d=2, fstar_scale=0.5, noise_scale=0.5, seed=0)
    with pytest.raises(RejectedInputError):
        generate_synthetic(spec, loss)


def test_simplex_domain_unsupported():
    loss = builtin_loss("clipped_simplex_kl", 2, eta0=0.1)
    with pytest.raises(RejectedInputError):
        generate_synthetic(SyntheticSpec(n=10, d=2, seed=0), loss)


def test_conditional_mean_empirical(rng):
    # empirical mean of Y - F* within the CLT band 4a/sqrt(N) per coordinate
    a = 0.25
    spec = SyntheticSpec(n=100_000, d=2, noise_scale=a, seed=9)
    data, oracle = generate_synthetic(spec)
    mean = np.mean(data.responses - oracle.fstar_preds.values, axis=0)
    assert np.all(np.abs(mean) <= 4.0 * a / np.sqrt(100_000))


def test_run_coverage_rejects_zero_reps():
    exp = CoverageExperiment(theorem="lemma_5_1", reps=0, delta=0.05,
                             spec=SyntheticSpec(n=10, d=1))
    with pytest.raises(RejectedInputError):
        run_coverage(exp)


def test_run_coverage_rejects_unknown_theorem():
    exp = CoverageExperiment(theorem="thm_9_9", reps=100, delta=0.05,
                             spec=SyntheticSpec(n=10, d=1))
    with pytest.raises(RejectedInputError, match="unknown theorem"):
        run_coverage(exp)


def test_run_coverage_rejects_few_probabilistic_reps():
    exp = CoverageExperiment(theorem="thm_5_1_excess", reps=10, delta=0.05,
                             spec=SyntheticSpec(n=10, d=1))
    with pytest.raises(RejectedInputError):
        run_coverage(exp)


def test_run_coverage_rejects_thm52_without_linear_trainer(monkeypatch):
    # refused before the first rep, not errored on every rep
    monkeypatch.setattr(harness, "generate_synthetic", None)
    exp = CoverageExperiment(theorem="thm_5_2_excess", reps=100, delta=0.01,
                             spec=SyntheticSpec(n=30, d=1))
    with pytest.raises(RejectedInputError, match="linear"):
        run_coverage(exp)


@pytest.mark.parametrize("delta, spec, refused", [
    (0.05, {}, True),                         # kappa = 1.23 at d = 2
    (1.2340980408667956e-4, {}, False),       # 0.71, criterion 07
    (0.01, {"d": 1}, False),                  # 0.70
    (1.2340980408667956e-4, {"noise_scale": 0.36}, True)])  # 1.02
def test_run_coverage_refuses_thm61_whose_stability_term_closes_nothing(
        monkeypatch, delta, spec, refused):
    # with kappa >= 1 at the noise bound, r^2 <= ... + kappa r^2 holds for
    # every r and the check could only pass: refused before the first rep
    monkeypatch.setattr(harness, "generate_synthetic", None)
    exp = CoverageExperiment(theorem="thm_6_1_rhat", reps=100, delta=delta,
                             spec=SyntheticSpec(**{"n": 30, "d": 2, **spec}))
    if refused:
        with pytest.raises(RejectedInputError, match="stability"):
            run_coverage(exp)
    else:  # every rep reaches the (removed) generator and errors
        assert run_coverage(exp).errors == 100


def test_thm52_heldout_risk_is_x_only(monkeypatch):
    # the check takes the excess risk as the mean of D(f*(x), f-hat(x)) over
    # held-out x and draws no noise; the (x, w) estimate it replaced differs
    # from it by the mean of <w, grad phi(f*) - grad phi(f-hat)>, which has
    # mean zero, so the two agree to that term's standard error
    from wildbregman.trainers import build_model
    exp = CoverageExperiment(theorem="thm_5_2_excess", reps=100, delta=0.05,
                             spec=SyntheticSpec(n=200, d=2, seed=809),
                             trainer={"kind": "linear"})
    loss, cset, trainer = build_model(2, "squared_l2", {}, exp.cset_bound,
                                      exp.trainer)
    data, oracle = generate_synthetic(exp.spec, loss)
    ctx = harness._RepContext(loss=loss, cset=cset, trainer=trainer,
                              data=data, oracle=oracle, delta=exp.delta,
                              sign_seed=3, heldout_seed=4, exp=exp, rep=0)
    monkeypatch.setattr(harness, "_draw_noise", None)
    lhs, rhs = harness._check_thm_5_2(ctx)
    monkeypatch.undo()
    rng = np.random.default_rng(4)
    Xh = rng.uniform(-1.0, 1.0, size=(harness._HELDOUT_M, exp.spec.p))
    Fh = oracle.fstar_fn(Xh)
    Ph = trainer.fit_predictor(data.inputs, data.responses).predict(Xh)
    assert lhs == float(np.mean(loss.divergence_rows(Fh, Ph)))
    Wh = harness._draw_noise(rng, harness._HELDOUT_M, 2, "uniform", 0.25)
    cross = np.sum(Wh * (Fh - Ph), axis=1)  # D(y, p) - D(y, f*) - D(f*, p)
    se = float(np.std(cross)) / np.sqrt(harness._HELDOUT_M)
    old = float(np.mean(loss.divergence_rows(Fh + Wh, Ph))
                - np.mean(loss.divergence_rows(Fh + Wh, Fh)))
    assert abs(old - lhs) <= 5.0 * se
    assert 0.0 < lhs <= rhs


def test_run_coverage_lemma_bit_identical():
    exp = CoverageExperiment(theorem="lemma_5_1", reps=20, delta=0.05,
                             spec=SyntheticSpec(n=50, d=2, seed=21),
                             cset_bound=0.4)
    r1 = run_coverage(exp)
    r2 = run_coverage(exp)
    assert r1.per_replication == r2.per_replication
    assert r1.passed and r1.errors == 0
    # recorded lhs is the process value at the realized wild radius, which
    # the wild optimism dominates
    for rec in r1.per_replication:
        assert rec["lhs"] <= rec["rhs"] + 1e-8


def test_run_coverage_isolates_errors(monkeypatch):
    # a trainer whose output is refused inside every rep; the report must
    # count those errors separately
    monkeypatch.setattr(LinearTrainer, "fit", lambda self, X, Y: np.nan * Y)
    exp = CoverageExperiment(theorem="thm_5_1_excess", reps=100, delta=0.05,
                             spec=SyntheticSpec(n=20, d=1, seed=1),
                             trainer={"kind": "linear"})
    report = run_coverage(exp)
    assert report.errors == 100
    assert report.replications == 0
    assert not report.passed
    assert all(r["error"].startswith("RejectedInputError: [noiseless fit]")
               for r in report.per_replication)


def test_run_coverage_thm51_passes_small():
    exp = CoverageExperiment(theorem="thm_5_1_excess", reps=100, delta=0.05,
                             spec=SyntheticSpec(n=60, d=2, seed=3),
                             trainer={"kind": "linear"})
    report = run_coverage(exp)
    assert report.errors == 0
    assert report.passed
    assert report.target_coverage == pytest.approx(0.6)


def test_thm51_excess_fails_on_a_zero_certificate(monkeypatch):
    # the excess check must be able to fail: a certificate of 0 is below
    # L_n(fstar, fhat) > 0 in every rep
    certificate = certify.fixed_design_certificate
    monkeypatch.setattr(certify, "fixed_design_certificate",
                        lambda *a, **kw: dataclasses.replace(
                            certificate(*a, **kw), total=0.0))
    exp = CoverageExperiment(theorem="thm_5_1_excess", reps=100, delta=0.05,
                             spec=SyntheticSpec(n=60, d=2, seed=3),
                             trainer={"kind": "linear"})
    report = run_coverage(exp)
    assert report.errors == 0
    assert report.successes == 0 and not report.passed


def test_fixed_design_replication_fits_fhat_once(monkeypatch):
    # the pipeline's wild refit at rho = 1 supplies fhat, calibration
    # continues that refit instead of fitting the responses again, and
    # theorem 5.2 predicts off the design with that same fit; `fit` and
    # `fit_predictor` both solve through `_coefficients`
    datasets, fitted = [], []
    generate, solve = harness.generate_synthetic, LinearTrainer._coefficients

    def record_generate(spec, loss):
        datasets.append(generate(spec, loss))
        return datasets[-1]

    def record_solve(self, Xa, Y):
        fitted.append(Y)
        return solve(self, Xa, Y)

    monkeypatch.setattr(harness, "generate_synthetic", record_generate)
    monkeypatch.setattr(LinearTrainer, "_coefficients", record_solve)
    for theorem in ("thm_5_1_excess", "thm_5_2_excess"):
        datasets.clear()
        fitted.clear()
        exp = CoverageExperiment(theorem=theorem, reps=100, delta=0.05,
                                 spec=SyntheticSpec(n=30, d=2, seed=4),
                                 trainer={"kind": "linear"})
        assert run_coverage(exp).errors == 0
        assert len(datasets) == 100
        for data, _ in datasets:
            assert sum(np.array_equal(Y, data.responses) for Y in fitted) == 1


def test_coverage_report_csv_roundtrip(tmp_path):
    exp = CoverageExperiment(theorem="lemma_5_1", reps=5, delta=0.05,
                             spec=SyntheticSpec(n=30, d=1, seed=2),
                             cset_bound=0.4)
    report = run_coverage(exp)
    path = tmp_path / "reps.csv"
    report.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rep,seed,lhs,rhs,holds,error"
    assert len(lines) == 6


def test_run_coverage_counts_errors_as_violations(monkeypatch):
    # a check that holds on every rep it completes but errors on 90% of reps
    # must not pass: coverage is taken over all reps
    def check(ctx):
        if ctx.rep % 10:
            raise RuntimeError("injected")
        return 0.0, 1.0

    monkeypatch.setitem(harness._CHECKS, "thm_6_1_rhat", (check, 4.0))
    exp = CoverageExperiment(theorem="thm_6_1_rhat", reps=200, delta=0.01,
                             spec=SyntheticSpec(n=20, d=1, seed=1))
    report = run_coverage(exp)
    assert (report.replications, report.errors, report.successes) == (20, 180, 20)
    assert report.empirical_coverage == pytest.approx(0.1)
    assert not report.passed

    monkeypatch.setitem(harness._CHECKS, "thm_6_1_rhat",
                        (lambda ctx: (0.0, 1.0), 4.0))
    assert run_coverage(exp).passed


def test_optimism_check_reads_the_certificate(monkeypatch):
    # the right side is the emitted certificate's |wild optimism| + pilot +
    # deviation, so a certificate with those terms zeroed must fail the check
    def zeroed(*args, **kwargs):
        cert = fixed_design_certificate(*args, **kwargs)
        return dataclasses.replace(cert, wild_optimism_abs=0.0, pilot=0.0,
                                   deviation=0.0, total=0.0)

    monkeypatch.setattr(certify, "fixed_design_certificate", zeroed)
    report = run_coverage(CoverageExperiment(
        theorem="thm_5_1_optimism", reps=100, delta=0.01,
        spec=SyntheticSpec(n=60, d=2, seed=3), trainer={"kind": "linear"}))
    assert (report.errors, report.successes) == (0, 0)
