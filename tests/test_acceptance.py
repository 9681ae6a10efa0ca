"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Expected values come from independent oracles (closed
forms, high-precision arithmetic, Monte Carlo bands) computed inside each
test, never from the library code under test."""

import json
import math
import time

import mpmath
import numpy as np

from wildbregman.cli import main as cli_main
from wildbregman.complexity import _sup_dual, wn
from wildbregman.design import (FixedDesignDataset, PredictionMatrix,
                                sample_sign_matrix)
from wildbregman.geometry import Box
from wildbregman.harness import (CoverageExperiment, SyntheticSpec,
                                 generate_synthetic, run_coverage)
from wildbregman.potentials import builtin_loss
from wildbregman.trainers import LinearTrainer, SaturatedTrainer
from wildbregman.wildfit import calibrate_rho, wild_refit

from conftest import BUILTINS, make_loss, sample_domain


def report(criterion, ok, detail=""):
    line = f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def rel_close(a, b, tol):
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.maximum(np.abs(a),
                                                                    np.abs(b))))


def test_criterion_01_bregman_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for kind in BUILTINS:
        loss = make_loss(kind)
        X = sample_domain(loss, rng, 1000)
        Y = sample_domain(loss, rng, 1000)
        Z = sample_domain(loss, rng, 1000)
        # three-point equality
        lhs = loss._div_raw(X, Z)
        rhs = (loss._div_raw(X, Y) + loss._div_raw(Y, Z)
               + np.sum((loss.gradient(Y) - loss.gradient(Z)) * (X - Y), axis=-1))
        ok &= bool(rel_close(lhs, rhs, 1e-9))
        # first-argument smoothness: gradient of D(., y) is beta-Lipschitz
        gdiff = np.linalg.norm(loss.gradient(X) - loss.gradient(Y), axis=-1)
        ok &= bool(np.all(gdiff <= loss.beta * np.linalg.norm(X - Y, axis=-1) + 1e-9))
        # PL inequality with constant alpha^2 / beta
        pl = 0.5 * np.sum((loss.gradient(X) - loss.gradient(Y)) ** 2, axis=-1)
        ok &= bool(np.all(pl >= (loss.alpha ** 2 / loss.beta) * loss._div_raw(X, Y) - 1e-9))
        # quasi-triangle with C0 = sqrt(beta/alpha)
        ok &= bool(np.all(np.sqrt(lhs) <= loss.c0 * (np.sqrt(loss._div_raw(X, Y))
                                                     + np.sqrt(loss._div_raw(Y, Z)))
                          + 1e-9))
        # empirical quasi-triangle over 5-row predictors
        F = sample_domain(loss, rng, 5000).reshape(1000, 5, -1)
        G = sample_domain(loss, rng, 5000).reshape(1000, 5, -1)
        H = sample_domain(loss, rng, 5000).reshape(1000, 5, -1)
        Lfg = np.mean(loss._div_raw(F, G), axis=-1)
        Lfh = np.mean(loss._div_raw(F, H), axis=-1)
        Lhg = np.mean(loss._div_raw(H, G), axis=-1)
        ok &= bool(np.all(np.sqrt(Lfg) <= math.sqrt(2.0) * loss.c0
                          * (np.sqrt(Lfh) + np.sqrt(Lhg)) + 1e-9))
    elapsed = time.time() - t0
    report(1, ok and elapsed < 10.0, f"elapsed {elapsed:.1f}s")


def test_criterion_02_wn_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    loss_cache = {}
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 5))
        if d not in loss_cache:
            loss_cache[d] = builtin_loss("squared_l2", d)
        loss = loss_cache[d]
        cset = Box(np.full(d, -100.0), np.full(d, 100.0))
        C = rng.uniform(-1, 1, size=(n, d))
        Z = rng.normal(size=(n, d))
        r = float(rng.uniform(0.01, 1.0))
        exact = r * math.sqrt(2.0 / n) * float(np.linalg.norm(Z))
        # independent numerical path: the separable dual solver, not the
        # Cauchy-Schwarz formula
        got = _sup_dual(loss, cset, C, Z, r)[0]
        worst = max(worst, abs(got - exact) / exact)
    elapsed = time.time() - t0
    report(2, worst <= 1e-6 and elapsed < 60.0,
           f"worst rel err {worst:.2e}, elapsed {elapsed:.1f}s")


def test_criterion_03_deterministic_refit_bound():
    t0 = time.time()
    ok = True
    for trainer_desc, bound in [({"kind": "saturated"}, 0.4),
                                ({"kind": "linear"}, 10.0)]:
        exp = CoverageExperiment(
            theorem="lemma_5_1", reps=500, delta=0.05,
            spec=SyntheticSpec(n=100, d=2, seed=303),
            trainer=trainer_desc, cset_bound=bound)
        rep = run_coverage(exp)
        ok &= rep.errors == 0 and rep.successes == 500
    elapsed = time.time() - t0
    report(3, ok and elapsed < 300.0, f"elapsed {elapsed:.1f}s")


def test_criterion_04_scale_concavity():
    t0 = time.time()
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(404 + seed)
        n, d = int(rng.integers(20, 80)), 2
        loss = builtin_loss("squared_l2", d)
        b = float(rng.uniform(0.3, 1.0))
        cset = Box(np.full(d, -b), np.full(d, b))
        C = rng.uniform(-b, b, size=(n, d))
        F = PredictionMatrix(C)
        Z = rng.normal(size=(n, d))
        grid = np.geomspace(0.01, 2.0, 10)
        ratios = [wn(loss, cset, F, Z, r) / r for r in grid]
        for i in range(len(grid)):
            for j in range(i, len(grid)):
                # c0 = 1 for squared_l2
                ok &= ratios[j] <= ratios[i] + 1e-8
    elapsed = time.time() - t0
    report(4, ok and elapsed < 60.0, f"elapsed {elapsed:.1f}s")


def test_criterion_05_calibration_contract():
    t0 = time.time()
    ok = True
    worst_hit = worst_analytic = 0.0
    for k in range(100):
        rng = np.random.default_rng(505 + k)
        loss = builtin_loss("squared_l2", 2)
        if k % 2 == 0:
            # clamped saturated instance with a closed-form radius map
            cset = Box(np.full(2, -1.0), np.full(2, 1.0))
            trainer = SaturatedTrainer(loss, cset)
            Y = rng.uniform(-2.0, 2.0, size=(60, 2))
            data = FixedDesignDataset(None, Y)
            fhat = trainer.fit(None, Y)
            residues = data.responses - fhat
            signs = sample_sign_matrix(60, 2, k)
            pushed_in = (signs * residues) * np.sign(fhat) > 0
            c = math.sqrt(float(np.sum((residues * pushed_in) ** 2)) / 120.0)
            target = 0.05
            start = wild_refit(loss, cset, trainer, data, 1.0, seed=k)
            out = calibrate_rho(loss, trainer, data, start, target)
            err_a = abs(out["rho"] - target / c) / (target / c)
            worst_analytic = max(worst_analytic, err_a)
        else:
            cset = Box(np.full(2, -10.0), np.full(2, 10.0))
            trainer = LinearTrainer(loss, cset)
            X = rng.uniform(-1, 1, size=(60, 3))
            Y = X @ rng.normal(size=(3, 2)) * 0.4 + 0.2 * rng.normal(size=(60, 2))
            data = FixedDesignDataset(X, Y)
            probe = wild_refit(loss, cset, trainer, data, 1.0, seed=k)
            target = float(rng.uniform(0.5, 2.0)) * probe.radius
            out = calibrate_rho(loss, trainer, data, probe, target)
        hit = abs(out["achieved_radius"] - target) / target
        worst_hit = max(worst_hit, hit)
    ok = worst_hit <= 1e-3 and worst_analytic <= 1e-3
    elapsed = time.time() - t0
    report(5, ok and elapsed < 120.0,
           f"worst |achieved-target|/target {worst_hit:.2e}, "
           f"worst analytic-rho err {worst_analytic:.2e}, elapsed {elapsed:.1f}s")


def test_criterion_06_theorem_51_coverage():
    t0 = time.time()
    ok = True
    details = []
    for theorem in ("thm_5_1_optimism", "thm_5_1_excess"):
        exp = CoverageExperiment(
            theorem=theorem, reps=500, delta=0.05,
            spec=SyntheticSpec(n=200, d=2, seed=606, fstar_family="linear"),
            trainer={"kind": "linear"})
        rep = run_coverage(exp)
        ok &= rep.errors == 0 and rep.empirical_coverage >= 0.6 - 0.044
        details.append(f"{theorem} coverage {rep.empirical_coverage:.3f}")
    elapsed = time.time() - t0
    report(6, ok and elapsed < 600.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_07_theorem_61_coverage():
    t0 = time.time()
    delta = math.exp(-9.0)
    exp = CoverageExperiment(
        theorem="thm_6_1_rhat", reps=200, delta=delta,
        spec=SyntheticSpec(n=200, d=2, seed=707),
        trainer={"kind": "saturated"}, cset_bound=0.4)
    rep = run_coverage(exp)
    target = 1.0 - 4.0 * delta
    band = 2.0 * math.sqrt(target * (1.0 - target) / 200)
    ok = rep.errors == 0 and rep.empirical_coverage >= target - band
    elapsed = time.time() - t0
    report(7, ok and elapsed < 600.0,
           f"coverage {rep.empirical_coverage:.3f}, elapsed {elapsed:.1f}s")


def test_criterion_08_theorem_52_assembly_and_coverage():
    t0 = time.time()
    # exactness of the tail assembly against 50-digit arithmetic
    from wildbregman.certify import StabilityConstants, random_design_tail
    rng = np.random.default_rng(808)
    mpmath.mp.dps = 50
    worst = 0.0
    for _ in range(20):
        M = float(rng.uniform(0.5, 20.0))
        L = float(rng.uniform(0.1, 5.0))
        alpha = float(rng.uniform(0.5, 3.0))
        n = int(rng.integers(50, 2000))
        delta = float(rng.uniform(1e-4, 0.09))
        got = random_design_tail(StabilityConstants(M=M, L=L), alpha, n, delta)
        Mh, Lh, ah, dh = mpmath.mpf(M), mpmath.mpf(L), mpmath.mpf(alpha), mpmath.mpf(delta)
        ref = (mpmath.sqrt((Mh ** 2 + 36 * Mh * Lh ** 2 / ah) / (2 * n * dh))
               + Mh * mpmath.sqrt(mpmath.log(2 / dh) / (2 * n)))
        worst = max(worst, abs(got - float(ref)) / float(ref))
    ok = worst <= 1e-12

    # coverage with a large held-out oracle sample
    exp = CoverageExperiment(
        theorem="thm_5_2_excess", reps=300, delta=0.05,
        spec=SyntheticSpec(n=200, d=2, seed=809),
        trainer={"kind": "linear"})
    rep = run_coverage(exp)
    target = 1.0 - 11.0 * 0.05
    band = 2.0 * math.sqrt(target * (1.0 - target) / 300)
    ok &= rep.errors == 0 and rep.empirical_coverage >= target - band
    elapsed = time.time() - t0
    report(8, ok and elapsed < 900.0,
           f"tail worst rel {worst:.1e}, coverage {rep.empirical_coverage:.3f}, "
           f"elapsed {elapsed:.1f}s")


def test_criterion_09_conditional_mean():
    t0 = time.time()
    a = 0.25
    ok = True
    for family in ("uniform", "scaled_rademacher"):
        spec = SyntheticSpec(n=100_000, d=2, noise_family=family,
                             noise_scale=a, seed=909)
        data, oracle = generate_synthetic(spec)
        mean = np.mean(data.responses - oracle.fstar_preds.values, axis=0)
        ok &= bool(np.all(np.abs(mean) <= 4.0 * a / math.sqrt(100_000)))
    elapsed = time.time() - t0
    report(9, ok and elapsed < 10.0, f"elapsed {elapsed:.1f}s")


def test_criterion_10_validate_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"n": 100, "d": 2}, "cset_bound": 0.4}))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli_main(["validate", "--theorem", "lemma_5_1", "--reps", "100",
                         "--delta", "0.05", "--seed", "1010",
                         "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out)
    ok = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
             for f in ("coverage.json", "replications.csv", "summary.txt"))
    report(10, ok, "byte-identical outputs")
