import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from wildbregman.certify import (certify_dataset, fixed_design_certificate,
                                 random_design_certificate, random_design_tail,
                                 stability_constants)
from wildbregman.complexity import (RadiusReport, _objective, deviation_term,
                                    fixed_point_radius, pilot_sup, wn)
from wildbregman.cli import main
from wildbregman.design import (FixedDesignDataset, PredictionMatrix,
                                empirical_discrepancy, load_dataset)
from wildbregman.errors import RejectedInputError
from wildbregman.geometry import Box, ClippedSimplex
from wildbregman.potentials import builtin_loss
from wildbregman.trainers import SaturatedTrainer, build_model

from conftest import box, simplex_grid


def test_true_optimism_closed_form(rng):
    loss = builtin_loss("squared_l2", 2)
    F = PredictionMatrix(rng.uniform(-1, 1, size=(20, 2)))
    G = PredictionMatrix(rng.uniform(-1, 1, size=(20, 2)))
    W = rng.uniform(-0.5, 0.5, size=(20, 2))
    expect = float(np.mean(np.sum((G.values - F.values) * W, axis=1)))
    # the true optimism, for fhat = F and fstar = G
    assert _objective(loss, G.values, F.values, W) == pytest.approx(expect,
                                                                   rel=1e-12)


def test_oracle_excess_decomposition_matches_direct(rng):
    # three-point identity: the training-loss gap equals L_n(fstar, fhat)
    # plus the true optimism, the gradient-noise inner product
    loss = builtin_loss("squared_l2", 2)
    n = 40
    Fstar = rng.uniform(-1, 1, size=(n, 2))
    W = rng.uniform(-0.5, 0.5, size=(n, 2))
    Y = Fstar + W
    fhat = PredictionMatrix(rng.uniform(-1, 1, size=(n, 2)))
    direct = (float(np.mean(loss.divergence_rows(Y, fhat.values)))
              - float(np.mean(loss.divergence_rows(Y, Fstar))))
    decomposed = (empirical_discrepancy(loss, PredictionMatrix(Fstar), fhat)
                  + _objective(loss, Fstar, fhat.values, W))
    assert decomposed == pytest.approx(direct, abs=1e-9)


def _calibrated_setup(rng):
    """(loss, cset, data, calibrated refit, radius report, certificate) of
    the chain at delta = 0.05 with the oracle radius and pilot."""
    loss, cset = builtin_loss("squared_l2", 2), box(2, 0.4)
    trainer = SaturatedTrainer(loss, cset)
    Fstar = PredictionMatrix(rng.uniform(-0.8, 0.8, size=(60, 2)))
    W = rng.uniform(-0.3, 0.3, size=(60, 2))
    data = FixedDesignDataset(None, Fstar.values + W)
    fdagger = PredictionMatrix(trainer.fit(None, Fstar.values))

    def radius(start):
        return RadiusReport(math.sqrt(empirical_discrepancy(
            loss, fdagger, start.fhat)), "oracle")

    cert, result = certify_dataset(
        loss, cset, trainer, data, 0.05, seed=5, radius=radius,
        pilot=lambda refit, R: pilot_sup(loss, cset, refit.fhat, Fstar,
                                         refit.signs, R),
        misspec=0.0, w_inf=float(np.max(np.abs(W))))
    return loss, cset, data, result, radius(result), cert


def test_fixed_certificate_assembly(rng):
    loss, _, data, result, report, cert = _calibrated_setup(rng)
    training = float(np.mean(loss.divergence_rows(data.responses,
                                                  result.fhat.values)))
    dev = deviation_term(loss, 0.0, report.r_certified,
                         cert.provenance["w_inf"], data.n, data.d, 0.05)
    expect = training + 2.0 * (cert.wild_optimism_abs + cert.pilot + dev)
    assert cert.total == pytest.approx(expect, rel=1e-12)
    assert cert.failure_budget == pytest.approx(8 * 0.05)
    assert cert.mode == "fixed_design"
    assert cert.provenance["radius_method"] == "oracle"
    assert result.radius == pytest.approx(3.0 * report.r_certified, rel=5e-3)


def test_fixed_certificate_rejects_uncalibrated(rng):
    loss, _, data, result, report, cert = _calibrated_setup(rng)
    bad = RadiusReport(r_certified=report.r_certified * 3.0, method="oracle")
    with pytest.raises(RejectedInputError):
        fixed_design_certificate(loss, result, bad, 0.05, cert.pilot, 0.0,
                                 1.0, responses=data.responses)


def test_fixed_certificate_rejects_responses_of_other_data(rng):
    # fhat's own values as responses would give a training error of 0
    loss, _, data, result, report, cert = _calibrated_setup(rng)
    for responses in (result.fhat.values, data.responses[:-1]):
        with pytest.raises(RejectedInputError, match="not the data"):
            fixed_design_certificate(loss, result, report, 0.05, cert.pilot,
                                     0.0, 1.0, responses=responses)


class _NumpyRidge:
    """Ridge regression on [X, 1], written with numpy alone."""

    def fit(self, X, Y):
        Xa = np.hstack([X, np.ones((X.shape[0], 1))])
        theta = np.linalg.solve(Xa.T @ Xa + np.eye(Xa.shape[1]), Xa.T @ Y)
        return Xa @ theta


def _fixed_point_report(loss, cset, delta):
    """`certify_dataset`'s radius, solved as `radius --mode fixed-point`
    solves it: on the refit's wild process, up to max(10 diameter, 1)."""
    return lambda start: RadiusReport(fixed_point_radius(
        lambda s: wn(loss, cset, start.fhat, start.symmetrized, s), delta,
        start.fhat.n, r_max=max(10.0 * cset.diameter(), 1.0)), "fixed_point")


def test_numpy_trainer_certifies_end_to_end(rng):
    # any object with fit(X, Y) -> (n, d) array is a trainer: the wild refit,
    # the fixed-point radius, calibration and the certificate take it as is
    loss = builtin_loss("squared_l2", 2)
    cset, trainer, delta = box(2, 10.0), _NumpyRidge(), 1e-4
    X = rng.uniform(-1, 1, size=(200, 3))
    Y = X @ rng.uniform(-0.3, 0.3, size=(3, 2)) \
        + rng.uniform(-0.25, 0.25, size=(200, 2))
    cert, result = certify_dataset(
        loss, cset, trainer, FixedDesignDataset(X, Y), delta, seed=3,
        radius=_fixed_point_report(loss, cset, delta),
        pilot=lambda refit, R: 0.0, misspec=0.0,
        w_inf=float(np.max(np.abs(Y - trainer.fit(X, Y)))))
    assert np.array_equal(result.fhat.values, trainer.fit(X, Y))
    assert cert.training_error == pytest.approx(
        np.mean(loss.divergence_rows(Y, trainer.fit(X, Y))), rel=1e-12)
    assert math.isfinite(cert.total) and cert.total > cert.training_error


def test_library_chain_gives_the_cli_chains_certificate(tmp_path,
                                                        monkeypatch):
    # simulate -> refit -> radius -> refit to 3 c0 r -> certify through the
    # CLI, and certify_dataset with the same data, seeds and radius solver:
    # every field of cert.json is the library certificate's
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    monkeypatch.chdir(tmp_path)
    loss, cset, trainer = build_model(2, "squared_l2", {}, 2.5,
                                      {"kind": "linear"})
    model = ("--trainer", "linear", "--cset-bound", 2.5, "--seed", 9,
             "--data", "data.csv")
    run("simulate", "--n", 400, "--seed", 5, "--out", "data")
    run("refit", "--rho", 1, *model, "--out", "start.json")
    run("radius", "--mode", "fixed-point", "--delta", 1e-4,
        "--refit-result", "start.json", "--out", "radius.json")
    r = json.loads(Path("radius.json").read_text())["r_certified"]
    run("refit", "--target-radius", 3.0 * loss.c0 * r, *model,
        "--out", "refit.json")
    run("certify", "--mode", "fixed", "--delta", 1e-4, "--pilot", 0,
        "--misspec", 0, "--refit-result", "refit.json",
        "--radius-report", "radius.json", "--out", "cert.json")
    data = load_dataset("data.csv")
    cert, _ = certify_dataset(
        loss, cset, trainer, data, 1e-4, seed=9,
        radius=_fixed_point_report(loss, cset, 1e-4),
        pilot=lambda refit, R: 0.0, misspec=0.0, w_inf=float(np.max(np.abs(
            data.responses - trainer.fit(data.inputs, data.responses)))))
    assert json.loads(Path("cert.json").read_text()) == asdict(cert)


def test_fixed_certificate_delta_range(rng):
    loss, _, data, result, report, cert = _calibrated_setup(rng)
    with pytest.raises(RejectedInputError):
        fixed_design_certificate(loss, result, report, 0.2, cert.pilot, 0.0,
                                 1.0, responses=data.responses)


def test_stability_constants_analytic_squared_l2():
    loss = builtin_loss("squared_l2", 2)
    cset = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    c = stability_constants(loss, cset)
    assert c.L == pytest.approx(math.sqrt(2.0))
    assert c.M == pytest.approx(0.5 * 8.0)  # half the squared diameter


def _brute_sups(loss, pts, chunk=250):
    """max ||grad phi|| over the points and max D_phi over all their pairs."""
    L = float(np.max(np.linalg.norm(loss.gradient(pts), axis=-1)))
    M = 0.0
    for i in range(0, len(pts), chunk):
        X = pts[i:i + chunk, None, :]
        shape = (X.shape[0], len(pts), pts.shape[1])
        D = loss.divergence_rows(np.broadcast_to(X, shape),
                                 np.broadcast_to(pts[None], shape))
        M = max(M, float(np.max(D)))
    return L, M


@pytest.mark.parametrize("kind,kwargs,lo,hi", [
    ("squared_l2", {}, -1.3, 0.7),
    ("squared_l2", {}, 0.4, 2.5),
    ("sqrt_bernoulli", {"eps0": 0.05}, 0.05, 0.95),
    ("sqrt_bernoulli", {"eps0": 0.05}, 0.07, 0.6),
    ("sqrt_bernoulli", {"eps0": 0.05}, 0.4, 0.93),
])
def test_stability_constants_box_match_brute_force_1d(kind, kwargs, lo, hi):
    # every pair of a 4001-point grid that holds both ends: the exact values
    # dominate the brute maxima and are attained, up to round-off
    loss = builtin_loss(kind, 1, **kwargs)
    c = stability_constants(loss, Box(np.array([lo]), np.array([hi])))
    L, M = _brute_sups(loss, np.linspace(lo, hi, 4001)[:, None])
    assert c.L == pytest.approx(L, rel=1e-12)
    assert c.M == pytest.approx(M, rel=1e-12)


@pytest.mark.parametrize("kind", ["squared_l2", "clipped_simplex_kl"])
def test_stability_constants_simplex_match_brute_force(kind, rng):
    # a barycentric grid (vertices and edges included) plus random interior
    # points of the clipped simplex, d = 3
    eta0 = 0.1
    loss = builtin_loss(kind, 3, **({"eta0": eta0} if kind != "squared_l2"
                                   else {}))
    grid, _ = simplex_grid(eta0, 3, 50)
    inner = eta0 + (1.0 - 3 * eta0) * rng.dirichlet(np.ones(3), size=500)
    c = stability_constants(loss, ClippedSimplex(eta0, 3))
    L, M = _brute_sups(loss, np.vstack([grid, inner]))
    assert c.L == pytest.approx(L, rel=1e-12)
    assert c.M == pytest.approx(M, rel=1e-12)


def test_stability_constants_box_reproduce_squared_l2_closed_form(rng):
    # boxes around the origin, as the CLI and the harness build them
    for d in range(1, 6):
        lo, hi = -rng.uniform(0.0, 10.0, d), rng.uniform(0.01, 10.0, d)
        cset = Box(lo, hi)
        c = stability_constants(builtin_loss("squared_l2", d), cset)
        L = float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
        assert c.L == pytest.approx(L, rel=1e-15)
        assert c.M == pytest.approx(0.5 * cset.diameter() ** 2, rel=1e-15)


def test_stability_constants_squared_l2_far_from_origin(rng):
    # boxes away from the origin: M must be 0.5 diam^2 to rounding, not
    # below it by the cancellation of the textbook divergence form
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        lo = rng.uniform(-10.0, 10.0, d)
        cset = Box(lo, lo + rng.uniform(0.01, 10.0, d))
        c = stability_constants(builtin_loss("squared_l2", d), cset)
        assert c.M == pytest.approx(0.5 * cset.diameter() ** 2, rel=1e-15, abs=0.0)


def test_stability_constants_d5():
    # symmetric domains: sqrt_bernoulli peaks at the pair (eps0, 1 - eps0)
    # in every coordinate, KL at a pair of distinct vertices
    eps0 = 0.05
    loss = builtin_loss("sqrt_bernoulli", 5, eps0=eps0)
    c = stability_constants(loss, loss.domain)
    slope = 0.5 / math.sqrt(eps0) - 0.5 / math.sqrt(1.0 - eps0)
    assert c.L == pytest.approx(math.sqrt(5.0) * slope, rel=1e-13)
    assert c.M == pytest.approx(5.0 * (1.0 - 2.0 * eps0) * slope, rel=1e-13)
    eta0 = 0.1
    loss = builtin_loss("clipped_simplex_kl", 5, eta0=eta0)
    c = stability_constants(loss, loss.domain)
    top = 1.0 - 4.0 * eta0
    assert c.L == pytest.approx(math.hypot(1.0 + math.log(top),
                                           2.0 * (1.0 + math.log(eta0))),
                                rel=1e-13)
    assert c.M == pytest.approx((top - eta0) * math.log(top / eta0), rel=1e-13)


@pytest.mark.parametrize("kind,kwargs,d,L,M", [
    ("sqrt_bernoulli", {"eps0": 0.05}, 2, 2.437, 3.102),
    ("sqrt_bernoulli", {"eps0": 0.05}, 3, 2.984, 4.652),
    ("clipped_simplex_kl", {"eta0": 0.1}, 3, 1.999, 1.456),
])
def test_stability_constants_on_the_domain(kind, kwargs, d, L, M):
    loss = builtin_loss(kind, d, **kwargs)
    c = stability_constants(loss, loss.domain)
    assert (round(c.L, 3), round(c.M, 3)) == (L, M)


def test_stability_constants_simplex_grid():
    loss = builtin_loss("clipped_simplex_kl", 2, eta0=0.1)
    c = stability_constants(loss, loss.domain)
    # sup ||1 + log p|| attained at the (0.9, 0.1) corner
    corner = np.array([0.9, 0.1])
    L_corner = float(np.linalg.norm(1.0 + np.log(corner)))
    assert c.L >= L_corner - 1e-6
    # sup KL over the clipped simplex
    kl_corner = float(np.sum(corner * np.log(corner / corner[::-1])))
    assert c.M >= kl_corner - 1e-6


def test_stability_constants_unsupported_simplex_pair():
    loss = builtin_loss("sqrt_bernoulli", 3, eps0=0.05)
    with pytest.raises(RejectedInputError):
        stability_constants(loss, ClippedSimplex(0.1, 3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,kwargs,cset", [
    ("sqrt_bernoulli", {"eps0": 0.05}, box(2, 10.0)),
    ("clipped_simplex_kl", {"eta0": 0.1}, Box(np.full(2, 0.1),
                                              np.full(2, 0.9))),
])
def test_stability_constants_reject_set_outside_domain(kind, kwargs, cset):
    # refused before any value is computed: no NaN, no RuntimeWarning
    with pytest.raises(RejectedInputError):
        stability_constants(builtin_loss(kind, 2, **kwargs), cset)


def test_random_design_tail_formula():
    from wildbregman.certify import StabilityConstants
    M, L, alpha, n, delta = 3.0, 1.5, 2.0, 200, 0.01
    c = StabilityConstants(M=M, L=L)
    expect = (math.sqrt((M * M + 36 * M * L * L / alpha) / (2 * n * delta))
              + M * math.sqrt(math.log(2.0 / delta) / (2 * n)))
    assert random_design_tail(c, alpha, n, delta) == pytest.approx(expect,
                                                                   rel=1e-12)


def test_random_certificate_adds_tail(rng):
    loss, cset, data, _, _, fixed = _calibrated_setup(rng)
    delta = 0.05
    rand = random_design_certificate(fixed, loss, cset, data.n, delta)
    consts = stability_constants(loss, cset)
    tail = random_design_tail(consts, loss.alpha, data.n, delta)
    assert rand.total == pytest.approx(fixed.total + tail, rel=1e-12)
    assert rand.failure_budget == pytest.approx(11 * delta)
    assert rand.provenance["iid_assumption"] == "declared, unverified"
    with pytest.raises(RejectedInputError, match="fixed-design"):
        random_design_certificate(rand, loss, cset, data.n, delta)


def test_random_certificate_delta_range(rng):
    loss, cset, data, _, _, fixed = _calibrated_setup(rng)
    with pytest.raises(RejectedInputError, match="1/11"):
        random_design_certificate(fixed, loss, cset, data.n, 0.5)
