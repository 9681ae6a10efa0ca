import math

import numpy as np
import pytest

from wildbregman.certify import (fixed_design_certificate,
                                 random_design_certificate, random_design_tail,
                                 stability_constants)
from wildbregman.complexity import (RadiusReport, deviation_term,
                                    fixed_point_radius, pilot_sup, wn)
from wildbregman.design import (FixedDesignDataset, PredictionMatrix,
                                empirical_discrepancy)
from wildbregman.errors import RejectedInputError
from wildbregman.geometry import Box, ClippedSimplex
from wildbregman.harness import _true_optimism
from wildbregman.potentials import builtin_loss
from wildbregman.trainers import SaturatedTrainer
from wildbregman.wildfit import calibrate_rho, wild_refit

from conftest import simplex_grid


def box(d, b):
    return Box(np.full(d, -b), np.full(d, b))


def test_true_optimism_closed_form(rng):
    loss = builtin_loss("squared_l2", 2)
    F = PredictionMatrix(rng.uniform(-1, 1, size=(20, 2)))
    G = PredictionMatrix(rng.uniform(-1, 1, size=(20, 2)))
    W = rng.uniform(-0.5, 0.5, size=(20, 2))
    expect = float(np.mean(np.sum((G.values - F.values) * W, axis=1)))
    assert _true_optimism(loss, F, G, W) == pytest.approx(expect, rel=1e-12)


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
                  + _true_optimism(loss, fhat, PredictionMatrix(Fstar), W))
    assert decomposed == pytest.approx(direct, abs=1e-9)


def _calibrated_setup(rng, n=60, d=2, b=0.4, delta=0.05):
    loss = builtin_loss("squared_l2", d)
    cset = box(d, b)
    trainer = SaturatedTrainer(loss, cset)
    Fstar = rng.uniform(-2 * b, 2 * b, size=(n, d))
    W = rng.uniform(-0.3, 0.3, size=(n, d))
    data = FixedDesignDataset(None, Fstar + W)
    start = wild_refit(loss, cset, trainer, data, 1.0, seed=5)
    fhat = start.fhat
    fdagger = trainer.fit(None, Fstar)
    r_hat = math.sqrt(float(np.mean(loss.divergence_rows(fdagger,
                                                         fhat.values))))
    cal = calibrate_rho(loss, trainer, data, start, 3.0 * loss.c0 * r_hat)
    result = cal["result"]
    pilot = pilot_sup(loss, cset, fhat, PredictionMatrix(Fstar), result.signs,
                      3.0 * loss.c0 * r_hat)
    misspec = 0.0
    w_inf = float(np.max(np.abs(W)))
    report = RadiusReport(r_certified=r_hat, method="oracle")
    return loss, cset, data, result, report, pilot, misspec, w_inf, delta


def test_fixed_certificate_assembly(rng):
    (loss, cset, data, result, report, pilot, misspec, w_inf,
     delta) = _calibrated_setup(rng)
    cert = fixed_design_certificate(loss, result, report, delta, pilot,
                                    misspec, w_inf, responses=data.responses)
    training = float(np.mean(loss.divergence_rows(data.responses,
                                                  result.fhat.values)))
    dev = deviation_term(loss, misspec, report.r_certified, w_inf, data.n,
                         data.d, delta)
    expect = training + 2.0 * (cert.wild_optimism_abs + pilot + dev)
    assert cert.total == pytest.approx(expect, rel=1e-12)
    assert cert.failure_budget == pytest.approx(8 * delta)
    assert cert.mode == "fixed_design"
    assert cert.provenance["radius_method"] == "oracle"


def test_fixed_certificate_rejects_uncalibrated(rng):
    (loss, cset, data, result, report, pilot, misspec, w_inf,
     delta) = _calibrated_setup(rng)
    bad = RadiusReport(r_certified=report.r_certified * 3.0, method="oracle")
    with pytest.raises(RejectedInputError):
        fixed_design_certificate(loss, result, bad, delta, pilot, misspec,
                                 w_inf, responses=data.responses)


def test_fixed_certificate_rejects_responses_of_other_data(rng):
    # fhat's own values as responses would give a training error of 0
    (loss, cset, data, result, report, pilot, misspec, w_inf,
     delta) = _calibrated_setup(rng)
    for responses in (result.fhat.values, data.responses[:-1]):
        with pytest.raises(RejectedInputError, match="not the data"):
            fixed_design_certificate(loss, result, report, delta, pilot,
                                     misspec, w_inf, responses=responses)


class _NumpyRidge:
    """Ridge regression on [X, 1], written with numpy alone."""

    def fit(self, X, Y):
        Xa = np.hstack([X, np.ones((X.shape[0], 1))])
        theta = np.linalg.solve(Xa.T @ Xa + np.eye(Xa.shape[1]), Xa.T @ Y)
        return Xa @ theta


def test_numpy_trainer_certifies_end_to_end(rng):
    # any object with fit(X, Y) -> (n, d) array is a trainer: the wild refit,
    # the fixed-point radius, calibration and the certificate take it as is
    loss = builtin_loss("squared_l2", 2)
    cset, trainer, delta = box(2, 10.0), _NumpyRidge(), 1e-4
    X = rng.uniform(-1, 1, size=(200, 3))
    Y = X @ rng.uniform(-0.3, 0.3, size=(3, 2)) \
        + rng.uniform(-0.25, 0.25, size=(200, 2))
    data = FixedDesignDataset(X, Y)
    start = wild_refit(loss, cset, trainer, data, 1.0, seed=3)
    r = fixed_point_radius(
        lambda s: wn(loss, cset, start.fhat, start.symmetrized, s), delta,
        data.n, r_max=max(10.0 * cset.diameter(), 1.0))
    result = calibrate_rho(loss, trainer, data, start,
                           3.0 * loss.c0 * r)["result"]
    cert = fixed_design_certificate(
        loss, result, RadiusReport(r_certified=r, method="fixed_point"), delta,
        0.0, 0.0, float(np.max(np.abs(result.residues))),
        responses=data.responses)
    assert np.array_equal(result.fhat.values, trainer.fit(X, Y))
    assert cert.training_error == pytest.approx(
        np.mean(loss.divergence_rows(Y, trainer.fit(X, Y))), rel=1e-12)
    assert math.isfinite(cert.total) and cert.total > cert.training_error


def test_fixed_certificate_delta_range(rng):
    (loss, cset, data, result, report, pilot, misspec, w_inf,
     _) = _calibrated_setup(rng)
    with pytest.raises(RejectedInputError):
        fixed_design_certificate(loss, result, report, 0.2, pilot, misspec,
                                 w_inf, responses=data.responses)


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
    (loss, cset, data, result, report, pilot, misspec, w_inf,
     delta) = _calibrated_setup(rng, delta=0.05)
    fixed = fixed_design_certificate(loss, result, report, delta, pilot,
                                     misspec, w_inf, responses=data.responses)
    rand = random_design_certificate(fixed, loss, cset, data.n, delta)
    consts = stability_constants(loss, cset)
    tail = random_design_tail(consts, loss.alpha, data.n, delta)
    assert rand.total == pytest.approx(fixed.total + tail, rel=1e-12)
    assert rand.failure_budget == pytest.approx(11 * delta)
    assert rand.provenance["iid_assumption"] == "declared, unverified"


def test_random_certificate_delta_range(rng):
    (loss, cset, data, result, report, pilot, misspec, w_inf,
     _) = _calibrated_setup(rng)
    fixed = fixed_design_certificate(loss, result, report, 0.05, pilot,
                                     misspec, w_inf, responses=data.responses)
    with pytest.raises(RejectedInputError, match="1/11"):
        random_design_certificate(fixed, loss, cset, data.n, 0.5)
