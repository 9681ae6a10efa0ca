import numpy as np
import pytest

from wildbregman import wildfit
from wildbregman.design import (FixedDesignDataset, PredictionMatrix,
                                sample_sign_matrix)
from wildbregman.errors import RejectedInputError, SolveError
from wildbregman.geometry import Box
from wildbregman.potentials import builtin_loss
from wildbregman.trainers import LinearTrainer, SaturatedTrainer
from wildbregman.wildfit import (WildRefitResult, calibrate_rho,
                                 wild_optimism, wild_refit)

from conftest import box


def clamped_instance(rng, n=40, d=2, b=0.4):
    """Saturated squared_l2 setup where the box truncates, so residues
    are nonzero."""
    loss = builtin_loss("squared_l2", d)
    cset = box(d, b)
    Y = rng.uniform(-2 * b, 2 * b, size=(n, d))
    data = FixedDesignDataset(None, Y)
    trainer = SaturatedTrainer(loss, cset)
    return loss, cset, trainer, data


def test_rho_must_be_positive(rng):
    loss, cset, trainer, data = clamped_instance(rng)
    with pytest.raises(RejectedInputError):
        wild_refit(loss, cset, trainer, data, 0.0, seed=0)


def test_wild_response_identity_no_clipping(rng):
    loss, cset, trainer, data = clamped_instance(rng)
    res = wild_refit(loss, cset, trainer, data, 0.7, seed=3)
    # reconstruction up to one rounding of the subtract-then-add pair
    recon = res.wild_responses + 0.7 * res.signs * res.residues
    assert np.max(np.abs(recon - res.fhat.values)) <= 1e-15
    assert res.clip_count == 0


def test_sign_flip_symmetry(rng):
    loss, cset, trainer, data = clamped_instance(rng)
    res = wild_refit(loss, cset, trainer, data, 1.0, seed=5)
    flipped = res.fhat.values - 1.0 * (-res.signs) * (-res.residues)
    assert np.array_equal(flipped, res.wild_responses)


def test_rho_to_zero_contracts_radius(rng):
    loss, cset, trainer, data = clamped_instance(rng)
    radii = [wild_refit(loss, cset, trainer, data, rho, seed=1).radius
             for rho in (1.0, 0.1, 0.01)]
    assert radii[2] < radii[1] < radii[0]
    assert radii[2] < 1e-2 * radii[0] * 10


def test_fixed_seed_bit_identical(rng):
    loss, cset, trainer, data = clamped_instance(rng)
    a = wild_refit(loss, cset, trainer, data, 0.5, seed=9)
    b = wild_refit(loss, cset, trainer, data, 0.5, seed=9)
    assert np.array_equal(a.fdiamond.values, b.fdiamond.values)
    assert np.array_equal(a.wild_responses, b.wild_responses)


def test_clipping_for_restricted_domain(rng):
    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.1)
    # constraint set tighter than the domain, so residues are nonzero
    cset = Box(np.array([0.3]), np.array([0.7]))
    trainer = SaturatedTrainer(loss, cset)
    Y = rng.uniform(0.1, 0.9, size=(30, 1))
    data = FixedDesignDataset(None, Y)
    # large rho pushes wild responses out of [0.1, 0.9]
    res = wild_refit(loss, cset, trainer, data, 50.0, seed=2)
    assert res.clip_count > 0
    assert loss.domain.contains(res.wild_responses)


def test_wild_optimism_zero_residues():
    loss = builtin_loss("squared_l2", 1)
    n = 10
    F = PredictionMatrix(np.zeros((n, 1)))
    res = WildRefitResult(fhat=F, fdiamond=F, wild_responses=np.zeros((n, 1)),
                          residues=np.zeros((n, 1)),
                          signs=sample_sign_matrix(n, 1, 0), rho=1.0,
                          discrepancy=0.0)
    assert wild_optimism(loss, res) == 0.0


def test_wild_optimism_closed_form_interior():
    # with fdiamond = wild responses (exact interior refit) the three terms
    # collapse to (3 rho / 2) mean ||eps (.) residues||^2
    rng = np.random.default_rng(4)
    loss = builtin_loss("squared_l2", 2)
    n, rho = 25, 0.8
    fhat = rng.uniform(-1, 1, size=(n, 2))
    residues = rng.uniform(-0.5, 0.5, size=(n, 2))
    signs = sample_sign_matrix(n, 2, 11)
    ywild = fhat - rho * signs * residues
    res = WildRefitResult(fhat=PredictionMatrix(fhat),
                          fdiamond=PredictionMatrix(ywild),
                          wild_responses=ywild, residues=residues,
                          signs=signs, rho=rho, discrepancy=float(
                              np.mean(loss.divergence_rows(fhat, ywild))))
    z = signs * residues
    expect = 1.5 * rho * float(np.mean(np.sum(z * z, axis=1)))
    assert wild_optimism(loss, res) == pytest.approx(expect, rel=1e-12)


def test_calibrate_requires_positive_target(rng):
    loss, cset, trainer, data = clamped_instance(rng)
    with pytest.raises(RejectedInputError):
        calibrate_rho(loss, trainer, data,
                      wild_refit(loss, cset, trainer, data, 1.0, seed=0), 0.0)


def test_calibrate_hits_target(rng):
    loss, cset, trainer, data = clamped_instance(rng, n=60)
    probe = wild_refit(loss, cset, trainer, data, 1.0, seed=0)
    target = 0.8 * probe.radius
    out = calibrate_rho(loss, trainer, data, probe, target)
    assert abs(out["achieved_radius"] - target) <= 1e-3 * target
    assert out["result"].rho == out["rho"]


def test_calibrate_fixed_point_at_rho_one(rng):
    loss, cset, trainer, data = clamped_instance(rng, n=60)
    probe = wild_refit(loss, cset, trainer, data, 1.0, seed=0)
    out = calibrate_rho(loss, trainer, data, probe, probe.radius)
    assert out["rho"] == pytest.approx(1.0, rel=2e-3)


def test_calibrate_linear_trainer(rng):
    loss = builtin_loss("squared_l2", 1)
    cset = box(1, 10.0)
    X = rng.uniform(-1, 1, size=(50, 2))
    Y = X @ rng.normal(size=(2, 1)) * 0.4 + 0.2 * rng.normal(size=(50, 1))
    data = FixedDesignDataset(X, Y)
    trainer = LinearTrainer(loss, cset)
    probe = wild_refit(loss, cset, trainer, data, 1.0, seed=1)
    target = 1.7 * probe.radius
    out = calibrate_rho(loss, trainer, data, probe, target)
    assert abs(out["achieved_radius"] - target) <= 1e-3 * target


def test_calibrate_unreachable_target_errors(rng):
    # saturated refit radius is bounded by the box, so a huge target
    # cannot be bracketed
    loss, cset, trainer, data = clamped_instance(rng)
    with pytest.raises(SolveError):
        calibrate_rho(loss, trainer, data,
                      wild_refit(loss, cset, trainer, data, 1.0, seed=0), 1e6)


def test_calibrate_analytic_rho_saturated(rng):
    # while no perturbed coordinate reaches the opposite wall, the radius
    # map is linear: radius(rho) = rho * c over the inward-pushed entries
    loss, cset, trainer, data = clamped_instance(rng, n=80, b=1.0)
    fhat = trainer.fit(None, data.responses)
    residues = data.responses - fhat
    signs = sample_sign_matrix(data.n, data.d, 6)
    pushed_in = (signs * residues) * np.sign(fhat) > 0
    c = np.sqrt(np.sum((residues * pushed_in) ** 2) / (2 * data.n))
    target = 0.05
    out = calibrate_rho(loss, trainer, data,
                        wild_refit(loss, cset, trainer, data, 1.0, seed=6), target)
    assert out["rho"] == pytest.approx(target / c, rel=1e-3)


def _assert_same_result(a, b):
    assert a.rho == b.rho and a.clip_count == b.clip_count
    for name in ("fhat", "fdiamond"):
        assert np.array_equal(getattr(a, name).values, getattr(b, name).values)
    assert np.array_equal(a.signs, b.signs)
    assert np.array_equal(a.wild_responses, b.wild_responses)
    assert np.array_equal(a.residues, b.residues)


def test_calibrated_result_is_wild_refit_at_rho(rng):
    # squared_l2 on a truncating box (no clipping), started at rho = 1 and at
    # rho = 3, and sqrt_bernoulli pushed out of its domain (clipped wild
    # responses): calibration's result must be the wild refit at the rho it
    # returns, bit for bit, and its first point is the start itself
    loss, cset, trainer, data = clamped_instance(rng, n=60)
    probe = wild_refit(loss, cset, trainer, data, 1.0, seed=4)
    target = 0.8 * probe.radius
    for start in (probe, wild_refit(loss, cset, trainer, data, 3.0, seed=4)):
        out = calibrate_rho(loss, trainer, data, start, target)
        assert out["trace"][0] == (start.rho, start.radius)
        _assert_same_result(
            out["result"], wild_refit(loss, cset, trainer, data, out["rho"], seed=4))

    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.1)
    cset = Box(np.array([0.3]), np.array([0.7]))
    trainer = SaturatedTrainer(loss, cset)
    data = FixedDesignDataset(None, rng.uniform(0.1, 0.9, size=(40, 1)))
    target = wild_refit(loss, cset, trainer, data, 20.0, seed=8).radius
    out = calibrate_rho(loss, trainer, data,
                        wild_refit(loss, cset, trainer, data, 1.0, seed=8), target)
    assert out["result"].clip_count > 0
    _assert_same_result(out["result"],
                        wild_refit(loss, cset, trainer, data, out["rho"], seed=8))


def test_calibrate_linear_no_clip_takes_two_steps(rng):
    # least squares on a box it never reaches: fdiamond is linear in rho, so
    # the slope-1 step from rho = 1 lands on the target
    loss = builtin_loss("squared_l2", 2)
    cset = box(2, 100.0)
    X = rng.uniform(-1, 1, size=(70, 3))
    Y = X @ rng.normal(size=(3, 2)) + 0.3 * rng.normal(size=(70, 2))
    data = FixedDesignDataset(X, Y)
    trainer = LinearTrainer(loss, cset)
    probe = wild_refit(loss, cset, trainer, data, 1.0, seed=3)
    for factor in (0.01, 2.5, 400.0):
        target = factor * probe.radius
        out = calibrate_rho(loss, trainer, data, probe, target)
        assert len(out["trace"]) <= 2
        assert abs(out["achieved_radius"] - target) <= wildfit._TOL_REL * target
        _assert_same_result(out["result"],
                            wild_refit(loss, cset, trainer, data, out["rho"], seed=3))


@pytest.mark.parametrize("rho_star", [0.05, 3.0, 40.0])
def test_calibrate_clipped_maps_hit_target(rng, rho_star):
    # saturated squared_l2 clamped by its box, and sqrt_bernoulli with wild
    # responses pulled back into its domain: the radius map bends, and the
    # search still hits the target with the wild refit's own result
    sat = clamped_instance(rng, n=60)
    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.1)
    cset = Box(np.array([0.3]), np.array([0.7]))
    bern = (loss, cset, SaturatedTrainer(loss, cset),
            FixedDesignDataset(None, rng.uniform(0.1, 0.9, size=(40, 1))))
    for loss, cset, trainer, data in (sat, bern):
        target = wild_refit(loss, cset, trainer, data, rho_star,
                            seed=2).radius
        out = calibrate_rho(loss, trainer, data,
                            wild_refit(loss, cset, trainer, data, 1.0, seed=2),
                            target)
        assert abs(out["achieved_radius"] - target) <= wildfit._TOL_REL * target
        assert len(out["trace"]) <= 10
        _assert_same_result(out["result"],
                            wild_refit(loss, cset, trainer, data, out["rho"], seed=2))


def test_calibrate_step_cap_raises_with_trace(rng, monkeypatch):
    # the clamped saturated map takes 8 or 9 radius evaluations to reach a
    # target at rho = 40: with a budget of 4 the search stops after the 4th
    loss, cset, trainer, data = clamped_instance(rng, n=60)
    target = wild_refit(loss, cset, trainer, data, 40.0, seed=2).radius
    start = wild_refit(loss, cset, trainer, data, 1.0, seed=2)
    monkeypatch.setattr(wildfit, "_MAX_STEPS", 4)
    with pytest.raises(SolveError, match="tolerance in 4 steps") as err:
        calibrate_rho(loss, trainer, data, start, target)
    assert len(err.value.trace) == 4
    assert err.value.trace[0] == (1.0, start.radius)


class _JumpTrainer:
    """Fits 0 until some response leaves [-1, 1], then every response
    exactly: the wild radius jumps from 0 to c / max|y| at rho = 1 / max|y|."""

    def fit(self, X, Y):
        return Y if np.max(np.abs(Y)) > 1.0 else 0.0 * Y


def test_calibrate_radius_jump_raises_with_trace(rng):
    loss = builtin_loss("squared_l2", 1)
    Y = rng.uniform(-0.5, 0.5, size=(30, 1))
    data = FixedDesignDataset(None, Y)
    jump = np.sqrt(0.5 * np.mean(Y ** 2)) / np.max(np.abs(Y))
    start = wild_refit(loss, box(1, 10.0), _JumpTrainer(), data, 1.0, seed=0)
    with pytest.raises(SolveError) as err:
        calibrate_rho(loss, _JumpTrainer(), data, start, 0.5 * jump)
    assert len(err.value.trace) > 0


def test_calibrate_refuses_start_of_other_data(rng):
    # the search continues start's fit and signs, so start must be a wild
    # refit of the same responses
    loss, cset, trainer, data = clamped_instance(rng)
    for other in (FixedDesignDataset(None, -data.responses),
                  FixedDesignDataset(None, data.responses[:-1])):
        start = wild_refit(loss, cset, trainer, other, 1.0, seed=0)
        with pytest.raises(RejectedInputError):
            calibrate_rho(loss, trainer, data, start, start.radius)


class _BadOutputTrainer:
    """A wrapped trainer whose fit number `bad_call` returns `bad` of its
    output."""

    def __init__(self, trainer, bad_call, bad):
        self.trainer, self.bad_call, self.bad, self.calls = (
            trainer, bad_call, bad, 0)

    def fit(self, X, Y):
        self.calls += 1
        F = self.trainer.fit(X, Y)
        return self.bad(F) if self.calls == self.bad_call else F


@pytest.mark.parametrize("bad", [lambda F: F[:-1], lambda F: F.T,
                                 lambda F: F[:, 0], lambda F: F * np.nan],
                         ids=["short", "transposed", "1-d", "nan"])
@pytest.mark.parametrize("bad_call, stage", [(1, "initial fit"), (2, "refit")])
def test_trainer_output_refused_with_its_stage(rng, bad, bad_call, stage):
    # trainer output enters at one checked place: a finite 2-d array of the
    # responses' shape, or RejectedInputError naming the stage
    loss, cset, trainer, data = clamped_instance(rng)
    bad_trainer = _BadOutputTrainer(trainer, bad_call, bad)
    with pytest.raises(RejectedInputError, match=rf"^\[{stage}\] "):
        wild_refit(loss, cset, bad_trainer, data, 1.0, seed=0)
