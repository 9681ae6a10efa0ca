import math

import numpy as np
import pytest

from wildbregman.complexity import (ball_sup, deviation_term,
                                    fixed_point_radius, pilot_sup,
                                    rhat_bound_convex, wn)
from wildbregman.design import PredictionMatrix, sample_sign_matrix
from wildbregman.errors import RejectedInputError, SolveError
from wildbregman.geometry import Box, ClippedSimplex
from wildbregman.potentials import builtin_loss
from wildbregman.trainers import SaturatedTrainer

from conftest import simplex_grid


def box(d, b):
    return Box(np.full(d, -b), np.full(d, b))


def closed_form(Z, r, n):
    return r * math.sqrt(2.0 / n) * float(np.linalg.norm(Z))


def test_wn_zero_radius(rng):
    loss = builtin_loss("squared_l2", 2)
    F = PredictionMatrix(rng.uniform(-1, 1, size=(20, 2)))
    assert wn(loss, box(2, 5.0), F, rng.normal(size=(20, 2)), 0.0) == 0.0


def test_wn_zero_perturbation(rng):
    loss = builtin_loss("squared_l2", 2)
    F = PredictionMatrix(rng.uniform(-1, 1, size=(20, 2)))
    assert wn(loss, box(2, 5.0), F, np.zeros((20, 2)), 1.0) == 0.0


def test_wn_negative_radius_rejected(rng):
    loss = builtin_loss("squared_l2", 1)
    F = PredictionMatrix(np.zeros((5, 1)))
    with pytest.raises(RejectedInputError):
        wn(loss, box(1, 5.0), F, np.ones((5, 1)), -1.0)


def test_ball_sup_rejects_center_outside_box():
    loss = builtin_loss("squared_l2", 2)
    F = PredictionMatrix(np.array([[0.0, 0.0], [0.0, 0.7]]))
    with pytest.raises(RejectedInputError):
        ball_sup(loss, box(2, 0.5), F, np.ones((2, 2)), 0.1)


@pytest.mark.filterwarnings("error")
def test_ball_sup_rejects_set_outside_domain(rng):
    # the box +-10 leaves sqrt_bernoulli's domain (0.05, 0.95)^2, where its
    # gradient is NaN: refused, as stability_constants refuses it, before
    # any value is computed
    loss = builtin_loss("sqrt_bernoulli", 2, eps0=0.05)
    inside = Box(np.full(2, 0.05), np.full(2, 0.95))
    F = PredictionMatrix(inside.project(rng.uniform(0, 1, size=(30, 2))))
    Z = rng.normal(size=(30, 2))
    assert 0 < ball_sup(loss, inside, F, Z, 3.0) < math.inf
    for sup in (ball_sup, wn):
        with pytest.raises(RejectedInputError):
            sup(loss, box(2, 10.0), F, Z, 3.0)
    with pytest.raises(RejectedInputError):
        pilot_sup(loss, box(2, 10.0), F, F, sample_sign_matrix(30, 2, 0), 3.0)


def test_wn_matches_closed_form_interior(rng):
    loss = builtin_loss("squared_l2", 3)
    n = 50
    F = PredictionMatrix(rng.uniform(-1, 1, size=(n, 3)))
    Z = rng.normal(size=(n, 3))
    for r in (0.05, 0.2, 0.5):
        got = wn(loss, box(3, 50.0), F, Z, r)
        assert got == pytest.approx(closed_form(Z, r, n), rel=1e-9)


def test_wn_box_constrained_below_closed_form(rng):
    # with a binding box the supremum cannot exceed the unconstrained bound
    loss = builtin_loss("squared_l2", 2)
    n = 40
    F = PredictionMatrix(rng.uniform(-0.4, 0.4, size=(n, 2)))
    Z = rng.normal(size=(n, 2))
    r = 2.0
    got, info = ball_sup(loss, box(2, 0.4), F, Z, r, full_output=True)
    assert info["method"] == "closed_form"
    assert got <= closed_form(Z, r, n) + 1e-12
    assert got > 0.0


def test_wn_box_closed_form_matches_dual_box(rng):
    # squared_l2 on a box has two independent exact paths, the sorted closed
    # form and the generic Lagrangian dual (strong duality holds on a box)
    from wildbregman.complexity import _sup_dual
    cases = {"binds": 0, "corner": 0, "interior": 0}
    for trial in range(120):
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 300))
        d = int(rng.integers(1, 4))
        b = float(rng.uniform(0.1, 2.0))
        loss, cset = builtin_loss("squared_l2", d), box(d, b)
        C = rng.uniform(-b, b, size=(n, d))
        if trial % 3 == 1:  # centers on a face
            on = rng.random((n, d)) < 0.4
            C[on] = b * np.sign(rng.normal(size=int(on.sum())))
        Z = rng.normal(size=(n, d))
        if trial % 4 == 2 and n > 1:  # zero rows
            Z[rng.random(n) < 0.3] = 0.0
        if not np.any(Z):
            continue
        r = float(np.exp(rng.uniform(math.log(1e-3), math.log(5.0))))
        got, info = ball_sup(loss, cset, PredictionMatrix(C), Z, r,
                             full_output=True)
        assert info["method"] == "closed_form"
        want, dual_info, U = _sup_dual(loss, cset, C, Z, r)
        assert dual_info["method"] == "dual_box"
        assert got == pytest.approx(want, rel=1e-12)
        on_face = np.isclose(np.abs(C - U), np.where(Z > 0, C + b, b - C))
        if float(np.sum((C - U) ** 2)) < 2.0 * n * r * r * (1.0 - 1e-9):
            cases["corner"] += 1
        elif not np.any(on_face & (Z != 0)):
            cases["interior"] += 1
            assert got == pytest.approx(closed_form(Z, r, n), rel=1e-12)
        else:
            cases["binds"] += 1
    assert min(cases.values()) >= 10, cases


def test_dual_box_gap_certified_sqrt_bernoulli(rng):
    # the returned weak-duality value dominates its feasible primal value
    from wildbregman.complexity import _ball_value, _objective, _sup_dual
    loss = builtin_loss("sqrt_bernoulli", 2, eps0=0.05)
    for lo, hi in [(0.1, 0.9), (0.25, 0.75), (0.4, 0.6)]:
        cset = Box(np.full(2, lo), np.full(2, hi))
        C = rng.uniform(lo, hi, size=(200, 2))
        Z = rng.normal(scale=0.3, size=(200, 2))
        for r in (0.01, 0.05, 0.2):
            q, info, U = _sup_dual(loss, cset, C, Z, r)
            assert info["method"] == "dual_box"
            assert np.all(cset.contains_rows(U, tol=0.0))
            assert _ball_value(loss, C, U) <= r * r
            assert q - info["gap"] == pytest.approx(_objective(loss, C, U, Z),
                                                    rel=1e-12)
            assert 0.0 <= info["gap"] <= 1e-9 * q


def _check_dual_against_grid(loss, cset, c, z, r, G, h):
    """n = 1: the grid maximum over the feasible set never exceeds the dual
    value, and the dual value minus its gap (a feasible primal value) is
    within the grid's resolution of the grid maximum.  The resolution is
    bounded by Lipschitz constants: every feasible u has a grid point g with
    |g - u| <= h, so f(u) <= f(g) + Lf h and B(g) <= r^2 + LB h."""
    from wildbregman.complexity import _sup_dual
    val, info, _ = _sup_dual(loss, cset, c, z, r)
    assert info["method"] == "dual_simplex"
    hmax = 1.0 / cset.eta0 if loss.kind == "clipped_simplex_kl" else 1.0
    g = loss.gradient
    f = np.sum((g(c) - g(G)) * z, axis=1)
    B = loss._div_raw(np.broadcast_to(c, G.shape), G)
    Lf = hmax * float(np.linalg.norm(z))
    LB = hmax * cset.diameter()
    grid_max = float(np.max(f[B <= r * r]))
    grid_max_wide = float(np.max(f[B <= r * r + LB * h]))
    assert grid_max <= val + 1e-12
    assert val - info["gap"] <= grid_max_wide + Lf * h + 1e-12
    assert info["gap"] >= 0.0
    return info["gap"]


def test_dual_simplex_brute_force_oracle():
    rng = np.random.default_rng(77)
    eta0 = 0.1
    for d, N in ((2, 20000), (3, 600)):
        cset = ClippedSimplex(eta0, d)
        G, h = simplex_grid(eta0, d, N)
        for loss in (builtin_loss("clipped_simplex_kl", d, eta0=eta0),
                     builtin_loss("squared_l2", d)):
            for _ in range(6):
                c = cset.project(rng.dirichlet(np.ones(d)))[None, :]
                z = rng.normal(size=(1, d))
                r = float(rng.uniform(0.2, 0.5))
                _check_dual_against_grid(loss, cset, c, z, r, G, h)


def test_dual_simplex_single_row_gap_still_bounds():
    # one KL row is not convex in mirror coordinates: the argmax jumps to a
    # vertex at the critical multiplier, leaving a real duality gap; the
    # returned value must still dominate every feasible grid point
    cset = ClippedSimplex(0.1, 3)
    loss = builtin_loss("clipped_simplex_kl", 3, eta0=0.1)
    G, h = simplex_grid(0.1, 3, 600)
    c = np.array([[0.221, 0.607, 0.172]])
    z = np.array([[1.52, 1.226, 0.448]])
    assert _check_dual_against_grid(loss, cset, c, z, 0.552, G, h) > 0.1


@pytest.mark.parametrize("kind", ["clipped_simplex_kl", "squared_l2"])
def test_dual_simplex_primal_feasible_and_tight(kind):
    from wildbregman.complexity import _ball_value, _sup_dual
    rng = np.random.default_rng(5)
    loss = builtin_loss(kind, 3, eta0=0.1) if kind != "squared_l2" \
        else builtin_loss(kind, 3)
    cset = ClippedSimplex(0.1, 3)
    C = cset.project(rng.dirichlet(np.ones(3), 200))
    Z = rng.normal(scale=0.2, size=(200, 3))
    for r in (0.02, 0.05, 0.2):
        val, info, U = _sup_dual(loss, cset, C, Z, r)
        assert info["method"] == "dual_simplex"
        assert np.all(cset.contains_rows(U, tol=1e-12))
        assert _ball_value(loss, C, U) <= r * r
        assert 0.0 <= info["gap"] <= 1e-9 * val
        assert ball_sup(loss, cset, PredictionMatrix(C), Z, r) == val


def _simplex_repro(kind="clipped_simplex_kl"):
    """KL (or squared_l2) on ClippedSimplex(0.1, 3) with a projected center
    C and a Gaussian perturbation Z, 50 rows each."""
    cset = ClippedSimplex(0.1, 3)
    loss = builtin_loss(kind, 3, eta0=0.1) if kind != "squared_l2" \
        else builtin_loss(kind, 3)
    C = cset.project(np.random.default_rng(1).uniform(0, 1, (50, 3)))
    Z = np.random.default_rng(2).normal(size=(50, 3))
    return loss, cset, C, Z


# rounding floor of the projected center's ball value: no multiplier is
# feasible once r^2 lies below it
_BALL_VALUE_FLOOR = {"clipped_simplex_kl": 1.3e-32, "squared_l2": 2e-33}


@pytest.mark.parametrize("kind, r", [("clipped_simplex_kl", 1e-9),
                                     ("clipped_simplex_kl", 1e-12),
                                     ("clipped_simplex_kl", 1e-17),
                                     ("squared_l2", 1e-17),
                                     ("clipped_simplex_kl", 1e-250)])
def test_dual_below_rounding_floor_still_bounds(kind, r):
    # At every tiny radius the dual returns a true upper bound with a finite,
    # non-negative gap.  Below the rounding floor the dual must fall back to
    # the set-wide bound, not to q at a huge infeasible multiplier, which is
    # hugely negative.  Above it (KL at r = 1e-9, 1e-12, since the KL
    # divergence no longer cancels) it finds a feasible multiplier.
    from wildbregman.complexity import _ball_value, _sup_dual
    loss, cset, C, Z = _simplex_repro(kind)
    q, info, U = _sup_dual(loss, cset, C, Z, r)
    assert q >= 0.0
    assert math.isfinite(info["gap"]) and info["gap"] >= 0.0
    if r * r < _BALL_VALUE_FLOOR[kind]:
        assert np.array_equal(U, C)
        # the bound is the supremum over the whole set, so it dominates the
        # supremum over any larger ball
        assert q >= ball_sup(loss, cset, PredictionMatrix(C), Z, 0.5)
        return
    # the ball supremum scales like r, so q / r matches its value at
    # r = 1e-6.  The gap is limited by the rounding of U - C (about 1e-17 on
    # a step of r), 8e-7 q at r = 1e-12
    assert not np.array_equal(U, C)
    assert _ball_value(loss, C, U) <= r * r
    assert info["gap"] <= 1e-5 * q
    q_ref = _sup_dual(loss, cset, C, Z, 1e-6)[0]
    assert q / r == pytest.approx(q_ref / 1e-6, rel=1e-4)


def test_ball_sup_unsupported_pair_raises():
    loss = builtin_loss("sqrt_bernoulli", 3, eps0=0.05)
    cset = ClippedSimplex(0.1, 3)
    C = PredictionMatrix(np.full((4, 3), 1.0 / 3.0))
    with pytest.raises(RejectedInputError):
        ball_sup(loss, cset, C, np.ones((4, 3)), 0.1)


def test_wn_monotone_in_radius(rng):
    for kind, kwargs, b in [("squared_l2", {}, 0.5),
                            ("sqrt_bernoulli", {"eps0": 0.1}, None)]:
        loss = builtin_loss(kind, 2, **kwargs)
        cset = box(2, b) if b else Box(np.full(2, 0.1), np.full(2, 0.9))
        C = cset.project(rng.uniform(-1, 1, size=(30, 2)))
        F = PredictionMatrix(C)
        Z = rng.normal(size=(30, 2))
        vals = [wn(loss, cset, F, Z, r) for r in np.geomspace(0.01, 1.0, 6)]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(vals, vals[1:]))


def test_scale_concavity_squared_l2(rng):
    # W_n(v)/v <= W_n(c0 u)/u for v >= u, c0 = 1 for squared_l2
    loss = builtin_loss("squared_l2", 2)
    cset = box(2, 0.4)
    C = rng.uniform(-0.4, 0.4, size=(40, 2))
    F = PredictionMatrix(C)
    Z = rng.normal(size=(40, 2))
    grid = np.geomspace(0.01, 2.0, 10)
    ratios = [wn(loss, cset, F, Z, r) / r for r in grid]
    for i, u in enumerate(grid):
        for j in range(i, len(grid)):
            assert ratios[j] <= ratios[i] + 1e-8


def test_oracle_variants_consistency(rng):
    # the process with the true noise, Z = eps (.) W, and its un-symmetrized
    # form, Z = W
    loss = builtin_loss("squared_l2", 2)
    cset = box(2, 5.0)
    n = 30
    F = PredictionMatrix(rng.uniform(-1, 1, size=(n, 2)))
    W = rng.uniform(-0.5, 0.5, size=(n, 2))
    eps = sample_sign_matrix(n, 2, 3)
    r = 0.3
    # Z_n^eps >= 0 always (the center is feasible)
    assert wn(loss, cset, F, eps * W, r) >= 0.0
    assert wn(loss, cset, F, W, r) == pytest.approx(closed_form(W, r, n),
                                                    rel=1e-12)


def test_lemma_e1_oracle_saturated(rng):
    # noiseless-fit radius squared is at most the un-symmetrized process at
    # that radius, for the (non-expansive) clamp trainer
    loss = builtin_loss("squared_l2", 2)
    cset = box(2, 0.4)
    trainer = SaturatedTrainer(loss, cset)
    for seed in range(10):
        r2 = np.random.default_rng(seed)
        F = r2.uniform(-0.6, 0.6, size=(50, 2))
        W = r2.uniform(-0.3, 0.3, size=(50, 2))
        fdag = trainer.fit(None, F)
        fhat = trainer.fit(None, F + W)
        r_hat = math.sqrt(float(np.mean(loss.divergence_rows(fdag, fhat))))
        if r_hat == 0.0:
            continue
        zn = wn(loss, cset, PredictionMatrix(fdag), W, r_hat)
        assert r_hat ** 2 <= zn + 1e-9


def test_pilot_error_zero_when_exact(rng):
    loss = builtin_loss("squared_l2", 2)
    F = PredictionMatrix(rng.uniform(-1, 1, size=(20, 2)))
    eps = sample_sign_matrix(20, 2, 0)
    assert pilot_sup(loss, box(2, 5.0), F, F, eps, 3.0 * loss.c0 * 0.5) == 0.0


def test_pilot_error_closed_form(rng):
    loss = builtin_loss("squared_l2", 2)
    n = 30
    F = PredictionMatrix(rng.uniform(-0.5, 0.5, size=(n, 2)))
    G = PredictionMatrix(rng.uniform(-0.5, 0.5, size=(n, 2)))
    eps = sample_sign_matrix(n, 2, 1)
    r = 0.1
    Z = eps * (F.values - G.values)
    expect = closed_form(Z, 3.0 * loss.c0 * r, n)
    got = pilot_sup(loss, box(2, 100.0), F, G, eps, 3.0 * loss.c0 * r)
    assert got == pytest.approx(expect, rel=1e-9)


def test_deviation_term_substitution():
    loss = builtin_loss("squared_l2", 1)
    # alpha=beta=1, misspec=0, r=1, w_inf=1, d=1, n=100, delta=e^-1
    assert deviation_term(loss, 0.0, 1.0, 1.0, 100, 1,
                          math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)


def test_deviation_term_zero_case():
    loss = builtin_loss("squared_l2", 1)
    assert deviation_term(loss, 0.0, 0.0, 1.0, 100, 1, 0.1) == 0.0


def test_deviation_term_root_n_scaling():
    loss = builtin_loss("squared_l2", 1)
    a = deviation_term(loss, 0.5, 1.0, 1.0, 100, 2, 0.01)
    b = deviation_term(loss, 0.5, 1.0, 1.0, 200, 2, 0.01)
    assert b == pytest.approx(a / math.sqrt(2.0), rel=1e-12)


def test_deviation_term_rejects_bad_delta():
    loss = builtin_loss("squared_l2", 1)
    with pytest.raises(RejectedInputError):
        deviation_term(loss, 0.0, 1.0, 1.0, 100, 1, 1.5)


def test_fixed_point_radius_zero_process():
    delta, n = math.exp(-9.0), 100
    r = fixed_point_radius(lambda s: 0.0, delta, n, r_max=10.0)
    assert r == pytest.approx(9.0 / math.sqrt(n))


def test_fixed_point_radius_analytic_root():
    # linear evaluator W(s) = k s gives condition r^2 >= k (2+1/log) r,
    # i.e. root r* = k (2 + 1/log(1/delta))
    delta, n = math.exp(-10.0), 400
    k = 0.5  # root k (2 + 1/log) must exceed the grid floor log(1/delta)/sqrt(n)
    factor = 2.0 + 1.0 / 10.0
    r_star = k * factor
    r = fixed_point_radius(lambda s: k * s, delta, n, r_max=10.0)
    assert r == pytest.approx(r_star, rel=1e-4)
    assert r * r >= k * factor * r - 1e-12


def test_fixed_point_radius_rejects_large_delta():
    with pytest.raises(RejectedInputError):
        fixed_point_radius(lambda s: 0.0, 0.05, 100, r_max=10.0)


def test_fixed_point_radius_unbounded():
    with pytest.raises(SolveError):
        fixed_point_radius(lambda s: 100.0 + s, math.exp(-9.0), 100, r_max=5.0)


def test_rhat_bound_zero_process_floor():
    loss = builtin_loss("squared_l2", 1)
    delta, n = math.exp(-9.0), 100
    r_dia = 0.2
    r = rhat_bound_convex(lambda s: 0.0, r_dia, delta, n, 0.0, 1, 0.0, loss)
    # with W == 0, w_inf = 0, pilot = 0 the inequality r^2 <= floor gives
    # the largest admissible r = sqrt(max(r_dia^2, log(1/delta)^2/n))
    expect = max(r_dia, 9.0 / math.sqrt(n))
    assert r == pytest.approx(expect, rel=1e-3)


def _counted(W):
    calls = []

    def evaluator(s):
        calls.append(s)
        return W(s)
    return evaluator, calls


def test_radius_solver_values_and_wn_calls_pinned():
    # analytic processes W(s) = k s: each solver's value and its number of
    # W_n calls are pinned, so a change to the shared grid-and-bisect search
    # shows up as a count
    loss = builtin_loss("squared_l2", 1)
    # fixed point: r^2 >= k (2 + 1/10) r has root r* = 1.05 (k = 0.5)
    ev, calls = _counted(lambda s: 0.5 * s)
    r = fixed_point_radius(ev, math.exp(-10.0), 400, r_max=10.0)
    assert 1.05 <= r <= 1.05 * (1.0 + 1e-4)
    assert r == pytest.approx(1.0500045507080085, rel=1e-12)
    assert len(calls) == 19
    ev, calls = _counted(lambda s: 100.0 + s)
    with pytest.raises(SolveError):
        fixed_point_radius(ev, math.exp(-9.0), 100, r_max=5.0)
    assert len(calls) == 19
    # convex class, w_inf = 0, pilot p: with a = k (2 + 1/3) / r_dia = 0.7
    # the inequality r^2 <= a r^2 + p binds at r* = sqrt(p / (1 - a))
    ev, calls = _counted(lambda s: 0.03 * s)
    r = rhat_bound_convex(ev, 0.1, math.exp(-9.0), 10000, 0.0, 1, 0.03, loss)
    r_star = math.sqrt(0.03 / 0.3)
    assert r_star * (1.0 - 1e-4) <= r <= r_star
    assert r == pytest.approx(0.31622242683760793, rel=1e-12)
    assert len(calls) == 176
    # a = 7/6 >= 1: the inequality holds at every r and the bound diverges
    ev, calls = _counted(lambda s: 0.05 * s)
    with pytest.raises(SolveError) as err:
        rhat_bound_convex(ev, 0.1, math.exp(-9.0), 10000, 0.0, 1, 0.03, loss)
    assert len(calls) == 185
    assert len(err.value.trace) == 184 and all(ok for _, ok in err.value.trace)


def test_rhat_bound_rejects_negative_noise_and_pilot():
    loss = builtin_loss("squared_l2", 1)
    # NaN compares False with 0, so a bare `< 0` test would let it through
    for w_inf, pilot in ((-0.1, 0.0), (0.0, -0.1), (0.0, math.nan),
                         (math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(RejectedInputError):
            rhat_bound_convex(lambda s: 0.0, 0.2, math.exp(-9.0), 100, w_inf,
                              1, pilot, loss)


def test_rhat_bound_covers_oracle_radius(rng):
    # Monte Carlo: the data-driven bound dominates the oracle noiseless
    # radius on clamped saturated instances
    loss = builtin_loss("squared_l2", 2)
    cset = box(2, 0.4)
    trainer = SaturatedTrainer(loss, cset)
    delta = math.exp(-9.0)
    hits = total = 0
    for seed in range(60):
        r2 = np.random.default_rng(seed)
        F = r2.uniform(-0.6, 0.6, size=(60, 2))
        W = r2.uniform(-0.3, 0.3, size=(60, 2))
        Y = F + W
        fhat = PredictionMatrix(trainer.fit(None, Y))
        fdag = trainer.fit(None, F)
        r_hat = math.sqrt(float(np.mean(loss.divergence_rows(fdag,
                                                             fhat.values))))
        eps = sample_sign_matrix(60, 2, seed + 1)
        Z = eps * (Y - fhat.values)
        rho = 1.0
        fdia = trainer.fit(None, fhat.values - rho * Z)
        r_dia = math.sqrt(float(np.mean(loss.divergence_rows(fhat.values,
                                                             fdia))))
        if r_dia == 0.0:
            continue
        pilot = pilot_sup(loss, cset, fhat, PredictionMatrix(F), eps,
                          3.0 * loss.c0 * r_hat)
        bound = rhat_bound_convex(
            lambda s: wn(loss, cset, fhat, Z, s), r_dia, delta, 60,
            float(np.max(np.abs(W))), 2, pilot, loss)
        total += 1
        hits += bound >= r_hat
    assert total >= 50
    assert hits / total >= 1.0 - 4.0 * delta - 0.1
