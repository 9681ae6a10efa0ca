import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildbregman.complexity import (_walk_bisect, ball_sup, deviation_term,
                                    fixed_point_radius, pilot_sup,
                                    rhat_bound_convex, wn)
from wildbregman import harness
from wildbregman.design import PredictionMatrix, sample_sign_matrix
from wildbregman.errors import RejectedInputError, SolveError
from wildbregman.geometry import Box, ClippedSimplex
from wildbregman.harness import CoverageExperiment, SyntheticSpec, run_coverage
from wildbregman.potentials import _bregman_projection, builtin_loss
from wildbregman.trainers import SaturatedTrainer

from conftest import box, simplex_grid


def closed_form(Z, r, n):
    return r * math.sqrt(2.0 / n) * float(np.linalg.norm(Z))


def max_abs(Z):
    """The max|Z| that `ball_sup` hands `_sup_dual`."""
    return float(np.max(np.abs(Z)))


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


def test_ball_sup_refuses_a_shape_mismatch():
    loss = builtin_loss("squared_l2", 2)
    F = PredictionMatrix(np.zeros((4, 2)))
    for Z in (np.ones((4, 1)), np.ones((3, 2)), np.ones(8)):
        with pytest.raises(RejectedInputError, match="shape mismatch"):
            ball_sup(loss, box(2, 0.5), F, Z, 0.1)


@pytest.mark.filterwarnings("error")
def test_ball_sup_past_the_float_range_is_inf():
    # Z = +-1e308 on 50 rows of Box(+-1e6)^2 at r = 1: the ball binds before
    # the box, and the Cauchy-Schwarz value 2e308 is past the float range
    loss = builtin_loss("squared_l2", 2)
    rng = np.random.default_rng(0)
    F = PredictionMatrix(rng.uniform(-0.5, 0.5, size=(50, 2)))
    Z = 1e308 * sample_sign_matrix(50, 2, 0)
    assert ball_sup(loss, box(2, 1e6), F, Z, 1.0) == math.inf
    assert ball_sup(loss, box(2, 1e6), F, 1e-10 * Z, 1.0) < math.inf


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
        want, dual_info, U = _sup_dual(loss, cset, C, Z, r, max_abs(Z))
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


def test_dual_box_gap_certified_sqrt_bernoulli(rng, monkeypatch):
    # the returned weak-duality value dominates its feasible primal value;
    # a solve whose ball binds evaluates at most 16 multipliers (the vanishing
    # one, the walk and the bracket's closing steps), where plain bisection
    # of the bracket to 1e-13 took 46-47 here
    from wildbregman import complexity
    from wildbregman.complexity import _ball_value, _objective, _sup_dual
    projections = []

    def counted(*args):
        projections.append(None)
        return _bregman_projection(*args)
    monkeypatch.setattr(complexity, "_bregman_projection", counted)
    loss = builtin_loss("sqrt_bernoulli", 2, eps0=0.05)
    binding = 0
    # the last setting is the bregman_radius benchmark's: n = 5000 on
    # [0.25, 0.75]^2
    for n, lo, hi, radii in [(200, 0.1, 0.9, (0.01, 0.05, 0.2)),
                             (200, 0.25, 0.75, (0.01, 0.05, 0.2)),
                             (200, 0.4, 0.6, (0.01, 0.05, 0.2)),
                             (5000, 0.25, 0.75, (0.05, 0.1, 0.2))]:
        cset = Box(np.full(2, lo), np.full(2, hi))
        C = rng.uniform(lo, hi, size=(n, 2))
        Z = rng.normal(scale=0.3, size=(n, 2))
        for r in radii:
            projections.clear()
            q, info, U = _sup_dual(loss, cset, C, Z, r, max_abs(Z))
            assert info["method"] == "dual_box"
            assert cset.contains(U, tol=0.0)
            assert _ball_value(loss, C, U) <= r * r
            assert q - info["gap"] == pytest.approx(_objective(loss, C, U, Z),
                                                    rel=1e-12)
            assert 0.0 <= info["gap"] <= 1e-9 * q
            assert len(projections) <= 16
            binding += len(projections) > 1
    assert binding >= 11


def _sup_dual_all_rows(loss, cset, center, Z, r, project=_bregman_projection):
    """`_sup_dual` evaluated on every row, as it was before it dropped the
    rows a box pins: the reference its live-row evaluation must equal."""
    from wildbregman.complexity import _ball_value, _objective
    method = "dual_box" if isinstance(cset, Box) else "dual_simplex"
    n, r2 = center.shape[0], r * r

    def at(lam):
        U = project(loss, cset, center - Z / lam)
        return U, _ball_value(loss, center, U)

    def result(lam, U, ball):
        val = _objective(loss, center, U, Z)
        q = val + lam * (r2 - ball)
        return q, {"method": method, "gap": q - val}, U

    lam_lo = 1e-150 * float(np.max(np.abs(Z)))
    U_lo, B_lo = at(lam_lo)
    if B_lo <= r2:
        return result(lam_lo, U_lo, B_lo)
    hit = []

    def excess(lam):
        U, B = at(lam)
        if B <= r2:
            hit[:] = U, B
        return B - r2

    lam = float(np.linalg.norm(Z)) / (math.sqrt(2.0 * n) * r)
    bracket = _walk_bisect(excess, lam_lo, B_lo - r2, lam, lam * 2.0 ** 200,
                           1e-13)
    if bracket is None:
        q = result(lam_lo, U_lo, B_lo)[0]
        return q, {"method": method, "gap": q}, center
    return result(bracket[1], *hit)


def _pinned_instance(rng, n, d, lo, hi):
    """Centres in [lo, hi]^d with entries on both faces, and 5e-10 either
    side of them (outside, within `contains`' tolerance), and Z with zero
    rows and entries that push both ways.  Returns (C, Z, rows expected
    pinned)."""
    C = rng.uniform(lo, hi, size=(n, d))
    where = rng.random((n, d))
    C[where < 0.3] = lo
    C[(where >= 0.3) & (where < 0.6)] = hi
    Z = rng.normal(scale=0.3, size=(n, d))
    Z[rng.random(n) < 0.2] = 0.0
    off = rng.random(n) < 0.1  # one entry of these rows 5e-10 off a face
    C[off, 0] = rng.choice([lo - 5e-10, lo + 5e-10, hi - 5e-10, hi + 5e-10],
                           size=int(off.sum()))
    stays = np.where(Z > 0, C == lo, np.where(Z < 0, C == hi,
                                              (C >= lo) & (C <= hi)))
    return C, Z, np.all(stays, axis=1)


@pytest.mark.parametrize("kind", ["sqrt_bernoulli", "squared_l2"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_dual_box_live_rows_bit_identical(rng, kind, d):
    # the dual's live-row evaluation returns the all-rows q, gap and U
    # exactly (==, not approx), pinned rows or not
    from wildbregman.complexity import _ball_value, _pinned_rows, _sup_dual
    loss = builtin_loss(kind, d)
    lo, hi = (0.25, 0.75) if kind == "sqrt_bernoulli" else (-0.5, 0.5)
    cset = Box(np.full(d, lo), np.full(d, hi))
    pinned_seen = binding = 0
    for n in (1, 7, 300):
        for r in (1e-3, 0.02, 0.1, 0.5):
            C, Z, want_pinned = _pinned_instance(rng, n, d, lo, hi)
            if not np.any(Z):
                continue
            assert cset.contains(C)
            pinned = _pinned_rows(cset, C, Z)
            assert np.array_equal(pinned, want_pinned)
            assert not np.any(pinned & np.any((C < lo) | (C > hi), axis=1))
            pinned_seen += int(pinned.sum())
            q, info, U = _sup_dual(loss, cset, C, Z, r, max_abs(Z))
            q_ref, info_ref, U_ref = _sup_dual_all_rows(loss, cset, C, Z, r)
            assert q == q_ref and info == info_ref
            assert np.array_equal(U, U_ref)
            binding += _ball_value(loss, C, U) > 0.5 * r * r
    assert pinned_seen > 0 and binding > 0
    # every nonzero z pinned: the centre, at the all-rows q
    C = np.full((6, d), lo)
    C[3:] = hi
    Z = np.zeros((6, d))
    Z[:3, 0], Z[3:, -1], Z[1] = 0.4, -0.2, 0.0
    assert np.all(_pinned_rows(cset, C, Z))
    for r in (1e-3, 0.1):
        q, info, U = _sup_dual(loss, cset, C, Z, r, max_abs(Z))
        assert np.array_equal(U, C)
        assert (q, info) == _sup_dual_all_rows(loss, cset, C, Z, r)[:2]


def test_dual_box_projects_only_live_rows(monkeypatch):
    # on a saturated fit shaped like the bregman_radius benchmark's (n = 5000
    # on [0.25, 0.75]^2), most rows are pinned: each projection takes the
    # live rows only, and the solve makes as many as the all-rows one
    from wildbregman import complexity
    rows = []

    def counted(loss, cset, A):
        rows.append(A.shape[0])
        return _bregman_projection(loss, cset, A)
    monkeypatch.setattr(complexity, "_bregman_projection", counted)
    loss = builtin_loss("sqrt_bernoulli", 2, eps0=0.05)
    cset = Box(np.full(2, 0.25), np.full(2, 0.75))
    rng = np.random.default_rng(37)
    n = 5000
    Y = rng.uniform(0.05, 0.95, size=(n, 2))
    C = cset.project(Y)
    Z = sample_sign_matrix(n, 2, 5) * (Y - C)
    live = int(np.sum(~complexity._pinned_rows(cset, C, Z)))
    assert 0.3 * n < live < 0.7 * n
    binding = 0
    for r in (0.02, 0.05, 0.1, 0.2, 0.4):
        rows.clear()
        got = complexity._sup_dual(loss, cset, C, Z, r, max_abs(Z))
        ref_rows = []
        want = _sup_dual_all_rows(
            loss, cset, C, Z, r,
            project=lambda *a: ref_rows.append(None) or _bregman_projection(*a))
        assert got[0] == want[0] and np.array_equal(got[2], want[2])
        assert rows == [live] * len(ref_rows)
        binding += len(rows) > 1
    assert binding >= 3


def test_ball_sup_refuses_non_finite_perturbation(monkeypatch):
    # an inf or NaN in Z is refused on every path before any solve, even on
    # an entry the dual would pin (centre on the face its z pushes toward)
    from wildbregman import complexity

    def no_solve(*args):
        raise AssertionError("solved a non-finite Z")
    monkeypatch.setattr(complexity, "_sup_box_sql2", no_solve)
    monkeypatch.setattr(complexity, "_sup_dual", no_solve)
    lo, hi = 0.25, 0.75
    cases = [(builtin_loss("squared_l2", 2), Box(np.full(2, lo), np.full(2, hi))),
             (builtin_loss("sqrt_bernoulli", 2), Box(np.full(2, lo), np.full(2, hi))),
             (builtin_loss("clipped_simplex_kl", 2), ClippedSimplex(0.1, 2))]
    for loss, cset in cases:
        C = np.array([[lo, hi], [0.5, 0.5], [0.3, 0.7]])
        F = PredictionMatrix(C)
        for bad in (math.inf, -math.inf, math.nan):
            Z = np.ones((3, 2))
            Z[0, 0] = bad
            for r in (0.0, 0.1):
                with pytest.raises(RejectedInputError, match="finite"):
                    ball_sup(loss, cset, F, Z, r)


def _scale_instance(kind, d):
    """n = 50 centres inside a set and a +-1 sign matrix Z (seed 0), for the
    three methods: squared_l2 on Box(+-1)^2 with centres in +-0.5 (closed
    form), sqrt_bernoulli on [0.25, 0.75]^2 with centres in [0.3, 0.7]
    (dual_box), KL on ClippedSimplex(0.1, 3) (dual_simplex)."""
    rng = np.random.default_rng(0)
    n = 50
    if kind == "squared_l2":
        loss, cset = builtin_loss(kind, d), box(d, 1.0)
        C = rng.uniform(-0.5, 0.5, size=(n, d))
    elif kind == "sqrt_bernoulli":
        loss = builtin_loss(kind, d, eps0=0.05)
        cset = Box(np.full(d, 0.25), np.full(d, 0.75))
        C = rng.uniform(0.3, 0.7, size=(n, d))
    else:
        loss, cset = builtin_loss(kind, d, eta0=0.1), ClippedSimplex(0.1, d)
        C = cset.project(rng.dirichlet(np.ones(d), n))
    Z = rng.integers(0, 2, size=(n, d)) * 2.0 - 1.0
    return loss, cset, PredictionMatrix(C), Z


_METHOD = {"squared_l2": "closed_form", "sqrt_bernoulli": "dual_box",
           "clipped_simplex_kl": "dual_simplex"}
_SCALE_KINDS = [("squared_l2", 2), ("sqrt_bernoulli", 2),
                ("clipped_simplex_kl", 3)]


@pytest.mark.parametrize("kind, d", _SCALE_KINDS)
def test_dual_is_homogeneous_in_z_down_to_tiny_perturbations(kind, d):
    # the supremum and the dual's bound are linear in Z, and ball_sup solves
    # at max|Z| in [1/2, 1): the value at Z s is s times the value at Z from
    # 1e-300 to 1e300, where the squares of Z, or 1e-150 max|Z|, under- or
    # overflow, and the dual's gap is scaled by s too
    loss, cset, F, Z = _scale_instance(kind, d)
    val, info = ball_sup(loss, cset, F, Z, 0.1, full_output=True)
    assert val > 0 and info["method"] == _METHOD[kind]
    for s in (1e-300, 1e-200, 1e-170, 1e-160, 1e155, 1e200, 1e300):
        got, got_info = ball_sup(loss, cset, F, s * Z, 0.1, full_output=True)
        assert got_info["method"] == info["method"]
        # abs=0: approx's default abs=1e-12 would pass any tiny value
        assert got == pytest.approx(s * val, rel=1e-12, abs=0.0)
        if "gap" in info:
            assert got_info["gap"] == pytest.approx(s * info["gap"],
                                                    abs=1e-12 * s * val)


@pytest.mark.parametrize("r", [1e-160, 1e-170, 1e-300, 1e-305])
def test_closed_form_is_cauchy_schwarz_at_a_radius_whose_square_underflows(r):
    # no entry saturates on this instance, so the supremum is the
    # Cauchy-Schwarz value r sqrt(2/n) ||Z||: 2 r, though 2 n r^2 underflows.
    # On the loss domain, Box(+-1e6), the rooms scaled to r = 1e-305 pass
    # the float range
    loss, cset, F, Z = _scale_instance("squared_l2", 2)
    for cset in (cset, loss.domain):
        got, info = ball_sup(loss, cset, F, Z, r, full_output=True)
        assert info["method"] == "closed_form"
        assert got / r == pytest.approx(closed_form(Z, r, 50) / r, rel=1e-12)
        assert got / r == pytest.approx(2.0, rel=1e-12)


def test_closed_form_takes_a_multiplier_whose_square_underflows():
    # an entry 1e-170 next to a saturating one: its t^2 underflows to 0 in
    # the sorted search, which takes it as clipping nowhere
    loss, cset = builtin_loss("squared_l2", 2), box(2, 1.0)
    F = PredictionMatrix(np.array([[0.99, 0.0], [0.0, 0.0]]))
    Z = np.array([[-1.0, 0.0], [1e-170, 0.0]])
    for r in (0.01, 1.0):
        # the first entry moves its room 0.01 to the face: 0.01 / n
        assert ball_sup(loss, cset, F, Z, r) == pytest.approx(0.005,
                                                              rel=1e-12)


@pytest.mark.parametrize("kind, d", _SCALE_KINDS)
def test_ball_sup_is_trivial_for_zero_perturbation_or_no_rows(kind, d):
    loss, cset, F, Z = _scale_instance(kind, d)
    empty = PredictionMatrix(np.empty((0, d)))
    for F, Z in ((F, np.zeros_like(Z)), (empty, np.empty((0, d)))):
        for r in (0.0, 0.1):
            assert ball_sup(loss, cset, F, Z, r, full_output=True) == \
                (0.0, {"method": "trivial"})


@pytest.mark.parametrize("kind, d", _SCALE_KINDS)
def test_ball_sup_refuses_a_radius_that_is_not_finite(kind, d, monkeypatch):
    from wildbregman import complexity

    def no_solve(*args):
        raise AssertionError("solved at a non-finite radius")
    monkeypatch.setattr(complexity, "_sup_box_sql2", no_solve)
    monkeypatch.setattr(complexity, "_sup_dual", no_solve)
    loss, cset, F, Z = _scale_instance(kind, d)
    for r in (math.nan, math.inf, -math.inf, -0.1):
        with pytest.raises(RejectedInputError,
                           match="radius must be finite and >= 0"):
            ball_sup(loss, cset, F, Z, r)


def _check_dual_against_grid(loss, cset, c, z, r, G, h):
    """n = 1: the grid maximum over the feasible set never exceeds the dual
    value, and the dual value minus its gap (a feasible primal value) is
    within the grid's resolution of the grid maximum.  The resolution is
    bounded by Lipschitz constants: every feasible u has a grid point g with
    |g - u| <= h, so f(u) <= f(g) + Lf h and B(g) <= r^2 + LB h."""
    from wildbregman.complexity import _sup_dual
    val, info, _ = _sup_dual(loss, cset, c, z, r, max_abs(z))
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
        val, info, U = _sup_dual(loss, cset, C, Z, r, max_abs(Z))
        assert info["method"] == "dual_simplex"
        assert cset.contains(U, tol=1e-12)
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
    q, info, U = _sup_dual(loss, cset, C, Z, r, max_abs(Z))
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
    q_ref = _sup_dual(loss, cset, C, Z, 1e-6, max_abs(Z))[0]
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
    ev, calls = _counted(lambda s: 0.0)
    r = rhat_bound_convex(ev, lambda s: 0.0, delta, n, 0.0, 1, loss,
                          r_max=10.0)
    # with W == 0, w_inf = 0, pilot = 0 the inequality r^2 <= log(1/delta)^2/n
    # holds up to the floor log(1/delta)/sqrt(n), with equality there, and
    # fails past it: the floor itself is the smallest r with r^2 >= rhs(r)
    assert r == 9.0 / math.sqrt(n)
    assert len(calls) == 1


def _counted(W):
    calls = []

    def evaluator(s):
        calls.append(s)
        return W(s)
    return evaluator, calls


def test_radius_solver_values_and_wn_calls_pinned():
    # analytic processes W(s) = k s: each solver's value and its number of
    # W_n calls are pinned, so a change to the shared walk-and-close search
    # shows up as a count
    loss = builtin_loss("squared_l2", 1)
    # fixed point: r^2 >= k (2 + 1/10) r has root r* = 1.05 (k = 0.5)
    ev, calls = _counted(lambda s: 0.5 * s)
    r = fixed_point_radius(ev, math.exp(-10.0), 400, r_max=10.0)
    assert 1.05 <= r <= 1.05 * (1.0 + 1e-4)
    assert r == pytest.approx(1.0500525022639544, rel=1e-12)
    assert len(calls) == 9
    # a process that saturates, W(s) = min(s / 2, 0.3): r* = sqrt(0.3), where
    # the margin (W - r^2) / (sqrt(W) + r) is sqrt(0.3) - r, linear in r, and
    # the walk's first point 1.0 is already ok, so the first closing step is
    # false position from the floor's margin (the margin W - r^2 took 10
    # calls, and bisecting that first step 8)
    ev, calls = _counted(lambda s: min(0.5 * s, 0.3))
    r = fixed_point_radius(ev, math.exp(-10.0), 400, r_max=10.0)
    assert math.sqrt(0.3) <= r <= math.sqrt(0.3) * (1.0 + 1e-4)
    assert r == pytest.approx(0.5477548798356364, rel=1e-12)
    assert len(calls) == 5
    ev, calls = _counted(lambda s: 100.0 + s)
    with pytest.raises(SolveError):
        fixed_point_radius(ev, math.exp(-9.0), 100, r_max=5.0)
    assert len(calls) == 4
    # convex class, W(s) = k s, w_inf = 0, pilot p: at delta = e^-9 and
    # n = 10000 the smallest r with r^2 >= rhs(r) = max(0.0081, k c r) + p,
    # c = 2 + 1/9, closed from above; the floor 0.09 is tried first, then the
    # walk starts at 2 * 0.09
    log_inv = math.log(1.0 / math.exp(-9.0))
    for k, p, r_star, want, n_calls in (
            (0.03, 0.03, 0.20774272346536313, 0.2077542854155039, 7),
            (0.5, 0.0, 19.0 / 18.0, 1.05560852684791, 10),
            (0.0, 0.5, math.sqrt(0.5081), 0.7128113354878695, 7)):
        ev, calls = _counted(lambda s: k * s)
        r = rhat_bound_convex(ev, lambda s: p, math.exp(-9.0), 10000, 0.0, 1,
                              loss, r_max=10.0)
        assert r_star <= r <= r_star * (1.0 + 1e-4)
        assert r * r >= max(log_inv ** 2 / 10000,
                            k * (2.0 + 1.0 / log_inv) * r) + p
        assert r == pytest.approx(want, rel=1e-12)
        assert len(calls) == n_calls
    # a pilot above r_max^2: r^2 >= rhs(r) fails at the floor 0.09, at every
    # point of the walk 0.18, 0.36, ..., 5.76 and at r_max itself
    ev, calls = _counted(lambda s: 0.03 * s)
    with pytest.raises(SolveError, match="r_max") as err:
        rhat_bound_convex(ev, lambda s: 1e6, math.exp(-9.0), 10000, 0.0, 1,
                          loss, r_max=10.0)
    assert len(calls) == 8 and calls[-1] == pytest.approx(10.0 * (2 + 1 / 9))
    assert len(err.value.trace) == 8
    assert not any(ok for _, ok in err.value.trace)


# a monotone process: values at increasing breakpoints, linear between them
# and constant past the last; 0 and +inf values included
_monotone_process = st.lists(
    st.tuples(st.floats(0.0, 5.0),
              st.one_of(st.floats(0.0, 20.0), st.just(0.0), st.just(math.inf))),
    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(points=_monotone_process, n=st.integers(20, 5000),
       log_inv=st.floats(9.0, 30.0), r_max=st.floats(0.5, 10.0))
def test_fixed_point_radius_meets_its_definition(points, n, log_inv, r_max):
    # every returned r lies in [floor, r_max] with r^2 >= W((2 + 1/log) r),
    # and a SolveError past the floor means the condition fails at r_max
    xs = np.cumsum([x for x, _ in points])
    ws = np.maximum.accumulate([w for _, w in points])

    def W(s):
        if s >= xs[-1]:
            return float(ws[-1])
        k = int(np.searchsorted(xs, s, side="right"))
        if k == 0:
            return float(ws[0]) * s / xs[0] if xs[0] > 0 else float(ws[0])
        lo, hi = ws[k - 1], ws[k]
        if hi == math.inf:
            return math.inf
        return float(lo + (hi - lo) * (s - xs[k - 1]) / (xs[k] - xs[k - 1]))

    delta = math.exp(-log_inv)
    factor = 2.0 + 1.0 / math.log(1.0 / delta)
    r_min = math.log(1.0 / delta) / math.sqrt(n)
    try:
        r = fixed_point_radius(W, delta, n, r_max=r_max)
    except SolveError:
        assert r_min > r_max or not r_max * r_max >= W(factor * r_max)
        return
    assert r_min <= r <= r_max
    assert r * r >= W(factor * r)


def test_fixed_point_radius_never_exceeds_r_max():
    # W(s) = s / 2 crosses at r* = 1.05, just above r_max: the walk
    # evaluates r_max itself and refuses rather than return a larger r
    ev, calls = _counted(lambda s: 0.5 * s)
    with pytest.raises(SolveError):
        fixed_point_radius(ev, math.exp(-10.0), 400, r_max=1.0)
    assert calls[-1] == pytest.approx(2.1)  # W_n at (2 + 1/10) r_max


def test_fixed_point_radius_floor_above_r_max_refused_before_wn():
    # the floor log(1/delta)/sqrt(n) = 1.3025 at n = 50 lies above r_max = 1:
    # the floor is no answer, and W_n is never evaluated
    ev, calls = _counted(lambda s: 0.0)
    with pytest.raises(SolveError, match="r_max"):
        fixed_point_radius(ev, 1e-4, 50, r_max=1.0)
    assert calls == []
    # at r_max equal to the floor, the floor itself is returned
    r_min = math.log(1e4) / math.sqrt(50)
    assert fixed_point_radius(ev, 1e-4, 50, r_max=r_min) == r_min


def _check_walk(margin, lo, x, cap, rel):
    """Run `_walk_bisect` on a counting margin and check its contract: the
    walk visits x, 2x, 4x, ... and cap last, the bracket fails at lo, holds
    at hi, lies inside the walk's last step and is at most rel hi wide, and
    closing it takes at most twice the steps plain bisection takes on that
    step.  Returns the bracket."""
    calls = []

    def counted(v):
        calls.append(v)
        return margin(v)
    out = _walk_bisect(counted, lo, math.nan, x, cap, rel)
    walk, x = [], min(x, cap)
    while lo < x:
        walk.append(x)
        if margin(x) <= 0:
            break
        lo, x = x, min(2.0 * x, cap)
    else:
        assert out is None and calls == walk and walk[-1] == cap
        return None
    assert calls[:len(walk)] == walk
    steps, a, b = 0, lo, x
    while b - a > rel * b:
        mid = 0.5 * (a + b)
        a, b = (a, mid) if margin(mid) <= 0 else (mid, b)
        steps += 1
    assert out is not None
    got_lo, got_hi = out
    assert margin(got_lo) > 0
    assert margin(got_hi) <= 0
    assert lo <= got_lo < got_hi <= x
    assert got_hi - got_lo <= rel * got_hi
    assert len(calls) <= len(walk) + 2 * steps
    return out


_WALK = dict(rel=st.floats(1e-13, 1e-2), first=st.floats(1.01, 50.0))


@given(c=st.floats(1e-3, 1e3), k=st.floats(1e-3, 1e3),
       start=st.floats(1e-6, 0.99), **_WALK)
@settings(max_examples=300, deadline=None)
def test_walk_bisect_smooth_margin(c, k, start, rel, first):
    # c / x^2 - k, the shape of the dual's ball value minus r^2 in lam
    root = math.sqrt(c / k)
    lo = start * root
    _check_walk(lambda x: c / (x * x) - k, lo, lo * first,
                lo * first * 2.0 ** 200, rel)


@given(slope=st.floats(1e-3, 1e3), root=st.floats(1e-3, 1e3),
       start=st.floats(1e-6, 0.99), **_WALK)
@settings(max_examples=300, deadline=None)
def test_walk_bisect_linear_margin(slope, root, start, rel, first):
    lo = start * root
    _check_walk(lambda x: slope * (root - x), lo, lo * first,
                lo * first * 2.0 ** 200, rel)


@given(up=st.floats(1e-3, 1e3), down=st.floats(1e-3, 1e3),
       root=st.floats(1e-3, 1e3), start=st.floats(1e-6, 0.99), **_WALK)
@settings(max_examples=300, deadline=None)
def test_walk_bisect_step_margin(up, down, root, start, rel, first):
    # the chord learns nothing about where a step function changes sign
    lo = start * root
    _check_walk(lambda x: up if x < root else -down, lo, lo * first,
                lo * first * 2.0 ** 200, rel)


@given(root=st.floats(1e-3, 1e3), spread=st.floats(0.01, 10.0),
       at=st.floats(0.0, 1.0), start=st.floats(1e-6, 0.99),
       rel=st.floats(1e-13, 1e-2))
@settings(max_examples=300, deadline=None)
def test_walk_bisect_margin_zero_on_an_interval(root, spread, at, start, rel):
    # the margin is exactly 0 on [root, top], and so at the walk's first
    # point; the walk never evaluated lo, whose margin stays unknown.  The
    # min keeps x on the interval where root + (top - root) rounds past top
    top = root * (1.0 + spread)
    x = min(root + at * (top - root), top)

    def margin(v):
        return max(root - v, 0.0) - max(v - top, 0.0)
    assert margin(x) == 0.0
    lo, hi = _check_walk(margin, start * root, x, x * 4.0, rel)
    assert lo < root <= hi


@given(c=st.floats(1e-3, 1e3), steps=st.integers(0, 60),
       off=st.floats(1.01, 1.99))
@settings(max_examples=100, deadline=None)
def test_walk_bisect_returns_none_past_cap(c, steps, off):
    # the margin stays positive up to cap, which lies off the doubling grid
    # (off > 1): every walk point and then cap is evaluated once, and
    # nothing is bracketed
    x = 1e-3
    cap = x * 2.0 ** steps * off
    root = cap * 1.5
    assert _check_walk(lambda v: c * (root - v), 1e-4, x, cap, 1e-6) is None


def test_rhat_bound_rejects_negative_noise_and_pilot():
    loss = builtin_loss("squared_l2", 1)
    ev, calls = _counted(lambda s: 0.0)
    # NaN compares False with 0, so a bare `< 0` test would let it through;
    # kappa = 6 w_inf / sqrt(9) at d = 1 reaches 1 at w_inf = 0.5, where
    # r^2 <= ... + kappa r^2 holds at every r.  Each is refused before W_n
    for w_inf, pilot in ((-0.1, 0.0), (0.0, -0.1), (0.0, math.nan),
                         (math.nan, 0.0), (0.0, math.inf), (0.5, 0.0),
                         (2.0, 0.0)):
        with pytest.raises(RejectedInputError):
            rhat_bound_convex(ev, lambda s: pilot, math.exp(-9.0), 100, w_inf,
                              1, loss, r_max=10.0)
    assert calls == []
    # at kappa = 0.9, r^2 <= 0.81 + 0.9 r^2 fails past r = sqrt(8.1)
    r = rhat_bound_convex(ev, lambda s: 0.0, math.exp(-9.0), 100, 0.45, 1,
                          loss, r_max=10.0)
    assert math.sqrt(8.1) < r <= math.sqrt(8.1) * (1.0 + 1e-4)


def test_rhat_bound_covers_oracle_radius(monkeypatch):
    # criterion 07's draws: on every one where the harness check of Theorem
    # 6.1 holds, the bound solved from the same inputs (the oracle pilot as
    # a function of the radius) is at least the noiseless radius r-hat
    seen = []
    rhs = harness._thm_6_1_rhs
    monkeypatch.setattr(harness, "_thm_6_1_rhs",
                        lambda *args: seen.append(args) or rhs(*args))
    delta = math.exp(-9.0)
    report = run_coverage(CoverageExperiment(
        theorem="thm_6_1_rhat", reps=100, delta=delta,
        spec=SyntheticSpec(n=200, d=2, seed=707),
        trainer={"kind": "saturated"}, cset_bound=0.4))
    assert report.errors == 0 and len(seen) == 100
    r_max = max(10.0 * box(2, 0.4).diameter(), 1.0)
    covered = 0
    for rec, (loss, wn_at, pilot_at, r_hat, _, n, w_inf, d) in zip(
            report.per_replication, seen):
        if rec["holds"]:
            bound = rhat_bound_convex(wn_at, pilot_at, delta, n, w_inf, d,
                                      loss, r_max=r_max)
            covered += bound >= r_hat
    assert covered == report.successes >= 95
