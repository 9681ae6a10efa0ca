import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wildbregman.complexity import ball_sup
from wildbregman.design import FixedDesignDataset, PredictionMatrix
from wildbregman.errors import RejectedInputError
from wildbregman.geometry import (Box, ClippedSimplex, _mean,
                                  _project_simplex, _row_sum, waterfill)
from wildbregman.harness import SyntheticSpec, generate_synthetic
from wildbregman.potentials import builtin_loss
from wildbregman.wildfit import wild_refit


def test_box_project_is_clamp():
    box = Box(np.array([0.0, -1.0]), np.array([1.0, 2.0]))
    z = np.array([1.5, -3.0])
    assert np.allclose(box.project(z), [1.0, -1.0])


def test_box_project_fixed_point_inside():
    box = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    z = np.array([0.3, -1.7])
    assert np.array_equal(box.project(z), z)


def test_box_contains_tolerance():
    box = Box(np.array([0.0]), np.array([1.0]))
    assert box.contains(np.array([[1.0 + 1e-12]]))
    assert not box.contains(np.array([[1.1]]))


def test_box_diameter_and_center():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
    assert box.diameter() == pytest.approx(np.sqrt(4.0 + 16.0))
    assert np.allclose(box.center(), [0.0, 2.0])


def test_box_rejects_bad_bounds():
    with pytest.raises(RejectedInputError):
        Box(np.array([1.0]), np.array([0.0]))
    # bounds of different lengths, or not 1-d
    for lo, hi in ((np.zeros(2), np.ones(3)), (np.zeros((2, 2)), np.ones((2, 2)))):
        with pytest.raises(RejectedInputError, match="1-d arrays"):
            Box(lo, hi)


def test_box_compares_and_hashes_by_identity():
    # field-wise == would compare the bound arrays, which numpy refuses
    a = Box(np.zeros(2), np.ones(2))
    b = Box(np.zeros(2), np.ones(2))
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_simplex_projection_known_value():
    cs = ClippedSimplex(eta0=0.1, dim=2)
    # nearest clipped-simplex point to (0.95, 0.05)
    assert np.allclose(cs.project(np.array([0.95, 0.05])), [0.9, 0.1])


def test_simplex_project_fixed_point():
    cs = ClippedSimplex(eta0=0.1, dim=3)
    p = np.array([0.2, 0.3, 0.5])
    assert np.allclose(cs.project(p), p, atol=1e-12)


def test_simplex_projection_matches_brute_force_2d():
    cs = ClippedSimplex(eta0=0.05, dim=2)
    # feasible set is the segment {(t, 1-t): t in [0.05, 0.95]}
    ts = np.linspace(0.05, 0.95, 200001)
    seg = np.stack([ts, 1.0 - ts], axis=1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.uniform(-1.0, 2.0, size=2)
        best = seg[np.argmin(np.sum((seg - z) ** 2, axis=1))]
        assert np.allclose(cs.project(z), best, atol=1e-4)


@pytest.mark.parametrize("scale", [1e15, 1e17, 1e300])
def test_simplex_projection_of_huge_rows(scale):
    # a single dominant coordinate: the projection is the vertex at it, and
    # the set's mass must not be lost to rounding against the row's scale
    cs = ClippedSimplex(eta0=0.1, dim=3)
    q = cs.project(np.array([[1.0, -1.0, 0.5], [-1.0, 0.5, 1.0]]) * scale)
    assert cs.contains(q, tol=1e-15)
    assert np.allclose(q, [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]], rtol=0, atol=1e-15)


def test_waterfill_matches_brute_force_2d():
    # argmax a1 log t + a2 log(1 - t) on the segment, with rows of mixed
    # sign, rows with no positive entry (a vertex) and rows with a zero
    eta0 = 0.05
    ts = np.linspace(eta0, 1.0 - eta0, 200001)
    seg = np.stack([ts, 1.0 - ts], axis=1)
    rng = np.random.default_rng(1)
    A = np.vstack([rng.uniform(-1.0, 2.0, size=(30, 2)),
                   -rng.uniform(0.0, 1.0, size=(5, 2)),
                   [[0.0, -1.0], [0.7, 0.0]]])
    U = waterfill(A, eta0)
    assert ClippedSimplex(eta0, 2).contains(U, tol=1e-12)
    for a, u in zip(A, U):
        best = seg[np.argmax(np.log(seg) @ a)]
        assert np.allclose(u, best, atol=1e-5)


def test_simplex_rejects_infeasible_floor():
    with pytest.raises(RejectedInputError):
        ClippedSimplex(eta0=0.6, dim=2)
    with pytest.raises(RejectedInputError, match="dim >= 2"):
        ClippedSimplex(eta0=0.1, dim=1)


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_simplex_projection_feasible_and_idempotent(vals):
    cs = ClippedSimplex(eta0=0.1, dim=3)
    p = cs.project(np.array(vals))
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(p >= 0.1 - 1e-9)
    assert np.allclose(cs.project(p), p, atol=1e-9)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       st.lists(st.floats(-10, 10), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_box_projection_is_nonexpansive(a, b):
    box = Box(np.array([-1.0, -2.0]), np.array([3.0, 0.5]))
    pa, pb = box.project(np.array(a)), box.project(np.array(b))
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(np.array(a) - np.array(b)) + 1e-12


# -- contains: one whole-array membership test, against its row definition --

_SETS = {
    "uniform_box": Box(np.full(2, -1.0), np.full(2, 1.0)),
    "coordinate_box": Box(np.array([0.05, -3.0, 2.0]),
                          np.array([0.95, 0.5, 2.5])),
    "simplex": ClippedSimplex(0.1, 3),
}
# entry kinds: inside, exactly at lo - tol or hi + tol, one float past them,
# and the non-finite values
_ENTRIES = ("in", "in", "at_lo", "at_hi", "past_lo", "past_hi",
            "nan", "inf", "-inf")
# edits to one coordinate of a simplex point: the floor at and past its
# tolerance, the row sum moved to about its tolerance and past it, and the
# non-finite values
_EDITS = ("none", "none", "at_floor", "past_floor", "sum_up", "sum_down",
          "sum_past", "nan", "inf", "-inf")


def _rows_by_definition(cset, Z, tol):
    """All rows of Z in the set up to tol, from the per-row definition."""
    if isinstance(cset, Box):
        ok = np.all((Z >= cset.lo - tol) & (Z <= cset.hi + tol), axis=-1)
    else:
        ok = (np.all(Z >= cset.eta0 - tol, axis=-1)
              & (np.abs(np.sum(Z, axis=-1) - 1.0) <= tol * cset.dim))
    return bool(np.all(ok))


def _box_entry(lo, hi, kind, u, tol):
    return {"in": lo + u * (hi - lo), "at_lo": lo - tol, "at_hi": hi + tol,
            "past_lo": np.nextafter(lo - tol, -np.inf),
            "past_hi": np.nextafter(hi + tol, np.inf),
            "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]


def _simplex_row(cs, weights, edit, j, tol):
    w = np.asarray(weights)
    p = cs.eta0 + cs._mass * (w / w.sum() if w.sum() > 0
                              else np.full(cs.dim, 1.0 / cs.dim))
    p[j] = {"none": p[j], "at_floor": cs.eta0 - tol,
            "past_floor": np.nextafter(cs.eta0 - tol, -np.inf),
            "sum_up": p[j] + tol * cs.dim, "sum_down": p[j] - tol * cs.dim,
            "sum_past": p[j] + 2.0 * tol * cs.dim,
            "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[edit]
    return p


@given(st.data(), st.sampled_from(sorted(_SETS)),
       st.sampled_from([1e-9, 0.0, 1e-3]), st.integers(0, 4))
@settings(max_examples=400, deadline=None)
def test_contains_matches_the_row_definition(data, name, tol, k):
    cset = _SETS[name]
    d = cset.dim
    if isinstance(cset, Box):
        Z = np.array([[_box_entry(cset.lo[j], cset.hi[j],
                                  data.draw(st.sampled_from(_ENTRIES)),
                                  data.draw(st.floats(0, 1)), tol)
                       for j in range(d)] for _ in range(k)]).reshape(k, d)
    else:
        Z = np.array([_simplex_row(cset, data.draw(st.lists(
            st.floats(0, 1), min_size=d, max_size=d)),
            data.draw(st.sampled_from(_EDITS)),
            data.draw(st.integers(0, d - 1)), tol)
            for _ in range(k)]).reshape(k, d)
    want = _rows_by_definition(cset, Z, tol)
    assert cset.contains(Z, tol=tol) is want
    if k:  # a single row, given 1-d
        assert cset.contains(Z[0], tol=tol) is _rows_by_definition(
            cset, Z[:1], tol)


@pytest.mark.parametrize("name", sorted(_SETS))
def test_contains_edge_cases(name):
    cset = _SETS[name]
    d = cset.dim
    inside = cset.center()
    assert cset.contains(np.empty((0, d)))
    assert cset.contains(np.tile(inside, (4, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        Z = np.tile(inside, (4, 1))
        Z[2, d - 1] = bad
        assert not cset.contains(Z)


@pytest.mark.parametrize("name", sorted(_SETS))
def test_project_refuses_non_finite_input(name):
    cset = _SETS[name]
    for bad in (np.nan, np.inf, -np.inf):
        Z = np.tile(cset.center(), (3, 1))
        Z[1, 0] = bad
        with pytest.raises(RejectedInputError, match="non-finite"):
            cset.project(Z)


@pytest.mark.parametrize("name", sorted(_SETS))
@pytest.mark.parametrize("width", [-1, 1])
def test_rows_of_the_wrong_width_refused(name, width):
    # a 3-d simplex took [[0.5, 0.5]] for a member and projected it to
    # [[0.45, 0.45]], on no simplex; both sets now refuse such rows
    cset = _SETS[name]
    for Z in (np.full((2, cset.dim + width), 0.5),
              np.full(cset.dim + width, 0.5), np.empty((0, cset.dim + width))):
        with pytest.raises(RejectedInputError, match="rows of shape"):
            cset.contains(Z)
        with pytest.raises(RejectedInputError, match="rows of shape"):
            cset.project(Z)


# -- the membership test behind every public entry that takes points -------

# (potential, its parameter, a point inside its domain, rows it refuses):
# a coordinate past the domain, a non-finite entry, and for the simplex a
# row off the sum and a row of the wrong width
_REFUSED = {
    "squared_l2": ({"bound": 1.0}, [0.5, -0.5],
                   [[0.5, 1.1], [np.nan, 0.0], [np.inf, 0.0]]),
    "sqrt_bernoulli": ({"eps0": 0.05}, [0.5, 0.5],
                       [[0.5, 0.96], [0.04, 0.5], [np.nan, 0.5]]),
    "clipped_simplex_kl": ({"eta0": 0.1}, [0.3, 0.3, 0.4],
                           [[0.3, 0.3, 0.41], [0.05, 0.5, 0.45],
                            [np.nan, 0.5, 0.5], [0.5, 0.5]]),
}
_REFUSED_CASES = [(kind, i) for kind, (_, _, bad) in _REFUSED.items()
                  for i in range(len(bad))]
# the finite ones: a dataset or prediction matrix refuses the others itself
_FINITE_CASES = [(kind, i) for kind, i in _REFUSED_CASES
                 if np.all(np.isfinite(_REFUSED[kind][2][i]))]


def _refused_case(kind, i):
    """(loss, three rows inside its domain, three rows with refused case i
    last, or all three of its wrong width)."""
    params, good, bad = _REFUSED[kind]
    loss = builtin_loss(kind, len(good), **params)
    good, row = np.tile(good, (3, 1)), np.asarray(bad[i])
    if row.size != good.shape[1]:
        return loss, good, np.tile(row, (3, 1))
    return loss, good, np.vstack([good[:2], row])


@pytest.mark.parametrize("kind, i", _REFUSED_CASES)
def test_divergence_rows_refuses_points_outside_the_domain(kind, i):
    loss, good, bad = _refused_case(kind, i)
    assert np.all(loss.divergence_rows(good, good) == 0.0)
    pairs = [(bad, bad)]
    if bad.shape == good.shape:
        pairs += [(bad, good), (good, bad)]
    for X, Y in pairs:
        with pytest.raises(RejectedInputError):
            loss.divergence_rows(X, Y)


@pytest.mark.parametrize("kind, i", _FINITE_CASES)
def test_wild_refit_refuses_responses_outside_the_domain(kind, i):
    # refused before the first fit: the trainer is never called
    loss, _, bad = _refused_case(kind, i)

    class NoFit:
        def fit(self, X, Y):
            raise AssertionError("fit called")

    data = FixedDesignDataset(np.zeros((3, 1)), bad)
    with pytest.raises(RejectedInputError):
        wild_refit(loss, loss.domain, NoFit(), data, 1.0, seed=0)


@pytest.mark.parametrize("kind, i", _FINITE_CASES)
def test_ball_sup_refuses_a_center_outside_the_set(kind, i):
    # the closed form (squared_l2 on a box) and both duals refuse a center
    # outside the set, and a center of the wrong width
    loss, good, bad = _refused_case(kind, i)
    Z = np.tile([1.0, -1.0, 0.5][:good.shape[1]], (3, 1))
    assert ball_sup(loss, loss.domain, PredictionMatrix(good), Z, 0.1) > 0
    with pytest.raises(RejectedInputError):
        ball_sup(loss, loss.domain, PredictionMatrix(bad),
                 Z[:, :bad.shape[1]], 0.1)


def test_generate_synthetic_refuses_fstar_outside_the_domain():
    # f* is centred at 0, outside sqrt_bernoulli's domain (0.05, 0.95)^2;
    # on squared_l2 cut to +-0.3, f* (within +-0.2) fits but f* + noise
    # (within +-0.7) does not
    spec = SyntheticSpec(n=20, d=2, fstar_scale=0.2, noise_scale=0.5, seed=0)
    with pytest.raises(RejectedInputError, match="loss domain"):
        generate_synthetic(spec, builtin_loss("sqrt_bernoulli", 2))
    generate_synthetic(spec, builtin_loss("squared_l2", 2, bound=0.7))
    with pytest.raises(RejectedInputError, match="loss domain"):
        generate_synthetic(spec, builtin_loss("squared_l2", 2, bound=0.3))


# -- the row kernels work over the d columns, with numpy's row-axis bits ----

def _ref_project_simplex(v, s):
    """The row-axis sorted-threshold projection the column path replaces."""
    n, d = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    top = u[:, :1]
    u = u - top
    cssv = np.cumsum(u, axis=1) - s
    cond = u - cssv / np.arange(1, d + 1) > 0
    rho = d - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = cssv[np.arange(n), rho] / (rho + 1)
    return np.clip(v - top - theta[:, None], 0.0, None)


def _ref_waterfill(a, eta0):
    """The row-axis water-filling the column path replaces."""
    n, d = a.shape
    s = -np.sort(-a, axis=1)
    css = np.cumsum(s, axis=1)
    ks = np.arange(1, d + 1)
    cond = s * (1.0 - (d - ks) * eta0) - eta0 * css > 0
    k = d - np.argmax(cond[:, ::-1], axis=1)
    positive = s[:, 0] > 0
    den = np.where(positive, css[np.arange(n), k - 1], 1.0)
    u = np.maximum(eta0, a * ((1.0 - (d - k) * eta0) / den)[:, None])
    rows = np.flatnonzero(~positive)
    u[rows] = eta0
    u[rows, np.argmax(a[rows], axis=1)] = 1.0 - (d - 1) * eta0
    return u


def _ref_simplex_contains(cs, Z, tol):
    return Z.size == 0 or bool(Z.min() >= cs.eta0 - tol and np.max(
        np.abs(np.sum(Z, axis=-1) - 1.0)) <= tol * cs.dim)


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# ties, signed zeros, and either sign at magnitudes from 1e-300 to 1e300
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]),
    st.builds(lambda sign, m, e: sign * m * 10.0 ** e, st.sampled_from([-1, 1]),
              st.floats(1.0, 9.0), st.integers(-300, 299)))


@st.composite
def _rows(draw, dims=(1, 10)):
    d = draw(st.integers(*dims))
    n = draw(st.integers(0, 5))
    return np.array(draw(st.lists(_ENTRY, min_size=n * d, max_size=n * d)),
                    dtype=float).reshape(n, d)


@given(_rows())
@example(np.empty((0, 3)))
@example(np.array([[-0.0, -0.0, -0.0]]))
@example(np.array([[1e300, 1e-300, -1e300, 1.0, -0.0, 0.0, 1e-300, 1e300]]))
@settings(max_examples=150, deadline=None)
def test_row_sum_has_numpys_bits(V):
    assert _same_bits(_row_sum(V), np.sum(V, axis=-1))
    assert _same_bits(_row_sum(V > 0), np.sum(V > 0, axis=-1))  # counts
    if len(V):  # one row, given 1-d
        assert _same_bits(_row_sum(V[0]), np.sum(V[0], axis=-1))


@given(_rows(), st.sampled_from([1.0, 0.3, 1e-3, 7.0]))
@example(np.empty((0, 2)), 1.0)
@example(np.array([[0.0, -0.0, 0.0, -0.0]]), 0.4)
@example(np.array([[0.25, 0.25, 0.25]]), 1.0)
@settings(max_examples=150, deadline=None)
def test_project_simplex_has_the_row_codes_bits(V, s):
    assert _same_bits(_project_simplex(V, s), _ref_project_simplex(V, s))


@given(_rows(), st.floats(1e-3, 0.999))
@example(np.empty((0, 2)), 0.5)
@example(np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, 0.0]]), 0.5)
@example(np.array([[1e-300, -1e300, 1e300]]), 0.1)
@example(np.array([[-np.inf, -1.0, -np.inf], [-np.inf, -np.inf, -np.inf],
                   [2.0, -np.inf, 0.5]]), 0.5)
@settings(max_examples=150, deadline=None)
def test_waterfill_has_the_row_codes_bits(A, frac):
    eta0 = frac / A.shape[1]
    # a row mixing 1e300 with 1e-300 can overflow a * t to -inf in both, and
    # the reference meets inf - inf on a row with a -inf entry
    with np.errstate(over="ignore"):
        got = waterfill(A, eta0)
        with np.errstate(invalid="ignore"):
            assert _same_bits(got, _ref_waterfill(A, eta0))


# rows whose largest entry is subnormal, ties and signed zeros among them
_SUBNORMAL_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-2.2e-308, 2.2e-308, allow_subnormal=True))


@st.composite
def _subnormal_rows(draw):
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, 5))
    return np.array(draw(st.lists(_SUBNORMAL_ENTRY, min_size=n * d,
                                  max_size=n * d))).reshape(n, d)


@given(_subnormal_rows(), st.floats(1e-3, 0.999))
@example(np.array([[0.0, 1.2e-309]]), 0.5)
@example(np.array([[5e-324, 0.0, -5e-324], [-1e-310, 0.0, -0.0]]), 0.3)
@settings(max_examples=150, deadline=None)
def test_waterfill_of_a_tiny_row_is_that_of_the_row_scaled_up(A, frac):
    # the argmax does not change when a row is scaled by a positive number;
    # unscaled, t = w / css_k overflows on a row below about 1e-308
    d = A.shape[1]
    cs = ClippedSimplex(frac / d, d)
    got = waterfill(A, cs.eta0)
    assert cs.contains(got)
    assert _same_bits(got, waterfill(A * 2.0 ** 600, cs.eta0))
    # a row of ordinary size beside them keeps its bits
    row = np.linspace(-1.0, 2.0, d)[None]
    both = waterfill(np.vstack([A, row]), cs.eta0)
    assert _same_bits(both, np.vstack([got, waterfill(row, cs.eta0)]))


def test_waterfill_found_row_is_finite():
    assert np.array_equal(waterfill([[0.0, 1.2e-309]], 0.25), [[0.25, 0.75]])


@st.composite
def _mean_arrays(draw):
    n = draw(st.integers(1, 60))
    shape = draw(st.sampled_from([(n,), (n, 1), (n // 2 + 1, 2), (n // 3 + 1, 3)]))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(_ENTRY, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@given(_mean_arrays())
@example(np.array([-0.0]))
@example(np.array([[-0.0, -0.0], [-0.0, -0.0]]))
@example(np.array([1e300, 1e300, -1e300]))
@settings(max_examples=150, deadline=None)
def test_mean_has_numpys_bits(v):
    # sums of 1e300 entries may overflow, and inf - inf is NaN, in both
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _mean(v), float(np.mean(v))
    assert type(got) is float
    assert _same_bits(got, want)


@given(_rows(dims=(2, 10)), st.floats(1e-3, 0.999),
       st.sampled_from([1e-9, 0.0, 1e-3]))
@example(np.empty((0, 2)), 0.5, 1e-9)
@settings(max_examples=150, deadline=None)
def test_simplex_contains_has_the_row_codes_answer(V, frac, tol):
    cs = ClippedSimplex(frac / V.shape[1], V.shape[1])
    # the projected rows pass the floor, so the row sums decide
    for Z in (V, cs.project(V)):
        assert cs.contains(Z, tol) is _ref_simplex_contains(cs, Z, tol)
        if len(Z):  # one row, given 1-d
            assert cs.contains(Z[0], tol) is _ref_simplex_contains(
                cs, Z[:1], tol)


# numpy calls that reduce, scan or sort a row: along a last axis of 2 or 3
# entries they cost 25-35 ns a row, so src/ sums rows by `_row_sum`, sorts
# them by `_sorted_columns`, and makes no such call but those named here
_ROW_CALLS = {"sum", "any", "all", "mean", "cumsum", "sort", "argmax", "norm"}
_ALLOWED_ROW_CALLS = {
    ("geometry", "_row_sum", "sum"): "numpy's pairwise sum from 8 columns",
    ("certify", "stability_constants", "norm"):
        "the gradients at the d vertices of the clipped simplex",
    ("trainers", "_coefficients", "mean"):
        "the Gauss-Newton step, one row per coefficient",
}
_SRC = Path(__file__).resolve().parents[1] / "src" / "wildbregman"


def _along_rows(call):
    """Whether a method or numpy call passes axis=1 or axis=-1, by keyword
    or, for np.<name>(a, axis) and a.<name>(axis), by position."""
    if not isinstance(call.func, ast.Attribute):
        return False

    def one(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return isinstance(node.operand, ast.Constant) and node.operand.value == 1
        return isinstance(node, ast.Constant) and node.value == 1
    axis = [kw.value for kw in call.keywords if kw.arg == "axis"]
    on_np = isinstance(call.func.value, ast.Name) and call.func.value.id == "np"
    if not axis and call.func.attr != "norm":
        axis = call.args[1:2] if on_np else call.args[:1]
    return any(one(node) for node in axis)


def _calls(tree, names, pick=lambda call: True):
    """(enclosing function, name, line) of each call of a function, method or
    numpy function in names that pick(call) selects, in a module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in names and pick(node):
                found.append((func, name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _row_calls(tree):
    """(enclosing function, name, line) of each row call in a module."""
    return _calls(tree, _ROW_CALLS, _along_rows)


def _whole_array(call):
    """Whether a mean call passes no axis, or axis=None: np.mean(a) or
    a.mean()."""
    if not isinstance(call.func, ast.Attribute):
        return False
    on_np = isinstance(call.func.value, ast.Name) and call.func.value.id == "np"
    axis = [kw.value for kw in call.keywords if kw.arg == "axis"] or (
        call.args[1:2] if on_np else call.args[:1])
    return not axis or (isinstance(axis[0], ast.Constant)
                        and axis[0].value is None)


def test_src_reduces_rows_only_in_the_column_helpers_and_the_allowlist():
    seen, outside = set(), []
    for path in sorted(_SRC.glob("*.py")):
        for func, name, line in _row_calls(ast.parse(path.read_text())):
            key = (path.stem, func, name)
            if key in _ALLOWED_ROW_CALLS:
                seen.add(key)
            else:
                outside.append(f"{path.name}:{line} {name} in {func}")
    assert not outside, "row-axis numpy calls; use geometry._row_sum or " \
        "loop over the columns: " + "; ".join(outside)
    # an entry whose call is gone is removed with it
    assert seen == set(_ALLOWED_ROW_CALLS)


def test_src_solves_ball_suprema_only_through_ball_sup():
    # both solvers take Z scaled to max|Z| in [1/2, 1), which ball_sup does;
    # tests may still call them
    outside = [f"{path.name}:{line} {name} in {func}"
               for path in sorted(_SRC.glob("*.py"))
               for func, name, line in _calls(ast.parse(path.read_text()),
                                              {"_sup_box_sql2", "_sup_dual"})
               if func != "ball_sup"]
    assert not outside, "ball suprema solved outside ball_sup: " \
        + "; ".join(outside)


def test_src_walks_brackets_only_in_the_dual_and_the_fixed_point():
    # the dual's multiplier and the fixed-point radius are the two searches;
    # the convex-class bound is the fixed point run on another process
    callers = {(path.stem, func)
               for path in sorted(_SRC.glob("*.py"))
               for func, _, _ in _calls(ast.parse(path.read_text()),
                                        {"_walk_bisect"})}
    assert callers == {("complexity", "_sup_dual"),
                       ("complexity", "fixed_point_radius")}, callers


def test_src_takes_whole_array_means_only_by_the_mean_helper():
    # np.mean dispatches in Python for several times the cost of the sum
    # and division it makes on a few hundred entries
    outside = [f"{path.name}:{line} in {func}"
               for path in sorted(_SRC.glob("*.py"))
               for func, _, line in _calls(ast.parse(path.read_text()),
                                           {"mean"}, _whole_array)
               if (path.stem, func) != ("geometry", "_mean")]
    assert not outside, "whole-array means; use geometry._mean: " \
        + "; ".join(outside)


def test_src_and_scripts_calibrate_and_read_c0_only_in_the_chain():
    # the wild radius a certificate needs, 3 c0 r, is written in certify
    # alone; certify_dataset and `refit --target-radius` calibrate rho
    paths = sorted(_SRC.glob("*.py")) + sorted(
        (_SRC.parents[1] / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    c0 = [f"{path.name}:{node.lineno}" for path, tree in trees.items()
          for node in ast.walk(tree)
          if isinstance(node, ast.Attribute) and node.attr == "c0"
          and path != _SRC / "certify.py"]
    assert not c0, "c0 read outside certify: " + "; ".join(c0)
    callers = {(path.stem, func) for path, tree in trees.items()
               for func, _, _ in _calls(tree, {"calibrate_rho"})}
    assert callers == {("certify", "certify_dataset"),
                       ("cli", "_cmd_refit")}, callers
