import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildbregman.errors import RejectedInputError
from wildbregman.geometry import Box, ClippedSimplex, waterfill


def test_box_project_is_clamp():
    box = Box(np.array([0.0, -1.0]), np.array([1.0, 2.0]))
    z = np.array([1.5, -3.0])
    assert np.allclose(box.project(z), [1.0, -1.0])


def test_box_project_fixed_point_inside():
    box = Box(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    z = np.array([0.3, -1.7])
    assert np.array_equal(box.project(z), z)


def test_box_contains_rows_tolerance():
    box = Box(np.array([0.0]), np.array([1.0]))
    assert box.contains_rows(np.array([[1.0 + 1e-12]]))[0]
    assert not box.contains_rows(np.array([[1.1]]))[0]


def test_box_diameter_and_center():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
    assert box.diameter() == pytest.approx(np.sqrt(4.0 + 16.0))
    assert np.allclose(box.center(), [0.0, 2.0])


def test_box_rejects_bad_bounds():
    with pytest.raises(RejectedInputError):
        Box(np.array([1.0]), np.array([0.0]))


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
    assert np.all(cs.contains_rows(q, tol=1e-15))
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
    assert np.all(ClippedSimplex(eta0, 2).contains_rows(U, tol=1e-12))
    for a, u in zip(A, U):
        best = seg[np.argmax(np.log(seg) @ a)]
        assert np.allclose(u, best, atol=1e-5)


def test_simplex_rejects_infeasible_floor():
    with pytest.raises(RejectedInputError):
        ClippedSimplex(eta0=0.6, dim=2)


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
