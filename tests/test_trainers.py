import dataclasses

import numpy as np
import pytest

from wildbregman import trainers
from wildbregman.errors import RejectedInputError
from wildbregman.geometry import Box, ClippedSimplex
from wildbregman.potentials import builtin_loss
from wildbregman.trainers import LinearTrainer, SaturatedTrainer, build_model

from conftest import simplex_grid


def box(d, b):
    return Box(np.full(d, -b), np.full(d, b))


def test_saturated_interior_returns_responses():
    loss = builtin_loss("squared_l2", 2)
    Y = np.array([[0.5, -0.5], [1.0, 2.0]])
    fit = SaturatedTrainer(loss, box(2, 10.0)).fit(None, Y)
    assert np.array_equal(fit, Y)


def test_saturated_squared_l2_clamps():
    loss = builtin_loss("squared_l2", 1)
    Y = np.array([[1.5], [-0.2], [0.3]])
    fit = SaturatedTrainer(loss, Box(np.array([0.0]), np.array([1.0]))).fit(None, Y)
    assert np.allclose(fit, [[1.0], [0.0], [0.3]])


def test_saturated_sqrt_bernoulli_boundary():
    # minimizer of D(0.1, .) over [0.2, 0.8]: boundary point, verified
    # against a fine 1-d grid
    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.05)
    cset = Box(np.array([0.2]), np.array([0.8]))
    fit = SaturatedTrainer(loss, cset).fit(None, np.array([[0.1]]))
    grid = np.linspace(0.2, 0.8, 60001)
    vals = loss.divergence_rows(np.full((grid.size, 1), 0.1), grid[:, None])
    best = grid[int(np.argmin(vals))]
    assert fit[0, 0] == pytest.approx(best, abs=1e-5)
    assert fit[0, 0] == pytest.approx(0.2, abs=1e-5)


def test_saturated_kl_projects_onto_clipped_simplex():
    loss = builtin_loss("clipped_simplex_kl", 2, eta0=0.1)
    cset = loss.domain
    Y = np.array([[0.5, 0.5], [0.15, 0.85]])
    fit = SaturatedTrainer(loss, cset).fit(None, Y)
    assert np.all(cset.contains_rows(fit))
    # interior rows are fixed points
    assert np.allclose(fit, Y, atol=1e-8)


@pytest.mark.parametrize("d", [2, 3])
def test_saturated_sqrt_bernoulli_matches_1d_grid(d):
    # the fit is separable over coordinates; each coordinate's objective
    # D(y, .) is unimodal, so the grid minimiser is within one spacing
    rng = np.random.default_rng(d)
    loss = builtin_loss("sqrt_bernoulli", d, eps0=0.05)
    cset = Box(np.full(d, 0.3), np.full(d, 0.7))
    Y = rng.uniform(0.05, 0.95, size=(40, d))
    assert not np.all(cset.contains_rows(Y))
    fit = SaturatedTrainer(loss, cset).fit(None, Y)
    loss1 = builtin_loss("sqrt_bernoulli", 1, eps0=0.05)
    grid = np.linspace(0.3, 0.7, 40001)[:, None]
    step = float(grid[1, 0] - grid[0, 0])
    for i, j in np.ndindex(Y.shape):
        vals = loss1._div_raw(np.full_like(grid, Y[i, j]), grid)
        assert abs(fit[i, j] - grid[int(np.argmin(vals)), 0]) <= step


def test_saturated_kl_on_tighter_simplex_matches_grid():
    # minimise D(y, z) = const - sum y log z + sum z over ClippedSimplex(0.2, 3)
    # against every point of a barycentric grid; the fit must beat the grid,
    # and the grid must come within its Lipschitz resolution of the fit
    rng = np.random.default_rng(11)
    eta0, N = 0.2, 400
    loss = builtin_loss("clipped_simplex_kl", 3, eta0=0.1)
    cset = ClippedSimplex(eta0, 3)
    Y = loss.domain.project(rng.dirichlet(np.ones(3), 100))
    fit = SaturatedTrainer(loss, cset).fit(None, Y)
    assert np.all(cset.contains_rows(fit, tol=1e-12))
    G, h = simplex_grid(eta0, 3, N)
    grid_obj = -(Y @ np.log(G).T)
    fit_obj = -np.sum(Y * np.log(fit), axis=1)
    best = np.min(grid_obj, axis=1)
    lip = np.linalg.norm(Y, axis=1) / eta0
    assert np.all(fit_obj <= best + 1e-12)
    assert np.all(fit_obj >= best - lip * h)
    assert np.max(np.abs(fit - G[np.argmin(grid_obj, axis=1)])) <= 0.05


def test_saturated_unsupported_pair_raises():
    loss = builtin_loss("sqrt_bernoulli", 3, eps0=0.05)
    trainer = SaturatedTrainer(loss, ClippedSimplex(0.1, 3))
    with pytest.raises(RejectedInputError):
        trainer.fit(None, np.full((2, 3), 1.0 / 3.0))


def test_saturated_determinism():
    loss = builtin_loss("squared_l2", 2)
    Y = np.random.default_rng(0).normal(size=(20, 2))
    cset = box(2, 0.5)
    a = SaturatedTrainer(loss, cset).fit(None, Y)
    b = SaturatedTrainer(loss, cset).fit(None, Y)
    assert np.array_equal(a, b)


def test_linear_recovers_realizable_data():
    rng = np.random.default_rng(1)
    loss = builtin_loss("squared_l2", 2)
    X = rng.uniform(-1, 1, size=(60, 3))
    theta = rng.normal(size=(3, 2))
    Y = X @ theta + 0.3
    fit = LinearTrainer(loss, box(2, 50.0)).fit(X, Y)
    train_loss = float(np.mean(loss.divergence_rows(Y, fit)))
    assert train_loss <= 1e-8


def test_linear_zero_features_gives_mean():
    loss = builtin_loss("squared_l2", 1)
    X = np.zeros((5, 1))
    Y = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    fit = LinearTrainer(loss, box(1, 50.0)).fit(X, Y)
    assert np.allclose(fit, 3.0, atol=1e-5)


def test_linear_more_iters_never_worse(monkeypatch):
    # gradient descent runs for potentials other than squared_l2
    rng = np.random.default_rng(2)
    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.05)
    X = rng.uniform(-1, 1, size=(40, 2))
    Y = 0.5 + 0.3 * np.tanh(X @ rng.normal(size=(2, 1))) \
        + 0.05 * rng.uniform(-1, 1, size=(40, 1))
    cset = loss.domain

    def obj(max_iters):
        monkeypatch.setattr(trainers, "_MAX_ITERS", max_iters)
        fit = LinearTrainer(loss, cset).fit(X, Y)
        return float(np.mean(loss.divergence_rows(Y, fit)))

    assert obj(400) <= obj(200) + 1e-12


def _normal_equations(X, Y):
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    return np.linalg.pinv(Xa.T @ Xa, rcond=1e-12, hermitian=True) @ (Xa.T @ Y)


@pytest.mark.parametrize("rank_deficient", [False, True])
def test_linear_squared_l2_matches_normal_equations(rank_deficient):
    # least squares is the exact ERM; on a rank-deficient design (a repeated
    # column) both give the minimum-norm solution
    rng = np.random.default_rng(12)
    loss = builtin_loss("squared_l2", 2)
    X = rng.uniform(-1, 1, size=(80, 3))
    if rank_deficient:
        X[:, 2] = X[:, 0]
    Y = X @ rng.normal(size=(3, 2)) + 0.2 * rng.normal(size=(80, 2)) + 0.4
    theta = LinearTrainer(loss, box(2, 50.0)).fit_predictor(X, Y).theta
    oracle = _normal_equations(X, Y)
    assert np.linalg.norm(theta - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_linear_predictor_evaluates_off_design():
    rng = np.random.default_rng(3)
    loss = builtin_loss("squared_l2", 1)
    X = rng.uniform(-1, 1, size=(50, 2))
    theta = np.array([[1.0], [-2.0]])
    Y = X @ theta
    trainer = LinearTrainer(loss, box(1, 50.0))
    pred = trainer.fit_predictor(X, Y)
    Xnew = rng.uniform(-1, 1, size=(10, 2))
    assert np.allclose(pred.predict(Xnew), Xnew @ theta, atol=1e-4)


def test_build_model_sets_and_trainers():
    loss, cset, trainer = build_model(2, "sqrt_bernoulli", {"eps0": 0.05}, 3.0,
                                      {"kind": "linear"})
    # the loss domain (0.05, 0.95)^2 cut to the box +-3
    assert isinstance(cset, Box) and np.array_equal(cset.lo, [0.05, 0.05])
    assert np.array_equal(cset.hi, [0.95, 0.95])
    assert isinstance(trainer, LinearTrainer)
    assert (trainer.loss, trainer.cset) == (loss, cset)
    assert [f.name for f in dataclasses.fields(trainer)] == ["loss", "cset"]
    loss, cset, trainer = build_model(3, "clipped_simplex_kl", {"eta0": 0.1},
                                      3.0, {"kind": "saturated"})
    assert cset is loss.domain
    assert isinstance(trainer, SaturatedTrainer) and trainer.cset is cset


@pytest.mark.parametrize("desc", [
    {"kind": "saturated", "max_iters": 5, "bogus": 1},
    {"kind": "saturated", "tol": 1e-8},
    {"kind": "linear", "max_iter": 5},
    {"kind": "linear", "seed": 0},
    {"kind": "ridge"},
    {"kind": "linear", "max_iters": 5},
    {"kind": "linear", "tol": 1e-8},
])
def test_build_model_rejects_bad_trainer_descriptor(desc):
    with pytest.raises(RejectedInputError):
        build_model(2, "squared_l2", {}, 10.0, desc)
