import dataclasses
import math

import numpy as np
import pytest

from wildbregman import trainers
from wildbregman.design import sample_sign_matrix
from wildbregman.errors import RejectedInputError, SolveError
from wildbregman.geometry import Box, ClippedSimplex
from wildbregman.potentials import builtin_loss
from wildbregman.trainers import LinearTrainer, SaturatedTrainer, build_model

from conftest import box, simplex_grid


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
    assert cset.contains(fit)
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
    assert not cset.contains(Y)
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
    assert cset.contains(fit, tol=1e-12)
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
    # Gauss-Newton runs for potentials other than squared_l2; a cap it cannot
    # meet raises with the trace of the steps it took, and each further step
    # keeps the steps before it and never raises the objective
    rng = np.random.default_rng(2)
    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.05)
    X = rng.uniform(-1, 1, size=(40, 2))
    Y = 0.5 + 0.3 * np.tanh(X @ rng.normal(size=(2, 1))) \
        + 0.05 * rng.uniform(-1, 1, size=(40, 1))
    cset = loss.domain
    fit = LinearTrainer(loss, cset).fit(X, Y)
    final = float(np.mean(loss.divergence_rows(Y, fit)))

    def trace(max_iters):
        monkeypatch.setattr(trainers, "_MAX_ITERS", max_iters)
        with pytest.raises(SolveError) as err:
            LinearTrainer(loss, cset).fit(X, Y)
        return err.value.trace

    short, longer = trace(1), trace(3)
    assert len(short) == 1 and longer[:1] == short and len(longer) == 3
    objs = [obj for obj, _ in longer]
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    assert final <= objs[-1]


def _kl_family(n, seed=2):
    """KL responses from a weak softmax-linear signal and Dirichlet noise,
    inside ClippedSimplex(0.1, 3)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, 3))
    S = np.exp(X @ rng.uniform(-1.0, 1.0, (3, 3)))
    S /= S.sum(axis=1, keepdims=True)
    P = 0.1 * S + 0.9 * rng.dirichlet(np.ones(3), n)
    return builtin_loss("clipped_simplex_kl", 3, eta0=0.1), X, \
        0.1 + (1.0 - 3 * 0.1) * P


def _bernoulli_family(n):
    """sqrt_bernoulli responses 0.5 + X theta + U(+-0.15), theta's columns of
    l1 norm 0.25."""
    rng = np.random.default_rng(1)
    X = rng.uniform(-1.0, 1.0, (n, 3))
    theta = rng.uniform(-1.0, 1.0, (3, 2))
    theta *= 0.25 / np.abs(theta).sum(axis=0)
    Y = 0.5 + X @ theta + rng.uniform(-0.15, 0.15, (n, 2))
    return builtin_loss("sqrt_bernoulli", 2, eps0=0.05), X, Y


def _gradient(loss, Xa, Y, theta):
    """The gradient of L(theta) = mean D(y, P(Xa theta)) the fit uses."""
    dom = loss.domain
    Z = dom.project(Xa @ theta)
    s = np.sqrt(loss.hessian_diag(Z))
    G = trainers._residue_jacobian(dom, Xa, s, Z)
    return (G.T @ (s * (Z - Y)).ravel()).reshape(theta.shape) / Y.shape[0]


@pytest.mark.parametrize("kind", ["sqrt_bernoulli", "clipped_simplex_kl"])
def test_linear_gradient_matches_finite_differences(kind):
    # theta puts some entries outside the box, or on the simplex floor; the
    # projection's Jacobian must drop the clipped box entries and couple
    # the simplex rows, so the gradient matches central differences of L
    rng = np.random.default_rng(4)
    loss = builtin_loss(kind, 3, **({"eps0": 0.05} if kind == "sqrt_bernoulli"
                                    else {"eta0": 0.1}))
    dom = loss.domain
    Xa = np.hstack([rng.uniform(-1, 1, (30, 2)), np.ones((30, 1))])
    Y = dom.project(rng.uniform(0.0, 1.0, (30, 3)))
    theta = rng.normal(scale=0.6, size=(3, 3))
    theta[-1] = dom.center()

    def clipped(t):
        Z = dom.project(Xa @ t)
        if kind == "sqrt_bernoulli":
            return (Z == dom.lo) | (Z == dom.hi)
        return Z == dom.eta0

    at_theta = clipped(theta)
    assert 0 < np.sum(at_theta) < at_theta.size / 2

    def L(t):
        return float(np.mean(loss._div_raw(Y, dom.project(Xa @ t))))

    h, fd = 1e-6, np.zeros_like(theta)
    for idx in np.ndindex(theta.shape):
        e = np.zeros_like(theta)
        e[idx] = h
        # no entry changes sides of a kink within the difference step
        for t in (theta + e, theta - e):
            assert np.array_equal(clipped(t), at_theta)
        fd[idx] = (L(theta + e) - L(theta - e)) / (2.0 * h)
    grad = _gradient(loss, Xa, Y, theta)
    assert np.max(np.abs(grad - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("family, n", [(_bernoulli_family, 200),
                                       (_bernoulli_family, 2000),
                                       (_kl_family, 400)])
def test_linear_fit_exits_stationary(family, n):
    # the gradient at exit is below 1e-8 ||[X, 1]||_2; the gradient descent
    # this fit replaced stopped at 9.5e-6, 7.5e-6 and 5.8e-6 (ratios
    # 7e-7, 2e-7 and 3e-7)
    loss, X, Y = family(n)
    trainer = LinearTrainer(loss, loss.domain)
    Xa, Y = trainers._augmented(X, Y)
    grad = _gradient(loss, Xa, Y, trainer.fit_predictor(X, Y).theta)
    assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(Xa, 2)


def test_linear_kl_wild_responses_on_the_floor_exit_quickly(monkeypatch):
    # a wild refit whose responses, pulled back onto the clipped simplex,
    # put 28 rows on the floor: there the gradient stalls near 1.8e-9 while
    # the objective no longer moves, so a stop at |gradient| <= 1e-9 ran to
    # the step cap; the decrement stop exits within 10 steps
    loss, X, Y = _kl_family(400, seed=3023793452)
    dom = loss.domain
    trainer = LinearTrainer(loss, dom)
    fhat = trainer.fit(X, Y)
    signs = sample_sign_matrix(400, 3, 771859936)
    Y_wild = dom.project(fhat - signs * (Y - fhat))
    assert np.sum(np.any(Y_wild == dom.eta0, axis=1)) >= 20
    monkeypatch.setattr(trainers, "_MAX_ITERS", 10)
    theta = trainer.fit_predictor(X, Y_wild).theta
    Xa = np.hstack([X, np.ones((400, 1))])
    assert np.linalg.norm(_gradient(loss, Xa, Y_wild, theta)) <= 1e-8


def _clamped_family(kind, params, d, seed, scale, shift):
    """Responses projected from 10 N(0, 1) + shift onto the loss domain, so
    that rows sit on its faces and vertices, on 20 inputs scale U(+-1)^3."""
    loss = builtin_loss(kind, d, **params)
    rng = np.random.default_rng(seed)
    X = scale * rng.uniform(-1.0, 1.0, (20, 3))
    return loss, X, loss.domain.project(10.0 * rng.normal(size=(20, d)) + shift)


def test_linear_fit_halves_a_step_and_converges(monkeypatch):
    # sqrt_bernoulli responses on the faces of its domain: some full
    # Gauss-Newton steps raise the objective and are halved until it falls,
    # and the fit still returns, stopped by its decrement below its start
    loss, X, Y = _clamped_family("sqrt_bernoulli", {"eps0": 0.05}, 2, 1, 1.0,
                                 0.5)
    counts = {"tried": 0, "steps": 0}
    project, jacobian = Box.project, trainers._residue_jacobian

    def counted_project(self, z):  # one per objective evaluation
        counts["tried"] += 1
        return project(self, z)

    def counted_jacobian(*args):  # one per Gauss-Newton iteration
        counts["steps"] += 1
        return jacobian(*args)
    monkeypatch.setattr(Box, "project", counted_project)
    monkeypatch.setattr(trainers, "_residue_jacobian", counted_jacobian)
    Xa, Y = trainers._augmented(X, Y)
    theta = LinearTrainer(loss, loss.domain)._coefficients(Xa, Y)
    # one evaluation at the start and one per candidate step, and every
    # iteration but the last accepts a candidate: more means a halving
    assert counts["tried"] > counts["steps"]
    monkeypatch.undo()

    def objective(theta):
        return np.mean(loss.divergence_rows(Y, loss.domain.project(Xa @ theta)))
    start = np.zeros_like(theta)
    start[-1] = loss.domain.center()
    assert objective(theta) < objective(start)


def test_linear_fit_raises_when_no_step_decreases():
    # KL responses on the vertices and faces of ClippedSimplex(0.1, 3), at
    # inputs of scale 1e-3: the objective stalls near 0.344 with a gradient
    # of about 1e-2, and 50 halvings of the next step never lower it
    loss, X, Y = _clamped_family("clipped_simplex_kl", {"eta0": 0.1}, 3, 4,
                                 1e-3, 0.0)
    with pytest.raises(SolveError, match="no step decreases") as err:
        LinearTrainer(loss, loss.domain).fit(X, Y)
    assert err.value.trace
    assert all(0 < obj < math.inf and 0 <= g < math.inf
               for obj, g in err.value.trace)


def test_linear_step_cap_raises_with_trace(monkeypatch):
    loss, X, Y = _kl_family(100)
    monkeypatch.setattr(trainers, "_MAX_ITERS", 1)
    with pytest.raises(SolveError) as err:
        LinearTrainer(loss, loss.domain).fit(X, Y)
    [(obj, gnorm)] = err.value.trace
    assert 0 < obj < math.inf and 0 < gnorm < math.inf


@pytest.mark.parametrize("X, Y", [
    (np.zeros((5, 3)), np.zeros((4, 2))),   # row counts differ
    (np.zeros(5), np.zeros((5, 2))),        # 1-d X
    (np.zeros((5, 3, 1)), np.zeros((5, 2))),
    (np.zeros((5, 3)), np.zeros(5)),        # 1-d Y
])
def test_linear_refuses_misshapen_inputs(X, Y):
    loss = builtin_loss("squared_l2", 2)
    trainer = LinearTrainer(loss, box(2, 10.0))
    with pytest.raises(RejectedInputError):
        trainer.fit(X, Y)
    with pytest.raises(RejectedInputError):
        trainer.fit_predictor(X, Y)


@pytest.mark.parametrize("p", [0, 1, 3])
def test_augmented_design_is_the_stacked_ones_column(p):
    X = np.random.default_rng(p).normal(size=(7, p))
    X[0, :] = -0.0
    Y = np.ones((7, 2))
    Xa, Y2 = trainers._augmented(X, Y)
    want = np.hstack([X, np.ones((7, 1))])
    assert Xa.dtype == want.dtype and Xa.shape == want.shape
    assert Xa.tobytes() == want.tobytes() and Y2 is Y


def test_linear_predictor_refuses_wrong_width():
    rng = np.random.default_rng(5)
    loss = builtin_loss("squared_l2", 2)
    pred = LinearTrainer(loss, box(2, 10.0)).fit_predictor(
        rng.uniform(-1, 1, (20, 3)), rng.uniform(-1, 1, (20, 2)))
    assert pred.predict(np.zeros(3)).shape == (1, 2)  # one point, one row
    for X in (np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((4, 3, 1))):
        with pytest.raises(RejectedInputError):
            pred.predict(X)


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


@pytest.mark.parametrize("kind, bound", [("squared_l2", 0.5),
                                         ("sqrt_bernoulli", 0.6)])
def test_linear_fit_is_the_predictor_on_the_design(kind, bound):
    # fit augments X once and projects Xa @ theta itself; the values must be
    # those of the fitted predictor evaluated on the design, bit for bit,
    # with the set clipping some rows
    rng = np.random.default_rng(8)
    loss, cset, trainer = build_model(2, kind, {}, bound, {"kind": "linear"})
    X = rng.uniform(-1, 1, size=(60, 3))
    Y = np.clip(0.5 + X @ rng.uniform(-0.3, 0.3, (3, 2))
                + rng.uniform(-0.3, 0.3, (60, 2)), 0.1, 0.9)
    fit = trainer.fit(X, Y)
    assert fit.tobytes() == trainer.fit_predictor(X, Y).predict(X).tobytes()
    assert np.any(fit == cset.hi)


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
