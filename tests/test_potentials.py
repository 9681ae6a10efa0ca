import math

import numpy as np
import pytest

from wildbregman.errors import RejectedInputError
from wildbregman.potentials import builtin_loss, builtin_potential

from conftest import BUILTINS, make_loss, sample_domain


def test_squared_l2_constants():
    p = builtin_potential("squared_l2", 4)
    assert p.alpha == 1.0 and p.beta == 1.0


def test_sqrt_bernoulli_constants():
    eps0 = 0.05
    p = builtin_potential("sqrt_bernoulli", 2, eps0=eps0)
    assert p.alpha == pytest.approx(math.sqrt(2.0))
    assert p.beta == pytest.approx(0.5 * eps0 ** -1.5)


def test_clipped_simplex_kl_constants():
    p = builtin_potential("clipped_simplex_kl", 2, eta0=0.1)
    assert p.alpha == 1.0
    assert p.beta == pytest.approx(10.0)


def test_unknown_kind_rejected():
    with pytest.raises(RejectedInputError):
        builtin_potential("huber", 2)


def test_missing_params_rejected():
    with pytest.raises(RejectedInputError):
        builtin_potential("sqrt_bernoulli", 2)
    with pytest.raises(RejectedInputError):
        builtin_potential("clipped_simplex_kl", 2)


def test_params_of_another_kind_rejected():
    for kind, params in [("squared_l2", {"eta0": 0.1, "eps0": 3}),
                         ("squared_l2", {"bound": 2.0, "eta0": 0.1}),
                         ("sqrt_bernoulli", {"eps0": 0.1, "bound": 1.0}),
                         ("clipped_simplex_kl", {"eta0": 0.1, "eps0": 0.1})]:
        with pytest.raises(RejectedInputError):
            builtin_loss(kind, 2, **params)
    assert builtin_potential("squared_l2", 2, bound=2.0).params == {"bound": 2.0}


def test_squared_l2_divergence_value():
    loss = builtin_loss("squared_l2", 2)
    x, y = np.array([1.0, 2.0]), np.array([0.0, 0.0])
    assert loss.divergence_rows([x], [y])[0] == pytest.approx(2.5)


def test_kl_divergence_matches_formula():
    loss = builtin_loss("clipped_simplex_kl", 3, eta0=0.05)
    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.4, 0.4, 0.2])
    kl = float(np.sum(p * np.log(p / q)))
    assert loss.divergence_rows([p], [q])[0] == pytest.approx(kl, rel=1e-12)


def test_sqrt_bernoulli_divergence_matches_formula():
    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.05)
    p1, p2 = 0.3, 0.6
    expect = ((math.sqrt(p1) - math.sqrt(p2)) ** 2 / (2 * math.sqrt(p2))
              + (math.sqrt(1 - p1) - math.sqrt(1 - p2)) ** 2 / (2 * math.sqrt(1 - p2)))
    got = loss.divergence_rows([[p1]], [[p2]])[0]
    assert got == pytest.approx(expect, rel=1e-12)


def test_domain_check_rejects_outside_points():
    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.1)
    with pytest.raises(RejectedInputError):
        loss.divergence_rows([[0.01]], [[0.5]])


def test_divergence_identity_of_indiscernibles(rng):
    for kind in BUILTINS:
        loss = make_loss(kind)
        X = sample_domain(loss, rng, 50)
        assert np.allclose(loss.divergence_rows(X, X), 0.0, atol=1e-12)


def test_divergence_nonnegative(rng):
    for kind in BUILTINS:
        loss = make_loss(kind)
        X = sample_domain(loss, rng, 200)
        Y = sample_domain(loss, rng, 200)
        assert np.all(loss.divergence_rows(X, Y) >= 0.0)


def test_curvature_sandwich(rng):
    # (alpha/2)||x-y||^2 <= D(x,y) <= (beta/2)||x-y||^2 on the domain
    for kind in BUILTINS:
        loss = make_loss(kind)
        X = sample_domain(loss, rng, 500)
        Y = sample_domain(loss, rng, 500)
        sq = 0.5 * np.sum((X - Y) ** 2, axis=-1)
        D = loss.divergence_rows(X, Y)
        assert np.all(D >= loss.alpha * sq - 1e-9)
        assert np.all(D <= loss.beta * sq + 1e-9)


def test_hessian_diag_bounds_on_domain(rng):
    for kind in BUILTINS:
        loss = make_loss(kind)
        X = sample_domain(loss, rng, 500)
        h = loss.potential.hessian_diag(X)
        assert np.all(h >= loss.alpha - 1e-9)
        assert np.all(h <= loss.beta + 1e-9)


def test_c0_quasi_triangle_constant():
    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.05)
    assert loss.c0 == pytest.approx(math.sqrt(loss.beta / loss.alpha))
