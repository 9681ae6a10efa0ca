import dataclasses
import math

import mpmath
import numpy as np
import pytest

from wildbregman.errors import RejectedInputError
from wildbregman.potentials import builtin_loss

from conftest import BUILTINS, make_loss, sample_domain


def test_squared_l2_constants():
    loss = builtin_loss("squared_l2", 4)
    assert loss.alpha == 1.0 and loss.beta == 1.0


def test_sqrt_bernoulli_constants():
    eps0 = 0.05
    loss = builtin_loss("sqrt_bernoulli", 2, eps0=eps0)
    assert loss.alpha == pytest.approx(math.sqrt(2.0))
    assert loss.beta == pytest.approx(0.5 * eps0 ** -1.5)


def test_clipped_simplex_kl_constants():
    loss = builtin_loss("clipped_simplex_kl", 2, eta0=0.1)
    assert loss.alpha == 1.0
    assert loss.beta == pytest.approx(10.0)


def test_unknown_kind_rejected():
    with pytest.raises(RejectedInputError):
        builtin_loss("huber", 2)


def test_missing_params_take_defaults():
    # one default per built-in (bound 1e6, eps0 0.05, eta0 0.1), the same
    # for every caller
    for kind, given in [("squared_l2", {"bound": 1e6}),
                        ("sqrt_bernoulli", {"eps0": 0.05}),
                        ("clipped_simplex_kl", {"eta0": 0.1})]:
        default, explicit = builtin_loss(kind, 2), builtin_loss(kind, 2, **given)
        assert (default.alpha, default.beta) == (explicit.alpha, explicit.beta)
        assert np.array_equal(default.domain.center(), explicit.domain.center())
        assert default.domain.diameter() == explicit.domain.diameter()


def test_bad_dimension_and_parameter_values_rejected():
    with pytest.raises(RejectedInputError, match="dim"):
        builtin_loss("squared_l2", 0)
    for eps0 in (0.0, 0.5, -0.1, math.nan):
        with pytest.raises(RejectedInputError, match="eps0"):
            builtin_loss("sqrt_bernoulli", 2, eps0=eps0)


def test_loss_refuses_alpha_above_beta():
    loss = builtin_loss("squared_l2", 2)
    with pytest.raises(RejectedInputError, match="alpha <= beta"):
        dataclasses.replace(loss, alpha=2.0, beta=1.0)
    with pytest.raises(RejectedInputError, match="alpha <= beta"):
        dataclasses.replace(loss, alpha=0.0)


def test_params_of_another_kind_rejected():
    for kind, params in [("squared_l2", {"eta0": 0.1, "eps0": 3}),
                         ("squared_l2", {"bound": 2.0, "eta0": 0.1}),
                         ("sqrt_bernoulli", {"eps0": 0.1, "bound": 1.0}),
                         ("clipped_simplex_kl", {"eta0": 0.1, "eps0": 0.1})]:
        with pytest.raises(RejectedInputError):
            builtin_loss(kind, 2, **params)
    assert np.all(builtin_loss("squared_l2", 2, bound=2.0).domain.hi == 2.0)


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


def _mp_divergence(kind, x, y):
    """D_phi(x, y) at 50 digits from the float inputs, as mpmath floats."""
    x, y = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in y]
    if kind == "clipped_simplex_kl":
        return sum(a * mpmath.log(a / b) - a + b for a, b in zip(x, y))
    return sum((mpmath.sqrt(a) - mpmath.sqrt(b)) ** 2 / (2 * mpmath.sqrt(b))
               + (mpmath.sqrt(1 - a) - mpmath.sqrt(1 - b)) ** 2
               / (2 * mpmath.sqrt(1 - b)) for a, b in zip(x, y))


@pytest.mark.parametrize("kind", ["clipped_simplex_kl", "sqrt_bernoulli"])
@pytest.mark.parametrize("h", [1e-1, 1e-3, 1e-6, 1e-9, 1e-12])
def test_divergence_accurate_near_the_diagonal(kind, h):
    # x = y + h p: the textbook form phi(x) - phi(y) - <grad phi(y), x - y>
    # cancels as h -> 0; the divergence must stay accurate to 1e-12
    rng = np.random.default_rng(7)
    loss = make_loss(kind)
    if kind == "clipped_simplex_kl":
        Y = 0.25 + 0.25 * rng.dirichlet(np.ones(3), 40)
        P = rng.uniform(-1, 1, (40, 3))
        P -= P.mean(axis=1, keepdims=True)  # zero-sum: x stays on the simplex
    else:
        Y = rng.uniform(0.2, 0.8, (40, 3))
        P = rng.uniform(-1, 1, (40, 3))
    X = Y + h * P
    got = loss.divergence_rows(X, Y)
    with mpmath.workdps(50):
        want = [_mp_divergence(kind, x, y) for x, y in zip(X, Y)]
        worst = max(abs((mpmath.mpf(float(g)) - w) / w)
                    for g, w in zip(got, want))
    assert worst <= 1e-12, float(worst)


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
        h = loss.hessian_diag(X)
        assert np.all(h >= loss.alpha - 1e-9)
        assert np.all(h <= loss.beta + 1e-9)


def test_c0_quasi_triangle_constant():
    loss = builtin_loss("sqrt_bernoulli", 1, eps0=0.05)
    assert loss.c0 == pytest.approx(math.sqrt(loss.beta / loss.alpha))
