"""Convex potentials, their Bregman divergences, and certified curvature.

A potential carries value/gradient/diagonal-Hessian oracles together with
strong-convexity and smoothness constants (alpha, beta) that are valid on a
declared compact domain.  All downstream bounds consume exactly these
constants, so evaluation outside the domain is refused rather than silently
extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import RejectedInputError, UnsupportedConfigurationError
from .geometry import Box, ClippedSimplex, CompactSet, waterfill

Array = np.ndarray


@dataclass(frozen=True)
class Potential:
    """Convex generator phi with (alpha, beta) certified on `domain`.

    `value` maps (..., d) arrays to (...) scalars; `gradient` and
    `hessian_diag` are elementwise maps of the same shape as their input.
    All built-ins are coordinate-separable, hence the diagonal Hessian.
    """

    kind: str
    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    hessian_diag: Callable[[Array], Array]
    alpha: float
    beta: float
    domain: CompactSet
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0 < self.alpha <= self.beta):
            raise RejectedInputError(
                f"need 0 < alpha <= beta, got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class BregmanLoss:
    """Loss l(x, y) = D_phi(x, y) with quasi-triangle constant c0."""

    potential: Potential

    @property
    def c0(self) -> float:
        return math.sqrt(self.potential.beta / self.potential.alpha)

    @property
    def alpha(self) -> float:
        return self.potential.alpha

    @property
    def beta(self) -> float:
        return self.potential.beta

    @property
    def domain(self) -> CompactSet:
        return self.potential.domain

    def _check_domain(self, *points):
        for z in points:
            z = np.asarray(z, dtype=float)
            rows = np.atleast_2d(z)
            if not np.all(self.domain.contains_rows(rows)):
                raise RejectedInputError(
                    f"point outside the certified domain of {self.potential.kind}"
                )

    def divergence_rows(self, X, Y) -> np.ndarray:
        """Row-wise divergences for (n, d) prediction arrays."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape != Y.shape:
            raise RejectedInputError(f"shape mismatch: {X.shape} vs {Y.shape}")
        self._check_domain(X, Y)
        return self._div_raw(X, Y)

    def _div_raw(self, X, Y):
        p = self.potential
        if p.kind == "squared_l2":
            # the textbook form below cancels on sets far from the origin
            return 0.5 * np.sum(np.square(X - Y), axis=-1)
        g = p.gradient(Y)
        out = p.value(X) - p.value(Y) - np.sum(g * (X - Y), axis=-1)
        # round-off can leave tiny negatives at x ~ y
        return np.maximum(out, 0.0)


def _bregman_projection(loss: BregmanLoss, cset: CompactSet, A) -> np.ndarray:
    """Rows of argmin_u D_phi(a, u) over the set, in closed form.

    Only the u-terms -phi(u) - <grad phi(u), a - u> of D_phi(a, u) matter,
    so a row a may lie outside the domain.  On a box, d/du_j of them is
    phi''(u_j) (u_j - a_j), with the sign of u_j - a_j for every separable
    potential, so the minimiser is the clamp.  On the clipped simplex,
    squared_l2 gives the Euclidean projection, and KL, whose u-terms are
    -sum_j a_j log u_j + const under sum u = 1, the water-filling of a.  Any
    other pair raises UnsupportedConfigurationError.  It is the saturated fit
    and the inner argmax of the ball supremum's Lagrangian dual.
    """
    kind = loss.potential.kind
    if isinstance(cset, Box) or kind == "squared_l2":
        return cset.project(A)
    if kind == "clipped_simplex_kl":
        return waterfill(A, cset.eta0)
    raise UnsupportedConfigurationError(
        f"no closed-form Bregman projection for {kind} on {type(cset).__name__}")


def _squared_l2(dim: int, bound: float) -> Potential:
    lo = np.full(dim, -bound)
    hi = np.full(dim, bound)
    return Potential(
        kind="squared_l2",
        value=lambda u: 0.5 * np.sum(np.square(u), axis=-1),
        gradient=lambda u: np.asarray(u, dtype=float),
        hessian_diag=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        alpha=1.0,
        beta=1.0,
        domain=Box(lo, hi),
        params={"bound": bound},
    )


def _sqrt_bernoulli(dim: int, eps0: float) -> Potential:
    if not 0 < eps0 < 0.5:
        raise RejectedInputError("sqrt_bernoulli requires 0 < eps0 < 0.5")

    def value(u):
        u = np.asarray(u, dtype=float)
        return np.sum(-np.sqrt(u) - np.sqrt(1.0 - u), axis=-1)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return -0.5 / np.sqrt(u) + 0.5 / np.sqrt(1.0 - u)

    def hessian_diag(u):
        u = np.asarray(u, dtype=float)
        return 0.25 * u ** -1.5 + 0.25 * (1.0 - u) ** -1.5

    return Potential(
        kind="sqrt_bernoulli",
        value=value,
        gradient=gradient,
        hessian_diag=hessian_diag,
        alpha=math.sqrt(2.0),
        beta=0.5 * eps0 ** -1.5,
        domain=Box(np.full(dim, eps0), np.full(dim, 1.0 - eps0)),
        params={"eps0": eps0},
    )


def _clipped_simplex_kl(dim: int, eta0: float) -> Potential:
    # negative entropy on the floor-clipped simplex; D_phi restricted there
    # is exactly the KL divergence, with Hessian diag(1/p_j) in [1, 1/eta0]
    def value(u):
        u = np.asarray(u, dtype=float)
        return np.sum(u * np.log(u), axis=-1)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return 1.0 + np.log(u)

    def hessian_diag(u):
        return 1.0 / np.asarray(u, dtype=float)

    return Potential(
        kind="clipped_simplex_kl",
        value=value,
        gradient=gradient,
        hessian_diag=hessian_diag,
        alpha=1.0,
        beta=1.0 / eta0,
        domain=ClippedSimplex(eta0=eta0, dim=dim),
        params={"eta0": eta0},
    )


_PARAMS = {"squared_l2": "bound", "sqrt_bernoulli": "eps0",
           "clipped_simplex_kl": "eta0"}


def builtin_potential(kind: str, dim: int, **params) -> Potential:
    """Construct one of the built-in potentials by name.

    kind: "squared_l2" (optional bound, default 1e6), "sqrt_bernoulli"
    (requires eps0), or "clipped_simplex_kl" (requires eta0).  A parameter
    the kind does not take is rejected.
    """
    if dim < 1:
        raise RejectedInputError("dim must be >= 1")
    if kind not in _PARAMS:
        raise RejectedInputError(f"unknown potential kind: {kind!r}")
    if set(params) - {_PARAMS[kind]}:
        raise RejectedInputError(
            f"{kind} takes only {_PARAMS[kind]!r}, got {sorted(params)}")
    if kind == "squared_l2":
        return _squared_l2(dim, float(params.get("bound", 1e6)))
    if kind == "sqrt_bernoulli":
        if "eps0" not in params:
            raise RejectedInputError("sqrt_bernoulli needs eps0")
        return _sqrt_bernoulli(dim, float(params["eps0"]))
    if "eta0" not in params:
        raise RejectedInputError("clipped_simplex_kl needs eta0")
    return _clipped_simplex_kl(dim, float(params["eta0"]))


def builtin_loss(kind: str, dim: int, **params) -> BregmanLoss:
    return BregmanLoss(builtin_potential(kind, dim, **params))
