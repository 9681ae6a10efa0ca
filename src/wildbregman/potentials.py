"""Bregman losses of convex potentials, with certified curvature.

A loss carries divergence/gradient/diagonal-Hessian oracles of its
potential together with strong-convexity and smoothness constants (alpha,
beta) that are valid on a declared compact domain.  All downstream bounds
consume exactly these constants, so evaluation outside the domain is
refused rather than silently extrapolated.

Each divergence is summed from coordinate terms written without the
cancellation of phi(x) - phi(y) - <grad phi(y), x - y> at x ~ y; with
d = x - y they are
  squared_l2:      d^2 / 2;
  sqrt_bernoulli:  (d^2 / 2) [1 / ((sqrt x + sqrt y)^2 sqrt y)
                   + 1 / ((sqrt(1-x) + sqrt(1-y))^2 sqrt(1-y))];
  KL:              y h(d / y), h(t) = (1 + t) log1p(t) - t, from its
                   Taylor series through t^8 when |t| < 1e-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RejectedInputError
from .geometry import Box, ClippedSimplex, CompactSet, _row_sum, waterfill

Array = np.ndarray


@dataclass(frozen=True)
class BregmanLoss:
    """Loss l(x, y) = D_phi(x, y) of a convex generator phi, with (alpha,
    beta) certified on `domain` and quasi-triangle constant c0.

    `divergence_terms` maps two (..., d) arrays to the (..., d) coordinate
    terms of D_phi; `gradient` and `hessian_diag` are elementwise maps of
    the same shape as their input.  All built-ins are coordinate-separable,
    hence the diagonal Hessian.
    """

    kind: str
    divergence_terms: Callable[[Array, Array], Array]
    gradient: Callable[[Array], Array]
    hessian_diag: Callable[[Array], Array]
    alpha: float
    beta: float
    domain: CompactSet

    def __post_init__(self):
        if not (0 < self.alpha <= self.beta):
            raise RejectedInputError(
                f"need 0 < alpha <= beta, got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def c0(self) -> float:
        return math.sqrt(self.beta / self.alpha)

    def _check_domain(self, *points):
        for z in points:
            if not self.domain.contains(z):
                raise RejectedInputError(
                    f"point outside the certified domain of {self.kind}"
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
        return _row_sum(self.divergence_terms(X, Y))


def _bregman_projection(loss: BregmanLoss, cset: CompactSet, A) -> np.ndarray:
    """Rows of argmin_u D_phi(a, u) over the set, in closed form.

    Only the u-terms -phi(u) - <grad phi(u), a - u> of D_phi(a, u) matter,
    so a row a may lie outside the domain.  On a box, d/du_j of them is
    phi''(u_j) (u_j - a_j), with the sign of u_j - a_j for every separable
    potential, so the minimiser is the clamp.  On the clipped simplex,
    squared_l2 gives the Euclidean projection, and KL, whose u-terms are
    -sum_j a_j log u_j + const under sum u = 1, the water-filling of a.  Any
    other pair raises RejectedInputError.  It is the saturated fit and the
    inner argmax of the ball supremum's Lagrangian dual.
    """
    kind = loss.kind
    if isinstance(cset, Box) or kind == "squared_l2":
        return cset.project(A)
    if kind == "clipped_simplex_kl":
        return waterfill(A, cset.eta0)
    raise RejectedInputError(
        f"no closed-form Bregman projection for {kind} on {type(cset).__name__}")


def _squared_l2(dim: int, bound: float) -> BregmanLoss:
    return BregmanLoss(
        kind="squared_l2",
        divergence_terms=lambda x, y: 0.5 * np.square(x - y),
        gradient=lambda u: np.asarray(u, dtype=float),
        hessian_diag=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        alpha=1.0,
        beta=1.0,
        domain=Box(np.full(dim, -bound), np.full(dim, bound)),
    )


def _sqrt_bernoulli(dim: int, eps0: float) -> BregmanLoss:
    if not 0 < eps0 < 0.5:
        raise RejectedInputError("sqrt_bernoulli requires 0 < eps0 < 0.5")

    def divergence_terms(x, y):
        sx, sy, cx, cy = np.sqrt(x), np.sqrt(y), np.sqrt(1.0 - x), np.sqrt(1.0 - y)
        return 0.5 * np.square(x - y) * (1.0 / (np.square(sx + sy) * sy)
                                         + 1.0 / (np.square(cx + cy) * cy))

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return -0.5 / np.sqrt(u) + 0.5 / np.sqrt(1.0 - u)

    def hessian_diag(u):
        u = np.asarray(u, dtype=float)
        return 0.25 * u ** -1.5 + 0.25 * (1.0 - u) ** -1.5

    return BregmanLoss(
        kind="sqrt_bernoulli",
        divergence_terms=divergence_terms,
        gradient=gradient,
        hessian_diag=hessian_diag,
        alpha=math.sqrt(2.0),
        beta=0.5 * eps0 ** -1.5,
        domain=Box(np.full(dim, eps0), np.full(dim, 1.0 - eps0)),
    )


# h(t) = (1 + t) log1p(t) - t = sum_{k>=2} (-1)^k t^k / (k (k - 1)): the
# coefficients of t^8 ... t^2, and the |t| below which the series is used
_KL_SERIES = [(-1) ** k / (k * (k - 1)) for k in range(8, 1, -1)]
_KL_SERIES_BELOW = 1e-2


def _clipped_simplex_kl(dim: int, eta0: float) -> BregmanLoss:
    # negative entropy on the floor-clipped simplex; D_phi restricted there
    # is exactly the KL divergence, with Hessian diag(1/p_j) in [1, 1/eta0]
    def divergence_terms(x, y):
        t = (x - y) / y
        h = (1.0 + t) * np.log1p(t) - t
        small = np.abs(t) < _KL_SERIES_BELOW
        return y * np.where(small, t * t * np.polyval(_KL_SERIES, t), h)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return 1.0 + np.log(u)

    def hessian_diag(u):
        return 1.0 / np.asarray(u, dtype=float)

    return BregmanLoss(
        kind="clipped_simplex_kl",
        divergence_terms=divergence_terms,
        gradient=gradient,
        hessian_diag=hessian_diag,
        alpha=1.0,
        beta=1.0 / eta0,
        domain=ClippedSimplex(eta0=eta0, dim=dim),
    )


# each built-in: its constructor, the one parameter it takes, and that
# parameter's default
_BUILTINS = {"squared_l2": (_squared_l2, "bound", 1e6),
             "sqrt_bernoulli": (_sqrt_bernoulli, "eps0", 0.05),
             "clipped_simplex_kl": (_clipped_simplex_kl, "eta0", 0.1)}


def builtin_loss(kind: str, dim: int, **params) -> BregmanLoss:
    """Construct one of the built-in losses by name.

    kind: "squared_l2" (parameter bound, default 1e6), "sqrt_bernoulli"
    (eps0, default 0.05) or "clipped_simplex_kl" (eta0, default 0.1).  A
    parameter the kind does not take is rejected.
    """
    if dim < 1:
        raise RejectedInputError("dim must be >= 1")
    if kind not in _BUILTINS:
        raise RejectedInputError(f"unknown potential kind: {kind!r}")
    make, name, default = _BUILTINS[kind]
    if set(params) - {name}:
        raise RejectedInputError(
            f"{kind} takes only {name!r}, got {sorted(params)}")
    return make(dim, float(params.get(name, default)))
