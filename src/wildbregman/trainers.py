"""Reference black-box training procedures.

A trainer is any object with `fit(X, Y)` returning the (n, d) array of its
fitted values on the design, where X is the (n, p) inputs or None and Y
the (n, d) responses.  Two trainers exercise that contract: an exact
pointwise one (the "saturated" class of all functions, where each design
point is fit independently) and a linear class (least squares for
squared_l2, gradient descent otherwise).  Downstream code treats both as
opaque procedures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError, SolveError
from .geometry import Box, CompactSet
from .potentials import BregmanLoss, _bregman_projection, builtin_loss


@dataclass(frozen=True)
class SaturatedTrainer:
    """ERM over all functions: each design row is fit independently.

    Row i minimises D_phi(y_i, z) over the set: the Bregman projection of
    y_i, in closed form per (potential, set) pair
    (`potentials._bregman_projection`).  Any other pair raises.
    """

    loss: BregmanLoss
    cset: CompactSet

    def fit(self, X, Y) -> np.ndarray:
        return _bregman_projection(self.loss, self.cset, Y)


@dataclass(frozen=True)
class LinearPredictor:
    """Affine map theta^T [x; 1], rows projected onto the compact set."""

    theta: np.ndarray
    cset: CompactSet

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.hstack([X, np.ones((X.shape[0], 1))]) @ self.theta
        return self.cset.project(Z)


def _augmented(X, Y) -> tuple:
    """([X, 1], Y) as float arrays; a linear fit needs the inputs."""
    if X is None:
        raise RejectedInputError("linear trainer needs feature inputs")
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    return np.hstack([X, np.ones((Y.shape[0], 1))]), Y


_MAX_ITERS, _TOL = 500, 1e-10  # gradient descent's iteration cap and tolerance


@dataclass(frozen=True)
class LinearTrainer:
    """ERM over affine predictors: exact least squares (SVD, minimum-norm on
    rank-deficient designs) for squared_l2; otherwise monotone gradient
    descent with predictions clipped into the loss domain, bounded by
    _MAX_ITERS and _TOL.  Predictions are projected onto the compact set;
    downstream it is an opaque procedure.  `fit_predictor` returns the
    fitted LinearPredictor, whose `theta` holds the coefficients.
    """

    loss: BregmanLoss
    cset: CompactSet

    def _objective(self, Xa, Y, theta) -> float:
        Z = self.loss.domain.project(Xa @ theta)
        return float(np.mean(self.loss._div_raw(Y, Z)))

    def _coefficients(self, Xa, Y) -> np.ndarray:
        """The fitted theta on the augmented design Xa = [X, 1]."""
        n, d = Y.shape
        loss = self.loss
        if loss.kind == "squared_l2":
            return np.linalg.lstsq(Xa, Y, rcond=None)[0]
        theta = np.zeros((Xa.shape[1], d))
        # start from the domain center so the Hessian oracle is evaluable
        theta[-1] = loss.domain.center()
        obj = self._objective(Xa, Y, theta)
        trace = [obj]
        # conservative Lipschitz guess for the step; refined by backtracking
        step = 1.0 / (loss.beta * max(1.0, float(np.linalg.norm(Xa, 2) ** 2) / n))
        for _ in range(_MAX_ITERS):
            Z = loss.domain.project(Xa @ theta)
            G = Xa.T @ (loss.hessian_diag(Z) * (Z - Y)) / n
            gnorm = float(np.linalg.norm(G))
            if gnorm <= _TOL:
                break
            eta, moved = step, False
            for _ in range(50):
                cand = theta - eta * G
                obj_new = self._objective(Xa, Y, cand)
                if obj_new <= obj - 1e-4 * eta * gnorm ** 2:
                    theta, obj, moved = cand, obj_new, True
                    step = min(eta * 2.0, 1e6)
                    break
                eta *= 0.5
            trace.append(obj)
            if not moved or (len(trace) > 2 and trace[-2] - trace[-1] <= _TOL * max(1.0, obj)):
                break
        if not np.isfinite(obj):
            raise SolveError("linear fit diverged", trace=trace)
        return theta

    def fit_predictor(self, X, Y) -> LinearPredictor:
        Xa, Y = _augmented(X, Y)
        return LinearPredictor(self._coefficients(Xa, Y), self.cset)

    def fit(self, X, Y) -> np.ndarray:
        Xa, Y = _augmented(X, Y)
        return self.cset.project(Xa @ self._coefficients(Xa, Y))


_TRAINERS = {"saturated": SaturatedTrainer, "linear": LinearTrainer}


def build_model(d: int, potential: str, potential_params: dict,
                cset_bound: float, trainer: dict):
    """(loss, compact set, trainer) for a model description.

    The set is the loss domain, cut to the box [-cset_bound, cset_bound]^d
    when the domain is a box.  trainer is a descriptor dict,
    {"kind": "saturated"} (the default) or {"kind": "linear"}; other kinds or
    keys, and values of the wrong type, raise RejectedInputError.
    """
    if not (isinstance(potential, str) and isinstance(potential_params, dict)
            and isinstance(trainer, dict)
            and isinstance(cset_bound, (int, float))):
        raise RejectedInputError("potential must be a name, potential_params "
                                 "and trainer objects, cset_bound a number")
    kind = trainer.get("kind", "saturated")
    if (set(trainer) - {"kind"} or not isinstance(kind, str)
            or kind not in _TRAINERS):
        raise RejectedInputError(
            f"bad trainer descriptor {trainer!r}: the kinds are 'saturated' "
            "and 'linear', and kind is its only key")
    loss = builtin_loss(potential, d, **potential_params)
    dom = loss.domain
    cset = (Box(np.maximum(dom.lo, -cset_bound),
                np.minimum(dom.hi, cset_bound)) if isinstance(dom, Box) else dom)
    return loss, cset, _TRAINERS[kind](loss, cset)
