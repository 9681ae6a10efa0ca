"""Reference black-box training procedures.

Two trainers exercise the black-box contract: an exact pointwise one (the
"saturated" class of all functions, where each design point is fit
independently) and an approximate linear class trained by gradient descent.
Downstream code treats both as opaque procedures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import FixedDesignDataset, PredictionMatrix
from .errors import ConvergenceError, RejectedInputError
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

    def fit(self, data: FixedDesignDataset) -> PredictionMatrix:
        return PredictionMatrix(
            _bregman_projection(self.loss, self.cset, data.responses))


@dataclass(frozen=True)
class LinearPredictor:
    """Affine map theta^T [x; 1], rows projected onto the compact set."""

    theta: np.ndarray
    cset: CompactSet

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.hstack([X, np.ones((X.shape[0], 1))]) @ self.theta
        return self.cset.project(Z)


@dataclass(frozen=True)
class LinearTrainer:
    """Approximate ERM over affine predictors, by monotone gradient descent.

    Predictions are clipped into the loss domain during optimization and
    projected onto the compact set at evaluation; the trainer is declared
    approximate and must be treated as an opaque procedure downstream.
    """

    loss: BregmanLoss
    cset: CompactSet
    max_iters: int = 500
    tol: float = 1e-10

    def _domain_clip(self, Z: np.ndarray) -> np.ndarray:
        return self.loss.domain.project(Z)

    def _objective(self, Xa, Y, theta) -> float:
        Z = self._domain_clip(Xa @ theta)
        return float(np.mean(self.loss._div_raw(Y, Z)))

    def fit_theta(self, data: FixedDesignDataset) -> np.ndarray:
        if data.inputs is None:
            raise RejectedInputError("linear trainer needs feature inputs")
        X, Y = data.inputs, data.responses
        n, d = Y.shape
        Xa = np.hstack([X, np.ones((n, 1))])
        p = self.loss.potential
        theta = np.zeros((Xa.shape[1], d))
        # start from the domain center so the Hessian oracle is evaluable
        theta[-1] = p.domain.center() if p.kind != "squared_l2" else 0.0
        obj = self._objective(Xa, Y, theta)
        trace = [obj]
        # conservative Lipschitz guess for the step; refined by backtracking
        step = 1.0 / (p.beta * max(1.0, float(np.linalg.norm(Xa, 2) ** 2) / n))
        for _ in range(self.max_iters):
            Z = self._domain_clip(Xa @ theta)
            G = Xa.T @ (p.hessian_diag(Z) * (Z - Y)) / n
            gnorm = float(np.linalg.norm(G))
            if gnorm <= self.tol:
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
            if not moved or (len(trace) > 2 and trace[-2] - trace[-1] <= self.tol * max(1.0, obj)):
                break
        if not np.isfinite(obj):
            raise ConvergenceError("linear fit diverged", trace=trace)
        return theta

    def fit_predictor(self, data: FixedDesignDataset) -> LinearPredictor:
        return LinearPredictor(theta=self.fit_theta(data), cset=self.cset)

    def fit(self, data: FixedDesignDataset) -> PredictionMatrix:
        return PredictionMatrix(self.fit_predictor(data).predict(data.inputs))


_TRAINERS = {"saturated": (SaturatedTrainer, set()),
             "linear": (LinearTrainer, {"max_iters", "tol"})}


def build_model(d: int, potential: str, potential_params: dict,
                cset_bound: float, trainer: dict):
    """(loss, compact set, trainer) for a model description.

    The set is the loss domain for clipped_simplex_kl and the box
    [-cset_bound, cset_bound]^d otherwise.  trainer is a descriptor dict:
    {"kind": "saturated"}, or {"kind": "linear"} with optional max_iters and
    tol; any other kind or key raises RejectedInputError.
    """
    loss = builtin_loss(potential, d, **potential_params)
    cset = (loss.domain if potential == "clipped_simplex_kl" else
            Box(np.full(d, -cset_bound), np.full(d, cset_bound)))
    options = dict(trainer)
    kind = options.pop("kind", "saturated")
    if kind not in _TRAINERS or not set(options) <= _TRAINERS[kind][1]:
        raise RejectedInputError(
            f"bad trainer descriptor {trainer!r}: the kinds are 'saturated', "
            "and 'linear' with optional max_iters and tol")
    return loss, cset, _TRAINERS[kind][0](loss, cset, **options)


def check_nonexpansive(loss: BregmanLoss, trainer, fstar_preds: PredictionMatrix,
                       noise: np.ndarray, inputs: np.ndarray | None = None) -> dict:
    """Diagnostic for the non-expansiveness contract of a training procedure.

    Fits on the noiseless and the noisy dataset and compares the discrepancy
    between the two fits against the gradient-noise inner product.  Reported,
    not asserted: no verification recipe exists for general procedures.
    """
    F = fstar_preds.values
    U = np.asarray(noise, dtype=float)
    if U.shape != F.shape:
        raise RejectedInputError("noise shape must match predictions")
    clean = FixedDesignDataset(inputs, F)
    noisy = FixedDesignDataset(inputs, F + U)
    fdag = trainer.fit(clean).values
    ftil = trainer.fit(noisy).values
    p = loss.potential
    lhs = float(np.mean(loss._div_raw(fdag, ftil)))
    rhs = float(np.mean(np.sum((p.gradient(ftil) - p.gradient(fdag)) * U, axis=-1)))
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs + 1e-9)}
