"""Reference black-box training procedures.

A trainer is any object with `fit(X, Y)` returning the (n, d) array of its
fitted values on the design, where X is the (n, p) inputs or None and Y
the (n, d) responses.  Two trainers exercise that contract: an exact
pointwise one (the "saturated" class of all functions, where each design
point is fit independently) and a linear class (least squares for
squared_l2; otherwise Gauss-Newton steps with Fisher weights phi''(z) and
the exact Jacobian of the projection onto the loss domain, stopped by the
Newton decrement at the objective's rounding, which find a stationary
point).  Downstream code treats both as opaque procedures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError, SolveError
from .geometry import Box, CompactSet, _mean, _row_sum
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
        if X.ndim != 2 or X.shape[1] != self.theta.shape[0] - 1:
            raise RejectedInputError(f"inputs of shape {X.shape} for a fit "
                                     f"on {self.theta.shape[0] - 1} features")
        return self.cset.project(_with_ones(X) @ self.theta)


def _with_ones(X: np.ndarray) -> np.ndarray:
    """[X, 1], as np.hstack([X, np.ones((n, 1))]) builds it, in one buffer."""
    n, p = X.shape
    Xa = np.empty((n, p + 1))
    Xa[:, :p] = X
    Xa[:, p] = 1.0
    return Xa


def _augmented(X, Y) -> tuple:
    """([X, 1], Y) as float arrays; a linear fit needs 2-d inputs, one row
    per response row."""
    if X is None:
        raise RejectedInputError("linear trainer needs feature inputs")
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise RejectedInputError(f"linear trainer needs 2-d X and Y with one "
                                 f"row each, got {X.shape} and {Y.shape}")
    return _with_ones(X), Y


# Gauss-Newton steps before the fit gives up, and the objective's rounding
# relative to its scale: below it a decrease cannot be told from noise
_MAX_ITERS, _ROUNDING = 100, 64.0 * np.finfo(float).eps


def _residue_jacobian(dom, Xa, s, Z) -> np.ndarray:
    """The Jacobian in theta of the weighted residues s (Z - Y), the weights
    s held fixed, where Z = dom.project(Xa @ theta): G[(i, k), (a, j)] =
    s_ik J_i[k, j] x_ia, J_i the Jacobian of the projection at row i.  A box passes the entries strictly
    inside it and stops the clipped ones; the clipped simplex moves its
    unclipped set m by the projection onto {sum = 0}, diag(m) - m m^T / |m|.
    """
    n, d = Z.shape
    eye = np.eye(d)
    if isinstance(dom, Box):
        J = ((Z > dom.lo) & (Z < dom.hi))[:, :, None] * eye
    else:
        m = Z > dom.eta0
        k = _row_sum(m)[:, None, None]
        J = m[:, :, None] * (eye - m[:, None, :] / k)
    SJ = s[:, :, None] * J
    return (SJ[:, :, None, :] * Xa[:, None, :, None]).reshape(n * d, -1)


@dataclass(frozen=True)
class LinearTrainer:
    """ERM over affine predictors, projected onto the compact set;
    downstream it is an opaque procedure.  `fit_predictor` returns the
    fitted LinearPredictor, whose `theta` holds the coefficients.

    For squared_l2 the coefficients are the exact least-squares solution
    (SVD, minimum-norm on rank-deficient designs).  For any other potential
    they are found by damped Gauss-Newton (Fisher scoring) on
    L(theta) = mean_i D_phi(y_i, P(theta^T [x_i; 1])), P the projection onto
    the loss domain.  Each step solves, by `lstsq`, the normal equations of
    the residues sqrt(phi''(z)) (z - y), linearised with the Fisher weights
    phi''(z) and the exact Jacobian of P: a box's clipped entries contribute
    nothing, and the clipped simplex couples the coordinates of a row, so
    its system is singular along the all-ones direction that P ignores.
    The full step is tried first, then halved until L falls.  The fit stops
    when the Newton decrement, half the gradient's inner product with the
    step, falls below L's rounding, and raises SolveError with its
    (L, |gradient|) trace after _MAX_ITERS steps or when no step decreases L.
    D_phi(y, .) is not convex in its second argument, so the result is a
    stationary point of L, not a proven ERM.
    """

    loss: BregmanLoss
    cset: CompactSet

    def _coefficients(self, Xa, Y) -> np.ndarray:
        """The fitted theta on the augmented design Xa = [X, 1]."""
        n, d = Y.shape
        loss, dom = self.loss, self.loss.domain
        if loss.kind == "squared_l2":
            return np.linalg.lstsq(Xa, Y, rcond=None)[0]

        def at(theta):
            Z = dom.project(Xa @ theta)
            return _mean(loss._div_raw(Y, Z)), Z

        theta = np.zeros((Xa.shape[1], d))
        # start from the domain center so the Hessian oracle is evaluable
        theta[-1] = dom.center()
        obj, Z = at(theta)
        trace = []
        for _ in range(_MAX_ITERS):
            s = np.sqrt(loss.hessian_diag(Z))
            res = s * (Z - Y)
            G = _residue_jacobian(dom, Xa, s, Z)
            grad = G.T @ res.ravel()  # the gradient of n L
            step = np.linalg.lstsq(G.T @ G, grad, rcond=None)[0].reshape(-1, d)
            if not isinstance(dom, Box):  # drop what P ignores
                step -= np.mean(step, axis=1, keepdims=True)
            decrement = 0.5 * float(grad @ step.ravel()) / n
            trace.append((obj, float(np.linalg.norm(grad)) / n))
            # L's scale: itself, and the move a relative error in Z makes
            scale = obj + float(np.sum(np.abs(s * res * Z))) / n
            if decrement <= _ROUNDING * scale:
                return theta
            eta = 1.0
            for _ in range(50):
                cand = theta - eta * step
                obj_new, Z_new = at(cand)
                # Armijo at 1e-4 of the slope along the step, 2 decrement
                if obj_new <= obj - 1e-4 * eta * 2.0 * decrement:
                    theta, obj, Z = cand, obj_new, Z_new
                    break
                eta *= 0.5
            else:
                raise SolveError("linear fit: no step decreases the objective",
                                 trace=trace)
        raise SolveError(f"linear fit not stationary after {_MAX_ITERS} "
                         "Gauss-Newton steps", trace=trace)

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
