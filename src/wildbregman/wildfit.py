"""Wild refitting: symmetrized residues, wild responses, and the refit.

The procedure: fit once, form residues y_i - fhat(x_i), flip their signs
with a fresh Rademacher matrix, scale by rho, subtract from the fitted
values to build wild responses, and refit on those.  Wild optimism and the
noise-scale calibration live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import (FixedDesignDataset, PredictionMatrix,
                     empirical_discrepancy, sample_sign_matrix)
from .errors import RejectedInputError, SolveError
from .geometry import CompactSet, _mean, _row_sum
from .potentials import BregmanLoss

# calibrate_rho's relative radius tolerance, rho range, largest log-rho
# step while bracketing, and budget of radius evaluations
_TOL_REL = 1e-3
_RHO_LO = 1e-8
_RHO_HI = 1e8
_MAX_LOG_STEP = math.log(1e3)
_MAX_STEPS = 100


@dataclass(frozen=True)
class WildRefitResult:
    fhat: PredictionMatrix
    fdiamond: PredictionMatrix
    wild_responses: np.ndarray
    residues: np.ndarray
    signs: np.ndarray  # the n x d Rademacher matrix, floats +/-1
    rho: float
    discrepancy: float  # L_n(fhat, fdiamond) under the refit's loss
    clip_count: int = 0

    @property
    def symmetrized(self) -> np.ndarray:
        """The sign-flipped residue matrix eps (.) residues."""
        return self.signs * self.residues

    @property
    def radius(self) -> float:
        """sqrt L_n(fhat, fdiamond), the realized wild radius."""
        return float(np.sqrt(self.discrepancy))


def _refit_stage(trainer, X, Y, stage) -> PredictionMatrix:
    """trainer.fit(X, Y), refused unless a finite 2-d array of Y's shape: the
    one place trainer output enters the package.  Every error, the refusal
    included, is prefixed with [stage]."""
    try:
        F = PredictionMatrix(trainer.fit(X, Y))
        if F.values.shape != Y.shape:
            raise RejectedInputError(f"trainer returned shape {F.values.shape} "
                                     f"for responses of shape {Y.shape}")
        return F
    except Exception as exc:
        exc.args = (f"[{stage}] {exc.args[0] if exc.args else exc}",) + exc.args[1:]
        raise


def _require_positive(name: str, value: float):
    """Refuse a value that is not finite and > 0, NaN included."""
    if not 0 < value < math.inf:
        raise RejectedInputError(f"{name} must be finite and > 0, got {value}")


def _wild_responses(loss, fhat, residues, signs, rho):
    """(wild responses, clip_count) at noise scale rho: the rows are pulled
    back onto the loss domain, and the pulled-back rows counted."""
    _require_positive("rho", rho)
    Y_wild = fhat.values - rho * signs * residues
    projected = loss.domain.project(Y_wild)
    return projected, int(np.count_nonzero(_row_sum(projected != Y_wild)))


def _wild_result(loss, trainer, X, fhat, residues, signs, rho) -> WildRefitResult:
    """Build the wild responses at noise scale rho and refit on them."""
    Y_wild, clip_count = _wild_responses(loss, fhat, residues, signs, rho)
    fdiamond = _refit_stage(trainer, X, Y_wild, "refit")
    return WildRefitResult(fhat=fhat, fdiamond=fdiamond, wild_responses=Y_wild,
                           residues=residues, signs=signs, rho=float(rho),
                           discrepancy=empirical_discrepancy(loss, fhat, fdiamond),
                           clip_count=clip_count)


def wild_refit(loss: BregmanLoss, cset: CompactSet, trainer,
               data: FixedDesignDataset, rho: float, seed: int) -> WildRefitResult:
    """Run the full wild-refitting procedure at noise scale rho.  rho is
    checked, the signs drawn and the responses refused outside the loss
    domain before the first fit."""
    _require_positive("rho", rho)
    signs = sample_sign_matrix(data.n, data.d, seed)
    loss._check_domain(data.responses)
    fhat = _refit_stage(trainer, data.inputs, data.responses, "initial fit")
    return _wild_result(loss, trainer, data.inputs, fhat,
                        data.responses - fhat.values, signs, rho)


def wild_optimism(loss: BregmanLoss, result: WildRefitResult) -> float:
    """Three-term wild optimism of the refitted solution.

    (1/(n rho)) sum l(fhat_i, fdia_i) - (1/(n rho)) sum l(ywild_i, fdia_i)
    + beta rho mean ||eps_i (.) res_i||^2, with the certified beta; the
    first sum is n result.discrepancy.
    """
    _require_positive("rho", result.rho)
    rho = result.rho
    term1 = result.discrepancy / rho
    term2 = _mean(loss.divergence_rows(result.wild_responses,
                                       result.fdiamond.values)) / rho
    z = result.symmetrized
    term3 = loss.beta * rho * _mean(_row_sum(z * z))
    return term1 - term2 + term3


def _require_same_data(result: WildRefitResult, responses: np.ndarray):
    """Refuse responses that differ from result.fhat by other than residues."""
    if responses.shape != result.residues.shape or not np.array_equal(
            responses - result.fhat.values, result.residues):
        raise RejectedInputError("responses are not the data of the refit")


def calibrate_rho(loss: BregmanLoss, trainer, data: FixedDesignDataset,
                  start: WildRefitResult, target_radius: float) -> dict:
    """Find rho with sqrt L_n(fhat, fdiamond_rho) ~= target_radius.

    Continues `start`, a wild refit of data: every later point refits from
    start.fhat with start.signs.  The search runs in log rho on g = log(r /
    target): the slope-1 step, exact when nothing clips, then secant
    extrapolation until the target is bracketed, each step clamped to a
    factor of 1e3 and to [_RHO_LO, _RHO_HI]; then Illinois regula falsi
    (Dowell & Jarratt, 1971), bisecting whenever the secant point leaves
    the bracket.  The result is the one wild_refit gives at the returned rho.
    """
    _require_positive("target_radius", target_radius)
    _require_same_data(start, data.responses)
    trace: list[tuple[float, float]] = []
    t_lo, t_hi = math.log(_RHO_LO), math.log(_RHO_HI)
    t, result = math.log(start.rho), start
    prev = bracket = None  # last point (t, g); far end once g changed sign
    while len(trace) < _MAX_STEPS:
        if trace:
            result = _wild_result(loss, trainer, data.inputs, start.fhat,
                                  start.residues, start.signs,
                                  min(max(math.exp(t), _RHO_LO), _RHO_HI))
        r = result.radius
        trace.append((result.rho, r))
        if abs(r - target_radius) <= _TOL_REL * target_radius:
            return {"rho": result.rho, "achieved_radius": r, "result": result,
                    "trace": trace}
        g = math.log(r / target_radius) if r > 0 else -math.inf
        if bracket is None and prev is not None and (g < 0) != (prev[1] < 0):
            bracket = prev
        elif bracket is not None:
            # Illinois: a bracket end kept twice in a row has its g halved
            bracket = ((bracket[0], 0.5 * bracket[1]) if (g < 0) == (prev[1] < 0)
                       else prev)
        if bracket is None:
            slope = 1.0 if prev is None else (g - prev[1]) / (t - prev[0])
            step = -g / (slope if 0.0 < slope < math.inf else 1.0)
            t_next = min(max(t + min(max(step, -_MAX_LOG_STEP), _MAX_LOG_STEP),
                             t_lo), t_hi)
            if t_next == t:
                raise SolveError(
                    "target radius not bracketed below rho_hi" if g < 0 else
                    "target radius not bracketed above rho_lo", trace=trace)
        else:
            b, gb = bracket
            t_next = (t * gb - b * g) / (gb - g)
            if not min(t, b) < t_next < max(t, b):
                t_next = 0.5 * (t + b)
                if not min(t, b) < t_next < max(t, b):
                    raise SolveError(
                        "radius map jumps over the target: the bracket "
                        "closed with no rho within tolerance", trace=trace)
        prev, t = (t, g), t_next
    raise SolveError(f"no rho within tolerance in {_MAX_STEPS} steps",
                     trace=trace)
