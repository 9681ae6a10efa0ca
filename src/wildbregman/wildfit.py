"""Wild refitting: symmetrized residues, wild responses, and the refit.

The procedure: fit once, form residues y_i - fhat(x_i), flip their signs
with a fresh Rademacher matrix, scale by rho, subtract from the fitted
values to build wild responses, and refit on those.  Wild optimism and the
noise-scale calibration live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import (FixedDesignDataset, PredictionMatrix, SignMatrix,
                     empirical_discrepancy, sample_sign_matrix)
from .errors import CalibrationError, RejectedInputError
from .geometry import CompactSet
from .potentials import BregmanLoss

# calibrate_rho's relative radius tolerance, rho floor and bisection budget
_TOL_REL = 1e-3
_RHO_LO = 1e-8
_MAX_BISECT = 200


@dataclass(frozen=True)
class WildRefitResult:
    fhat: PredictionMatrix
    fdiamond: PredictionMatrix
    wild_responses: np.ndarray
    residues: np.ndarray
    signs: SignMatrix
    rho: float
    clip_count: int = 0

    @property
    def symmetrized(self) -> np.ndarray:
        """The sign-flipped residue matrix eps (.) residues."""
        return self.signs.values * self.residues

    def radius(self, loss: BregmanLoss) -> float:
        """sqrt L_n(fhat, fdiamond), the realized wild radius."""
        return float(np.sqrt(empirical_discrepancy(loss, self.fhat, self.fdiamond)))


def _refit_stage(trainer, data, stage):
    try:
        return trainer.fit(data)
    except Exception as exc:
        exc.args = (f"[{stage}] {exc.args[0] if exc.args else exc}",) + exc.args[1:]
        raise


def _wild_result(loss, trainer, data, fhat, signs, rho) -> WildRefitResult:
    """Build the wild responses at noise scale rho and refit on them.

    squared_l2 lives on a large box; restricted-domain potentials need their
    wild responses pulled back inside, and the pulled-back rows are counted.
    """
    residues = data.responses - fhat.values
    Y_wild = fhat.values - rho * signs.values * residues
    clip_count = 0
    if loss.potential.kind != "squared_l2":
        projected = loss.domain.project(Y_wild)
        clip_count = int(np.sum(np.any(projected != Y_wild, axis=1)))
        Y_wild = projected
    fdiamond = _refit_stage(trainer, data.with_responses(Y_wild), "refit")
    return WildRefitResult(fhat=fhat, fdiamond=fdiamond, wild_responses=Y_wild,
                           residues=residues, signs=signs, rho=float(rho),
                           clip_count=clip_count)


def wild_refit(loss: BregmanLoss, cset: CompactSet, trainer,
               data: FixedDesignDataset, rho: float, seed: int) -> WildRefitResult:
    """Run the full wild-refitting procedure at noise scale rho."""
    if rho <= 0:
        raise RejectedInputError("rho must be > 0")
    fhat = _refit_stage(trainer, data, "initial fit")
    signs = sample_sign_matrix(data.n, data.d, seed)
    return _wild_result(loss, trainer, data, fhat, signs, rho)


def wild_optimism(loss: BregmanLoss, result: WildRefitResult) -> float:
    """Three-term wild optimism of the refitted solution.

    (1/(n rho)) sum l(fhat_i, fdia_i) - (1/(n rho)) sum l(ywild_i, fdia_i)
    + beta rho mean ||eps_i (.) res_i||^2, with the certified beta.
    """
    if result.rho <= 0:
        raise RejectedInputError("result has non-positive rho")
    rho = result.rho
    Fh, Fd = result.fhat.values, result.fdiamond.values
    term1 = float(np.mean(loss.divergence_rows(Fh, Fd))) / rho
    term2 = float(np.mean(loss.divergence_rows(result.wild_responses, Fd))) / rho
    z = result.symmetrized
    term3 = loss.beta * rho * float(np.mean(np.sum(z * z, axis=-1)))
    return term1 - term2 + term3


def calibrate_rho(loss: BregmanLoss, cset: CompactSet, trainer,
                  data: FixedDesignDataset, target_radius: float, *,
                  rho_hi: float = 1e8, seed: int = 0) -> dict:
    """Find rho with sqrt L_n(fhat, fdiamond_rho) ~= target_radius.

    One sign draw is reused for every candidate rho, so the radius map is
    deterministic.  Bracket by doubling, then bisect; a log-grid scan is the
    fallback when the map turns out non-monotone on the bracket.  The
    returned result is the one wild_refit gives at the returned rho.
    """
    if target_radius <= 0:
        raise RejectedInputError("target_radius must be > 0")
    fhat = _refit_stage(trainer, data, "initial fit")
    signs = sample_sign_matrix(data.n, data.d, seed)

    cache: dict[float, WildRefitResult] = {}

    def refit_at(rho: float) -> WildRefitResult:
        if rho not in cache:
            cache[rho] = _wild_result(loss, trainer, data, fhat, signs, rho)
        return cache[rho]

    trace: list[tuple[float, float]] = []

    def radius_at(rho: float) -> float:
        r = refit_at(rho).radius(loss)
        trace.append((rho, r))
        return r

    def finish(rho: float, r: float) -> dict:
        return {"rho": rho, "achieved_radius": r, "result": refit_at(rho),
                "trace": list(trace)}

    # bracket the target by doubling / halving from 1
    lo = hi = min(max(1.0, _RHO_LO), rho_hi)
    r = radius_at(lo)
    if abs(r - target_radius) <= _TOL_REL * target_radius:
        return finish(lo, r)
    if r < target_radius:
        while r < target_radius:
            if hi >= rho_hi:
                raise CalibrationError("target radius not bracketed below rho_hi",
                                       trace=trace)
            hi = min(hi * 2.0, rho_hi)
            r = radius_at(hi)
        lo = hi / 2.0
    else:
        while r > target_radius:
            if lo <= _RHO_LO:
                raise CalibrationError("target radius not bracketed above rho_lo",
                                       trace=trace)
            lo = max(lo / 2.0, _RHO_LO)
            r = radius_at(lo)
        hi = lo * 2.0

    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        r = radius_at(mid)
        if abs(r - target_radius) <= _TOL_REL * target_radius:
            return finish(mid, r)
        if r < target_radius:
            lo = mid
        else:
            hi = mid

    # non-monotone radius map: fall back to a log-spaced scan
    grid = np.geomspace(max(lo / 4.0, _RHO_LO), min(hi * 4.0, rho_hi), 200)
    radii = np.array([radius_at(g) for g in grid])
    k = int(np.argmin(np.abs(radii - target_radius)))
    if abs(radii[k] - target_radius) <= _TOL_REL * target_radius:
        return finish(float(grid[k]), float(radii[k]))
    raise CalibrationError(
        f"calibration failed: best |achieved-target|/target = "
        f"{abs(radii[k] - target_radius) / target_radius:.3g}", trace=trace)
