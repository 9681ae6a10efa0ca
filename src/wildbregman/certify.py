"""Assembly of excess-risk certificates in fixed and random design."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .complexity import RadiusReport, _vertices, deviation_term
from .design import FixedDesignDataset
from .errors import RejectedInputError
from .geometry import Box, CompactSet, _mean
from .potentials import BregmanLoss
from .wildfit import (WildRefitResult, _require_same_data, calibrate_rho,
                      wild_optimism, wild_refit)

# failure budgets b of the two certificates: each holds with probability
# 1 - b delta, so delta must lie below 1/b
_FIXED_BUDGET = 8.0
_RANDOM_BUDGET = 11.0


@dataclass(frozen=True)
class RiskCertificate:
    training_error: float
    wild_optimism_abs: float
    pilot: float
    deviation: float
    stability_addend: float
    total: float
    delta: float
    failure_budget: float
    mode: str  # fixed_design | random_design
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StabilityConstants:
    M: float  # sup of the divergence over the set squared
    L: float  # sup of the potential gradient norm over the set


def fixed_design_certificate(loss: BregmanLoss, refit: WildRefitResult,
                             radius: RadiusReport, delta: float, pilot: float,
                             misspec: float, w_inf: float, *,
                             responses: np.ndarray,
                             calibration_tol: float = 5e-3) -> RiskCertificate:
    """Fixed-design certificate: training error + 2 (|wild optimism| + pilot
    + deviation), valid with probability 1 - 8 delta when calibrated.
    pilot, misspec, w_inf and calibration_tol must be finite and >= 0, and
    responses the data refit was fit on (responses - fhat = residues)."""
    Y = np.asarray(responses, dtype=float)
    _require_same_data(refit, Y)
    if not 0 < delta < 1.0 / _FIXED_BUDGET:
        raise RejectedInputError("fixed design requires 0 < delta < 1/8")
    if not all(math.isfinite(v) and v >= 0 for v in (pilot, calibration_tol)):
        raise RejectedInputError("pilot and calibration_tol must be finite and >= 0")
    achieved = refit.radius
    target = 3.0 * loss.c0 * radius.r_certified
    if not abs(achieved - target) <= calibration_tol * target:  # NaN too
        raise RejectedInputError(
            f"calibration mismatch: achieved wild radius {achieved:.6g} vs "
            f"required 3 sqrt(beta/alpha) r = {target:.6g}")
    n = refit.fhat.n
    training = _mean(loss.divergence_rows(Y, refit.fhat.values))
    opt_abs = abs(wild_optimism(loss, refit))
    dev = deviation_term(loss, misspec, radius.r_certified, w_inf, n,
                         refit.fhat.d, delta)
    total = training + 2.0 * (opt_abs + pilot + dev)
    prov = {"radius_method": radius.method, "misspec": misspec, "w_inf": w_inf,
            "t_substitution": "t = sqrt(log(1/delta))"}
    return RiskCertificate(training_error=training, wild_optimism_abs=opt_abs,
                           pilot=pilot, deviation=dev, stability_addend=0.0,
                           total=total, delta=delta,
                           failure_budget=_FIXED_BUDGET * delta,
                           mode="fixed_design", provenance=prov)


def certify_dataset(loss: BregmanLoss, cset: CompactSet, trainer,
                    data: FixedDesignDataset, delta: float, *, seed: int,
                    radius, pilot, misspec: float, w_inf: float):
    """(fixed-design certificate, calibrated refit) of one dataset: a wild
    refit at rho = 1 with the signs of seed, report = radius(that refit),
    rho calibrated to the wild radius R = 3 sqrt(beta/alpha) r_certified,
    and pilot(calibrated refit, R) bounding the pilot supremum at R."""
    start = wild_refit(loss, cset, trainer, data, 1.0, seed=seed)
    report = radius(start)
    R = 3.0 * loss.c0 * report.r_certified
    result = calibrate_rho(loss, trainer, data, start, R)["result"]
    return fixed_design_certificate(loss, result, report, delta,
                                    pilot(result, R), misspec, w_inf,
                                    responses=data.responses), result


def stability_constants(loss: BregmanLoss,
                        cset: CompactSet) -> StabilityConstants:
    """Exact sup ||grad phi|| (L) and sup D_phi (M) over the set.

    Both peak at the set's vertices.  phi' is monotone, so |phi'| peaks at
    an end of each coordinate; D_phi(., y) is convex and D_phi(x, .) grows
    as y moves away from x, so on a box every coordinate term peaks at an
    (end, other end) pair.  On the clipped simplex, ||grad phi||^2 (for KL,
    sum_j (1 + log u_j)^2 with u_j < 1) and D_phi (squared_l2 and KL) are
    convex, hence maximal at its vertices (Rockafellar, Convex Analysis,
    Cor. 32.3.2).  Any other potential on the simplex, and a set outside
    the loss domain, raise RejectedInputError.
    """
    V = _vertices(loss, cset)
    if isinstance(cset, Box):
        lo, hi = V
        # row j moves coordinate j alone from lo_j to hi_j, so its two
        # divergences are the separable terms D_j(hi_j, lo_j), D_j(lo_j, hi_j)
        edge = np.where(np.eye(lo.size, dtype=bool), hi, lo)
        base = np.broadcast_to(lo, edge.shape)
        M = float(np.sum(np.maximum(loss.divergence_rows(edge, base),
                                    loss.divergence_rows(base, edge))))
        g2 = np.square(loss.gradient(V))
        L = math.sqrt(float(np.sum(np.max(g2, axis=0))))
    elif loss.kind in ("squared_l2", "clipped_simplex_kl"):
        M = float(np.max(loss.divergence_rows(np.repeat(V, len(V), axis=0),
                                              np.tile(V, (len(V), 1)))))
        L = float(np.max(np.linalg.norm(loss.gradient(V), axis=-1)))
    else:
        raise RejectedInputError(
            f"no exact stability constants for {loss.kind} on "
            f"{type(cset).__name__}")
    return StabilityConstants(M=M, L=L)


def random_design_tail(consts: StabilityConstants, alpha: float, n: int,
                       delta: float) -> float:
    """sqrt((M^2 + 36 M L^2/alpha)/(2 n delta)) + M sqrt(log(2/delta)/(2n))."""
    M, L = consts.M, consts.L
    return (math.sqrt((M * M + 36.0 * M * L * L / alpha) / (2.0 * n * delta))
            + M * math.sqrt(math.log(2.0 / delta) / (2.0 * n)))


def random_design_certificate(fixed: RiskCertificate, loss: BregmanLoss,
                              cset: CompactSet, n: int,
                              delta: float) -> RiskCertificate:
    """Lift a fixed-design certificate to random design via the stability
    tail of the loss on the set, valid with probability 1 - 11 delta."""
    if fixed.mode != "fixed_design":
        raise RejectedInputError("random design lifts a fixed-design certificate")
    if not 0 < delta < 1.0 / _RANDOM_BUDGET:
        raise RejectedInputError("random design requires 0 < delta < 1/11")
    consts = stability_constants(loss, cset)
    addend = random_design_tail(consts, loss.alpha, n, delta)
    prov = fixed.provenance | {"iid_assumption": "declared, unverified",
                               "stability": asdict(consts)}
    return replace(fixed, stability_addend=addend, total=fixed.total + addend,
                   delta=delta, failure_budget=_RANDOM_BUDGET * delta,
                   mode="random_design", provenance=prov)
