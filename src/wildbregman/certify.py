"""Assembly of excess-risk certificates in fixed and random design."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complexity import RadiusReport, deviation_term
from .design import PredictionMatrix, empirical_discrepancy
from .errors import RejectedInputError, UnsupportedConfigurationError
from .geometry import Box, CompactSet
from .potentials import BregmanLoss
from .wildfit import WildRefitResult, wild_optimism


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

    def to_dict(self) -> dict:
        return {
            "training_error": self.training_error,
            "wild_optimism_abs": self.wild_optimism_abs,
            "pilot": self.pilot,
            "deviation": self.deviation,
            "stability_addend": self.stability_addend,
            "total": self.total,
            "delta": self.delta,
            "failure_budget": self.failure_budget,
            "mode": self.mode,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class StabilityConstants:
    M: float  # sup of the divergence over the set squared
    L: float  # sup of the potential gradient norm over the set
    eps_sta: float

    def to_dict(self) -> dict:
        return {"M": self.M, "L": self.L, "eps_sta": self.eps_sta}


def true_optimism_oracle(loss: BregmanLoss, fhat: PredictionMatrix,
                         fstar_preds: PredictionMatrix, W: np.ndarray) -> float:
    """(1/n) sum <gradphi(fstar_i) - gradphi(fhat_i), w_i> (oracle mode)."""
    W = np.asarray(W, dtype=float)
    if W.shape != fhat.values.shape or fstar_preds.values.shape != fhat.values.shape:
        raise RejectedInputError("shape mismatch in optimism computation")
    g = loss.potential.gradient
    return float(np.mean(np.sum((g(fstar_preds.values) - g(fhat.values)) * W,
                                axis=-1)))


def fixed_design_certificate(loss: BregmanLoss, refit: WildRefitResult,
                             radius: RadiusReport, delta: float, pilot: float,
                             misspec: float, w_inf: float, *,
                             responses: np.ndarray,
                             calibration_tol: float = 5e-3) -> RiskCertificate:
    """Fixed-design certificate: training error + 2 (|wild optimism| + pilot
    + deviation), valid with probability 1 - 8 delta when calibrated."""
    if not 0 < delta < 1.0 / 8.0:
        raise RejectedInputError("fixed design requires 0 < delta < 1/8")
    achieved = refit.radius(loss)
    target = 3.0 * loss.c0 * radius.r_certified
    if target > 0 and abs(achieved - target) > calibration_tol * target:
        raise RejectedInputError(
            f"calibration mismatch: achieved wild radius {achieved:.6g} vs "
            f"required 3 sqrt(beta/alpha) r = {target:.6g}")
    n = refit.fhat.n
    Y = np.asarray(responses, dtype=float)
    training = float(np.mean(loss.divergence_rows(Y, refit.fhat.values)))
    opt_abs = abs(wild_optimism(loss, refit))
    dev = deviation_term(loss, misspec, radius.r_certified, w_inf, n,
                         refit.fhat.d, delta)
    total = training + 2.0 * (opt_abs + pilot + dev)
    prov = {"radius_method": radius.method, "misspec": misspec, "w_inf": w_inf,
            "t_substitution": "t = sqrt(log(1/delta))"}
    return RiskCertificate(training_error=training, wild_optimism_abs=opt_abs,
                           pilot=pilot, deviation=dev, stability_addend=0.0,
                           total=total, delta=delta, failure_budget=8.0 * delta,
                           mode="fixed_design", provenance=prov)


def _grid_points(cset: CompactSet, per_axis: int) -> np.ndarray:
    if isinstance(cset, Box):
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(cset.lo, cset.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)
    # clipped simplex: grid the first d-1 coordinates, close the last
    d = cset.dim
    axes = [np.linspace(cset.eta0, 1.0 - (d - 1) * cset.eta0, per_axis)] * (d - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    head = np.stack([m.ravel() for m in mesh], axis=-1)
    last = 1.0 - head.sum(axis=1)
    pts = np.hstack([head, last[:, None]])
    return pts[last >= cset.eta0 - 1e-12]


def stability_constants(loss: BregmanLoss, cset: CompactSet, n: int, *,
                        force_grid: bool = False) -> StabilityConstants:
    """Bound sup ||gradphi|| (L) and sup D_phi (M) over the set, and the
    pointwise-stability constant 2 L^2 / (alpha (n - 1))."""
    if n < 2:
        raise RejectedInputError("stability constants need n >= 2")
    p = loss.potential
    analytic = p.kind == "squared_l2" and isinstance(cset, Box) and not force_grid
    if analytic:
        L = float(np.linalg.norm(np.maximum(np.abs(cset.lo), np.abs(cset.hi))))
        M = 0.5 * cset.diameter() ** 2
    else:
        d = cset.lo.shape[0] if isinstance(cset, Box) else cset.dim
        if d > 3:
            raise UnsupportedConfigurationError(
                "grid fallback for stability constants supports d <= 3 only")
        per_axis = {1: 1001, 2: 41, 3: 9}[d]
        pts = _grid_points(cset, per_axis)
        grads = np.atleast_2d(p.gradient(pts))
        L_grid = float(np.max(np.linalg.norm(grads, axis=-1)))
        # pairwise divergences on the grid
        D = loss._div_raw(pts[:, None, :], pts[None, :, :])
        M_grid = float(np.max(D))
        # inflate by a Lipschitz modulus times the grid cell diagonal so the
        # grid maximum is a certified upper bound
        cell = cset.diameter() / (per_axis - 1)
        L = L_grid + p.beta * cell * math.sqrt(d)
        M = M_grid + 2.0 * p.beta * cset.diameter() * cell * math.sqrt(d)
    eps_sta = 2.0 * L * L / (loss.alpha * (n - 1))
    return StabilityConstants(M=M, L=L, eps_sta=eps_sta)


def random_design_tail(consts: StabilityConstants, alpha: float, n: int,
                       delta: float) -> float:
    """sqrt((M^2 + 36 M L^2/alpha)/(2 n delta)) + M sqrt(log(2/delta)/(2n))."""
    M, L = consts.M, consts.L
    return (math.sqrt((M * M + 36.0 * M * L * L / alpha) / (2.0 * n * delta))
            + M * math.sqrt(math.log(2.0 / delta) / (2.0 * n)))


def random_design_certificate(fixed: RiskCertificate, consts: StabilityConstants,
                              n: int, delta: float, alpha: float) -> RiskCertificate:
    """Lift a fixed-design certificate to random design via stability tails."""
    if fixed.mode != "fixed_design":
        raise RejectedInputError("random design lifts a fixed-design certificate")
    if not 0 < delta < 1.0 / 11.0:
        raise RejectedInputError("random design requires 0 < delta < 1/11")
    addend = random_design_tail(consts, alpha, n, delta)
    prov = dict(fixed.provenance)
    prov["iid_assumption"] = "declared, unverified"
    prov["stability"] = consts.to_dict()
    return RiskCertificate(
        training_error=fixed.training_error,
        wild_optimism_abs=fixed.wild_optimism_abs,
        pilot=fixed.pilot,
        deviation=fixed.deviation,
        stability_addend=addend,
        total=fixed.total + addend,
        delta=delta,
        failure_budget=11.0 * delta,
        mode="random_design",
        provenance=prov,
    )


def oracle_excess_decomposition(loss: BregmanLoss, fhat: PredictionMatrix,
                                fstar_preds: PredictionMatrix,
                                W: np.ndarray) -> float:
    """L_n(fstar, fhat) + <gradphi(fstar) - gradphi(fhat), w> (oracle identity)."""
    return (empirical_discrepancy(loss, fstar_preds, fhat)
            + true_optimism_oracle(loss, fhat, fstar_preds, W))
