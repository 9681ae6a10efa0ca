"""Synthetic ground-truth generation and Monte Carlo validation runs.

Synthetic mode keeps the unobservables (the conditional-mean predictor, the
noise matrix, the noiseless fit) so that every deterministic lemma can be
asserted per draw and every probabilistic theorem can be measured as an
empirical coverage frequency.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .certify import (fixed_design_certificate, random_design_certificate,
                      stability_constants, true_optimism_oracle)
from .complexity import (RadiusReport, deviation_term, pilot_error_oracle,
                         pilot_sup, wn)
from .design import (FixedDesignDataset, PredictionMatrix,
                     empirical_discrepancy, sample_sign_matrix)
from .errors import RejectedInputError
from .geometry import Box, CompactSet
from .potentials import BregmanLoss
from .trainers import LinearTrainer, build_model
from .wildfit import calibrate_rho, wild_optimism, wild_refit


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    d: int
    fstar_family: str = "linear"  # constant | linear | nonlinear
    fstar_scale: float = 0.5
    noise_family: str = "uniform"  # uniform | scaled_rademacher | heteroskedastic
    noise_scale: float = 0.25
    p: int = 3
    seed: int = 0


@dataclass(frozen=True)
class OracleContext:
    fstar_preds: PredictionMatrix
    noise: np.ndarray
    w_inf: float
    fstar_fn: object = None


def _hetero_amplitudes(scale: float, d: int) -> np.ndarray:
    return scale * (0.5 + 0.5 * (np.arange(d) + 1) / d)


def _draw_noise(rng, n, d, family, scale):
    if family == "uniform":
        return rng.uniform(-scale, scale, size=(n, d))
    if family == "scaled_rademacher":
        return scale * (rng.integers(0, 2, size=(n, d)) * 2 - 1)
    if family == "heteroskedastic":
        return rng.uniform(-1.0, 1.0, size=(n, d)) * _hetero_amplitudes(scale, d)
    raise RejectedInputError(f"unknown noise family {family!r}")


def _make_fstar(spec: SyntheticSpec, rng):
    d, p = spec.d, spec.p
    if spec.fstar_family == "constant":
        c = spec.fstar_scale * rng.uniform(-1.0, 1.0, size=d)
        return lambda X: np.broadcast_to(c, (X.shape[0], d)).copy()
    theta = rng.uniform(-1.0, 1.0, size=(p, d))
    if spec.fstar_family == "linear":
        # scale so predictions stay within +-fstar_scale on [-1, 1]^p inputs
        col = np.sum(np.abs(theta), axis=0)
        theta = theta / np.maximum(col, 1e-12) * spec.fstar_scale
        return lambda X: X @ theta
    if spec.fstar_family == "nonlinear":
        return lambda X: spec.fstar_scale * np.tanh(X @ theta)
    raise RejectedInputError(f"unknown fstar family {spec.fstar_family!r}")


def generate_synthetic(spec: SyntheticSpec,
                       loss: BregmanLoss | None = None):
    """Draw (dataset, oracle context) deterministically from the scenario seed."""
    if spec.n < 1 or spec.d < 1:
        raise RejectedInputError("n and d must be >= 1")
    if loss is not None and not isinstance(loss.domain, Box):
        raise RejectedInputError(
            "synthetic generation supports box-domain losses only")
    rng = np.random.default_rng(spec.seed)
    X = rng.uniform(-1.0, 1.0, size=(spec.n, spec.p))
    fstar_fn = _make_fstar(spec, rng)
    F = fstar_fn(X)
    W = _draw_noise(rng, spec.n, spec.d, spec.noise_family, spec.noise_scale)
    Y = F + W
    if loss is not None:
        dom = loss.domain
        if not (np.all(dom.contains_rows(F)) and np.all(dom.contains_rows(Y))):
            raise RejectedInputError(
                "rejected configuration: fstar +- noise exits the loss domain")
    dataset = FixedDesignDataset(inputs=X, responses=Y)
    oracle = OracleContext(fstar_preds=PredictionMatrix(F), noise=W,
                           w_inf=float(np.max(np.abs(W))), fstar_fn=fstar_fn)
    return dataset, oracle


def realized_excess_risk(loss: BregmanLoss, data: FixedDesignDataset,
                         fhat: PredictionMatrix, oracle: OracleContext) -> float:
    """Training-loss gap between the fit and the conditional-mean predictor."""
    Y = data.responses
    if fhat.values.shape != Y.shape:
        raise RejectedInputError("prediction shape does not match responses")
    return float(np.mean(loss.divergence_rows(Y, fhat.values))
                 - np.mean(loss.divergence_rows(Y, oracle.fstar_preds.values)))


@dataclass(frozen=True)
class CoverageExperiment:
    theorem: str
    reps: int
    delta: float
    spec: SyntheticSpec
    trainer: dict = field(default_factory=lambda: {"kind": "saturated"})
    potential_kind: str = "squared_l2"
    potential_params: dict = field(default_factory=dict)
    cset_bound: float = 10.0
    rhos: tuple = (0.25, 0.5, 1.0, 2.0)
    heldout_m: int = 100_000
    slack: float = 1e-8


@dataclass
class CoverageReport:
    theorem: str
    delta: float
    replications: int
    successes: int
    errors: int
    empirical_coverage: float
    target_coverage: float
    per_replication: list

    @property
    def band(self) -> float:
        """Allowed shortfall below the target: two binomial standard errors
        over all reps (none for the lemma, whose target is 1)."""
        t = self.target_coverage
        return 2.0 * math.sqrt(t * (1.0 - t) / (self.replications + self.errors))

    @property
    def passed(self) -> bool:
        """Errored reps count as violations; a run with no success fails."""
        return (self.successes > 0
                and self.empirical_coverage >= self.target_coverage - self.band)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "delta": self.delta,
            "replications": self.replications,
            "successes": self.successes,
            "errors": self.errors,
            "empirical_coverage": self.empirical_coverage,
            "target_coverage": self.target_coverage,
            "passed": self.passed,
        }

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rep", "seed", "lhs", "rhs", "holds", "error"])
            for rec in self.per_replication:
                writer.writerow([rec["rep"], rec["seed"],
                                 "" if rec["lhs"] is None else repr(rec["lhs"]),
                                 "" if rec["rhs"] is None else repr(rec["rhs"]),
                                 "" if rec["holds"] is None else int(rec["holds"]),
                                 rec["error"] or ""])


def _target_coverage(theorem: str, delta: float) -> float:
    if theorem == "lemma_5_1":
        return 1.0
    if theorem in ("thm_5_1_optimism", "thm_5_1_excess"):
        return 1.0 - 8.0 * delta
    if theorem == "thm_6_1_rhat":
        return 1.0 - 4.0 * delta
    if theorem == "thm_5_2_excess":
        return 1.0 - 11.0 * delta
    raise RejectedInputError(f"unknown theorem {theorem!r}")


@dataclass
class _RepContext:
    loss: BregmanLoss
    cset: CompactSet
    trainer: object
    data: FixedDesignDataset
    oracle: OracleContext
    delta: float
    sign_seed: int
    heldout_seed: int
    exp: CoverageExperiment
    rep: int


def _noiseless_radius(ctx: _RepContext):
    """The fit, the noiseless fit, and the radius r-hat between them."""
    fhat = ctx.trainer.fit(ctx.data)
    fdagger = ctx.trainer.fit(
        ctx.data.with_responses(ctx.oracle.fstar_preds.values))
    r_hat = math.sqrt(empirical_discrepancy(ctx.loss, fdagger, fhat))
    return fhat, fdagger, r_hat


def _fixed_design_pipeline(ctx: _RepContext):
    """Shared fit -> noiseless fit -> calibrated refit -> certificate chain."""
    loss, cset, trainer, data = ctx.loss, ctx.cset, ctx.trainer, ctx.data
    fhat, fdagger, r_hat = _noiseless_radius(ctx)
    r_cert = max(r_hat, 1e-8)
    cal = calibrate_rho(loss, cset, trainer, data, 3.0 * loss.c0 * r_cert,
                        seed=ctx.sign_seed)
    result = cal["result"]
    pilot = pilot_error_oracle(loss, cset, result.fhat, ctx.oracle.fstar_preds,
                               result.signs, r_cert)
    misspec = math.sqrt(empirical_discrepancy(loss, ctx.oracle.fstar_preds,
                                              fdagger))
    report = RadiusReport(r_hat_n=r_hat, r_diamond_rho=cal["achieved_radius"],
                          r_certified=r_cert, method="oracle")
    cert = fixed_design_certificate(
        loss, result, report, ctx.delta, pilot, misspec, ctx.oracle.w_inf,
        responses=data.responses)
    return {"fhat": fhat, "fdagger": fdagger, "r_hat": r_hat, "r_cert": r_cert,
            "result": result, "pilot": pilot, "misspec": misspec,
            "report": report, "cert": cert}


def _check_lemma_5_1(ctx: _RepContext):
    rho = ctx.exp.rhos[ctx.rep % len(ctx.exp.rhos)]
    result = wild_refit(ctx.loss, ctx.cset, ctx.trainer, ctx.data, rho,
                        seed=ctx.sign_seed)
    r_dia = result.radius(ctx.loss)
    lhs = wn(ctx.loss, ctx.cset, result.fhat, result.symmetrized, r_dia)
    rhs = wild_optimism(ctx.loss, result)
    return lhs, rhs, lhs <= rhs + ctx.exp.slack


def _check_thm_5_1(ctx: _RepContext, which: str):
    pipe = _fixed_design_pipeline(ctx)
    if which == "optimism":
        opt_star = true_optimism_oracle(ctx.loss, pipe["fhat"],
                                        ctx.oracle.fstar_preds, ctx.oracle.noise)
        dev = deviation_term(ctx.loss, pipe["misspec"], pipe["r_cert"],
                             ctx.oracle.w_inf, ctx.data.n, ctx.data.d, ctx.delta)
        lhs = abs(opt_star)
        rhs = abs(wild_optimism(ctx.loss, pipe["result"])) + pipe["pilot"] + dev
    else:
        lhs = realized_excess_risk(ctx.loss, ctx.data, pipe["fhat"], ctx.oracle)
        rhs = pipe["cert"].total
    return lhs, rhs, lhs <= rhs + ctx.exp.slack


def _check_thm_6_1(ctx: _RepContext):
    loss, cset, data = ctx.loss, ctx.cset, ctx.data
    fhat, _, r_hat = _noiseless_radius(ctx)
    eps = sample_sign_matrix(data.n, data.d, ctx.sign_seed)
    Z = eps.values * (data.responses - fhat.values)
    log_inv = math.log(1.0 / ctx.delta)
    radius = (2.0 + 1.0 / log_inv) * r_hat
    wn_term = wn(loss, cset, fhat, Z, radius)
    pilot = pilot_sup(loss, cset, fhat, ctx.oracle.fstar_preds, eps, radius)
    stab = (r_hat ** 2 * 6.0 * ctx.oracle.w_inf * loss.beta ** 1.5
            * math.sqrt(data.d) / (loss.alpha * math.sqrt(log_inv)))
    lhs = r_hat ** 2
    rhs = max(log_inv ** 2 / data.n, wn_term) + stab + pilot
    return lhs, rhs, lhs <= rhs + ctx.exp.slack


def _check_thm_5_2(ctx: _RepContext):
    loss, trainer, data = ctx.loss, ctx.trainer, ctx.data
    pipe = _fixed_design_pipeline(ctx)
    consts = stability_constants(loss, ctx.cset, data.n)
    cert = random_design_certificate(pipe["cert"], consts, data.n, ctx.delta,
                                     loss.alpha)
    predictor = trainer.fit_predictor(data)
    rng = np.random.default_rng(ctx.heldout_seed)
    m = ctx.exp.heldout_m
    Xh = rng.uniform(-1.0, 1.0, size=(m, ctx.exp.spec.p))
    Fh = ctx.oracle.fstar_fn(Xh)
    Wh = _draw_noise(rng, m, data.d, ctx.exp.spec.noise_family,
                     ctx.exp.spec.noise_scale)
    Yh = Fh + Wh
    Ph = predictor.predict(Xh)
    lhs = float(np.mean(loss.divergence_rows(Yh, Ph))
                - np.mean(loss.divergence_rows(Yh, Fh)))
    rhs = cert.total
    return lhs, rhs, lhs <= rhs + ctx.exp.slack


_CHECKS = {
    "lemma_5_1": _check_lemma_5_1,
    "thm_5_1_optimism": lambda c: _check_thm_5_1(c, "optimism"),
    "thm_5_1_excess": lambda c: _check_thm_5_1(c, "excess"),
    "thm_6_1_rhat": _check_thm_6_1,
    "thm_5_2_excess": _check_thm_5_2,
}
THEOREMS = tuple(_CHECKS)


def run_coverage(exp: CoverageExperiment) -> CoverageReport:
    """Replicate the pipeline and record per-draw bound checks.

    Replications that error are reported separately and count as bound
    violations: coverage is successes over all reps, so a run cannot pass
    because its replications crashed.
    """
    if exp.reps < 1:
        raise RejectedInputError("reps must be >= 1")
    if exp.theorem not in THEOREMS:
        raise RejectedInputError(f"unknown theorem {exp.theorem!r}")
    if exp.theorem != "lemma_5_1" and exp.reps < 100:
        raise RejectedInputError("probabilistic checks need reps >= 100")
    check = _CHECKS[exp.theorem]
    loss, cset, trainer = build_model(exp.spec.d, exp.potential_kind,
                                      exp.potential_params, exp.cset_bound,
                                      exp.trainer)
    if exp.theorem == "thm_5_2_excess" and not isinstance(trainer, LinearTrainer):
        raise RejectedInputError(
            "random-design coverage needs an evaluable (linear) trainer")
    records = []
    for rep in range(exp.reps):
        ss = np.random.SeedSequence(entropy=exp.spec.seed, spawn_key=(rep,))
        s_data, s_signs, s_held = (int(s) for s in ss.generate_state(3))
        rec = {"rep": rep, "seed": s_data, "lhs": None, "rhs": None,
               "holds": None, "error": None}
        try:
            data, oracle = generate_synthetic(replace(exp.spec, seed=s_data),
                                              loss)
            ctx = _RepContext(loss=loss, cset=cset, trainer=trainer, data=data,
                              oracle=oracle, delta=exp.delta, sign_seed=s_signs,
                              heldout_seed=s_held, exp=exp, rep=rep)
            lhs, rhs, holds = check(ctx)
            rec.update(lhs=float(lhs), rhs=float(rhs), holds=bool(holds))
        except Exception as err:  # isolated, and counted as a violation
            rec["error"] = f"{type(err).__name__}: {err}"
        records.append(rec)
    n_done = sum(r["error"] is None for r in records)
    successes = sum(bool(r["holds"]) for r in records)
    return CoverageReport(theorem=exp.theorem, delta=exp.delta,
                          replications=n_done, successes=successes,
                          errors=exp.reps - n_done,
                          empirical_coverage=successes / exp.reps,
                          target_coverage=_target_coverage(exp.theorem,
                                                           exp.delta),
                          per_replication=records)
