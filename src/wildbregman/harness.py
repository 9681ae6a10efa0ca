"""Synthetic ground-truth generation and Monte Carlo validation runs.

Synthetic mode keeps the unobservables (the conditional-mean predictor, the
noise matrix, the noiseless fit) so that every deterministic lemma can be
asserted per draw and every probabilistic theorem can be measured as an
empirical coverage frequency.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

from .certify import (_FIXED_BUDGET, _RANDOM_BUDGET, certify_dataset,
                      random_design_certificate)
from .complexity import (RadiusReport, _objective, _refit_process,
                         _require_closing, _thm_6_1_rhs, pilot_sup, wn)
from .design import FixedDesignDataset, PredictionMatrix, empirical_discrepancy
from .errors import RejectedInputError
from .geometry import Box, CompactSet, _mean
from .potentials import BregmanLoss
from .trainers import LinearTrainer, build_model
from .wildfit import _refit_stage, wild_optimism, wild_refit


_FSTAR_FAMILIES = ("constant", "linear", "nonlinear")
_NOISE_FAMILIES = ("uniform", "scaled_rademacher", "heteroskedastic")


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    d: int
    fstar_family: str = "linear"
    fstar_scale: float = 0.5
    noise_family: str = "uniform"
    noise_scale: float = 0.25
    p: int = 3
    seed: int = 0

    def __post_init__(self):
        ints = (self.n, self.d, self.p, self.seed)
        scales = (self.fstar_scale, self.noise_scale)
        if not (all(isinstance(v, int) and not isinstance(v, bool)
                    for v in ints)
                and min(self.n, self.d, self.p) >= 1 and self.seed >= 0
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v) and v >= 0 for v in scales)
                and self.fstar_family in _FSTAR_FAMILIES
                and self.noise_family in _NOISE_FAMILIES):
            raise RejectedInputError(
                f"bad spec {self}: n, d and p are integers >= 1, seed an "
                f"integer >= 0, fstar_scale and noise_scale finite numbers "
                f">= 0, and the families are {_FSTAR_FAMILIES} and "
                f"{_NOISE_FAMILIES}")


@dataclass(frozen=True)
class OracleContext:
    fstar_preds: PredictionMatrix
    noise: np.ndarray
    w_inf: float
    fstar_fn: object


def _draw_noise(rng, n, d, family, scale):
    if family == "uniform":
        return rng.uniform(-scale, scale, size=(n, d))
    if family == "scaled_rademacher":
        return scale * (rng.integers(0, 2, size=(n, d)) * 2 - 1)
    amplitudes = scale * (0.5 + 0.5 * (np.arange(d) + 1) / d)
    return rng.uniform(-1.0, 1.0, size=(n, d)) * amplitudes


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
    return lambda X: spec.fstar_scale * np.tanh(X @ theta)


def generate_synthetic(spec: SyntheticSpec,
                       loss: BregmanLoss | None = None):
    """Draw (dataset, oracle context) deterministically from the scenario seed."""
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
        if not (dom.contains(F) and dom.contains(Y)):
            raise RejectedInputError(
                "rejected configuration: fstar +- noise exits the loss domain")
    dataset = FixedDesignDataset(inputs=X, responses=Y)
    oracle = OracleContext(fstar_preds=PredictionMatrix(F), noise=W,
                           w_inf=float(np.max(np.abs(W))), fstar_fn=fstar_fn)
    return dataset, oracle


# rho cycle of the lemma's refits, held-out sample size of the random-design
# check, and the absolute slack every bound check allows for rounding
_RHOS = (0.25, 0.5, 1.0, 2.0)
_HELDOUT_M = 100_000
_SLACK = 1e-8


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
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "per_replication"} | {"passed": self.passed}

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


def oracle_inputs(loss: BregmanLoss, cset: CompactSet, trainer,
                  data: FixedDesignDataset, oracle: OracleContext) -> dict:
    """`certify_dataset`'s four inputs from the oracle: r-hat = sqrt
    L_n(f-dagger, fhat) (at least `floor`), the pilot supremum at fstar,
    sqrt L_n(fstar, f-dagger) and w_inf; f-dagger, the noiseless fit, is
    made here alone."""
    fstar = oracle.fstar_preds
    fdagger = _refit_stage(trainer, data.inputs, fstar.values, "noiseless fit")

    def radius(start, floor=1e-8):
        r_hat = math.sqrt(empirical_discrepancy(loss, fdagger, start.fhat))
        return RadiusReport(max(r_hat, floor), "oracle")

    return {"radius": radius,
            "pilot": lambda refit, R: pilot_sup(loss, cset, refit.fhat, fstar,
                                                refit.signs, R),
            "misspec": math.sqrt(empirical_discrepancy(loss, fstar, fdagger)),
            "w_inf": oracle.w_inf}


def _oracle_certificate(ctx: _RepContext):
    model = ctx.loss, ctx.cset, ctx.trainer, ctx.data
    return certify_dataset(*model, ctx.delta, seed=ctx.sign_seed,
                           **oracle_inputs(*model, ctx.oracle))


def _check_lemma_5_1(ctx: _RepContext):
    rho = _RHOS[ctx.rep % len(_RHOS)]
    result = wild_refit(ctx.loss, ctx.cset, ctx.trainer, ctx.data, rho,
                        seed=ctx.sign_seed)
    r_dia = result.radius
    lhs = wn(ctx.loss, ctx.cset, result.fhat, result.symmetrized, r_dia)
    return lhs, wild_optimism(ctx.loss, result)


def _check_thm_5_1(ctx: _RepContext, which: str):
    """Theorem 5.1 in fixed design, either half.

    "optimism": |true optimism| against the certificate's |wild optimism|
    + pilot + deviation.
    "excess": the fixed-design excess risk L_n(fstar, fhat) against the
    certificate total.  That is the excess risk over fresh noise at the
    same design: with Y' = fstar + W', E W' = 0 and fhat held fixed, the
    terms of D(y, fhat) - D(y, fstar) that depend on y are linear in it, so
      E' D(Y', fhat) - E' D(Y', fstar)
        = phi(fstar) - phi(fhat) - <grad phi(fhat), fstar - fhat>
        = D(fstar, fhat),
    and averaging the rows gives L_n(fstar, fhat).  (The training-loss gap
    L_n(Y, fhat) - L_n(Y, fstar) is no test: it is at most the training
    error, which the total contains.)
    """
    cert, result = _oracle_certificate(ctx)
    if which == "optimism":
        # the true optimism (1/n) sum <gradphi(fstar_i) - gradphi(fhat_i), w_i>
        return (abs(_objective(ctx.loss, ctx.oracle.fstar_preds.values,
                               result.fhat.values, ctx.oracle.noise)),
                cert.wild_optimism_abs + cert.pilot + cert.deviation)
    return (empirical_discrepancy(ctx.loss, ctx.oracle.fstar_preds,
                                  result.fhat), cert.total)


def _check_thm_6_1(ctx: _RepContext):
    """Theorem 6.1 at the noiseless radius r-hat, unfloored (zero noise
    gives 0): r-hat^2 against `complexity._thm_6_1_rhs` at the inflated
    radius (2 + 1/log(1/delta)) r-hat, with the process of the chain's
    rho = 1 refit and the oracle pilot and w_inf."""
    loss, cset, data = ctx.loss, ctx.cset, ctx.data
    oracle = oracle_inputs(loss, cset, ctx.trainer, data, ctx.oracle)
    start = wild_refit(loss, cset, ctx.trainer, data, 1.0, seed=ctx.sign_seed)
    r_hat = oracle["radius"](start, floor=0.0).r_certified
    return r_hat ** 2, _thm_6_1_rhs(
        loss, _refit_process(loss, cset, start)[0],
        lambda s: oracle["pilot"](start, s),
        (2.0 + 1.0 / math.log(1.0 / ctx.delta)) * r_hat, ctx.delta, data.n,
        oracle["w_inf"], data.d)


def _check_thm_5_2(ctx: _RepContext):
    """Theorem 5.2: the random-design excess risk of fhat against the
    random-design certificate.  The risk E D(Y, fhat(X)) - E D(Y, fstar(X))
    is E_x D(fstar(x), fhat(x)) by `_check_thm_5_1`'s argument (the noise
    has mean zero given x), so it is taken as the mean of D(fstar, fhat)
    over a held-out sample of x alone: no noise is drawn."""
    loss, data = ctx.loss, ctx.data
    fhat = []  # the predictor of the one fit on the responses

    def fit(X, Y):
        predictor = ctx.trainer.fit_predictor(X, Y)
        if Y is data.responses:
            fhat.append(predictor)
        return predictor.predict(X)

    fixed, _ = _oracle_certificate(
        replace(ctx, trainer=SimpleNamespace(fit=fit)))
    cert = random_design_certificate(fixed, loss, ctx.cset, data.n, ctx.delta)
    Xh = np.random.default_rng(ctx.heldout_seed).uniform(
        -1.0, 1.0, size=(_HELDOUT_M, ctx.exp.spec.p))
    Fh = ctx.oracle.fstar_fn(Xh)
    lhs = _mean(loss.divergence_rows(Fh, fhat[0].predict(Xh)))
    return lhs, cert.total


# each theorem's check, returning (lhs, rhs) of its bound, and failure budget
# b: its target coverage is 1 - b delta
_CHECKS = {
    "lemma_5_1": (_check_lemma_5_1, 0.0),
    "thm_5_1_optimism": (lambda c: _check_thm_5_1(c, "optimism"), _FIXED_BUDGET),
    "thm_5_1_excess": (lambda c: _check_thm_5_1(c, "excess"), _FIXED_BUDGET),
    "thm_6_1_rhat": (_check_thm_6_1, 4.0),
    "thm_5_2_excess": (_check_thm_5_2, _RANDOM_BUDGET),
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
    check, budget = _CHECKS[exp.theorem]
    if not (0 < exp.delta < 1 and budget * exp.delta < 1):  # refuses NaN too
        raise RejectedInputError(
            f"{exp.theorem} needs 0 < delta < 1 and its failure budget "
            f"{budget:g} * delta below 1, got delta = {exp.delta}")
    loss, cset, trainer = build_model(exp.spec.d, exp.potential_kind,
                                      exp.potential_params, exp.cset_bound,
                                      exp.trainer)
    # noise_scale bounds |w| for every noise family, so each rep's kappa is
    # at most this one; at kappa >= 1 the check could only pass
    if exp.theorem == "thm_6_1_rhat":
        _require_closing(loss, exp.spec.noise_scale, exp.spec.d,
                         math.log(1.0 / exp.delta))
    # the thm_5_* checks calibrate rho, which fails in every rep for the
    # saturated fit: its residues vanish wherever the set holds the response,
    # so its wild radius stays below the target
    if exp.theorem.startswith("thm_5_") and not isinstance(trainer, LinearTrainer):
        raise RejectedInputError(
            f"{exp.theorem} needs the linear trainer: the saturated fit's wild "
            "radius cannot be calibrated, and it predicts only on the design")
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
            lhs, rhs = (float(v) for v in check(ctx))
            rec.update(lhs=lhs, rhs=rhs, holds=lhs <= rhs + _SLACK)
        except Exception as err:  # isolated, and counted as a violation
            rec["error"] = f"{type(err).__name__}: {err}"
        records.append(rec)
    n_done = sum(r["error"] is None for r in records)
    successes = sum(bool(r["holds"]) for r in records)
    return CoverageReport(theorem=exp.theorem, delta=exp.delta,
                          replications=n_done, successes=successes,
                          errors=exp.reps - n_done,
                          empirical_coverage=successes / exp.reps,
                          target_coverage=1.0 - budget * exp.delta,
                          per_replication=records)
