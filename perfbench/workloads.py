"""The three benchmark workloads: set-up, one op, and the op's output check.

Every op goes through public entry points only (`cli.main`, `wild_refit`,
`wn`, `fixed_point_radius`, the trainers' `fit`), looked up on the module at
call time so that the tracer's wrappers see them.  Op k derives all of its
seeds from the run seed and k, so a run's work is a function of its seed.
The checks use the paper's invariants, not numbers recorded from the code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import wildbregman as wb
import wildbregman.cli  # noqa: F401  (binds wb.cli)

RADIUS_DELTA = 1e-4          # fixed_point_radius needs delta <= e^-9
CALIBRATION_TOL = 5e-3       # the certify default, passed explicitly below
# With the default Box(-10, 10)^2 the closed-form optimum stays inside the box
# at every radius the chain tries; at 2.5 the larger radii need box_qp, and
# the second refit can still reach its target radius.
CLI_CSET_BOUND = 2.5

SIZES = {
    "full": {
        "validate": {"n": 200, "reps": 100},
        "bregman_radius": {"n_bernoulli": 5000, "n_simplex": 400},
        "cli_chain": {"n": 20000},
    },
    "tiny": {
        "validate": {"n": 20, "reps": 100},
        "bregman_radius": {"n_bernoulli": 100, "n_simplex": 30},
        "cli_chain": {"n": 400},
    },
}


def op_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for the op (and sub-step) named by key."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1)[0])


@dataclass
class Context:
    seed: int
    size: dict
    workdir: Path
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    problems: list
    digest: str
    bytes_written: int = 0


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _digest_dir(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        total += len(data)
        h.update(f.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), total


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_radius(r, wn_at, n: int, r_max: float):
    """Problems with a fixed-point radius, by the definition it must meet."""
    log_inv = math.log(1.0 / RADIUS_DELTA)
    r_min = log_inv / math.sqrt(n)
    if not math.isfinite(r):
        return [f"radius {r!r} is not finite"]
    problems = []
    if not r_min <= r <= r_max:
        problems.append(f"radius {r!r} outside [{r_min!r}, {r_max!r}]")
    w = wn_at((2.0 + 1.0 / log_inv) * r)
    if not r * r >= w:
        problems.append(f"radius {r!r}: r^2 < W_n = {w!r}")
    return problems


# -- validate: the coverage study, in process through the CLI ---------------

def validate_setup(seed, size, workdir):
    ctx = Context(seed, size, _fresh_dir(workdir))
    config = workdir / "config.json"
    config.write_text(json.dumps({"trainer": {"kind": "linear"},
                                  "spec": {"n": size["n"], "d": 2,
                                           "fstar_family": "linear"}}))
    ctx.extra["config"] = config
    return ctx


def validate_run(ctx, k):
    out = _fresh_dir(ctx.workdir / "out")
    return _quiet(wb.cli.main, [
        "validate", "--theorem", "thm_5_1_excess",
        "--reps", str(ctx.size["reps"]), "--delta", "0.05",
        "--seed", str(op_seed(ctx.seed, k)),
        "--config", str(ctx.extra["config"]), "--out", str(out)])


def validate_warm(ctx):
    """lemma_5_1 allows a handful of reps; the other theorems need 100."""
    out = _fresh_dir(ctx.workdir / "warm")
    code = _quiet(wb.cli.main, [
        "validate", "--theorem", "lemma_5_1", "--reps", "2", "--delta", "0.05",
        "--seed", str(op_seed(ctx.seed, 0)),
        "--config", str(ctx.extra["config"]), "--out", str(out)])
    return [] if code == 0 else [f"validate warm-up exited {code}"]


def validate_check(ctx, k, code):
    out = ctx.workdir / "out"
    problems = [] if code == 0 else [f"validate exited {code}"]
    cov = json.loads((out / "coverage.json").read_text())
    if not cov["passed"]:
        problems.append("coverage check did not PASS")
    if cov["errors"] != 0:
        problems.append(f"{cov['errors']} replications errored")
    if "result: PASS" not in (out / "summary.txt").read_text():
        problems.append("summary.txt does not say PASS")
    digest, nbytes = _digest_dir(out)
    return Outcome(problems, digest, nbytes)


# -- bregman_radius: refit + fixed-point radius, non-quadratic families ------

def _bernoulli_family(seed, n):
    """sqrt_bernoulli responses filling [eps0, 1-eps0], fit on a smaller box."""
    rng = np.random.default_rng(op_seed(seed, 0, 1))
    X = rng.uniform(-1.0, 1.0, (n, 3))
    theta = rng.uniform(-1.0, 1.0, (3, 2))
    F = 0.5 + X @ (0.2 * theta / np.abs(theta).sum(axis=0))
    Y = np.clip(F + rng.uniform(-0.45, 0.45, (n, 2)), 0.05, 0.95)
    loss = wb.builtin_loss("sqrt_bernoulli", 2, eps0=0.05)
    cset = wb.Box(np.full(2, 0.25), np.full(2, 0.75))
    return ("sqrt_bernoulli", loss, cset, wb.SaturatedTrainer(loss, cset),
            wb.FixedDesignDataset(X, Y))


def _simplex_family(seed, n):
    """Dirichlet(1) responses with a weak softmax-linear signal, mapped into
    the clipped simplex."""
    eta0, d = 0.1, 3
    rng = np.random.default_rng(op_seed(seed, 0, 2))
    X = rng.uniform(-1.0, 1.0, (n, 3))
    S = np.exp(X @ rng.uniform(-1.0, 1.0, (3, d)))
    S /= S.sum(axis=1, keepdims=True)
    P = 0.1 * S + 0.9 * rng.dirichlet(np.ones(d), n)
    Y = eta0 + (1.0 - d * eta0) * P
    loss = wb.builtin_loss("clipped_simplex_kl", d, eta0=eta0)
    return ("clipped_simplex_kl", loss, loss.domain,
            wb.LinearTrainer(loss, loss.domain), wb.FixedDesignDataset(X, Y))


def bregman_setup(seed, size, workdir):
    ctx = Context(seed, size, _fresh_dir(workdir))
    ctx.extra["families"] = [_bernoulli_family(seed, size["n_bernoulli"]),
                             _simplex_family(seed, size["n_simplex"])]
    return ctx


def bregman_run(ctx, k):
    out = []
    for j, (_, loss, cset, trainer, data) in enumerate(ctx.extra["families"]):
        res = wb.wild_refit(loss, cset, trainer, data, 1.0,
                            seed=op_seed(ctx.seed, k, j))
        Z = res.symmetrized
        r_max = max(10.0 * cset.diameter(), 1.0)
        r = wb.fixed_point_radius(lambda s: wb.wn(loss, cset, res.fhat, Z, s),
                                  RADIUS_DELTA, data.n, r_max=r_max)
        out.append((res, r, r_max))
    return out


def bregman_check(ctx, k, results):
    problems = []
    h = hashlib.sha256()
    for (kind, loss, cset, _, data), (res, r, r_max) in zip(
            ctx.extra["families"], results):
        problems += [f"{kind}: {p}" for p in check_radius(
            r, lambda s: wb.wn(loss, cset, res.fhat, res.symmetrized, s),
            data.n, r_max)]
        h.update(repr(r).encode() + res.fhat.values.tobytes()
                 + res.fdiamond.values.tobytes())
    return Outcome(problems, h.hexdigest())


# -- cli_chain: simulate -> refit -> radius -> refit -> certify, on files ----

def cli_setup(seed, size, workdir):
    return Context(seed, size, _fresh_dir(workdir))


def cli_run(ctx, k):
    """The chain runs inside its output directory with relative paths: the
    refit files record the data path, and they must not depend on where the
    checkout or the run's scratch directory lies."""
    out = _fresh_dir(ctx.workdir / "out")
    home = os.getcwd()
    os.chdir(out)
    try:
        return _cli_chain(ctx.size["n"], op_seed(ctx.seed, k),
                          op_seed(ctx.seed, k, 1))
    finally:
        os.chdir(home)


def _cli_chain(n, data_seed, sign_seed):
    refit = ["--trainer", "linear", "--cset-bound", repr(CLI_CSET_BOUND),
             "--data", "data.csv", "--seed", str(sign_seed)]
    codes = [_quiet(wb.cli.main, ["simulate", "--n", str(n), "--d", "2",
                                  "--seed", str(data_seed), "--out", "data"])]
    codes.append(_quiet(wb.cli.main, ["refit", "--rho", "1", *refit,
                                      "--out", "refit1.json"]))
    codes.append(_quiet(wb.cli.main, [
        "radius", "--mode", "fixed-point", "--delta", repr(RADIUS_DELTA),
        "--refit-result", "refit1.json", "--out", "radius.json"]))
    if codes[-1] != 0:
        return codes
    r = json.loads(Path("radius.json").read_text())["r_certified"]
    codes.append(_quiet(wb.cli.main, ["refit", "--target-radius", repr(3.0 * r),
                                      *refit, "--out", "refit2.json"]))
    codes.append(_quiet(wb.cli.main, [
        "certify", "--mode", "random", "--delta", repr(RADIUS_DELTA),
        "--refit-result", "refit2.json", "--radius-report", "radius.json",
        "--pilot", "0", "--misspec", "0",
        "--calibration-tol", repr(CALIBRATION_TOL), "--out", "cert.json"]))
    return codes


def cli_check(ctx, k, codes):
    out = ctx.workdir / "out"
    if codes != [0] * 5:
        return Outcome([f"CLI exit codes {codes}"], "")
    refit1 = json.loads((out / "refit1.json").read_text())
    refit2 = json.loads((out / "refit2.json").read_text())
    r = json.loads((out / "radius.json").read_text())["r_certified"]
    cert = json.loads((out / "cert.json").read_text())
    loss = wb.builtin_loss("squared_l2", 2)
    cset = wb.Box(np.full(2, -CLI_CSET_BOUND), np.full(2, CLI_CSET_BOUND))
    fhat = wb.PredictionMatrix(np.asarray(refit1["fhat"]))
    Z = np.asarray(refit1["signs"]) * np.asarray(refit1["residues"])
    problems = check_radius(r, lambda s: wb.wn(loss, cset, fhat, Z, s),
                            fhat.n, max(10.0 * cset.diameter(), 1.0))
    target = 3.0 * loss.c0 * r
    if not abs(refit2["achieved_radius"] - target) <= CALIBRATION_TOL * target:
        problems.append(f"second refit reached {refit2['achieved_radius']!r}, "
                        f"target {target!r}")
    if not (math.isfinite(cert["total"])
            and cert["total"] >= cert["training_error"]):
        problems.append(f"certificate total {cert['total']!r} below training "
                        f"error {cert['training_error']!r}")
    digest, nbytes = _digest_dir(out)
    return Outcome(problems, digest, nbytes)


def _tiny_op(name):
    """Warm-up: one op of the workload at its tiny size."""
    def warm(ctx):
        wl = WORKLOADS[name]
        tiny = wl.setup(ctx.seed, SIZES["tiny"][name], ctx.workdir / "warm")
        return wl.check(tiny, 0, wl.run(tiny, 0)).problems
    return warm


@dataclass(frozen=True)
class Workload:
    setup: object   # (seed, size, workdir) -> Context
    run: object     # (Context, k) -> result of op k, the timed part
    check: object   # (Context, k, result) -> Outcome
    warm: object    # Context -> problems of a small untimed warm-up


WORKLOADS = {
    "validate": Workload(validate_setup, validate_run, validate_check,
                         validate_warm),
    "bregman_radius": Workload(bregman_setup, bregman_run, bregman_check,
                               _tiny_op("bregman_radius")),
    "cli_chain": Workload(cli_setup, cli_run, cli_check, _tiny_op("cli_chain")),
}
