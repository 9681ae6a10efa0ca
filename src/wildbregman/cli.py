"""Command-line interface: simulate, refit, radius, certify, validate."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .certify import fixed_design_certificate, random_design_certificate
from .complexity import (RadiusReport, _radius_floor, _refit_process,
                         fixed_point_report, rhat_bound_convex)
from .design import (PredictionMatrix, _read_json, _write_json, _write_table,
                     load_dataset, save_dataset)
from .errors import RejectedInputError, SolveError
from .harness import (_FSTAR_FAMILIES, _NOISE_FAMILIES, THEOREMS,
                      CoverageExperiment, SyntheticSpec, generate_synthetic,
                      run_coverage)
from .potentials import _BUILTINS, builtin_loss
from .trainers import _TRAINERS, build_model
from .wildfit import (WildRefitResult, _require_positive, _wild_result,
                      calibrate_rho, wild_optimism, wild_refit)


def _potential_params(args) -> dict:
    """The --eps0/--eta0 flags given; `builtin_loss` supplies the defaults
    and refuses the flag of another potential."""
    return {flag: getattr(args, flag) for flag in ("eps0", "eta0")
            if getattr(args, flag) is not None}


def _add_potential_flags(p):
    p.add_argument("--potential", default="squared_l2",
                   choices=list(_BUILTINS))
    for kind in ("sqrt_bernoulli", "clipped_simplex_kl"):
        _, flag, default = _BUILTINS[kind]
        p.add_argument(f"--{flag}", type=float,
                       help=f"{kind}; default {default}")


def _add_model_flags(p):
    _add_potential_flags(p)
    p.add_argument("--trainer", default="saturated", choices=list(_TRAINERS))
    p.add_argument("--cset-bound", type=float, default=10.0)


def _cmd_simulate(args) -> int:
    spec = SyntheticSpec(n=args.n, d=args.d, fstar_family=args.fstar,
                         fstar_scale=args.fstar_scale, noise_family=args.noise,
                         noise_scale=args.noise_scale, p=args.p, seed=args.seed)
    loss = builtin_loss(args.potential, args.d, **_potential_params(args))
    data, oracle = generate_synthetic(spec, loss)
    prefix = Path(args.out)
    save_dataset(prefix, data, seed=args.seed, potential_kind=args.potential)
    oracle_csv = prefix.parent / (prefix.name + "_oracle.csv")
    _write_table(oracle_csv, [("fstar", oracle.fstar_preds.values),
                              ("w", oracle.noise)])
    _write_json(prefix.parent / (prefix.name + "_oracle.json"),
                {"w_inf": oracle.w_inf, "seed": args.seed,
                 "spec": dataclasses.asdict(spec)})
    print(f"wrote {prefix}.csv, {prefix}.json, {oracle_csv}")
    return 0


def _refit_payload(loss, result: WildRefitResult, args) -> dict:
    return {
        "rho": result.rho,
        "clip_count": result.clip_count,
        "sign_seed": args.seed,
        "achieved_radius": result.radius,
        "wild_optimism": wild_optimism(loss, result),
        "fhat": result.fhat.values,
        "fdiamond": result.fdiamond.values,
        "residues": result.residues,
        "signs": result.signs,
        "config": {
            "potential": args.potential,
            "potential_params": _potential_params(args),
            "trainer": args.trainer,
            "cset_bound": args.cset_bound,
            "data": str(args.data),
        },
    }


def _cmd_refit(args) -> int:
    data = load_dataset(args.data)
    loss, cset, trainer = build_model(data.d, args.potential,
                                      _potential_params(args), args.cset_bound,
                                      {"kind": args.trainer})
    if args.target_radius is not None:  # refused before any fit
        _require_positive("target_radius", args.target_radius)
    result = wild_refit(loss, cset, trainer, data,
                        1.0 if args.rho is None else args.rho, seed=args.seed)
    if args.target_radius is not None:
        result = calibrate_rho(loss, trainer, data, result,
                               args.target_radius)["result"]
    _write_json(args.out, _refit_payload(loss, result, args))
    print(f"wrote {args.out}")
    return 0


def _as_refit(payload):
    """(data path, loss, set, result) of a refit file; rebuilds the wild
    responses and L_n(fhat, fdiamond) from its arrays, its fdiamond as the
    refit, so that `certify` checks the calibration against them.  The one
    place signs arrive from outside the program, so checked to be +/-1."""
    cfg = payload["config"]
    fhat, fdiamond, residues, signs = np.asarray(  # one shape, or ValueError
        [payload[key] for key in ("fhat", "fdiamond", "residues", "signs")],
        dtype=float)
    fhat = PredictionMatrix(fhat)
    if not np.all(np.abs(signs) == 1):
        raise RejectedInputError("sign matrix entries must be exactly +/-1")
    loss, cset, _ = build_model(fhat.d, cfg["potential"],
                                cfg["potential_params"], cfg["cset_bound"],
                                {"kind": cfg["trainer"]})
    return cfg["data"], loss, cset, _wild_result(
        loss, SimpleNamespace(fit=lambda X, Y: fdiamond), None, fhat,
        residues, signs, float(payload["rho"]))


def _cmd_radius(args) -> int:
    _, loss, cset, result = _read_json(args.refit_result, _as_refit)
    if args.mode == "fixed-point":
        if args.pilot is not None:
            raise RejectedInputError("--pilot applies to --mode convex-class only")
        report = fixed_point_report(loss, cset, result, args.delta)
    else:  # --pilot bounds the pilot supremum at every radius tried
        wn_at, r_max = _refit_process(loss, cset, result)
        w_inf = float(np.max(np.abs(result.residues)))
        report = RadiusReport(rhat_bound_convex(
            wn_at, lambda s: args.pilot or 0.0, args.delta, result.fhat.n,
            w_inf, result.fhat.d, loss, r_max=r_max), "convex_class_bound")
    _write_json(args.out, dataclasses.asdict(report) | {"delta": args.delta})
    print(f"wrote {args.out}")
    return 0


def _cmd_certify(args) -> int:
    data_path, loss, cset, result = _read_json(args.refit_result, _as_refit)
    report, report_delta = _read_json(args.radius_report, lambda rep: (
        RadiusReport(**{f.name: rep[f.name]
                        for f in dataclasses.fields(RadiusReport)}),
        rep["delta"]))
    if report_delta != args.delta:  # a report without delta is unreadable
        raise RejectedInputError(f"the radius report was solved at delta = "
                                 f"{report_delta!r}, not --delta {args.delta!r}")
    # a file's report is a solver's: "oracle" is the harness's, and both
    # solvers start at the floor, at a delta they take
    if report.method == "oracle" or report.r_certified < _radius_floor(
            args.delta, result.fhat.n):
        raise RejectedInputError(
            f"{report.method} radius {report.r_certified!r}: a report read "
            f"from a file must be fixed_point or convex_class_bound, and at "
            f"least log(1/delta)/sqrt(n)")
    data = load_dataset(data_path)
    w_inf = (float(np.max(np.abs(result.residues))) if args.w_inf is None
             else args.w_inf)
    try:
        cert = fixed_design_certificate(loss, result, report, args.delta,
                                        args.pilot, args.misspec, w_inf,
                                        responses=data.responses,
                                        calibration_tol=args.calibration_tol)
    except RejectedInputError as err:  # name the file the responses are from
        raise RejectedInputError(f"certifying on {data_path}: {err}") from None
    if args.mode == "random":
        cert = random_design_certificate(cert, loss, cset, data.n, args.delta)
    _write_json(args.out, dataclasses.asdict(cert))
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    overrides = _read_json(args.config) if args.config else {}
    if not isinstance(overrides, dict):
        raise RejectedInputError("config must be a JSON object")
    try:  # an unknown key, a key a flag sets, or a spec that is no object
        spec = SyntheticSpec(**{"n": 200, "d": 2, **overrides.pop("spec", {})},
                             seed=args.seed)
        exp = CoverageExperiment(theorem=args.theorem, reps=args.reps,
                                 delta=args.delta, spec=spec, **overrides)
    except TypeError as err:
        raise RejectedInputError(
            f"config keys are experiment fields no flag sets, and its spec an "
            f"object of spec fields: {err}") from None
    report = run_coverage(exp)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "coverage.json", report.to_dict())
    report.write_csv(out / "replications.csv")
    lines = [
        f"theorem: {report.theorem}",
        f"delta: {report.delta}",
        f"replications completed: {report.replications}",
        f"errors: {report.errors}",
        f"successes: {report.successes}",
        f"empirical coverage: {report.empirical_coverage:.6f}",
        f"target coverage: {report.target_coverage:.6f}",
        f"allowed band below target: {report.band:.6f}",
        f"result: {'PASS' if report.passed else 'FAIL'}",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and then reused: every
    `parse_args` fills a new namespace, so one run leaves nothing for the
    next."""
    parser = argparse.ArgumentParser(
        prog="wildbregman",
        description="Wild refitting under Bregman losses: refit, calibrate, "
                    "certify, and validate by simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit a synthetic dataset + oracle files")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--fstar", default="linear", choices=_FSTAR_FAMILIES)
    p.add_argument("--fstar-scale", type=float, default=0.5)
    p.add_argument("--noise", default="uniform", choices=_NOISE_FAMILIES)
    p.add_argument("--noise-scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    _add_potential_flags(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("refit", help="run the wild refit on a dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", type=float)
    group.add_argument("--target-radius", type=float)
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_refit)

    p = sub.add_parser("radius", help="solve for a certified radius")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", required=True, choices=["fixed-point", "convex-class"])
    p.add_argument("--refit-result", required=True)
    p.add_argument("--pilot", type=float, default=None,
                   help="convex-class mode only; default 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("certify", help="assemble an excess-risk certificate")
    p.add_argument("--mode", required=True, choices=["fixed", "random"])
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--refit-result", required=True)
    p.add_argument("--radius-report", required=True)
    p.add_argument("--pilot", type=float, required=True)
    p.add_argument("--misspec", type=float, required=True)
    p.add_argument("--w-inf", type=float, default=None)
    p.add_argument("--calibration-tol", type=float, default=5e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("validate", help="Monte Carlo coverage validation")
    p.add_argument("--theorem", required=True,
                   choices=THEOREMS)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None,
                   help="JSON file overriding experiment fields")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Exit codes: 0 success, 1 a coverage check that
    fails, 2 input or a configuration the package refuses, 3 a solve that
    finds no answer (no radius, no calibration, no convergence)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RejectedInputError as err:
        return _error(err, 2)
    except SolveError as err:
        return _error(err, 3)


def _error(err: Exception, code: int) -> int:
    print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
