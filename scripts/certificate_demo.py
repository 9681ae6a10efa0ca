"""End-to-end demo: simulate data, calibrate the wild perturbation scale,
and print fixed-design and random-design excess-risk certificates.

Usage: python3 scripts/certificate_demo.py [--n 200] [--delta 0.05] [--seed 0]
"""

import argparse
import math

import numpy as np

from wildbregman.certify import (fixed_design_certificate,
                                 random_design_certificate)
from wildbregman.complexity import RadiusReport, pilot_sup
from wildbregman.geometry import Box
from wildbregman.harness import SyntheticSpec, generate_synthetic
from wildbregman.potentials import builtin_loss
from wildbregman.trainers import LinearTrainer
from wildbregman.wildfit import calibrate_rho, wild_refit


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--delta", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = SyntheticSpec(n=args.n, d=args.d, seed=args.seed)
    loss = builtin_loss("squared_l2", args.d)
    data, oracle = generate_synthetic(spec, loss)
    cset = Box(np.full(args.d, -1.0), np.full(args.d, 1.0))
    trainer = LinearTrainer(loss, cset)

    start = wild_refit(loss, cset, trainer, data, 1.0, seed=args.seed)
    fhat = start.fhat
    fdagger = trainer.fit(data.inputs, oracle.fstar_preds.values)
    r_hat = math.sqrt(float(np.mean(loss.divergence_rows(fdagger,
                                                         fhat.values))))
    cal = calibrate_rho(loss, trainer, data, start, 3.0 * loss.c0 * r_hat)
    result = cal["result"]
    print(f"fit-vs-noiseless-fit radius  {r_hat:.6f}")
    print(f"calibrated rho               {cal['rho']:.6f}")
    print(f"achieved wild radius         {cal['achieved_radius']:.6f}")

    pilot = pilot_sup(loss, cset, fhat, oracle.fstar_preds, result.signs,
                      3.0 * loss.c0 * r_hat)
    report = RadiusReport(r_certified=r_hat, method="oracle")
    fixed = fixed_design_certificate(loss, result, report, args.delta, pilot,
                                     0.0, oracle.w_inf,
                                     responses=data.responses)
    print(f"\nfixed design  (budget {fixed.failure_budget:.3f}):")
    print(f"  training error   {fixed.training_error:.6f}")
    print(f"  wild optimism    {fixed.wild_optimism_abs:.6f}")
    print(f"  certificate      {fixed.total:.6f}")

    rand = random_design_certificate(fixed, loss, cset, data.n, args.delta)
    print(f"\nrandom design (budget {rand.failure_budget:.3f}):")
    print(f"  stability addend {rand.stability_addend:.6f}")
    print(f"  certificate      {rand.total:.6f}")


if __name__ == "__main__":
    main()
