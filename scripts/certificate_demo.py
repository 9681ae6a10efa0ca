"""End-to-end demo: simulate data, calibrate the wild perturbation scale,
and print fixed-design and random-design excess-risk certificates.

Usage: python3 scripts/certificate_demo.py [--n 200] [--delta 0.05] [--seed 0]
"""

import argparse

from wildbregman.certify import certify_dataset, random_design_certificate
from wildbregman.harness import SyntheticSpec, generate_synthetic, oracle_inputs
from wildbregman.trainers import build_model


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--delta", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    loss, cset, trainer = build_model(args.d, "squared_l2", {}, 1.0,
                                      {"kind": "linear"})
    data, oracle = generate_synthetic(
        SyntheticSpec(n=args.n, d=args.d, seed=args.seed), loss)

    oracle_in = oracle_inputs(loss, cset, trainer, data, oracle)
    fixed, result = certify_dataset(loss, cset, trainer, data, args.delta,
                                    seed=args.seed, **oracle_in)
    r_hat = oracle_in["radius"](result).r_certified
    print(f"fit-vs-noiseless-fit radius  {r_hat:.6f}")
    print(f"calibrated rho               {result.rho:.6f}")
    print(f"achieved wild radius         {result.radius:.6f}")
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
