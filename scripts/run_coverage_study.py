"""Run the Monte Carlo coverage study for every supported guarantee.

Each guarantee is checked with the trainer/constraint pairing under which
its preconditions hold: the deterministic refit bound and the data-driven
radius bound use the saturated trainer with a truncating box (so training
residues are nonzero), while the optimism and excess-risk certificates use
the linear trainer (whose radius map makes calibration feasible).

Usage: python3 scripts/run_coverage_study.py [--reps 200] [--n 200] [--out DIR]
"""

import argparse
import math
import pathlib
import time

from wildbregman.design import _write_json
from wildbregman.harness import CoverageExperiment, SyntheticSpec, run_coverage

STUDIES = [
    ("lemma_5_1", {"kind": "saturated"}, 0.4, 0.05),
    ("thm_6_1_rhat", {"kind": "saturated"}, 0.4, math.exp(-9.0)),
    ("thm_5_1_optimism", {"kind": "linear"}, 10.0, 0.05),
    ("thm_5_1_excess", {"kind": "linear"}, 10.0, 0.05),
    ("thm_5_2_excess", {"kind": "linear"}, 10.0, 0.05),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="directory for per-study JSON reports")
    args = ap.parse_args()

    print(f"{'guarantee':<18} {'coverage':>9} {'target':>8} {'errors':>6} "
          f"{'time':>7}  result")
    all_pass = True
    for theorem, trainer, bound, delta in STUDIES:
        spec = SyntheticSpec(n=args.n, d=args.d, seed=args.seed)
        exp = CoverageExperiment(theorem=theorem, reps=args.reps, delta=delta,
                                 spec=spec, trainer=trainer, cset_bound=bound)
        t0 = time.time()
        rep = run_coverage(exp)
        dt = time.time() - t0
        all_pass &= rep.passed
        print(f"{theorem:<18} {rep.empirical_coverage:>9.4f} "
              f"{rep.target_coverage:>8.4f} {rep.errors:>6d} {dt:>6.1f}s  "
              f"{'PASS' if rep.passed else 'FAIL'}")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            _write_json(args.out / f"{theorem}.json", rep.to_dict())
    raise SystemExit(0 if all_pass else 1)


if __name__ == "__main__":
    main()
