"""Record a baseline: several seeded runs of every workload, plus one traced
run each, summarised into perfbench/baseline.json.

    python3 perfbench/baseline.py [--runs 10] [--seconds S] [--first-seed 1]

Run from the root of a git checkout.  For each end-to-end metric it stores
the median, the quartiles and the spread (quartile distance over median);
op times are pooled over a workload's runs for a tail that has at least ten
ops beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import percentile, tail_percentile  # noqa: E402


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    op_times = [json.loads(line[len("op_s "):]) for line in lines
                if line.startswith("op_s [")]
    return json.loads(lines[-1]), (op_times[0] if op_times else [])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def environment(nproc):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": nproc, "nproc": nproc, "cpu": cpu,
            "commit": commit}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    out = {"env": environment(len(os.sched_getaffinity(0))),
           "run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        metrics, pooled, failed, correct = {}, [], 0, True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, op_times = bench(wl, seed, args.seconds, 0)
            failed += result["failed"]
            correct &= result["correct"]
            pooled += op_times
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            print(wl, seed, {k: round(v[-1], 4) for k, v in metrics.items()},
                  flush=True)
        tail_p = tail_percentile(len(pooled))
        traced, _ = bench(wl, args.first_seed, args.seconds, 1)
        out["workloads"][wl] = {
            "failed_ops": failed,
            "all_correct": correct,
            "end_to_end": {k: summarise(v) for k, v in metrics.items()},
            "pooled_tail": {"percentile": tail_p, "ops": len(pooled),
                            "op_s": percentile(pooled, tail_p)},
            "traced_seed": args.first_seed,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
