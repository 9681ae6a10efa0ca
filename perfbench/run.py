"""wildbregman benchmark: one closed-loop client, one op in flight.

    python3 perfbench/run.py --workload {validate,bregman_radius,cli_chain}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/`.  With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  See perfbench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
WINDOW_OPS = 2   # traced ops whose work counters are reported


def percentile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (numpy's default definition)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of n samples beyond it.

    Runs too short for that (fewer than 100 ops) report p90, and the
    supported tail comes from pooling a set's runs.
    """
    return max(90.0, 100.0 * (n - 10) / n)


def import_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(src))
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wildbregman.cli"],
                       env=env, check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _op(wl, ctx, k, scope=None):
    """(seconds, Outcome) of op k; an exception is a failed op.

    Only the op runs inside `scope` (the tracer's wrappers); its check,
    which may call the package again, runs outside it.
    """
    from workloads import Outcome
    t0 = time.perf_counter()
    try:
        with scope or contextlib.nullcontext():
            result = wl.run(ctx, k)
    except Exception as err:  # a failed op, reported and counted
        return time.perf_counter() - t0, Outcome([f"{type(err).__name__}: {err}"], "")
    dt = time.perf_counter() - t0
    try:
        return dt, wl.check(ctx, k, result)
    except Exception as err:
        return dt, Outcome([f"check raised {type(err).__name__}: {err}"], "")


def _setup(wl, seed, size, workdir):
    """Build the run's inputs, then warm the code paths the ops take."""
    ctx = wl.setup(seed, size, workdir)
    problems = wl.warm(ctx)
    if problems:
        raise RuntimeError(f"warm-up failed: {problems}")
    return ctx


class Run:
    """Attempted and failed ops; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"{label} failed: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def timed_loop(wl, ctx, seconds, run):
    """Untraced closed loop; returns the op wall times and passing ops.

    Op 1 runs twice in a row, and the repeat must reproduce its outputs
    byte for byte; both runs are timed ops like any other.
    """
    times, ok, digests = [], 0, []
    order = 1
    while sum(times) < seconds:
        k = max(order - 1, 1)
        dt, outcome = _op(wl, ctx, k)
        if k == 1:
            digests.append(outcome.digest)
            if len(digests) == 2 and not outcome.problems \
                    and digests[0] != digests[1]:
                outcome.problems.append("repeating op 1 changed its outputs")
        ok += run.record(f"op {k}", outcome.problems)
        times.append(dt)
        order += 1
    return times, ok


def end_to_end(times, ok_ops, setup_s):
    tail_p = tail_percentile(len(times))
    beyond = sum(1 for t in times if t > percentile(times, tail_p))
    print(f"op_s_tail is p{tail_p:g} of {len(times)} ops ({beyond} beyond it)")
    print("op_s " + json.dumps(times))
    return {
        "ops_per_s": _metric(ok_ops / sum(times), "1/s"),
        "op_s_p50": _metric(percentile(times, 50), "s"),
        "op_s_tail": _metric(percentile(times, tail_p), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_loop(wl, ctx, seconds, run, tracer, wb):
    """Pairs of the same op, untraced and traced, alternating which goes
    first; the pair's outputs must match byte for byte."""
    import spans
    plain, traced, window = [], [], None
    k = 1
    while sum(plain) + sum(traced) < seconds or k <= WINDOW_OPS:
        outcomes = {}
        for trace_on in ((False, True) if k % 2 else (True, False)):
            if trace_on:
                tracer.op = k
                dt, outcomes[True] = _op(wl, ctx, k,
                                         spans.installed(tracer, wb))
                traced.append(dt)
            else:
                dt, outcomes[False] = _op(wl, ctx, k)
                plain.append(dt)
        if outcomes[True].digest != outcomes[False].digest:
            outcomes[True].problems.append("traced and untraced outputs differ")
        run.record(f"op {k}", outcomes[False].problems)
        run.record(f"op {k} (traced)", outcomes[True].problems)
        if k <= WINDOW_OPS:
            tracer.count("cli.bytes_written", outcomes[True].bytes_written)
        if k == WINDOW_OPS:
            window = tracer.snapshot()
        k += 1
    return plain, traced, window


def layer_metrics(tracer, window, plain, traced):
    calls, counts = window["calls"], window["counts"]
    n_traced = len(traced)

    def per_op_calls(name):
        return _metric(calls.get(name, 0) / WINDOW_OPS, "calls/op")

    def busy(name, field="busy"):
        src = tracer.busy if field == "busy" else tracer.self_s
        return _metric(src.get(name, 0.0) / n_traced, "s/op")

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("potentials.divergence_rows", "geometry.project",
                 "trainers.LinearTrainer.fit", "trainers.SaturatedTrainer.fit",
                 "wildfit.calibrate_rho", "wildfit.wild_refit",
                 "complexity.fixed_point_radius"):
        m[f"{name}.calls"] = per_op_calls(name)
        m[f"{name}.busy_s"] = busy(name)
    for io_name in ("design.save_dataset", "design.load_dataset"):
        m[f"{io_name}.busy_s"] = busy(io_name)
        m[f"{io_name}.bytes"] = _metric(
            counts.get(f"{io_name}.bytes", 0) / WINDOW_OPS, "B/op")
    m["design.sample_sign_matrix.calls"] = per_op_calls("design.sample_sign_matrix")
    cal = "wildfit.calibrate_rho"
    m[f"{cal}.self_s"] = busy(cal, "self")
    m[f"{cal}.fits_per_call"] = _metric(ratio(
        counts.get(f"{cal}>trainers.LinearTrainer.fit", 0)
        + counts.get(f"{cal}>trainers.SaturatedTrainer.fit", 0),
        calls.get(cal, 0)), "fits/call")
    m[f"{cal}.steps_per_call"] = _metric(ratio(
        counts.get(f"{cal}.steps", 0), calls.get(cal, 0)), "steps/call")
    fpr = "complexity.fixed_point_radius"
    m[f"{fpr}.wn_calls_per_solve"] = _metric(ratio(
        counts.get(f"{fpr}>complexity.wn", 0), calls.get(fpr, 0)), "calls/solve")
    for method in ("closed_form", "box_qp", "dual_box", "ascent"):
        name = f"complexity.ball_sup.{method}"
        m[f"{name}.calls"] = per_op_calls(name)
        m[f"{name}.busy_s"] = busy(name)
    for name in ("fixed_design_certificate", "stability_constants",
                 "random_design_certificate"):
        m[f"certify.{name}.busy_s"] = busy(f"certify.{name}")
    m["harness.run_coverage.busy_s"] = busy("harness.run_coverage")
    m["harness.run_coverage.self_s"] = busy("harness.run_coverage", "self")
    m["harness.run_coverage.errored_reps"] = _metric(
        counts.get("harness.run_coverage.errored_reps", 0) / WINDOW_OPS, "reps/op")
    m["harness.generate_synthetic.busy_s"] = busy("harness.generate_synthetic")
    for sub in ("simulate", "refit", "radius", "certify", "validate"):
        m[f"cli.{sub}.busy_s"] = busy(f"cli.{sub}")
        m[f"cli.{sub}.self_s"] = busy(f"cli.{sub}", "self")
    m["cli.bytes_written"] = _metric(
        counts.get("cli.bytes_written", 0) / WINDOW_OPS, "B/op")
    p50_plain, p50_traced = percentile(plain, 50), percentile(traced, 50)
    m["trace.op_s_p50_untraced"] = _metric(p50_plain, "s")
    m["trace.op_s_p50_traced"] = _metric(p50_traced, "s")
    m["trace.overhead_ratio"] = _metric(p50_traced / p50_plain, "ratio")
    return m


def source_digest() -> str:
    """Hash of the package and benchmark sources, so that recorded counters
    are compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0"
                 + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_counters(path: Path, counters: dict, run: Run):
    """Compare with the counters an earlier run of the same code, workload
    and seed recorded in this checkout, or record them."""
    if path.exists():
        before = json.loads(path.read_text())
        changed = sorted(
            key for kind in counters
            for key in set(counters[kind]) | set(before[kind])
            if counters[kind].get(key) != before[kind].get(key))
        if changed:
            run.record("work counters", [f"differ from {path.name}: {changed}"])
    else:
        path.write_text(json.dumps(counters, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("validate", "bregman_radius", "cli_chain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the benchmark's self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import wildbregman as wb
        import spans
        import workloads
    except ImportError as err:
        print(f"perfbench: cannot import the package from {src}: {err}",
              file=sys.stderr)
        return 2
    if Path(wb.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: imported wildbregman from {wb.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size][args.workload]
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    run = Run()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = _setup(wl, args.seed, size, workdir)
            setups.append(time.perf_counter() - t0)
        if args.trace:
            tracer = spans.Tracer()
            plain, traced, window = traced_loop(wl, ctx, args.seconds, run,
                                                tracer, wb)
            metrics = layer_metrics(tracer, window, plain, traced)
            outdir.mkdir(exist_ok=True)
            stem = (f"{args.workload}-{args.size}-seed{args.seed}"
                    f"-{source_digest()}")
            check_counters(outdir / f"counters-{stem}.json", window, run)
            tracer.write_jsonl(outdir / f"spans-{stem}.jsonl")
        else:
            import_s = import_seconds(src)
            times, ok_ops = timed_loop(wl, ctx, args.seconds, run)
            print(f"setup_s is import {import_s:.4f} s plus the median of "
                  f"set-ups {', '.join(f'{t:.4f}' for t in setups)} s")
            metrics = end_to_end(times, ok_ops,
                                 import_s + statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
