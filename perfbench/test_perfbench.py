"""Self-tests for the benchmark: its arithmetic, its tracer, and a smoke run."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_percentile_matches_numpy():
    rng = random.Random(7)
    for n in (1, 2, 5, 19, 100):
        xs = [rng.random() for _ in range(n)]
        for p in (0, 25, 50, 90, 97.5, 100):
            assert run.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(5) == 90.0
    assert run.tail_percentile(99) == 90.0
    for n in (100, 101, 250, 1000):
        xs = list(range(n))
        p = run.tail_percentile(n)
        beyond = sum(1 for x in xs if x > run.percentile(xs, p))
        assert beyond == 10, (n, p)
    assert run.tail_percentile(1000) == 99.0


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_span_minus_direct_children():
    # a[0,10] holds b[1,4] (which holds c[2,3]) and d[5,8]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 8, 10]))
    a = tracer.enter("a")
    b = tracer.enter("b")
    c = tracer.enter("c")
    tracer.exit(c)
    tracer.exit(b)
    d = tracer.enter("d")
    tracer.exit(d)
    tracer.exit(a)
    assert dict(tracer.busy) == {"a": 10, "b": 3, "c": 1, "d": 3}
    assert dict(tracer.self_s) == {"a": 4, "b": 2, "c": 1, "d": 3}
    records = [(sid, parent, start, end)
               for _, sid, parent, name, start, end in tracer.spans]
    by_name = {rec[3]: rec[1] for rec in tracer.spans}
    ref = spans.self_times(records)
    assert {name: ref[sid] for name, sid in by_name.items()} == dict(tracer.self_s)


def test_scope_counts_descendants_and_hot_spans_are_not_kept():
    tracer = spans.Tracer()
    outer = tracer.enter("wildfit.calibrate_rho")
    for _ in range(3):
        fit = tracer.enter("trainers.LinearTrainer.fit")
        tracer.exit(tracer.enter("geometry.project"))
        tracer.exit(fit)
    tracer.exit(outer)
    assert tracer.counts["wildfit.calibrate_rho>trainers.LinearTrainer.fit"] == 3
    assert tracer.counts["wildfit.calibrate_rho>geometry.project"] == 3
    assert tracer.calls["geometry.project"] == 3
    assert [rec[3] for rec in tracer.spans].count("geometry.project") == 0


def test_installed_wraps_public_functions_and_restores_them():
    import wildbregman as wb
    import wildbregman.cli  # noqa: F401
    original = (wb.cli.main, wb.complexity.ball_sup, wb.geometry.Box.project)
    loss = wb.builtin_loss("squared_l2", 2)
    cset = wb.Box(np.full(2, -1.0), np.full(2, 1.0))
    center = wb.PredictionMatrix(np.zeros((4, 2)))
    Z = np.ones((4, 2))
    plain = wb.wn(loss, cset, center, Z, 0.1)
    tracer = spans.Tracer()
    with spans.installed(tracer, wb):
        assert wb.cli.main is not original[0]
        assert wb.wn(loss, cset, center, Z, 0.1) == plain
        value, info = wb.ball_sup(loss, cset, center, Z, 0.1, full_output=True)
    assert (wb.cli.main, wb.complexity.ball_sup, wb.geometry.Box.project) == original
    assert value == plain and info["method"] == "closed_form"
    assert tracer.calls["complexity.wn"] == 1
    assert tracer.calls["complexity.ball_sup.closed_form"] == 2


def test_work_counters_must_repeat_across_runs(tmp_path):
    path = tmp_path / "counters.json"
    counts = {"calls": {"trainers.LinearTrainer.fit": 2}, "counts": {"x": 1.5}}
    first, same, changed = run.Run(), run.Run(), run.Run()
    run.check_counters(path, counts, first)
    run.check_counters(path, json.loads(json.dumps(counts)), same)
    run.check_counters(path, {"calls": {"trainers.LinearTrainer.fit": 3},
                              "counts": {"x": 1.5}}, changed)
    assert (first.failed, same.failed, changed.failed) == (0, 0, 1)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("validate", 0), ("bregman_radius", 0), ("bregman_radius", 1),
    ("cli_chain", 0), ("cli_chain", 1)])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _bench(HERE.parent, "--workload", workload, "--seed", "3",
                  "--seconds", "0.5", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "cli_chain", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
