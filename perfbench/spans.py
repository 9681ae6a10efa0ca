"""In-memory span recorder that wraps wildbregman's public functions.

The package itself has no tracing, so the benchmark wraps the public
functions of each module from outside: every call becomes a span (name,
start, end, parent) and feeds per-name totals of calls, inclusive ("busy")
time and self time (the span minus the time its direct children cover).
Wrappers are installed only around traced ops and removed afterwards, so an
untraced op runs the package's own functions.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Called thousands of times per op inside the trainers' loops: aggregated,
# but not kept as individual span records.
HOT = frozenset({"geometry.project", "potentials.divergence_rows"})

# Spans that count the calls made beneath them, per descendant name.
SCOPES = frozenset({"wildfit.calibrate_rho", "complexity.fixed_point_radius"})


class Tracer:
    """Span stack plus per-name aggregates for one benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = None
        self.stack = []
        self.spans = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._next_id = 0

    def enter(self, name: str) -> list:
        self._next_id += 1
        parent = self.stack[-1][3] if self.stack else None
        frame = [name, self.clock(), 0.0, self._next_id, parent,
                 {} if name in SCOPES else None]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child_s, span_id, parent, below = frame
        dur = end - start
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_s[name] += dur - child_s
        if self.stack:
            self.stack[-1][2] += dur
        for open_frame in self.stack:
            if open_frame[5] is not None:
                open_frame[5][name] = open_frame[5].get(name, 0) + 1
        if below is not None:
            for child, n in below.items():
                self.counts[f"{name}>{child}"] += n
        if name not in HOT:
            self.spans.append((self.op, span_id, parent, name, start, end))

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def snapshot(self) -> dict:
        """Copy of the work counts so far: calls per name and counters."""
        return {"calls": dict(self.calls), "counts": dict(self.counts)}

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def self_times(spans):
    """Self time per span id from (id, parent, start, end) records.

    Reference arithmetic for the recorder's running totals: a span's self
    time is its duration minus the durations of its direct children.
    """
    out = {sid: end - start for sid, _, start, end in spans}
    for sid, parent, start, end in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _span(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, out, args, kwargs)
        return out
    wrapper.__wrapped__ = fn
    return wrapper


def _ball_sup(tracer, fn):
    def wrapper(*args, full_output=False, **kwargs):
        frame = tracer.enter("complexity.ball_sup")
        try:
            val, info = fn(*args, full_output=True, **kwargs)
            frame[0] = f"complexity.ball_sup.{info['method']}"
        finally:
            tracer.exit(frame)
        return (val, info) if full_output else val
    wrapper.__wrapped__ = fn
    return wrapper


def _cli_main(tracer, fn):
    def wrapper(argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        frame = tracer.enter(f"cli.{argv[0] if argv else 'none'}")
        try:
            return fn(argv)
        finally:
            tracer.exit(frame)
    wrapper.__wrapped__ = fn
    return wrapper


def _after_save(tracer, csv_path, args, kwargs):
    tracer.count("design.save_dataset.bytes",
                 _file_bytes(csv_path, csv_path.with_suffix(".json")))


def _after_load(tracer, _, args, kwargs):
    tracer.count("design.load_dataset.bytes", _file_bytes(args[0]))


def _after_calibrate(tracer, cal, args, kwargs):
    tracer.count("wildfit.calibrate_rho.steps", len(cal["trace"]))


def _after_coverage(tracer, report, args, kwargs):
    tracer.count("harness.run_coverage.errored_reps", report.errors)


def _plain(name, after=None):
    return lambda tracer, fn: _span(tracer, name, fn, after)


def _targets(wb):
    """(owner, attribute, wrapper factory) for every wrapped call."""
    return [
        (wb.potentials.BregmanLoss, "divergence_rows", _plain("potentials.divergence_rows")),
        (wb.geometry.Box, "project", _plain("geometry.project")),
        (wb.geometry.ClippedSimplex, "project", _plain("geometry.project")),
        (wb.design, "save_dataset", _plain("design.save_dataset", _after_save)),
        (wb.design, "load_dataset", _plain("design.load_dataset", _after_load)),
        (wb.design, "sample_sign_matrix", _plain("design.sample_sign_matrix")),
        (wb.trainers.LinearTrainer, "fit", _plain("trainers.LinearTrainer.fit")),
        (wb.trainers.SaturatedTrainer, "fit", _plain("trainers.SaturatedTrainer.fit")),
        (wb.wildfit, "wild_refit", _plain("wildfit.wild_refit")),
        (wb.wildfit, "calibrate_rho", _plain("wildfit.calibrate_rho", _after_calibrate)),
        (wb.complexity, "ball_sup", _ball_sup),
        (wb.complexity, "wn", _plain("complexity.wn")),
        (wb.complexity, "fixed_point_radius", _plain("complexity.fixed_point_radius")),
        (wb.certify, "fixed_design_certificate", _plain("certify.fixed_design_certificate")),
        (wb.certify, "stability_constants", _plain("certify.stability_constants")),
        (wb.certify, "random_design_certificate", _plain("certify.random_design_certificate")),
        (wb.harness, "run_coverage", _plain("harness.run_coverage", _after_coverage)),
        (wb.harness, "generate_synthetic", _plain("harness.generate_synthetic")),
        (wb.cli, "main", _cli_main),
    ]


@contextmanager
def installed(tracer: Tracer, wb):
    """Wrap every target while the block runs, then restore the originals.

    A module-level function is rebound in every wildbregman module that
    imported it by name, so calls between modules are seen too.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "wildbregman"
                                     or name.startswith("wildbregman."))]
    undo = []
    try:
        for owner, attr, make in _targets(wb):
            original = vars(owner)[attr]
            wrapped = make(tracer, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, value))
                        setattr(holder, key, wrapped)
        yield tracer
    finally:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)
