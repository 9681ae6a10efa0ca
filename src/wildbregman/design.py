"""Fixed-design datasets, prediction matrices, the sign sampler, file formats.

Everything here is immutable after construction; sampling operations are
pure functions of (shape, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RejectedInputError
from .geometry import _mean
from .potentials import BregmanLoss


@dataclass(frozen=True)
class FixedDesignDataset:
    """Design points plus an n x d response matrix.

    `inputs` is an (n, p) feature array, or None when the design is opaque
    (only row indices matter, e.g. for the saturated trainer).
    """

    inputs: np.ndarray | None
    responses: np.ndarray

    def __post_init__(self):
        Y = np.asarray(self.responses, dtype=float)
        if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] < 1:
            raise RejectedInputError("responses must be a non-empty n x d matrix")
        if not np.isfinite(Y).all():
            raise RejectedInputError("responses contain non-finite entries")
        object.__setattr__(self, "responses", Y)
        if self.inputs is not None:
            X = np.asarray(self.inputs, dtype=float)
            if X.ndim != 2 or X.shape[0] != Y.shape[0]:
                raise RejectedInputError("inputs must be (n, p) matching responses")
            object.__setattr__(self, "inputs", X)

    @property
    def n(self) -> int:
        return self.responses.shape[0]

    @property
    def d(self) -> int:
        return self.responses.shape[1]


@dataclass(frozen=True)
class PredictionMatrix:
    """n x d matrix of predictor outputs on the design."""

    values: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.values, dtype=float)
        if V.ndim != 2:
            raise RejectedInputError("prediction matrix must be 2-d")
        if not np.isfinite(V).all():
            raise RejectedInputError("prediction matrix has non-finite entries")
        object.__setattr__(self, "values", V)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def sample_sign_matrix(n: int, d: int, seed: int) -> np.ndarray:
    """n x d i.i.d. Rademacher entries, as floats +/-1; deterministic given
    the seed."""
    if n < 1 or d < 1 or seed < 0:
        raise RejectedInputError(
            f"n and d must be >= 1 and the seed >= 0, got {n}, {d}, {seed}")
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=(n, d)) * 2 - 1).astype(float)


def empirical_discrepancy(loss: BregmanLoss, F: PredictionMatrix, G: PredictionMatrix) -> float:
    """L_n(f, g) = (1/n) sum_i D_phi(f(x_i), g(x_i))."""
    return _mean(loss.divergence_rows(F.values, G.values))


def _write_table(path, blocks):
    """CSV of (name, (n, k) array) blocks: columns <name>_1 .. <name>_k, one
    row per design point, shortest round-trip floats (float.__repr__, which
    "%r" calls), CRLF line ends."""
    names = [f"{name}_{j + 1}" for name, A in blocks for j in range(A.shape[1])]
    M = np.hstack([A for _, A in blocks])
    row = ",".join(["%r"] * M.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n"
                 + (row * M.shape[0]) % tuple(M.ravel().tolist()))


def _read_table(path, names) -> list[np.ndarray]:
    """The <name>_* columns of a `_write_table` file, one (n, k) array each."""
    try:
        with open(path, newline="") as fh:
            header, *rows = fh.read().splitlines()
        if not rows:
            raise ValueError("no data rows")
        header = header.split(",")
        values = np.loadtxt(rows, delimiter=",", ndmin=2)
        if values.shape != (len(rows), len(header)):  # loadtxt skips blank lines
            raise ValueError(f"a blank line, or not {len(header)} values a row")
    except (OSError, ValueError) as err:
        raise RejectedInputError(f"unreadable table {path}: {err}") from None
    return [values[:, [i for i, col in enumerate(header)
                       if col.startswith(f"{name}_")]] for name in names]


def _json_array(key, A: np.ndarray) -> str:
    """json.dumps(A.tolist()) for a finite float array, by one "%r" format
    (float.__repr__, as json writes a float); a non-finite entry, which
    json would write as NaN or Infinity, raises RejectedInputError."""
    if not np.isfinite(A).all():
        raise RejectedInputError(f"{key} has non-finite entries")
    fmt = "%r"
    for size in reversed(A.shape):
        fmt = "[" + ", ".join([fmt] * size) + "]"
    return fmt % tuple(A.ravel().tolist())


def _write_json(path, payload):
    """The package's one JSON writer.  A JSON object of sorted keys, each
    on its own line after a 2-space indent, and each value written on that
    line by one `json.dumps(value, sort_keys=True)`, or for a float array
    (the arrays of a refit file) by `_json_array`.  A flat payload comes
    out as `json.dump(payload, sort_keys=True, indent=2)` would write it,
    while nested values go through the C encoder, which `indent` would
    turn off."""
    lines = ",\n".join(
        f"  {json.dumps(key)}: " + (_json_array(key, value)
                                    if isinstance(value, np.ndarray) else
                                    json.dumps(value, sort_keys=True))
        for key, value in sorted(payload.items()))
    with open(path, "w") as fh:
        fh.write(f"{{\n{lines}\n}}\n")


def _read_json(path, parse=lambda payload: payload):
    """`parse` of a JSON file's content, or RejectedInputError if either fails.
    A value that `parse` refuses is named with the file, not called unreadable."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except RejectedInputError as err:  # a ValueError, so caught first
        raise RejectedInputError(f"{path}: {err}") from None
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise RejectedInputError(f"unreadable file {path}: {err!r}") from None


def save_dataset(path, dataset: FixedDesignDataset, *, seed: int | None = None,
                 potential_kind: str | None = None):
    """Write <path>.csv with x_*/y_* columns and a <path>.json manifest."""
    csv_path = Path(f"{path}.csv")  # a dotted prefix keeps its dots
    X = np.empty((dataset.n, 0)) if dataset.inputs is None else dataset.inputs
    _write_table(csv_path, [("x", X), ("y", dataset.responses)])
    _write_json(Path(f"{path}.json"),
                {"n": dataset.n, "d": dataset.d, "p": X.shape[1], "seed": seed,
                 "potential_kind": potential_kind})
    return csv_path


def load_dataset(csv_path) -> FixedDesignDataset:
    """Read a dataset written by `save_dataset` (or any file with the same header)."""
    X, Y = _read_table(csv_path, ("x", "y"))
    return FixedDesignDataset(inputs=X if X.shape[1] else None, responses=Y)
