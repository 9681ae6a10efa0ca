"""Compact prediction sets: coordinate boxes and clipped probability simplices.

Both sets support membership tests, Euclidean projection, and a finite
diameter.  Projection is vectorized over rows, so an (n, d) array of
predictions can be projected in one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import RejectedInputError

_CONTAIN_TOL = 1e-9
# numpy reduces, scans and sorts along a short last axis at 25-35 ns a row,
# many times the arithmetic, so the row kernels here are d whole-column
# operations instead, with the same bits.  From this width numpy's row sum
# is pairwise, in another order than the columns', so `_row_sum` is numpy's.
_COLUMN_CUTOFF = 8


def _require_width(Z: np.ndarray, dim: int, name: str):
    """Refuse an array whose rows are not dim wide."""
    if Z.shape[-1:] != (dim,):
        raise RejectedInputError(f"rows of shape {Z.shape} for a {dim}-d {name}")


@dataclass(frozen=True, eq=False)
class Box:
    """Coordinate-wise box {z : lo <= z <= hi}, compared and hashed by
    identity (field-wise == would ask numpy for the truth of an array)."""

    lo: np.ndarray
    hi: np.ndarray
    # (lo, hi), scalars if all coordinates share them: a flat np.clip pass is
    # many times faster than broadcasting (n, d) against (d,) bounds
    _bounds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise RejectedInputError("box bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise RejectedInputError("box requires lo < hi coordinate-wise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        uniform = np.all(lo == lo[0]) and np.all(hi == hi[0])
        object.__setattr__(self, "_bounds", (lo[0], hi[0]) if uniform else (lo, hi))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def _rows_bounds(self, Z: np.ndarray) -> tuple:
        # scalar bounds would not catch rows of the wrong width by broadcasting
        _require_width(Z, self.dim, "box")
        return self._bounds

    def contains(self, Z, tol: float = _CONTAIN_TOL) -> bool:
        """Whether every row of Z lies in the box up to tol; False on any NaN
        or infinite entry, True for no rows."""
        Z = np.asarray(Z, dtype=float)
        lo, hi = self._rows_bounds(Z)
        if Z.size == 0:
            return True
        if np.ndim(lo):  # per-coordinate bounds: the extremes of each column
            Z = Z.reshape(-1, self.dim)
            return bool(np.all(Z.min(axis=0) >= lo - tol)
                        and np.all(Z.max(axis=0) <= hi + tol))
        # a NaN propagates through min and max and fails both tests
        return bool(Z.min() >= lo - tol and Z.max() <= hi + tol)

    def project(self, z) -> np.ndarray:
        if not np.isfinite(z).all():
            raise RejectedInputError("cannot project non-finite input")
        z = np.asarray(z, dtype=float)
        return np.clip(z, *self._rows_bounds(z))

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


def _mean(v: np.ndarray) -> float:
    """float(np.mean(v)) bit for bit, for a float array v: the whole-array
    reduction and division np.mean makes, without its Python dispatch."""
    return float(np.add.reduce(v, axis=None) / v.size)


def _row_sum(T: np.ndarray) -> np.ndarray:
    """np.sum(T, axis=-1) bit for bit, for a float or bool T.

    Below `_COLUMN_CUTOFF` columns numpy adds a row left to right from 0
    (so a row of -0.0 sums to +0.0, and a bool row counts in numpy's default
    int), which d whole-column additions repeat.  From there on numpy's
    pairwise sum takes another order, so the sum is numpy's own.
    """
    d = T.shape[-1]
    if not 0 < d < _COLUMN_CUTOFF:
        return np.sum(T, axis=-1)
    acc = T[..., 0].astype(np.intp) if T.dtype == bool else T[..., 0] + 0.0
    for j in range(1, d):
        acc += T[..., j]
    return acc


def _sorted_columns(V: np.ndarray) -> list:
    """The d columns of V's rows sorted in descending order, by an odd-even
    transposition network of np.maximum and np.minimum (d rounds sort d
    entries).  The values are np.sort's, except that of a tied +0.0 and
    -0.0 either sign may come out twice; no caller's result depends on the
    sign of a zero entry."""
    d = V.shape[1]
    cols = [V[:, j] for j in range(d)]
    for rnd in range(d):
        for i in range(rnd % 2, d - 1, 2):
            a, b = cols[i], cols[i + 1]
            cols[i], cols[i + 1] = np.maximum(a, b), np.minimum(a, b)
    return cols


def _project_simplex(v: np.ndarray, s: float) -> np.ndarray:
    """Euclidean projection of rows of v onto {q >= 0, sum q = s}, for
    finite rows and s > 0.

    Standard sorted-threshold construction; O(d log d) per row, on rows
    shifted by their maximum (the projection commutes with the shift) so
    that s is not lost to rounding against entries of large magnitude.
    With u the shifted entries sorted descending and cssv_k the sum of the
    first k less s, theta = cssv_k / k at the last k with u_k > cssv_k / k.
    The sort, the running sums (in np.cumsum's order) and the search for
    that k go column by column.
    """
    v = np.atleast_2d(v)
    n, d = v.shape
    u = _sorted_columns(v)
    top = u[0]
    # k = 1 always qualifies (u_1 = 0 > cssv_1 = -s), and u_1 adds nothing
    # to the running sum; for finite a and b, a - b > 0 exactly when a > b
    theta, css = np.full(n, -s), None
    for k in range(2, d + 1):
        uk = u[k - 1] - top
        css = uk if css is None else css + uk
        q = (css - s) / k
        theta = np.where(uk > q, q, theta)
    return np.clip(v - top[:, None] - theta[:, None], 0.0, None)


# a row of `waterfill` whose largest entry is positive and below _TINY_TOP is
# scaled by _TINY_SCALE first, which brings even 2^-1074 above _TINY_TOP
_TINY_TOP, _TINY_SCALE = 2.0 ** -1000, 2.0 ** 600


def waterfill(a: np.ndarray, eta0: float) -> np.ndarray:
    """Rows of argmax sum_j a_j log u_j over {u_j >= eta0, sum u = 1}, for
    a with no NaN or +inf entry.

    Coordinates with a_j <= 0 sit at the floor and the rest are water-filled,
    u_j = max(eta0, a_j t), with t fixed by the sum.  A row with no positive
    a_j has a convex objective, maximised at the vertex of its largest a_j.
    Same sorted-threshold idiom as `_project_simplex`, and like it column by
    column.  The argmax does not change when a row is scaled by a positive
    number, so a row whose largest entry is positive but tiny is scaled up
    by a power of two before t is taken.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n, d = a.shape
    # with s sorted descending, h(k) = s_k (1 - (d - k) eta0) - eta0 css_k is
    # non-increasing in k; the k largest coordinates are above the floor for
    # the last k with h(k) > 0, and k = d if none qualifies
    s = _sorted_columns(a)
    tiny = (s[0] > 0) & (s[0] < _TINY_TOP)
    if tiny.any():
        # t = w / css_k would overflow: scale those rows up by a power of two,
        # exactly, which leaves the argmax; an entry <= 0 that overflows to
        # -inf sits at the floor as before
        a = a.copy()
        with np.errstate(over="ignore"):
            a[tiny] *= _TINY_SCALE
        s = _sorted_columns(a)
    css = list(itertools.accumulate(s))
    top, w, den = s[0], 1.0, css[-1]
    for k, (sk, ck) in enumerate(zip(s, css), 1):
        wk = 1.0 - (d - k) * eta0
        # x - y > 0 exactly when x > y, also for infinite x and y
        cond = sk * wk > eta0 * ck
        w, den = np.where(cond, wk, w), np.where(cond, ck, den)
    positive = top > 0
    # t = 1 puts a row with no positive a_j, -inf entries too, at the floor ...
    t = np.divide(w, den, out=np.ones(n), where=positive)
    u = np.maximum(eta0, a * t[:, None])
    if not np.all(positive):
        # ... and then at the vertex of its first largest a_j, as argmax
        left = ~positive
        for j in range(d):
            at = left & (a[:, j] == top)
            np.copyto(u[:, j], 1.0 - (d - 1) * eta0, where=at)
            left &= ~at
    return u


@dataclass(frozen=True)
class ClippedSimplex:
    """Probability simplex with a floor: {p : p_j >= eta0, sum p = 1}."""

    eta0: float
    dim: int
    # cached shifted-simplex mass, 1 - d * eta0
    _mass: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 2:
            raise RejectedInputError("clipped simplex needs dim >= 2")
        if not 0 < self.eta0 < 1.0 / self.dim:
            raise RejectedInputError("clipped simplex requires 0 < eta0 < 1/dim")
        object.__setattr__(self, "_mass", 1.0 - self.dim * self.eta0)

    def contains(self, Z, tol: float = _CONTAIN_TOL) -> bool:
        """Whether every row of Z has entries >= eta0 and sum 1, up to tol
        and tol * dim; False on any NaN or infinite entry, True for no rows."""
        Z = np.asarray(Z, dtype=float)
        _require_width(Z, self.dim, "clipped simplex")
        if Z.size == 0:
            return True
        return bool(Z.min() >= self.eta0 - tol and np.max(
            np.abs(_row_sum(Z) - 1.0)) <= tol * self.dim)

    def project(self, z) -> np.ndarray:
        if not np.isfinite(z).all():
            raise RejectedInputError("cannot project non-finite input")
        z = np.asarray(z, dtype=float)
        _require_width(z, self.dim, "clipped simplex")
        single = z.ndim == 1
        q = _project_simplex(np.atleast_2d(z) - self.eta0, self._mass) + self.eta0
        return q[0] if single else q

    def diameter(self) -> float:
        # max distance between vertices of the shifted simplex
        return float(self._mass * np.sqrt(2.0))

    def center(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)


CompactSet = Box | ClippedSimplex
