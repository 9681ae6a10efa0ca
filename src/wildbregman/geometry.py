"""Compact prediction sets: coordinate boxes and clipped probability simplices.

Both sets support membership tests, Euclidean projection, and a finite
diameter.  Projection is vectorized over rows, so an (n, d) array of
predictions can be projected in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RejectedInputError

_CONTAIN_TOL = 1e-9


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
        if not np.all(np.isfinite(z)):
            raise RejectedInputError("cannot project non-finite input")
        z = np.asarray(z, dtype=float)
        return np.clip(z, *self._rows_bounds(z))

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


def _project_simplex(v: np.ndarray, s: float) -> np.ndarray:
    """Euclidean projection of rows of v onto {q >= 0, sum q = s}.

    Standard sorted-threshold construction; O(d log d) per row, on rows
    shifted by their maximum (the projection commutes with the shift) so
    that s is not lost to rounding against entries of large magnitude.
    """
    v = np.atleast_2d(v)
    d = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    top = u[:, :1]
    u = u - top
    cssv = np.cumsum(u, axis=1) - s
    ks = np.arange(1, d + 1)
    cond = u - cssv / ks > 0
    rho = d - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = cssv[np.arange(v.shape[0]), rho] / (rho + 1)
    return np.clip(v - top - theta[:, None], 0.0, None)


def waterfill(a: np.ndarray, eta0: float) -> np.ndarray:
    """Rows of argmax sum_j a_j log u_j over {u_j >= eta0, sum u = 1}.

    Coordinates with a_j <= 0 sit at the floor and the rest are water-filled,
    u_j = max(eta0, a_j t), with t fixed by the sum.  A row with no positive
    a_j has a convex objective, maximised at the vertex of its largest a_j.
    Same sorted-threshold idiom as `_project_simplex`.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n, d = a.shape
    s = -np.sort(-a, axis=1)
    css = np.cumsum(s, axis=1)
    ks = np.arange(1, d + 1)
    # h(k) = s_k (1 - (d - k) eta0) - eta0 css_k is non-increasing in k; the
    # k largest coordinates are above the floor for the last k with h(k) > 0
    cond = s * (1.0 - (d - ks) * eta0) - eta0 * css > 0
    k = d - np.argmax(cond[:, ::-1], axis=1)
    positive = s[:, 0] > 0
    den = np.where(positive, css[np.arange(n), k - 1], 1.0)
    t = (1.0 - (d - k) * eta0) / den
    u = np.maximum(eta0, a * t[:, None])
    if not np.all(positive):
        rows = np.flatnonzero(~positive)
        u[rows] = eta0
        u[rows, np.argmax(a[rows], axis=1)] = 1.0 - (d - 1) * eta0
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
            np.abs(np.sum(Z, axis=-1) - 1.0)) <= tol * self.dim)

    def project(self, z) -> np.ndarray:
        if not np.all(np.isfinite(z)):
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
