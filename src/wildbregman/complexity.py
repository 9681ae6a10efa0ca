"""Empirical-process suprema over Bregman balls and radius solvers.

The central object is the supremum, over predictors within a Bregman ball
around a center, of the averaged inner product between the loss gradient
and a fixed perturbation matrix.  For the squared-Euclidean potential on a
box the supremum has a sorted-threshold closed form; otherwise a Lagrangian
dual reports a certified upper bound and its duality gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import PredictionMatrix
from .errors import RejectedInputError, SolveError
from .geometry import Box, CompactSet
from .potentials import BregmanLoss, _bregman_projection


@dataclass(frozen=True)
class RadiusReport:
    r_certified: float
    method: str  # oracle | fixed_point | convex_class_bound

    def __post_init__(self):
        if not (math.isfinite(self.r_certified) and self.r_certified >= 0):
            raise RejectedInputError("r_certified must be finite and >= 0")
        if self.method not in ("oracle", "fixed_point", "convex_class_bound"):
            raise RejectedInputError(f"unknown radius method {self.method!r}")


def _objective(loss: BregmanLoss, center: np.ndarray, U: np.ndarray,
               Z: np.ndarray) -> float:
    g = loss.gradient
    return float(np.mean(np.sum((g(center) - g(U)) * Z, axis=-1)))


def _ball_value(loss: BregmanLoss, center: np.ndarray, U: np.ndarray) -> float:
    return float(np.mean(loss._div_raw(center, U)))


def _walk_bisect(ok, lo, x, ratio, cap, rel):
    """Walk x, x ratio, x ratio^2, ... up to cap until the monotone predicate
    ok holds, then bisect from the last failing point (lo at the start, where
    ok fails) to relative width rel.  Returns (lo, hi) with ok(lo) false and
    ok(hi) true, or None if ok fails on the whole walk."""
    while x <= cap and x < math.inf:  # an infinite x would walk forever
        if ok(x):
            hi = x
            while hi - lo > rel * hi:
                mid = 0.5 * (lo + hi)
                if ok(mid):
                    hi = mid
                else:
                    lo = mid
            return lo, hi
        lo, x = x, x * ratio
    return None


def _sup_box_sql2(cset, center, Z, r):
    """Exact supremum for squared_l2 over box-and-ball, in closed form.

    In V = C - U the problem is max <V, Z>/n over the shifted box with
    ||V||_F^2 <= cap = 2 n r^2.  Its KKT point has |v| = min(|z|/mu, e) with
    the sign of z, e the room from c to the box face that u = c - v moves
    toward, so the entries clipped at e are those whose saturation
    multiplier t = |z|/e is at least mu.  With t sorted descending, clipping
    the first k uses sum_k e^2 of the ball and leaves
    mu = sqrt(sum_rest z^2 / (cap - sum_k e^2)); the ball norm at mu = t_k
    grows with k, and k is the last count for which it is within cap
    (sorted thresholds as in `_project_simplex`).  k = 0 is the
    Cauchy-Schwarz value r sqrt(2/n) ||Z||; k = all, the box corner.
    """
    if not np.all(cset.contains_rows(center)):
        raise RejectedInputError("center rows must lie in the box")
    n = center.shape[0]
    cap = 2.0 * n * r * r
    nz = Z != 0
    a = np.abs(Z[nz])
    e = np.where(Z > 0, center - cset.lo, cset.hi - center)[nz]
    with np.errstate(divide="ignore"):
        t = a / e  # a center already on that face gives inf: clipped at 0
    z2 = a * a
    total = float(np.sum(z2))
    # no entry saturates before the unclipped multiplier: k = 0, no sort
    if float(np.max(t)) <= math.sqrt(total / cap):
        return math.sqrt(total * cap) / n
    order = np.argsort(-t)
    t, a, e, z2 = t[order], a[order], e[order], z2[order]
    # index k: the first k entries clipped
    e2 = np.concatenate(([0.0], np.cumsum(e * e)))
    ez = np.concatenate(([0.0], np.cumsum(e * a)))
    rest = np.concatenate((np.cumsum(z2[::-1])[::-1], [0.0]))
    fits = e2[1:] + rest[1:] / (t * t) <= cap
    k = t.size if fits[-1] else int(np.argmin(fits))
    return (float(ez[k]) + math.sqrt(rest[k] * (cap - e2[k]))) / n


def _sup_dual(loss, cset, center, Z, r):
    """Lagrangian dual of the ball supremum, with the gap it certifies.

    With B the ball value, every multiplier lam >= 0 gives the upper bound
    q(lam) = f(U) + lam (r^2 - B(U)) at the Lagrangian's argmax U = U(lam)
    (weak duality), and U is feasible once B(U) <= r^2, so f(U) is a lower
    bound.  B(U(lam)) is non-increasing in lam, so bisection brackets the
    smallest feasible lam.  Returns q, the info dict with the gap q - f(U),
    and the primal point U.

    Up to terms free of u, the Lagrangian's row term is
    -lam D_phi(c - z / lam, u), so its argmax is the Bregman projection of
    A = C - Z / lam onto the set (`potentials._bregman_projection`, which
    refuses a pair it cannot project).  On a box the program is convex in
    mirror coordinates m = grad phi(u) (linear objective, box to box, convex
    ball), so strong duality holds.  KL on the clipped simplex is not convex
    in m; the reported gap bounds how far q can lie above the supremum.

    If no multiplier is feasible within 200 doublings (r^2 below the ball
    value's rounding floor at the center), q is the loose but valid bound at
    the vanishing multiplier, and the primal point the center (objective 0).
    """
    method = "dual_box" if isinstance(cset, Box) else "dual_simplex"
    n = center.shape[0]
    r2 = r * r

    def at(lam):
        U = _bregman_projection(loss, cset, center - Z / lam)
        return U, _ball_value(loss, center, U)

    def result(lam, U, ball):
        val = _objective(loss, center, U, Z)
        q = val + lam * (r2 - ball)
        return q, {"method": method, "gap": q - val}, U

    # at a vanishing multiplier the argmax is the set's best point; the ball
    # may not bind at all
    lam_lo = 1e-150 * float(np.max(np.abs(Z)))
    U_lo, B_lo = at(lam_lo)
    if B_lo <= r2:
        return result(lam_lo, U_lo, B_lo)
    hit = []  # (U, B) at the last feasible multiplier evaluated

    def feasible(lam):
        U, B = at(lam)
        if B <= r2:
            hit[:] = U, B
        return B <= r2

    # double up from the squared_l2 multiplier ||Z|| / (sqrt(2n) r)
    lam = float(np.linalg.norm(Z)) / (math.sqrt(2.0 * n) * r)
    bracket = _walk_bisect(feasible, lam_lo, lam, 2.0, lam * 2.0 ** 200, 1e-13)
    if bracket is None:
        q = result(lam_lo, U_lo, B_lo)[0]
        return q, {"method": method, "gap": q}, center
    return result(bracket[1], *hit)


def _vertices(loss: BregmanLoss, cset: CompactSet) -> np.ndarray:
    """A box's corners lo, hi or a clipped simplex's d vertices.  Raises
    RejectedInputError unless they, and so the set, lie in the loss domain."""
    if isinstance(cset, Box):
        V = np.stack([cset.lo, cset.hi])
    else:
        d = cset.dim
        V = np.full((d, d), cset.eta0)
        np.fill_diagonal(V, 1.0 - (d - 1) * cset.eta0)
    loss._check_domain(V)
    return V


def ball_sup(loss: BregmanLoss, cset: CompactSet, center: PredictionMatrix,
             Z: np.ndarray, r: float, *, full_output: bool = False):
    """sup over {U : rows in cset, L_n(center, U) <= r^2} of the averaged
    gradient-perturbation inner product (1/n) sum <gradphi(c_i)-gradphi(u_i), z_i>.

    squared_l2 on a box is solved in closed form, and a center row outside
    the box raises RejectedInputError; every other supported (potential, set)
    pair by its Lagrangian dual, whose value is an upper bound and whose
    `gap` in `full_output` bounds the distance to the supremum.  A pair with
    no exact inner argmax, and a set with a vertex outside the loss domain,
    raise RejectedInputError.
    """
    if r < 0:
        raise RejectedInputError("radius must be >= 0")
    _vertices(loss, cset)
    C = center.values
    Z = np.asarray(Z, dtype=float)
    if Z.shape != C.shape:
        raise RejectedInputError(f"shape mismatch: {Z.shape} vs {C.shape}")
    if r == 0.0 or not np.any(Z):
        val, info = 0.0, {"method": "trivial"}
    elif loss.kind == "squared_l2" and isinstance(cset, Box):
        val, info = _sup_box_sql2(cset, C, Z, r), {"method": "closed_form"}
    else:
        val, info, _ = _sup_dual(loss, cset, C, Z, r)
    return (val, info) if full_output else val


def wn(loss: BregmanLoss, cset: CompactSet, fhat: PredictionMatrix,
       Z: np.ndarray, r: float):
    """Wild noise complexity at radius r, with Z = eps (.) residues."""
    return ball_sup(loss, cset, fhat, Z, r)


def pilot_sup(loss: BregmanLoss, cset: CompactSet, fhat: PredictionMatrix,
              fstar_preds: PredictionMatrix, eps: np.ndarray, radius: float):
    """Supremum coupling the n x d signs eps with the estimation-error
    matrix fhat - fstar."""
    Z = eps * (fhat.values - fstar_preds.values)
    return ball_sup(loss, cset, fhat, Z, radius)


def deviation_term(loss: BregmanLoss, misspec: float, r: float, w_inf: float,
                   n: int, d: int, delta: float) -> float:
    """High-probability deviation at t = sqrt(log(1/delta)).

    (misspec + 5r) * 2 w_inf (beta^{3/2} v beta^2) sqrt(d) t
    / ((alpha^{3/2} ^ alpha) sqrt(n)).
    """
    if not 0 < delta < 1:
        raise RejectedInputError("delta must lie in (0, 1)")
    if not all(math.isfinite(v) and v >= 0 for v in (misspec, r, w_inf)):
        raise RejectedInputError("misspec, r, w_inf must be finite and >= 0")
    a, b = loss.alpha, loss.beta
    t = math.sqrt(math.log(1.0 / delta))
    num = (misspec + 5.0 * r) * 2.0 * w_inf * max(b ** 1.5, b ** 2) * math.sqrt(d) * t
    return num / (min(a ** 1.5, a) * math.sqrt(n))


# geometric grid steps of the two radius scans, and the relative width to
# which each refines the bracket it finds
_FIXED_POINT_GRID_RATIO = 1.1
_CONVEX_GRID_RATIO = 1.05
_REFINE_REL = 1e-4


def fixed_point_radius(wn_evaluator, delta: float, n: int, *,
                       r_max: float) -> float:
    """Smallest r with r^2 >= W_n((2 + 1/log(1/delta)) r).

    Geometric grid from log(1/delta)/sqrt(n) up to r_max, refined by
    bisection between the last failing and first passing grid points.
    """
    if not 0 < delta <= math.exp(-9.0):  # refuses NaN too
        raise RejectedInputError("requires 0 < delta <= e^-9")
    log_inv = math.log(1.0 / delta)
    factor = 2.0 + 1.0 / log_inv
    r_min = log_inv / math.sqrt(n)
    trace = []

    def passes(r):
        ok = r * r >= wn_evaluator(factor * r)
        trace.append((r, ok))
        return ok

    if passes(r_min):
        return r_min
    ratio = _FIXED_POINT_GRID_RATIO
    bracket = _walk_bisect(passes, r_min, r_min * ratio, ratio, r_max * ratio,
                           _REFINE_REL)
    if bracket is None:
        raise SolveError("no radius below r_max satisfies the fixed-point "
                         "condition", trace=trace)
    return bracket[1]


def rhat_bound_convex(wn_evaluator, r_diamond: float, delta: float, n: int,
                      w_inf: float, d: int, pilot: float,
                      loss: BregmanLoss) -> float:
    """Upper bound on the noiseless estimation radius for convex classes.

    Scans for the largest r satisfying the self-bounding inequality
      r^2 <= max{r_dia^2, log(1/d)^2/n, (r/r_dia) W_n(c0 (2+1/sqrt(log 1/d)) r)}
             + r^2 stab + pilot,
    which dominates every feasible value of the true radius.
    """
    if not 0 < delta <= math.exp(-9.0):  # refuses NaN too
        raise RejectedInputError("requires 0 < delta <= e^-9")
    if r_diamond <= 0:
        raise RejectedInputError("r_diamond must be > 0")
    if not all(math.isfinite(v) and v >= 0 for v in (w_inf, pilot)):
        raise RejectedInputError("w_inf and pilot must be finite and >= 0")
    log_inv = math.log(1.0 / delta)
    factor = loss.c0 * (2.0 + 1.0 / math.sqrt(log_inv))
    stab = 6.0 * w_inf * loss.beta ** 1.5 * math.sqrt(d) / (loss.alpha * math.sqrt(log_inv))
    floor = max(r_diamond * r_diamond, log_inv * log_inv / n)
    trace = []

    def violated(r):
        rhs = max(floor, (r / r_diamond) * wn_evaluator(factor * r))
        holds = r * r <= rhs + r * r * stab + pilot
        trace.append((r, holds))
        return not holds

    r_top = 4.0 * max(r_diamond, wn_evaluator(factor * r_diamond) / r_diamond,
                      math.sqrt(floor + pilot))
    r0 = max(r_diamond, log_inv / math.sqrt(n)) * 1e-3  # r0^2 < floor: holds
    bracket = _walk_bisect(violated, r0, r0 * _CONVEX_GRID_RATIO,
                           _CONVEX_GRID_RATIO, r_top, _REFINE_REL)
    if bracket is None:
        raise SolveError("self-bounding inequality still satisfied at grid "
                         "top; bound diverges", trace=trace)
    return bracket[0]
