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
from .geometry import Box, CompactSet, _mean, _row_sum
from .potentials import BregmanLoss, _bregman_projection

# the dual's vanishing multiplier is at least the smallest normal float, and
# the norm of a perturbation below _SMALL_Z is taken scaled by _SMALL_Z_SCALE
_TINY = float(np.finfo(float).tiny)
_SMALL_Z, _SMALL_Z_SCALE = 2.0 ** -500, 2.0 ** 600


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
               Z: np.ndarray, scatter=None) -> float:
    """(1/n) sum <grad phi(c_i) - grad phi(u_i), z_i>.  With `scatter`, the
    rows given are some of the n, and scatter(v) places their values in a
    length-n vector before the mean."""
    g = loss.gradient
    v = _row_sum((g(center) - g(U)) * Z)
    return _mean(v if scatter is None else scatter(v))


def _ball_value(loss: BregmanLoss, center: np.ndarray, U: np.ndarray,
                scatter=None) -> float:
    """L_n(center, U); `scatter` as in `_objective`."""
    v = loss._div_raw(center, U)
    return _mean(v if scatter is None else scatter(v))


def _walk_bisect(margin, lo, x, cap, rel):
    """Walk x, 2x, 4x, ... and at last cap itself (never a point past cap or
    an infinite one) until the monotone margin is ok (margin <= 0), then
    close the bracket from the last failing point (lo at the start, where ok
    fails) to relative width rel.  Returns (lo, hi) with ok false at lo and
    true at hi and hi - lo <= rel hi, or None if ok fails on the whole walk.

    The bracket closes by Illinois false position (Dowell & Jarratt, 1971):
    step k evaluates the root of the chord through the two ends' margins,
    and an end kept twice in a row has its margin halved.  The step is kept
    rel hi / 2 inside either end, so one that lands just short of the root
    is followed by one just past it.  It is also kept within t = w 2^(-k/2)
    of either end, w the width the walk left, so that k steps leave at most
    the width of k/2 bisections whichever end they replace (the projection
    of Oliveira & Takahashi, 2020).  While lo's margin is unknown (the
    walk's first point is ok) or a margin is not finite, the step bisects.
    """
    m_lo, x = math.nan, min(x, cap)
    while lo < x < math.inf:
        m_hi = margin(x)
        if m_hi <= 0:
            break
        lo, m_lo, x = x, m_hi, min(2.0 * x, cap)
    else:
        return None
    hi, w, k, last_ok = x, x - lo, 0, None
    while hi - lo > rel * hi:
        k += 1
        if -math.inf < m_hi - m_lo < 0:  # both margins known and finite
            h, t = 0.5 * rel * hi, w * 0.5 ** (0.5 * k)
            x = hi - m_hi / (m_hi - m_lo) * (hi - lo)
            x = min(max(x, lo + h, hi - t), hi - h, lo + t)
        else:
            x = 0.5 * (lo + hi)
        m = margin(x)
        if m <= 0:
            if last_ok:
                m_lo *= 0.5
            hi, m_hi = x, m
        else:
            if last_ok is False:
                m_hi *= 0.5
            lo, m_lo = x, m
        last_ok = m <= 0
    return lo, hi


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
    n = center.shape[0]
    cap = 2.0 * n * r * r
    nz = Z != 0
    a = np.abs(Z[nz])
    e = np.where(Z > 0, center - cset.lo, cset.hi - center)[nz]
    # a center already on that face gives inf: clipped at 0
    t = np.divide(a, e, out=np.full_like(a, np.inf), where=e != 0)
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


def _pinned_rows(cset: Box, center: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Rows that clamp(c - z / lam) leaves at c for every lam > 0: each entry
    has z = 0 and c inside the box, or c exactly on the face its z pushes
    toward (lo for z > 0, hi for z < 0).  A centre just outside a face, as
    `contains` tolerates, moves onto it, so its row is not pinned."""
    lo, hi = cset._rows_bounds(center)
    stays = (((Z <= 0) | (center == lo)) & ((Z >= 0) | (center == hi))
             & (lo <= center) & (center <= hi))
    # column by column: numpy's reduction along a short last axis costs
    # about 25 ns a row, several times the test itself
    pinned = stays[:, 0].copy()
    for j in range(1, stays.shape[1]):
        pinned &= stays[:, j]
    return pinned


def _sup_dual(loss, cset, center, Z, r):
    """Lagrangian dual of the ball supremum, with the gap it certifies.

    With B the ball value, every multiplier lam >= 0 gives the upper bound
    q(lam) = f(U) + lam (r^2 - B(U)) at the Lagrangian's argmax U = U(lam)
    (weak duality), and U is feasible once B(U) <= r^2, so f(U) is a lower
    bound.  B(U(lam)) is non-increasing in lam, so `_walk_bisect` on the
    margin B(U(lam)) - r^2 brackets the smallest feasible lam, and q is
    taken at the bracket's feasible end.  Returns q, the info dict with the
    gap q - f(U), and the primal point U.

    Up to terms free of u, the Lagrangian's row term is
    -lam D_phi(c - z / lam, u), so its argmax is the Bregman projection of
    A = C - Z / lam onto the set (`potentials._bregman_projection`, which
    refuses a pair it cannot project).  On a box the program is convex in
    mirror coordinates m = grad phi(u) (linear objective, box to box, convex
    ball), so strong duality holds.  KL on the clipped simplex is not convex
    in m; the reported gap bounds how far q can lie above the supremum.

    On a box the projection is a clamp, so a row `_pinned_rows` marks stays
    at its centre for every multiplier.  It adds D_phi(c, c) = 0 to the
    ball value and (grad phi(c) - grad phi(c)) z = 0 to the objective, both
    exactly for the built-in losses (their terms and gradients are finite
    on the domain).  So only the live rows are projected and evaluated;
    their row sums go into a length-n vector of zeros before the mean, and
    the pinned rows of U are copied from C.  B, q, the gap and U are then
    those of the all-rows evaluation bit for bit, and the multipliers tried
    (the walk starts from the full Z) are the same.  The clipped simplex
    couples a row's entries through its sum, so there every row is live.

    If no multiplier is feasible within 200 doublings (r^2 below the ball
    value's rounding floor at the center), q is the loose but valid bound at
    the vanishing multiplier, and the primal point the center (objective 0).
    """
    method = "dual_box" if isinstance(cset, Box) else "dual_simplex"
    n = center.shape[0]
    r2 = r * r
    C, Zl, live, scatter = center, Z, None, None
    if method == "dual_box":
        pinned = _pinned_rows(cset, center, Z)
        if pinned.any():
            live = np.flatnonzero(~pinned)
            # np.take gathers short rows several times faster than C[live]
            C, Zl = np.take(center, live, axis=0), np.take(Z, live, axis=0)
            rows = np.zeros(n)

            def scatter(v):  # the pinned rows' entries stay 0
                rows[live] = v
                return rows

    def at(lam):
        U = _bregman_projection(loss, cset, C - Zl / lam)
        return U, _ball_value(loss, C, U, scatter)

    def result(lam, U, ball):
        val = _objective(loss, C, U, Zl, scatter)
        q = val + lam * (r2 - ball)
        if live is not None:
            U_live, U = U, center.copy()
            U[live] = U_live
        return q, {"method": method, "gap": q - val}, U

    # at a vanishing multiplier the argmax is the set's best point; the ball
    # may not bind at all
    z_max = float(np.max(np.abs(Z)))
    lam_lo = max(1e-150 * z_max, _TINY)
    U_lo, B_lo = at(lam_lo)
    if B_lo <= r2:
        return result(lam_lo, U_lo, B_lo)
    hit = []  # (U, B) at the last feasible multiplier evaluated: the new hi

    def excess(lam):
        U, B = at(lam)
        if B <= r2:
            hit[:] = U, B
        return B - r2

    # double up from the squared_l2 multiplier ||Z|| / (sqrt(2n) r); the
    # squares of a Z below 2^-500 underflow, so its norm is taken at Z 2^600
    z_norm = (float(np.linalg.norm(Z)) if z_max >= _SMALL_Z else
              float(np.linalg.norm(Z * _SMALL_Z_SCALE)) / _SMALL_Z_SCALE)
    lam = z_norm / (math.sqrt(2.0 * n) * r)
    bracket = _walk_bisect(excess, lam_lo, lam, lam * 2.0 ** 200, 1e-13)
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

    A center row outside the set, and a non-finite entry of Z, raise
    RejectedInputError before any solve.  squared_l2 on
    a box is solved in closed form; every other supported (potential, set)
    pair by its Lagrangian dual, whose value is an upper bound and whose
    `gap` in `full_output` bounds the distance to the supremum.  A pair with
    no exact inner argmax, and a set with a vertex outside the loss domain,
    raise RejectedInputError.
    """
    if r < 0:
        raise RejectedInputError("radius must be >= 0")
    _vertices(loss, cset)
    C = center.values
    if not cset.contains(C):
        raise RejectedInputError("center rows must lie in the set")
    Z = np.asarray(Z, dtype=float)
    if Z.shape != C.shape:
        raise RejectedInputError(f"shape mismatch: {Z.shape} vs {C.shape}")
    if not np.isfinite(Z).all():
        raise RejectedInputError("perturbation entries must be finite")
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


# the relative width to which each radius solver closes its bracket
_REFINE_REL = 1e-4


def _stability_term(loss, r, w_inf, d, log_inv):
    """Theorem 6.1's stability term at radius r, log_inv = log(1/delta)."""
    return (r ** 2 * 6.0 * w_inf * loss.beta ** 1.5 * math.sqrt(d)
            / (loss.alpha * math.sqrt(log_inv)))


def fixed_point_radius(wn_evaluator, delta: float, n: int, *,
                       r_max: float) -> float:
    """Smallest r with r^2 >= W_n((2 + 1/log(1/delta)) r).

    Tries the floor log(1/delta)/sqrt(n); past it, `_walk_bisect` doubles up
    to r_max, inclusive, on the margin (W - r^2) / (sqrt(W) + r), W the
    process at (2 + 1/log(1/delta)) r.  Its sign is that of W - r^2, so it
    takes every ok/fail decision W - r^2 would and the returned end keeps
    r^2 >= W; but it equals sqrt(W) - r, which is linear in r where W has
    saturated (the ball no longer binds), and false position closes on it
    there in fewer evaluations.  A floor above r_max raises SolveError before W_n is
    evaluated.
    """
    if not 0 < delta <= math.exp(-9.0):  # refuses NaN too
        raise RejectedInputError("requires 0 < delta <= e^-9")
    log_inv = math.log(1.0 / delta)
    factor = 2.0 + 1.0 / log_inv
    r_min = log_inv / math.sqrt(n)
    if r_min > r_max:
        raise SolveError(f"the radius floor log(1/delta)/sqrt(n) = {r_min:.6g} "
                         f"lies above r_max = {r_max:.6g}")
    trace = []

    def excess(r):
        w = wn_evaluator(factor * r)
        ok = w <= r * r
        trace.append((r, ok))
        # = sqrt(w) - r where both are finite; the sign of w - r^2 decides
        m = (w - r * r) / (math.sqrt(w) + r) if 0 <= w < math.inf else w
        return min(m, 0.0) if ok else max(m, math.ulp(0.0))

    if excess(r_min) <= 0:
        return r_min
    bracket = _walk_bisect(excess, r_min, 2.0 * r_min, r_max, _REFINE_REL)
    if bracket is None:
        raise SolveError("no radius below r_max satisfies the fixed-point "
                         "condition", trace=trace)
    return bracket[1]


def _require_closing(loss, w_inf, d, log_inv):
    """Refuse kappa = `_stability_term` at r = 1 outside [0, 1), so a w_inf
    that is negative or not finite too: at kappa >= 1 Theorem 6.1's
    r^2 <= ... + kappa r^2 holds at every r and bounds nothing."""
    kappa = _stability_term(loss, 1.0, w_inf, d, log_inv)
    if not 0 <= kappa < 1.0:
        raise RejectedInputError(
            f"w_inf = {w_inf!r} gives the stability coefficient {kappa:.6g}; "
            f"Theorem 6.1's inequality bounds the radius only for one in "
            f"[0, 1)")


def _thm_6_1_rhs(loss, wn_at, pilot_at, r, delta, n, w_inf, d):
    """Right-hand side of Theorem 6.1's self-bounding inequality at r,
      max(log(1/delta)^2/n, W_n(c r)) + kappa r^2 + pilot(c r),
    c = 2 + 1/log(1/delta), with W_n and the pilot functions of the radius.
    A pilot value that is negative or not finite raises RejectedInputError."""
    log_inv = math.log(1.0 / delta)
    s = (2.0 + 1.0 / log_inv) * r
    pilot = pilot_at(s)
    if not (math.isfinite(pilot) and pilot >= 0):
        raise RejectedInputError(f"pilot {pilot!r} must be finite and >= 0")
    return (max(log_inv ** 2 / n, wn_at(s))
            + _stability_term(loss, r, w_inf, d, log_inv) + pilot)


def rhat_bound_convex(wn_evaluator, pilot_evaluator, delta: float, n: int,
                      w_inf: float, d: int, loss: BregmanLoss, *,
                      r_max: float) -> float:
    """Upper bound on the noiseless radius r-hat of a convex class: the
    first r, closed from above to relative width 1e-4, at which Theorem
    6.1's inequality r^2 <= `_thm_6_1_rhs`(r) fails.  The evaluators give
    W_n and the pilot supremum, or upper bounds on them, at a radius.

    On the theorem's event r-hat satisfies the exact inequality.  On a
    `Box` for every built-in potential, and for squared_l2 on the clipped
    simplex, the ball is convex in mirror coordinates m = grad phi(u) and
    holds the centre, and the objective is linear in m, so the supremum is
    concave in s^2 and W(s)/s^2, like the pilot's ratio, does not increase
    in s.  With kappa < 1 the exact inequality then holds on an interval
    [0, R] containing r-hat; wherever it fails with upper bounds in place of
    W_n and the pilot the exact one fails too, so the returned r exceeds R.
    KL on the clipped simplex is not convex in m, and kappa >= 1 closes no
    bound: both are refused.  The saturated fit's class (every prediction
    in the set) is convex; the projected linear fit's is not yet.

    The inequality holds at the floor log(1/delta)/sqrt(n); `_walk_bisect`
    doubles up from it to r_max, inclusive, on rhs - r^2 moved up one ulp
    (so that equality holds).  Holding still at r_max raises SolveError.
    """
    if not 0 < delta <= math.exp(-9.0):  # refuses NaN too
        raise RejectedInputError("requires 0 < delta <= e^-9")
    if loss.kind == "clipped_simplex_kl":
        raise RejectedInputError("KL on the clipped simplex has no ball "
                                 "convex in mirror coordinates")
    log_inv = math.log(1.0 / delta)
    _require_closing(loss, w_inf, d, log_inv)
    trace = []

    def slack(r):
        m = _thm_6_1_rhs(loss, wn_evaluator, pilot_evaluator, r, delta, n,
                         w_inf, d) - r * r
        trace.append((r, m >= 0))
        # the walk's ok is "violated", m < 0; equality holds, so 0 maps above 0
        return math.nextafter(m, math.inf)

    r_min = log_inv / math.sqrt(n)
    bracket = _walk_bisect(slack, r_min, 2.0 * r_min, r_max, _REFINE_REL)
    if bracket is None:
        raise SolveError(f"Theorem 6.1's inequality still holds at r_max = "
                         f"{r_max:.6g}", trace=trace)
    return bracket[1]
