"""Tail probability bounds built on moment comparison carriers.

The family, for a sum S dominated by the carrier eta in the
cube-positive-part ordering:

    P(S >= x) <= b_opt(eta, 3, x)                  optimized moment ratio
              <= c_{3,0} * P_LinLC_eta(x + h/2)    interpolated majorant
              <= c_{3,0} * P_LC_eta(x)             point-hull majorant
    and       <= exp(-n H(p, y))                   Hoeffding form

(the half-step shift makes the interpolated hull the tighter of the two
closed forms), plus, for p >= 1/2, straight normal domination
c_{3,0} Q(x / (s sqrt n)).  combined_bound evaluates every member and
reports which one wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .dist import FiniteDist, bs, from_pairs, iid_sum, scale
from .majorant import TailMajorant, lattice_params, lc_majorant, lin_lc_majorant
from .optimize import golden_section
from .thresholds import c_const, m_star

_SNAP_RTOL = 1e-12


class BoundError(ValueError):
    pass


def partial_moment(d: FiniteDist, alpha: float, t: float) -> float:
    """E (D - t)_+^alpha with the 0^0 = 0 convention."""
    if alpha < 0:
        raise BoundError("alpha must be >= 0")
    diff = d.values - t
    pos = diff > 0
    if alpha == 0:
        return float(np.sum(d.masses[pos]))
    return float(np.sum(d.masses[pos] * diff[pos] ** alpha))


@dataclass(frozen=True)
class BOptResult:
    value: float
    t_opt: float
    raw: float


def b_opt(d: FiniteDist, alpha: float, x: float) -> BOptResult:
    """inf over t < x of E (D - t)_+^alpha / (x - t)^alpha, clamped to [0, 1].

    The objective is piecewise smooth with kinks at the atoms, so a
    golden-section pass runs on every atom-bounded subinterval (atom
    count permitting) and on the full bracket, with the atoms themselves
    thrown in as candidates.
    """
    if alpha <= 0:
        raise BoundError("b_opt needs alpha > 0")
    vmax = d.max_value
    rng = vmax - d.min_value
    scale_x = rng if rng > 0 else max(1.0, abs(vmax))
    if x > vmax + 1e-12 * max(1.0, abs(vmax)):
        t0 = 0.5 * (vmax + x)
        return BOptResult(0.0, t0, 0.0)
    lo = d.min_value - 10.0 * scale_x
    hi = x - 1e-9 * scale_x
    if hi <= lo:
        return BOptResult(1.0, lo, 1.0)

    def objective(t: float) -> float:
        return partial_moment(d, alpha, t) / (x - t) ** alpha

    cand_t = [lo, hi]
    t_g, _ = golden_section(objective, lo, hi)
    cand_t.append(t_g)
    interior = [float(v) for v in d.values if lo < v < hi]
    cand_t.extend(interior)
    if len(interior) + 2 <= 64:
        edges = [lo] + interior + [hi]
        for a, b in zip(edges[:-1], edges[1:]):
            if b - a > 1e-13 * scale_x:
                tg, _ = golden_section(objective, a, b)
                cand_t.append(tg)
    best_t, best = min(((t, objective(t)) for t in cand_t), key=lambda z: z[1])
    return BOptResult(min(best, 1.0), best_t, best)


# ---------------------------------------------------------------------------
# Hoeffding form
# ---------------------------------------------------------------------------

def hoeffding_H(p: float, y: float) -> float:
    """KL rate (p+y) log((p+y)/p) + (q-y) log((q-y)/q) on 0 <= y <= q.

    Values within relative 1e-12 of the endpoint y = q snap to the exact
    limit -log p; beyond it the rate is infinite (empty event).
    """
    if not 0.0 < p < 1.0:
        raise BoundError("hoeffding_H requires p in (0, 1)")
    q = 1.0 - p
    if y <= 0.0:
        return 0.0
    if abs(y - q) <= _SNAP_RTOL * max(1.0, q):
        return -math.log(p)
    if y > q:
        return math.inf
    return (p + y) * math.log((p + y) / p) + (q - y) * math.log((q - y) / q)


def hoeffding_bound(p: float, n: int, s_m: float, x: float) -> float:
    """exp(-n H(p, y)) with y = (x/n) sqrt(pq) / s_m."""
    if n < 1 or s_m <= 0:
        raise BoundError("hoeffding_bound needs n >= 1 and s_m > 0")
    y = (x / n) * math.sqrt(p * (1.0 - p)) / s_m
    H = hoeffding_H(p, y)
    return 0.0 if math.isinf(H) else min(math.exp(-n * H), 1.0)


# ---------------------------------------------------------------------------
# standard normal partial moments and tail
# ---------------------------------------------------------------------------

def normal_partial_moment(alpha: int, t: float) -> float:
    """E (Z - t)_+^alpha for standard normal Z and integer alpha in 0..5.

    M_0 = Q(t), M_1 = phi(t) - t Q(t), and upward the three-term
    recurrence M_alpha = (alpha - 1) M_{alpha-2} - t M_{alpha-1}.
    """
    if not 0 <= alpha <= 5:
        raise BoundError("normal_partial_moment covers integer alpha 0..5")
    Q = 0.5 * erfc(t / math.sqrt(2.0))
    phi = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    m_prev, m_cur = Q, phi - t * Q
    if alpha == 0:
        return float(Q)
    for a in range(2, alpha + 1):
        m_prev, m_cur = m_cur, (a - 1) * m_prev - t * m_cur
    return float(m_cur)


def normal_tail(z: float) -> float:
    return 0.5 * float(erfc(z / math.sqrt(2.0)))


def normal_opt_bound(x: float, sigma: float, alpha: int = 5) -> float:
    """inf over t of sigma^alpha M_alpha(t/sigma) / (x - t)^alpha."""
    if sigma <= 0:
        raise BoundError("sigma must be positive")

    def objective(t: float) -> float:
        return sigma ** alpha * normal_partial_moment(alpha, t / sigma) / (x - t) ** alpha

    lo = x - 60.0 * sigma
    hi = x - 1e-9 * sigma
    t_g, val = golden_section(objective, lo, hi)
    return min(val, 1.0)


# ---------------------------------------------------------------------------
# two-point baseline for (b, c)-bounded martingale increments
# ---------------------------------------------------------------------------

def baseline_two_point(b: float, c: float) -> FiniteDist:
    """Zero-mean two-point law with maximum b and variance c^2."""
    if b <= 0 or c <= 0:
        raise BoundError("baseline_two_point needs b > 0 and c > 0")
    denom = b * b + c * c
    return from_pairs([(-c * c / b, b * b / denom), (b, c * c / denom)])


def baseline_binom_bound(b: float, c: float, n: int, y: float) -> dict:
    """c_{2,0} P_LinLC(sum of n baseline two-point laws >= y + h/2)."""
    z = baseline_two_point(b, c)
    carrier = iid_sum(z, n)
    maj = lin_lc_majorant(carrier)
    h = b + c * c / b
    raw = c_const(2.0) * float(maj.value(y + 0.5 * h))
    return {
        "b": b, "c": c, "n": n, "y": y, "h": h,
        "raw": raw, "bound": min(raw, 1.0),
    }


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

_PRIORITY = ("b_opt", "lc", "lin_lc", "hoeffding", "normal_dom")


@dataclass(frozen=True)
class BoundReport:
    p: float
    m: float
    n: int
    s_m: float
    x: float
    h: float
    b_opt: float
    b_opt_t: float
    lc: float
    lin_lc: float
    hoeffding: float
    normal_dom: float | None
    minimum: float
    argmin: str
    below_threshold: bool
    raw: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        out = {
            "p": self.p, "m": self.m, "n": self.n, "s_m": self.s_m,
            "x": self.x, "h": self.h,
            "b_opt": self.b_opt, "b_opt_t": self.b_opt_t,
            "lc": self.lc, "lin_lc": self.lin_lc,
            "hoeffding": self.hoeffding, "normal_dom": self.normal_dom,
            "minimum": self.minimum, "argmin": self.argmin,
            "below_threshold": self.below_threshold,
            "raw": dict(self.raw),
        }
        return out


def resolve_s_m(m: float, coeffs=None, s_m: float | None = None,
                n: int | None = None) -> tuple[int, float, float | None]:
    """Return (n, s_m, s_1) from either explicit coefficients or s_m."""
    if coeffs is not None:
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or len(c) == 0 or np.any(c < 0):
            raise BoundError("coeffs must be a nonempty 1-d array of nonnegatives")
        nn = len(c)
        if n is not None and n != nn:
            raise BoundError("n disagrees with len(coeffs)")
        sm = float(np.mean(c ** (2.0 * m)) ** (1.0 / (2.0 * m)))
        s1 = float(math.sqrt(np.mean(c ** 2)))
        return nn, sm, s1
    if s_m is None or n is None:
        raise BoundError("need coeffs, or both s_m and n")
    if s_m <= 0:
        raise BoundError("s_m must be positive")
    return n, float(s_m), (float(s_m) if m == 1.0 else None)


def carrier_sum(p: float, n: int, s_m: float) -> FiniteDist:
    """The comparison carrier: s_m times a sum of n iid bs(p) laws."""
    return scale(iid_sum(bs(p), n), s_m)


def combined_bound_grid(p: float, m: float, xs, *, n: int | None = None,
                        coeffs=None, s_m: float | None = None) -> list[BoundReport]:
    """Evaluate the whole bound family at each x, sharing one carrier."""
    n, sm, s1 = resolve_s_m(m, coeffs=coeffs, s_m=s_m, n=n)
    below = m < m_star(p) - 1e-12
    carrier = carrier_sum(p, n, sm)
    lc = lc_majorant(carrier)
    linlc = lin_lc_majorant(carrier)
    _, h = lattice_params(carrier)
    c30 = c_const(3.0)
    reports = []
    for x in np.atleast_1d(np.asarray(xs, dtype=float)):
        x = float(x)
        bo = b_opt(carrier, 3.0, x)
        raw = {
            "b_opt": bo.raw,
            "lc": c30 * float(lc.value(x)),
            "lin_lc": c30 * float(linlc.value(x + 0.5 * h)),
            "hoeffding": hoeffding_bound(p, n, sm, x),
        }
        nd = None
        if p >= 0.5 and s1 is not None:
            raw["normal_dom"] = c30 * normal_tail(x / (s1 * math.sqrt(n)))
            nd = min(raw["normal_dom"], 1.0)
        clamped = {k: min(v, 1.0) for k, v in raw.items()}
        names = [k for k in _PRIORITY if k in clamped]
        argmin = min(names, key=lambda k: (clamped[k], names.index(k)))
        reports.append(BoundReport(
            p=p, m=m, n=n, s_m=sm, x=x, h=h,
            b_opt=clamped["b_opt"], b_opt_t=bo.t_opt,
            lc=clamped["lc"], lin_lc=clamped["lin_lc"],
            hoeffding=clamped["hoeffding"], normal_dom=nd,
            minimum=clamped[argmin], argmin=argmin,
            below_threshold=below, raw=raw))
    return reports


def combined_bound(p: float, m: float, x: float, *, n: int | None = None,
                   coeffs=None, s_m: float | None = None) -> BoundReport:
    return combined_bound_grid(p, m, [x], n=n, coeffs=coeffs, s_m=s_m)[0]
