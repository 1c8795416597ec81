"""Tail probability bounds built on moment comparison carriers.

The family, for a sum S dominated by the carrier eta in the
cube-positive-part ordering:

    P(S >= x) <= b_opt(eta, x)                     optimized moment ratio
              <= c_{3,0} * P_LinLC_eta(x + h/2)    interpolated majorant
              <= c_{3,0} * P_LC_eta(x)             point-hull majorant
    and       <= exp(-n H(p, y))                   Hoeffding form

(the half-step shift makes the interpolated hull the tighter of the two
closed forms), plus, for p >= 1/2, straight normal domination
c_{3,0} Q(x / (s sqrt n)).  combined_bound evaluates every member and
reports which one wins.

b_opt(eta, x) = inf over t < x of E (eta - t)_+^3 / (x - t)^3 has a
closed form: the ratio is quasi-convex in t, and on each interval
between atoms its first-order condition is a quadratic in t.  One
backward pass over the carrier's atoms gives the coefficients, and the
whole x grid is then evaluated at once, one root per x (see b_opt).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import FiniteDist, _shifted_suffix_moments, bs, iid_sum, scale
# lattice_params is not called here; perfbench/tracer.py wraps it under this name
from .majorant import lattice_params, lc_majorant, lin_lc_majorant  # noqa: F401
# golden_section is not called here; perfbench/tracer.py wraps it under this name
from .optimize import golden_section  # noqa: F401
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
    """b_opt at each x: the clamped value, the minimizing t and the raw ratio.

    Each field is a float for a scalar x and an array for an array x."""
    value: float | np.ndarray
    t_opt: float | np.ndarray
    raw: float | np.ndarray


def b_opt(d: FiniteDist, x) -> BOptResult:
    """inf over t < x of E (D - t)_+^3 / (x - t)^3, clamped to [0, 1].

    The cube is the positive-part ordering the carriers obey.  With
    A_j(t) = E (D - t)_+^j, the t-derivative of the ratio is
    3 g(t) / (x - t)^4 where g(t) = A_3(t) - (x - t) A_2(t) =
    A_2(t) (r(t) - x) and r(t) = t + A_3(t) / A_2(t) is nondecreasing
    (Cauchy-Schwarz: A_2^2 <= A_1 A_3).  So the ratio is quasi-convex in
    t and its minimizer t* solves r(t*) = x.  The atom values
    r_k = r(v_k) locate the interval [v_{k-1}, v_k] holding t* (below v_0
    when x <= r_0); on it, with t = v_k - u and dx = x - v_k, g is the
    quadratic

        (P3 - dx P2) + 2 u (P2 - dx P1) + u^2 (P1 - dx P0)

    in the shifted suffix moments P_j of the atoms >= v_k, and the ratio
    is (P3 + 3u P2 + 3u^2 P1 + u^3 P0) / (dx + u)^3.  x may be a scalar
    or a 1-d array; the whole grid is evaluated at once.

    Past the top atom the value is 0.  For x <= E D the ratio is
    nondecreasing in t with limit 1 at t = -inf, so the value is 1, with
    t_opt = min - 10 range.  Any t < x gives an upper bound, so a root
    clipped to its interval by roundoff still yields a valid bound.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1:
        raise BoundError("x must be a scalar or a 1-d array")
    if not np.all(np.isfinite(xs)):
        raise BoundError("x must be finite")
    v = d.values
    vmax = d.max_value
    rng = vmax - d.min_value
    t_low = d.min_value - 10.0 * (rng if rng > 0 else max(1.0, abs(vmax)))
    P = _shifted_suffix_moments(d)
    # x within merge tolerance above the top atom counts as the top atom,
    # as in dist.tail; further up the value is 0
    past = xs > vmax + 1e-12 * max(1.0, abs(vmax))
    xs_in = np.minimum(xs, vmax)
    # non-finite intermediates are all resolved below: by fmax, by the
    # NaN-to-0 and clip of u, or where the two overrides replace the ratio
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # r_k >= v_{k+1} holds exactly; fmax and the running max restore
        # it, and the order, where roundoff or underflow broke them
        r = np.maximum.accumulate(np.fmax(v[:-1] + P[3, :-1] / P[2, :-1], v[1:]))
        k = np.searchsorted(r, xs_in)
        # conditional moments given D >= v_k: the squares below stay normal
        mass = P[0, k]
        q1, q2, q3 = P[1:, k] / mass
        dx = xs_in - v[k]
        a = q1 - dx
        b = 2.0 * (q2 - dx * q1)
        c = q3 - dx * q2
        s = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        # the root where g falls through zero, in its cancellation-free form
        u = np.where(b > 0.0, (-b - s) / (2.0 * a), 2.0 * c / (s - b))
        width = np.where(k > 0, v[k] - v[np.maximum(k - 1, 0)], np.inf)
        u = np.clip(np.where(np.isnan(u), 0.0, u), 0.0, width)
        w = dx + u
        # one division per power: w^3 can underflow where the ratio does not
        raw = mass * (q3 + u * (3.0 * q2 + u * (3.0 * q1 + u))) / w / w / w
    t_opt = v[k] - u
    no_root = (k == 0) & (a >= 0.0)
    raw = np.where(no_root, 1.0, raw)
    t_opt = np.where(no_root, t_low, t_opt)
    raw = np.where(past, 0.0, raw)
    t_opt = np.where(past, 0.5 * (vmax + xs), t_opt)
    value = np.minimum(raw, 1.0)
    if scalar:
        return BOptResult(float(value[0]), float(t_opt[0]), float(raw[0]))
    return BOptResult(value, t_opt, raw)


# ---------------------------------------------------------------------------
# Hoeffding form
# ---------------------------------------------------------------------------

def _float_or_array(a: np.ndarray) -> float | np.ndarray:
    return float(a) if a.ndim == 0 else a


def hoeffding_H(p: float, y) -> float | np.ndarray:
    """KL rate (p+y) log((p+y)/p) + (q-y) log((q-y)/q) on 0 <= y <= q.

    Values within relative 1e-12 of the endpoint y = q snap to the exact
    limit -log p; beyond it the rate is infinite (empty event).  y may
    be a scalar or an array.
    """
    if not 0.0 < p < 1.0:
        raise BoundError("hoeffding_H requires p in (0, 1)")
    q = 1.0 - p
    y = np.asarray(y, dtype=float)
    inside = (y > 0.0) & (y < q)
    yi = np.where(inside, y, 0.0)
    rate = (p + yi) * np.log((p + yi) / p) + (q - yi) * np.log((q - yi) / q)
    snap = np.abs(y - q) <= _SNAP_RTOL * max(1.0, q)
    rate = np.select([y <= 0.0, snap, y > q], [0.0, -math.log(p), math.inf], rate)
    return _float_or_array(rate)


def hoeffding_bound(p: float, n: int, s_m: float, x) -> float | np.ndarray:
    """exp(-n H(p, y)) with y = (x/n) sqrt(pq) / s_m; x a scalar or an array."""
    if n < 1 or s_m <= 0:
        raise BoundError("hoeffding_bound needs n >= 1 and s_m > 0")
    y = (np.asarray(x, dtype=float) / n) * math.sqrt(p * (1.0 - p)) / s_m
    return _float_or_array(np.minimum(np.exp(-n * hoeffding_H(p, y)), 1.0))


# ---------------------------------------------------------------------------
# standard normal tail
# ---------------------------------------------------------------------------

# 1/sqrt(2) as a double plus the rest (1/sqrt(2) minus that double, from
# mpmath), and the double split in two 26-bit halves for Veltkamp's exact
# product (2^27 + 1 is the splitter).
_INV_SQRT2 = math.sqrt(0.5)
_INV_SQRT2_REST = -4.833646656726457e-17
_SPLITTER = 134217729.0
_INV_SQRT2_HI = _SPLITTER * _INV_SQRT2 - (_SPLITTER * _INV_SQRT2 - _INV_SQRT2)
_INV_SQRT2_LO = _INV_SQRT2 - _INV_SQRT2_HI
_SQRT_PI = math.sqrt(math.pi)


def _q(z: float) -> float:
    # Q(z) = erfc(z / sqrt 2) / 2.  The rounding r of x = z / sqrt 2 would
    # cost a relative 2 x r in Q (1e-13 at z = 27), so it is computed
    # exactly and taken back to first order: erfc(x + r) = erfc(x) - 2 r
    # e^{-x^2} / sqrt(pi).  Q is 0 or 1 in double precision beyond |z| = 40.
    z = min(max(z, -40.0), 40.0)
    x = z * _INV_SQRT2
    c = _SPLITTER * z
    z_hi = c - (c - z)
    z_lo = z - z_hi
    r = ((((z_hi * _INV_SQRT2_HI - x) + z_hi * _INV_SQRT2_LO + z_lo * _INV_SQRT2_HI)
          + z_lo * _INV_SQRT2_LO) + z * _INV_SQRT2_REST)
    return 0.5 * math.erfc(x) - r * math.exp(-x * x) / _SQRT_PI


def normal_tail(z) -> float | np.ndarray:
    """Q(z) = P(Z >= z); z a scalar or an array, evaluated elementwise."""
    z = np.asarray(z, dtype=float)
    return _float_or_array(np.array([_q(v) for v in z.ravel().tolist()]).reshape(z.shape))


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

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
    if not 0.0 < p < 1.0:
        raise BoundError(f"p must lie in (0, 1), got {p!r}")
    if not m >= 1.0:
        raise BoundError(f"m must be >= 1, got {m!r}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n, sm, s1 = resolve_s_m(m, coeffs=coeffs, s_m=s_m, n=n)
    below = m < m_star(p) - 1e-12
    carrier = carrier_sum(p, n, sm)
    lc = lc_majorant(carrier)
    linlc = lin_lc_majorant(carrier)
    h = linlc.step
    c30 = c_const(3.0)
    bo = b_opt(carrier, xs)
    # members in tie-break order: argmin keeps the first of equal minima
    raw = {
        "b_opt": bo.raw,
        "lc": c30 * lc.value(xs),
        "lin_lc": c30 * linlc.value(xs + 0.5 * h),
        "hoeffding": hoeffding_bound(p, n, sm, xs),
    }
    if p >= 0.5 and s1 is not None:
        raw["normal_dom"] = c30 * normal_tail(xs / (s1 * math.sqrt(n)))
    names = list(raw)
    rows = np.stack(list(raw.values()))
    clamped = np.minimum(rows, 1.0)
    best = np.argmin(clamped, axis=0).tolist()
    return [BoundReport(
        p=p, m=m, n=n, s_m=sm, x=x, h=h, b_opt=c[0], b_opt_t=t, lc=c[1], lin_lc=c[2],
        hoeffding=c[3], normal_dom=c[4] if len(c) == 5 else None,
        minimum=c[k], argmin=names[k], below_threshold=below, raw=dict(zip(names, r)))
        for x, t, r, c, k in zip(xs.tolist(), bo.t_opt.tolist(), rows.T.tolist(),
                                 clamped.T.tolist(), best)]


def combined_bound(p: float, m: float, x: float, *, n: int | None = None,
                   coeffs=None, s_m: float | None = None) -> BoundReport:
    return combined_bound_grid(p, m, [x], n=n, coeffs=coeffs, s_m=s_m)[0]
