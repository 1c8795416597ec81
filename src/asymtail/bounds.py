"""Tail probability bounds built on moment comparison carriers.

The family, for a sum S dominated by the carrier eta in the
cube-positive-part ordering:

    P(S >= x) <= b_opt(eta, x)                     optimized moment ratio
              <= c_{3,0} * P_LinLC_eta(x + h/2)    interpolated majorant
              <= c_{3,0} * P_LC_eta(x)             point-hull majorant
    and       <= exp(-n H(p, y))                   Hoeffding form

(the half-step shift makes the interpolated hull the tighter of the two
closed forms), plus, for p >= 1/2, straight normal domination
c_{3,0} Q(x / (s sqrt n)).  Two entry points evaluate every member, from
one table (_members), and report which one wins: combined_bound_grid at
each x of an array, with one carrier and one pair of hulls for all of
them, and combined_bound at one x.  Each member has one body, which
takes one x as a Python float and an x grid as an array (optimize's
primitives), so one x agrees with the grid at [x] bit for bit and pays
no numpy per-call cost.  At one x neither hull member builds its whole
hull: lc reads the chord of the step corners around x, where every
other corner lies clear below its line (majorant._lc_at), and lin_lc
reads x up to its first arc flat and past it the hull segment at x from
the arcs around it and their own bridges, certified by its supporting
line against every cell (majorant._lin_lc_at).  Each builds its whole
hull only where those decline (_hull_value), so every report is the
grid's at [x].
The carrier s_m (BS_1 + ... + BS_n) is one validated law, built from its
binomial window with no law for bs(p) or the unscaled sum (carrier_sum),
and each report is stored as one instance dict (_report).
Every member reads the top atom by dist.atom_band: x in its band is
evaluated at the atom, and past it all but normal_dom read 0.

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

from .dist import (MERGE_RTOL, FiniteDist, _bs_sum, _carrier_top, _coefficient_vector, _power_sum,
                   _shifted_suffix_moments, atom_band)
# iid_sum is not called here; perfbench/tracer.py wraps it under this name
from .dist import iid_sum  # noqa: F401
# lattice_params is not called here; perfbench/tracer.py wraps it under this name
from .majorant import lattice_params  # noqa: F401
from .majorant import _lc_at, _lin_lc_at, _step, lc_majorant, lin_lc_majorant
# golden_section is not called here; perfbench/tracer.py wraps it under this name
from .optimize import golden_section  # noqa: F401
from .optimize import (_all, _count, _div, _exp, _falling_root, _float_or_array, _isfinite, _log,
                       _maximum, _minimum, _search, _take, _where)
from .thresholds import below_m_star, c_const, m_star

_C30 = c_const(3.0)


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

    in the shifted suffix moments P_j of the atoms >= v_k, whose root
    where it falls through zero is taken by optimize._falling_root, in
    the form that does not cancel, and the ratio is
    (P3 + 3u P2 + 3u^2 P1 + u^3 P0) / (dx + u)^3.  x may be a scalar or
    a 1-d array, with one body for both (optimize's primitives): a scalar
    is taken in float arithmetic, bit for bit as the same x in an array.

    x in the top atom's band (dist.atom_band) is evaluated at the top
    atom, and past that band the value is 0.  For x <= E D the ratio is
    nondecreasing in t with limit 1 at t = -inf, so the value is 1, with
    t_opt = min - 10 range.  Any t < x gives an upper bound, so a root
    clipped to its interval by roundoff still yields a valid bound.  Every
    other x needs the root, and a BoundError is raised where its
    discriminant is not finite: the moments overflow once the atoms pass
    about 1e77, and no bound is returned from them.
    """
    x = _float_or_array(x)
    if getattr(x, "ndim", 1) != 1:
        raise BoundError("x must be a scalar or a 1-d array")
    if not _all(_isfinite(x)):
        raise BoundError("x must be finite")
    vmax = d.max_value
    past = x > atom_band(vmax)
    if past is True:  # one x past the band needs no moments
        return BOptResult(0.0, 0.5 * (vmax + x), 0.0)
    v = d.values
    x_in = _minimum(x, vmax)
    # non-finite intermediates are all resolved below: by fmax, by the
    # NaN-to-0 and clip of u, where the two overrides replace the ratio, or
    # by the error on a discriminant that is not finite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        P = _shifted_suffix_moments(d)
        # the k of the atom interval [v_{k-1}, v_k] that holds t*, from the
        # r_k: r_k >= v_{k+1} holds exactly; fmax and the running max
        # restore it, and the order, where roundoff or underflow broke them
        k = _search(np.maximum.accumulate(np.fmax(v[:-1] + P[3, :-1] / P[2, :-1], v[1:])), x_in)
        # conditional moments given D >= v_k: the squares below stay normal
        mass, p1, p2, p3 = _take(P, k)
        # mass is a tail sum of masses >= MIN_MASS, so never 0
        q1, q2, q3 = p1 / mass, p2 / mass, p3 / mass
        vk = _take(v, k)
        dx = x_in - vk
        a = q1 - dx
        u, disc = _falling_root(a, q2 - dx * q1, q3 - dx * q2)
        # the gap below v_k, infinite below the bottom atom
        width = _where(k > 0, vk - _take(v, k - 1), math.inf)
        u = _minimum(_maximum(_where(u != u, 0.0, u), 0.0), width)
        w = dx + u
        # one division per power: w^3 can underflow where the ratio does not
        raw = _div(_div(_div(mass * (q3 + u * (3.0 * q2 + u * (3.0 * q1 + u))), w), w), w)
    no_root = (k == 0) & (a >= 0.0)
    answered = _isfinite(disc) | past | no_root
    if not _all(answered):
        raise BoundError(
            f"b_opt overflows at x = {float(np.atleast_1d(x)[np.argmin(answered)])!r}: the "
            f"carrier's atoms, up to {max(-d.min_value, vmax):g} in size, are too large for "
            "its moments")
    # where the value is 1, t_opt is ten ranges below the bottom atom
    rng = vmax - d.min_value
    t_low = d.min_value - 10.0 * (rng if rng > 0 else max(1.0, abs(vmax)))
    raw = _where(past, 0.0, _where(no_root, 1.0, raw))
    t_opt = _where(past, 0.5 * (vmax + x), _where(no_root, t_low, vk - u))
    return BOptResult(_minimum(raw, 1.0), t_opt, raw)


# ---------------------------------------------------------------------------
# Hoeffding form
# ---------------------------------------------------------------------------

def _kl(p: float, q: float, y):
    py, qy = p + y, q - y
    return py * _log(py / p) + qy * _log(qy / q)


def hoeffding_H(p: float, y) -> float | np.ndarray:
    """KL rate (p+y) log((p+y)/p) + (q-y) log((q-y)/q) on 0 <= y <= q.

    0 for y <= 0, exactly -log p at y = q (which hoeffding_bound gives an
    x in the top atom's band, dist.atom_band), infinite above q (empty
    event).  y may be a scalar, taken in float arithmetic, or an array,
    with one body for both; a scalar's rate is the array's bit for bit.
    """
    if not 0.0 < p < 1.0:
        raise BoundError("hoeffding_H requires p in (0, 1)")
    q = 1.0 - p
    y = _float_or_array(y)
    # 0 exactly where y <= 0 or NaN: the rate at 0
    rate = _kl(p, q, _where((y > 0.0) & (y < q), y, 0.0))
    return _where(y >= q, _where(y == q, -math.log(p), math.inf), rate)


def hoeffding_bound(p: float, n: int, s_m: float, x) -> float | np.ndarray:
    """exp(-n H(p, y)) with y = (x/n) sqrt(pq) / s_m; x a scalar or an array.

    y = q, and the bound p^n, at the top atom n s_m sqrt(q/p) as dist
    builds it and at any x in its band (dist.atom_band); below the atom
    y is capped at q, which only rounding can pass, and past the band
    the bound is 0.  A scalar x is taken in float arithmetic, with the
    array's body, bit for bit as the same x in an array.  n is an integer
    >= 1 (`optimize._count`) and s_m positive and finite."""
    n = _count(n, "n", BoundError)
    if not 0.0 < s_m < math.inf:
        raise BoundError(f"hoeffding_bound needs s_m > 0 and finite, got {s_m!r}")
    if not 0.0 < p < 1.0:
        raise BoundError("hoeffding_bound requires p in (0, 1)")
    q = 1.0 - p
    top = _carrier_top(p, n, s_m)
    x = _float_or_array(x)
    y = (x / n) * math.sqrt(p * q) / s_m
    y = _where(x > atom_band(top), y, _where(x >= top, q, _minimum(y, q)))
    return _minimum(_exp(-n * hoeffding_H(p, y)), 1.0)


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
    if type(z) is float or np.ndim(z) == 0:
        return _q(float(z))
    z = np.asarray(z, dtype=float)
    return np.array([_q(v) for v in z.ravel().tolist()]).reshape(z.shape)


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
    raw: dict = field(default_factory=dict)


def resolve_s_m(m: float, coeffs=None, s_m: float | None = None,
                n: int | None = None) -> tuple[int, float, float | None]:
    """Return (n, s_m, s_1) from either coefficients c (`dist._coefficient_vector`)
    or s_m; s_m and s_1 are c's power means of order 2m and 2 (`dist._power_sum`)."""
    if coeffs is not None:
        c = _coefficient_vector(coeffs, BoundError)
        if s_m is not None:
            raise BoundError("give coeffs or s_m, not both")
        nn = len(c)
        if n is not None and _count(n, "n", BoundError) != nn:
            raise BoundError("n disagrees with len(coeffs)")
        (top, total), (top1, total1) = _power_sum(c, 2.0 * m), _power_sum(c, 2.0)
        return nn, top * float((total / nn) ** (1.0 / (2.0 * m))), top1 * math.sqrt(total1 / nn)
    if s_m is None or n is None:
        raise BoundError("need coeffs, or both s_m and n")
    if s_m <= 0:
        raise BoundError("s_m must be positive")
    return n, float(s_m), (float(s_m) if m == 1.0 else None)


def carrier_sum(p: float, n: int, s_m: float) -> FiniteDist:
    """The comparison carrier: s_m times a sum of n iid bs(p) laws.

    scale(iid_sum(bs(p), n), s_m) built in one construction, on its
    lattice for s_m > 0, with that chain's DistErrors (dist._bs_sum).
    Raises BoundError where s_m is so small that neighbouring atoms fall
    within the merge tolerance, since merged atoms are no longer the
    carrier."""
    d, window = _bs_sum(p, n, s_m)
    if d.n_atoms < window.length:
        raise BoundError(
            f"s_m = {s_m!r} puts neighbouring carrier atoms within the merge tolerance "
            f"{MERGE_RTOL:g} * max(1, |atom|) of each other")
    return d


def _query(p: float, m: float, n: int | None, coeffs, s_m: float | None) -> tuple:
    """What the x of one query share, its inputs checked and m lifted to
    m_star(p) for coefficients below it: (p, m, n, s_m, s_1, carrier, h),
    with h the carrier's lattice step."""
    if not 0.0 < p < 1.0:
        raise BoundError(f"p must lie in (0, 1), got {p!r}")
    if not 1.0 <= m < math.inf:
        raise BoundError(f"m must be finite and >= 1, got {m!r}")
    if below_m_star(m, p):
        if coeffs is None:
            raise BoundError(f"m = {m!r} is below the threshold m_star(p) = {m_star(p)!r} "
                             "for this p")
        m = m_star(p)
    n, sm, s1 = resolve_s_m(m, coeffs=coeffs, s_m=s_m, n=n)
    carrier = carrier_sum(p, n, sm)
    n = int(n)  # carrier_sum took n as an integer, a numpy one included
    return p, m, n, sm, s1, carrier, _step(carrier)


def _hull_value(carrier: FiniteDist, x, at, whole) -> float | np.ndarray:
    """whole(carrier).value(x): for one x, exp of at(carrier, x), the
    hull's log-value read from the stretch around x (majorant._lc_at,
    _lin_lc_at), or of the whole hull's where that is None; an array x
    reads the whole hull.  The whole hull answers, or raises, as for a
    grid."""
    lv = at(carrier, x) if type(x) is float else None
    if lv is None:
        lv = whole(carrier).log_value(x)
    return _exp(lv)


def _members(query: tuple, x) -> tuple[BOptResult, dict]:
    """b_opt at x and the raw members in tie-break order (argmin keeps the
    first of equal minima); each member dispatches on x, scalar or array."""
    p, _, n, sm, s1, carrier, h = query
    # one x takes b_opt before the hulls and a grid after them, so where
    # both raise, each raises the error it always has
    bo = b_opt(carrier, x) if type(x) is float else None
    # the whole-hull builders by this module's names, which perfbench's
    # tracer wraps, so that every build is counted
    lc = _C30 * _hull_value(carrier, x, _lc_at, lc_majorant)
    lin_lc = _C30 * _hull_value(carrier, x + 0.5 * h, _lin_lc_at, lin_lc_majorant)
    if bo is None:
        bo = b_opt(carrier, x)
    raw = {
        "b_opt": bo.raw,
        "lc": lc,
        "lin_lc": lin_lc,
        "hoeffding": hoeffding_bound(p, n, sm, x),
    }
    if p >= 0.5 and s1 is not None:
        raw["normal_dom"] = _C30 * normal_tail(x / (s1 * math.sqrt(n)))
    return bo, raw


def _report(head: tuple, x: float, t: float, names: list[str], r: list[float],
            c: list[float], k: int) -> BoundReport:
    """The report at one x from its members in tie-break order: raw r,
    clamped to 1 c, and k the first of the least clamped; head is the
    query's (p, m, n, s_m, h)."""
    p, m, n, sm, h = head
    # A frozen dataclass's __init__ stores each field through
    # object.__setattr__; storing the instance dict once, its keys in field
    # order, builds the same row in a third of the time.  That relies on
    # BoundReport having no __post_init__ (none is skipped) and no
    # __slots__ (the dict holds every field).
    row = object.__new__(BoundReport)
    object.__setattr__(row, "__dict__", {
        "p": p, "m": m, "n": n, "s_m": sm, "x": x, "h": h, "b_opt": c[0], "b_opt_t": t,
        "lc": c[1], "lin_lc": c[2], "hoeffding": c[3],
        "normal_dom": c[4] if len(c) == 5 else None, "minimum": c[k], "argmin": names[k],
        "raw": dict(zip(names, r))})
    return row


def _head(query: tuple) -> tuple:
    """The fields every report of a query shares: (p, m, n, s_m, h)."""
    p, m, n, sm, *_, h = query
    return p, m, n, sm, h


def combined_bound_grid(p: float, m: float, xs, *, n: int | None = None,
                        coeffs=None, s_m: float | None = None) -> list[BoundReport]:
    """The bound family on the whole x array at once, from one carrier.

    The carrier dominates only at m >= m_star(p).  Below it, an s_m is a
    BoundError, and coefficients are taken at m = m_star(p), the m the
    reports give: s_m of given coefficients rises with m, so those bounds
    hold."""
    try:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
    except (TypeError, ValueError, OverflowError):
        raise BoundError(f"xs must be a number or an array of numbers, got {xs!r}") from None
    if xs.size == 0:
        raise BoundError("need at least one x")
    query = _query(p, m, n, coeffs, s_m)
    bo, raw = _members(query, xs)
    names = list(raw)
    rows = np.array(list(raw.values()))
    clamped = np.minimum(rows, 1.0)
    head = _head(query)
    return [_report(head, x, t, names, r, c, k)
            for x, t, r, c, k in zip(xs.tolist(), bo.t_opt.tolist(), rows.T.tolist(),
                                     clamped.T.tolist(), clamped.argmin(axis=0).tolist())]


def combined_bound(p: float, m: float, x: float, *, n: int | None = None,
                   coeffs=None, s_m: float | None = None) -> BoundReport:
    """The bound family at one x: combined_bound_grid(p, m, [x], ...)[0],
    field for field, raw included, wherever the grid answers, and the
    grid's error where that raises, with one exception: where b_opt and a
    hull both raise, one x raises b_opt's error and the grid the hull's
    (`_members`).  An x that is not one number is a BoundError, as are
    xs the grid cannot read as numbers.

    The carrier is built as for a grid, and each member runs its one body
    on x as a Python float.  lc reads the chord of the corners around x,
    certified against every corner, and lin_lc reads x up to its first
    arc flat and past it the hull segment at x, from the window's own
    bridges, certified by its supporting line against the interpolant on
    every cell; each falls back to its whole hull where its check
    declines (_hull_value).  The whole lin_lc hull fails its own
    certificate from s_m = 1e254 on, where the grid raises that
    MajorantError.  There b_opt's moments overflow too (from atoms near
    1e77), so one x answers only where b_opt takes no root: where it
    reads 1, at or below the carrier's mean, or 0, past the top atom's
    band.  lin_lc then reads its flat head, a certified segment or 0
    past its top, and elsewhere the query raises b_opt's overflow or the
    whole hull's error."""
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        raise BoundError(f"x must be a number, got {x!r}") from None
    query = _query(p, m, n, coeffs, s_m)
    bo, raw = _members(query, x)
    r = list(raw.values())
    c = [min(v, 1.0) for v in r]  # np.minimum(v, 1.0), NaN included
    return _report(_head(query), x, bo.t_opt, list(raw), r, c, c.index(min(c)))
