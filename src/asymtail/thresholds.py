"""Threshold curves and optimized constants for the moment-comparison bounds.

The central object is the exact threshold

    m_star(p) = (1 + p + 2 p^2) / (2 (sqrt(p - p^2) + 2 p^2))   for 0 < p <= 1/2,
    m_star(p) = 1                                               for 1/2 <= p < 1,

the least power m such that E f(sum c_i BS_i) <= E f(s_m * sum BS_i) holds
for every f in the one-sided third-order convex cone, where BS_i are iid
standardized Bernoullis bs(p) and s_m = ((1/n) sum c_i^{2m})^{1/(2m)}.
Its inverse on [1, inf) is

    p_star(m) = 2 / ((2m - 1) (2m + 1 + sqrt(4 (m-1) (m+2) + 1))),

and p_star_upper(m) is the larger root of the same quadratic
2 (2m-1)^2 p^2 - (4 m^2 - 1) p + 1 = 0.

A cheaper sufficient threshold comes from the exponential class: the
parametric curve k -> (m_tilde(k), p_tilde(k)),

    m_tilde(k) = (e^k + 1) k / (2 (e^k - 1)),
    p_tilde(k) = (e^k - 1 - k) / ((e^k - 1) (1 + k + (k - 1) e^k)),

whose inverse k_tilde(p) is found by Brent's method on the bracket
[min(1e-8, 1/2 - p), max(60, -ln p)], plus
the closed-form upper envelope m_exp_up(p) = (1 - 2p - ln 2p)/(2 (1 - 2p)).

For symmetric three-point summands st(p) the exact threshold is only
partially known; this module exposes the proven envelope
[m_st_low, m_st_high] and the conjectured curve m_conj built from
m_one(p) = sqrt((2-p)/p)/2 and the root m_zero(p) of a degree-6
polynomial (flagged conjectured; nothing downstream consumes it).

The optimized tail constant:

    c_const(alpha, beta) = Gamma(alpha+1) (e/alpha)^alpha
                           / (Gamma(beta+1) (e/beta)^beta),   c_{alpha,0} drops the denominator.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Roots come from brent_root, a port of scipy's brentq, so this module costs
# numpy alone; golden_section is not called here, perfbench/tracer.py wraps it.
from .optimize import brent_root, golden_section  # noqa: F401

SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0
# The smaller root in p of the quartic _z_poly(p, sqrt(2)); the larger is
# sqrt(2) - 1.  Below it a second root of the sextic in z enters (0, sqrt(2))
# through sqrt(2), so m_zero's root is no longer unique.
M_ZERO_P_MIN = 0.08028339623133584


class ThresholdError(ValueError):
    """Domain violation or failed certification in a threshold computation."""


# ---------------------------------------------------------------------------
# exact threshold m_star and its inverse
# ---------------------------------------------------------------------------

def m_star(p: float) -> float:
    """Exact comparison threshold in m for asymmetry parameter p."""
    if not 0.0 < p < 1.0:
        raise ThresholdError("m_star requires p in (0, 1)")
    if p >= 0.5:
        return 1.0
    return (1.0 + p + 2.0 * p * p) / (2.0 * (math.sqrt(p - p * p) + 2.0 * p * p))


def below_m_star(m: float, p: float) -> bool:
    """Whether m is more than 1e-12 (m_star's rounding) below m_star(p),
    where the carrier no longer dominates; the caller decides what follows."""
    return m < m_star(p) - 1e-12


def p_star(m: float) -> float:
    """Inverse threshold: least p for which m suffices; p_star(1) = 1/2.

    Uses the rationalized form of the smaller quadratic root, which has
    no cancellation for large m.
    """
    if m < 1.0:
        raise ThresholdError("p_star requires m >= 1")
    disc = math.sqrt(4.0 * (m - 1.0) * (m + 2.0) + 1.0)
    return 2.0 / ((2.0 * m - 1.0) * (2.0 * m + 1.0 + disc))


def p_star_upper(m: float) -> float:
    """Larger root of 2 (2m-1)^2 p^2 - (4m^2-1) p + 1 = 0; equals 1 at m = 1."""
    if m < 1.0:
        raise ThresholdError("p_star_upper requires m >= 1")
    disc = math.sqrt(4.0 * (m - 1.0) * (m + 2.0) + 1.0)
    return (2.0 * m + 1.0 + disc) / (4.0 * (2.0 * m - 1.0))


# ---------------------------------------------------------------------------
# exponential-class threshold
# ---------------------------------------------------------------------------

# Past this k, m_tilde and p_tilde are written in e^{-k}: e^k overflows
# p_tilde's denominator from k ~ 352 and m_tilde's numerator from k ~ 703.
# Either form is within an ulp or two of the exact value at the switch.
_LARGE_K = 40.0


def m_tilde(k: float) -> float:
    if k <= 0:
        raise ThresholdError("m_tilde requires k > 0")
    if k > _LARGE_K:
        emk = math.exp(-k)
        return k * (1.0 + emk) / (2.0 * (1.0 - emk))
    em1 = math.expm1(k)
    return (em1 + 2.0) * k / (2.0 * em1)


def p_tilde(k: float) -> float:
    if k <= 0:
        raise ThresholdError("p_tilde requires k > 0")
    if k > _LARGE_K:
        # numerator and both denominator factors divided by e^k
        emk = math.exp(-k)
        return emk * (1.0 - emk - k * emk) / ((1.0 - emk) * (k - 1.0 + (1.0 + k) * emk))
    em1 = math.expm1(k)
    if k < 1e-3:
        num = 0.5 * k * k * (1.0 + k / 3.0 + k * k / 12.0 + k ** 3 / 60.0)
    else:
        num = em1 - k
    # 1 + k + (k - 1) e^k rewritten without the unit cancellation
    den2 = 2.0 * k - (1.0 - k) * em1
    return num / (em1 * den2)


# Taylor coefficients of F(k) / k^2 about k = 0, F as below: the j-th
# entry is (1/(j+2)!, coefficient of p).  Every unit-size term of F
# cancels pairwise near 0, so the direct form drowns in rounding there.
_F_SERIES = (
    (1.0 / 2.0, -1.0),
    (1.0 / 6.0, -1.0),
    (1.0 / 24.0, -3.0 / 4.0),
    (1.0 / 120.0, -5.0 / 12.0),
    (1.0 / 720.0, -13.0 / 72.0),
    (1.0 / 5040.0, -23.0 / 360.0),
    (1.0 / 40320.0, -11.0 / 576.0),
    (1.0 / 362880.0, -299.0 / 60480.0),
)


def _k_residual(p: float, k: float) -> float:
    # F(k) = e^k - 1 - k + (1 + k - 2 e^k + e^{2k} (1 - k)) p.  For large
    # k the residual is rescaled by e^{-2k} so nothing overflows; for
    # small k the factored series F / k^2 is used instead.  Both carry
    # the sign of F, which is all the bracketing logic needs.
    if k < 0.05:
        f = 0.0
        for a, b in reversed(_F_SERIES):
            f = f * k + (a + b * p)
        return f
    emk = math.exp(-k)
    em2k = emk * emk
    return emk - (1.0 + k) * em2k + ((1.0 + k) * em2k - 2.0 * emk + (1.0 - k)) * p


def k_tilde(p: float) -> float:
    """Solve p_tilde(k) = p for k > 0 (0 < p < 1/2).

    brent_root on [min(1e-8, 1/2 - p), max(60, -ln p)], where the
    residual changes sign: at k = -ln p it is about p (2 - k) < 0, and
    the root sits near -ln p - ln(-ln p) for small p.  The root goes to
    0 like 3 (1/2 - p) as p -> 1/2, so the absolute tolerance is
    negligible and the relative one stops the search.
    """
    if not 0.0 < p < 0.5:
        raise ThresholdError("k_tilde requires p in (0, 1/2)")
    try:
        return brent_root(lambda k: _k_residual(p, k), min(1e-8, 0.5 - p),
                          max(60.0, -math.log(p)), xtol=1e-300, maxiter=200)
    except (ValueError, RuntimeError) as exc:
        raise ThresholdError(f"k_tilde({p!r}) failed: {exc}") from exc


def m_exp(p: float) -> float:
    """Exponential-class sufficient threshold; 1 for p >= 1/2."""
    if not 0.0 < p < 1.0:
        raise ThresholdError("m_exp requires p in (0, 1)")
    if p >= 0.5:
        return 1.0
    return m_tilde(k_tilde(p))


def m_exp_up(p: float) -> float:
    """Closed-form upper envelope of m_exp on (0, 1/2)."""
    if not 0.0 < p < 0.5:
        raise ThresholdError("m_exp_up requires p in (0, 1/2)")
    return (1.0 - 2.0 * p - math.log(2.0 * p)) / (2.0 * (1.0 - 2.0 * p))


# ---------------------------------------------------------------------------
# symmetric three-point thresholds
# ---------------------------------------------------------------------------

def m_st_high(p: float) -> float:
    """Proven upper envelope for the symmetric threshold: m_star(r) at the
    r with r (1 - r) = p/2, for which bs(r) + bs(1 - r) carries st(p)."""
    if not 0.0 < p <= 1.0:
        raise ThresholdError("m_st_high requires p in (0, 1]")
    if p > 0.5:
        return 1.0
    # (5 - 3s - 2p) / (4 (sqrt(p/2) + 1 - s - p)), s = sqrt(1 - 2p), with
    # 1 - s = 2p / (1 + s): the direct form loses sqrt(p/2) against 1
    # and turns negative below p ~ 2.5e-32
    s = math.sqrt(1.0 - 2.0 * p)
    one_minus_s = 2.0 * p / (1.0 + s)
    return ((2.0 + 3.0 * one_minus_s - 2.0 * p)
            / (4.0 * (math.sqrt(2.0 * p) / 2.0 + one_minus_s - p)))


def m_one(p: float) -> float:
    """Second-vs-2m-th moment necessary bound: sqrt((2-p)/p)/2.

    p must be a normal double: below it (2-p)/p overflows.
    """
    if not sys.float_info.min <= p <= 1.0:
        raise ThresholdError(
            f"m_one requires p in [{sys.float_info.min!r}, 1], got {p!r}")
    return 0.5 * math.sqrt((2.0 - p) / p)


def m_low_sym(p: float) -> float:
    """Entropy-flavored necessary bound: 3 / (2 (1 + log2(1 + p)))."""
    if not 0.0 < p <= 1.0:
        raise ThresholdError("m_low_sym requires p in (0, 1]")
    return 3.0 / (2.0 * (1.0 + math.log2(1.0 + p)))


def m_st_low(p: float) -> float:
    """Proven lower envelope: max(1, m_one, m_low_sym); equals 1 past sqrt(2)-1."""
    return max(1.0, m_one(p), m_low_sym(p))


def _z_poly(p: float, z: np.ndarray | float):
    return (((9 * p * p - 24 * p + 16) * z ** 6)
            + ((-36 * p * p + 120 * p - 96) * z ** 5)
            + ((36 * p * p - 216 * p + 240) * z ** 4)
            + ((-20 * p ** 3 + 60 * p * p + 120 * p - 320) * z ** 3)
            + ((72 * p ** 3 - 168 * p * p + 96 * p + 240) * z * z)
            + ((-96 * p ** 3 + 144 * p * p - 144 * p - 96) * z)
            + (4 * p ** 4 + 40 * p ** 3 - 44 * p * p + 48 * p + 16))


@dataclass(frozen=True)
class ConjecturalValue:
    """A numeric value that rests on an unproven claim; never feeds a bound."""
    value: float
    conjectured: bool = True


def m_zero(p: float) -> ConjecturalValue:
    """Conjectured symmetric threshold branch 1 / (2 log2 z(p)).

    z(p) is the root of a degree-6 polynomial in (0, sqrt(2)), unique
    for p in (M_ZERO_P_MIN, sqrt(2)-1) with M_ZERO_P_MIN ~ 0.0803; m_conj
    only needs p above about 0.388.  Uniqueness is certified by a
    sign-change count on a 1e4-point grid before brent_root refines the
    bracket to about 1e-15.
    """
    if not M_ZERO_P_MIN < p < SQRT2_MINUS_1:
        raise ThresholdError(
            f"m_zero requires p in ({M_ZERO_P_MIN:.6g}, sqrt(2)-1), got {p!r}")
    zs = np.linspace(1e-9, math.sqrt(2.0), 10_000)
    vals = _z_poly(p, zs)
    signs = np.sign(vals)
    nz = signs != 0
    flips = np.nonzero(np.diff(signs[nz]) != 0)[0]
    if len(flips) != 1:
        raise ThresholdError(f"z-root not unique for p={p!r}: {len(flips)} sign changes")
    idx_nz = np.nonzero(nz)[0]
    lo = float(zs[idx_nz[flips[0]]])
    hi = float(zs[idx_nz[flips[0] + 1]])
    z = brent_root(lambda t: _z_poly(p, t), lo, hi, xtol=1e-15)
    return ConjecturalValue(value=1.0 / (2.0 * math.log2(z)))


@lru_cache(maxsize=1)
def _p_zero_one() -> float:
    # crossing of m_one and m_zero, around 0.3879
    return brent_root(lambda p: m_one(p) - m_zero(p).value, 0.30, 0.41, xtol=1e-13)


def m_conj(p: float) -> ConjecturalValue:
    """Conjectured symmetric threshold: m_one, then m_zero, then 1.

    The value is proven (conjectured=False) only on p >= sqrt(2)-1 where
    the threshold is exactly 1.
    """
    if not 0.0 < p <= 1.0:
        raise ThresholdError("m_conj requires p in (0, 1]")
    if p >= SQRT2_MINUS_1:
        return ConjecturalValue(value=1.0, conjectured=False)
    if p <= _p_zero_one():
        return ConjecturalValue(value=m_one(p))
    return m_zero(p)


# ---------------------------------------------------------------------------
# optimized constant
# ---------------------------------------------------------------------------

def _log_c0(a: float) -> float:
    # log( Gamma(a+1) (e/a)^a ), with the empty product 1 at a = 0
    if a == 0.0:
        return 0.0
    return math.lgamma(a + 1.0) + a * (1.0 - math.log(a))


def c_const(alpha: float, beta: float = 0.0) -> float:
    """Tail-comparison constant c_{alpha,beta}; c_{alpha,0} when beta=0."""
    if alpha < 0 or beta < 0 or beta > alpha:
        raise ThresholdError("c_const requires 0 <= beta <= alpha")
    if beta == alpha:
        return 1.0
    return math.exp(_log_c0(alpha) - _log_c0(beta))


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

def threshold_row(p: float) -> dict:
    """One row of the threshold table at asymmetry p (None = out of domain)."""
    ms = m_star(p)
    row = {
        "p": p,
        "m_star": ms,
        "p_star_inverse": p_star(ms),
        "m_exp": m_exp(p),
        "m_exp_up": m_exp_up(p) if p < 0.5 else None,
        "m_st_low": m_st_low(p),
        "m_st_high": m_st_high(p),
        "m_conj": m_conj(p).value,
    }
    return row


def threshold_table(ps) -> list[dict]:
    if len(ps) == 0:
        raise ThresholdError("need at least one p")
    return [threshold_row(float(p)) for p in ps]
