"""`optimize._falling_root`, the one quadratic root of b_opt and the cube
certificate, against the three forms it replaced and against mpmath.

A, B and C range over magnitudes 1e-150 to 1e150 of either sign, with
A = 0, B = 0, B^2 = AC (built from powers of two, so that the
products are exact) and nearly equal roots drawn on purpose.  Wherever B^2 - AC is finite and
>= 0 the root is bit for bit each replaced form: b_opt's array and float
forms in the full coefficient 2B, and the copysign form of the
certificate's pieces, except at B = 0, where that form took -s / A (and
at B = -0.0 the other root) where the kernel takes C / s.

The root is within 4 ulps of mpmath's 50-digit one where the roots are
well separated, |B^2 - AC| >= B^2 / 2.  Closer roots are only as exact
as the discriminant: its two rounded products can be off by an ulp of
B^2 + |AC|, so there the bound is 4 ulps plus that condition number
(B^2 + |AC|) / |B^2 - AC| (a separation of 1e-6 B^2 alone admits a few
hundred ulps).  At B^2 = AC the root is -B / A, correctly rounded, or
NaN where B = C = 0.
"""
import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from asymtail.optimize import _div, _falling_root, _maximum

_MAG = hst.builds(lambda sign, mant, exp: sign * mant * 10.0 ** exp,
                  hst.sampled_from((-1.0, 1.0)), hst.floats(1.0, 9.999), hst.integers(-150, 149))
_COEF = hst.one_of(_MAG, _MAG, _MAG, hst.sampled_from((0.0, -0.0)))
# B^2 = AC exactly: A = a, B = a t, C = a t^2 with a and t of at most 20 bits
_POW2 = hst.builds(lambda sign, mant, exp: sign * mant * 2.0 ** exp,
                   hst.sampled_from((-1.0, 1.0)), hst.integers(1, 2 ** 20), hst.integers(-200, 200))
_DOUBLE = hst.builds(lambda a, t: (a, a * t, a * t * t), _POW2,
                     hst.builds(lambda mant, exp: mant * 2.0 ** exp,
                                hst.integers(-2 ** 20, 2 ** 20), hst.integers(-100, 100)))
# and roots that nearly meet: C moved by a relative 1e-1 to 1e-12
_NEAR = hst.builds(lambda abc, k: (abc[0], abc[1], abc[2] * (1.0 + 10.0 ** -k)),
                   _DOUBLE, hst.integers(1, 12))
_TRIPLE = hst.one_of(hst.tuples(_COEF, _COEF, _COEF), _DOUBLE, _NEAR)


def _bits(x) -> str:
    return repr(float(x))


def old_b_opt_array(a, b, c):
    """b_opt's array form, in the full coefficient 2B."""
    b = 2.0 * b
    disc = b * b - 4.0 * a * c
    s = np.sqrt(np.maximum(disc, 0.0))
    return np.where(b > 0.0, (-b - s) / (2.0 * a), 2.0 * c / (s - b))


def old_b_opt_float(a, b, c):
    """b_opt's float form, in the full coefficient 2B."""
    b = 2.0 * b
    disc = b * b - 4.0 * a * c
    s = math.sqrt(_maximum(disc, 0.0))
    return _div(-b - s, 2.0 * a) if b > 0.0 else _div(2.0 * c, s - b)


def old_piece_form(qa, qb, qc):
    """The certificate pieces' copysign form."""
    s = -(qb + np.copysign(np.sqrt(qb * qb - qa * qc), qb))
    return np.where(qb >= 0.0, s / qa, qc / s)


def _reference(a: float, b: float, c: float):
    """The falling root (-B - sqrt(B^2 - AC)) / A to 50 digits, in the
    form that does not cancel at that precision either."""
    with mpmath.workdps(50):
        A, B, C = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        s = mpmath.sqrt(B * B - A * C)
        return -(B + s) / A if B > 0 else C / (s - B)


@given(_TRIPLE)
@settings(max_examples=1500, deadline=None)
@example((3.0, 0.0, -1.0))
@example((0.0, -2.0, 5.0))
@example((0.0, 0.0, 1.0))
@example((1e-150, 1e-150, 1e-150))
@example((4.0, 6.0, 9.0))
def test_falling_root(coeffs):
    a, b, c = coeffs
    with np.errstate(divide="ignore", invalid="ignore"):
        u, disc = _falling_root(a, b, c)
        ua, da = _falling_root(*(np.array([v]) for v in coeffs))
        olds = {"b_opt array": old_b_opt_array(*(np.array([v]) for v in coeffs))[0],
                "piece": old_piece_form(*(np.array([v]) for v in coeffs))[0]}
    assert type(u) is float and type(disc) is float
    # the float branch is the array branch bit for bit
    assert (_bits(u), _bits(disc)) == (_bits(ua[0]), _bits(da[0])), coeffs
    if not (math.isfinite(disc) and disc >= 0.0):
        return
    olds["b_opt float"] = old_b_opt_float(a, b, c)
    if b == 0.0:
        del olds["piece"]
    for name, old in olds.items():
        assert _bits(u) == _bits(old), (name, coeffs, u, old)
    if a == 0.0:
        return
    with mpmath.workdps(50):
        bb, ac = mpmath.mpf(b) ** 2, mpmath.mpf(a) * mpmath.mpf(c)
        if bb == ac:
            # the double root 0 of A u^2 comes back as 0 / 0
            assert u == -b / a if b else math.isnan(u), coeffs
            return
        if bb < ac:
            return
        r = _reference(a, b, c)
        cond = float((bb + abs(ac)) / (bb - ac))
        ulps = float(abs(mpmath.mpf(u) - r)) / math.ulp(float(r))
    allowed = 4.0 if bb - ac >= bb / 2 else 4.0 + cond
    assert ulps <= allowed, (coeffs, u, r, ulps, cond)
