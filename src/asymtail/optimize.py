"""Scalar optimization helpers shared across the package.

Golden-section minimization on a closed interval (no library caller is
left; perfbench/tracer.py still wraps it), Brent's bracketed root
finder, and the cancellation-free root of a quadratic piece.
`brent_root` is a line-by-line port of scipy's brentq
(scipy/optimize/Zeros/brentq.c), so it returns the same bits; it spares
the callers in `thresholds` the import of `scipy.optimize`, which pulls
in `scipy.linalg`, `scipy.sparse` and `scipy.spatial`.  `_falling_root`
is the one root that `bounds.b_opt` and the verifier's cube certificate
take on each piece.  It and every bound member are written once for a
Python float and an array, on the primitives `_maximum`, `_div`,
`_where`, `_take` and the like, the only place where the two part ways.
`_count` is the one rule for a count or a size given as an argument.
"""
from __future__ import annotations

import contextlib
import math
import sys
from typing import Callable

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_RTOL = 1e-12
_MAX_ITER = 200
# brentq's default and least relative tolerance, 4 eps
_ROOT_RTOL = 4.0 * sys.float_info.epsilon


def golden_section(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Minimize f on [lo, hi]; returns (argmin, min).

    Interval shrinks until its width is below 1e-12 * max(1, |lo|, |hi|),
    or for at most 200 steps.
    The function is assumed unimodal on the bracket; callers with kinked
    objectives must supply kink locations as extra candidates themselves.
    """
    if hi < lo:
        raise ValueError("empty bracket")
    tol = _RTOL * max(1.0, abs(lo), abs(hi))
    a, b = lo, hi
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if h <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def brent_root(f: Callable[[float], float], a: float, b: float,
               xtol: float = 2e-12, maxiter: int = 100) -> float:
    """A root of f in the bracket [a, b], where f(a) and f(b) differ in sign.

    Brent's method as in scipy's brentq, step for step: inverse quadratic
    extrapolation or secant interpolation when the step is short enough,
    bisection otherwise, and steps never shorter than
    delta = (xtol + 4 eps |x|) / 2.  Stops when the bracket's half-width
    is below delta, returning its end with the smaller |f|.  Raises
    ValueError on a bracket without a sign change or a NaN value of f,
    and RuntimeError after maxiter iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    rtol = _ROOT_RTOL
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; a zero denominator gives an infinite or NaN
                # step in C, which fails the test below, so bisect
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den != 0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur!r}")


def _value(f: Callable[[float], float], x: float) -> float:
    # f(x) as a float; a NaN stops the search, as in brentq
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


# The primitives: numpy's operation on arrays, and numpy's result on Python
# floats as a Python float (a numpy scalar costs about 3x per operation),
# so one body gives one x the bits of x in an array.  An array is told by
# its exact type, a tenth of the cost of isinstance against np.ndarray.
_ARRAY = np.ndarray


def _float_or_array(x):
    """x as a Python float if it is a scalar, else as a float array."""
    if type(x) is float or np.ndim(x) == 0:
        return float(x)
    return np.asarray(x, dtype=float)


def _count(value, name: str, error: type, least: int = 1) -> int:
    """A count or size as the int it holds: a bool, or anything but an int
    or a numpy integer, is an error of the caller's class, as is one below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _all(c) -> bool:
    """Whether the condition c holds: a bool, or at every entry of an array."""
    return bool(c.all()) if type(c) is _ARRAY else bool(c)


def _isfinite(a):
    return np.isfinite(a) if type(a) is _ARRAY else math.isfinite(a)


def _maximum(a, b):
    """np.maximum: a where a > b or a is NaN, else b, so the second of two
    equal zeros wins."""
    if type(a) is _ARRAY or type(b) is _ARRAY:
        return np.maximum(a, b)
    return a if a > b or a != a else b


def _minimum(a, b):
    """np.minimum: a where a < b or a is NaN, else b."""
    if type(a) is _ARRAY or type(b) is _ARRAY:
        return np.minimum(a, b)
    return a if a < b or a != a else b


def _div(a, b):
    """a / b as numpy divides: a zero b gives +-inf or NaN, not an error.
    Array callers silence numpy's warnings for those."""
    if type(a) is _ARRAY or type(b) is _ARRAY or b:
        return a / b
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(a) / b)


_NO_WARNINGS = contextlib.nullcontext()


def _quiet(x):
    """numpy's warnings off for an array x; float arithmetic raises none."""
    if type(x) is _ARRAY:
        return np.errstate(divide="ignore", invalid="ignore", over="ignore")
    return _NO_WARNINGS


def _where(c, a, b):
    """np.where(c, a, b); for a scalar condition, a if c else b."""
    return np.where(c, a, b) if type(c) is _ARRAY else (a if c else b)


def _search(a: np.ndarray, x, side: str = "left"):
    """np.searchsorted(a, x, side): an int for one x."""
    i = np.searchsorted(a, x, side)
    return i if type(i) is _ARRAY else int(i)


def _take(a: np.ndarray, i):
    """a's entries at index i of its last axis: for one index as Python
    floats (a float, or a list of one per row)."""
    return a.take(i, axis=-1) if type(i) is _ARRAY else a[..., i].tolist()


def _sqrt(a):
    # correctly rounded, so math's is numpy's where it does not raise
    if type(a) is _ARRAY:
        return np.sqrt(a)
    return math.sqrt(a) if a >= 0.0 else float(np.sqrt(a))


# numpy's exp and log on floats too: they can differ from libm's
def _exp(a):
    return np.exp(a) if type(a) is _ARRAY else float(np.exp(a))


def _log(a):
    return np.log(a) if type(a) is _ARRAY else float(np.log(a))


def _falling_root(a, b, c):
    """The root at which A u^2 + 2B u + C falls through zero, and B^2 - AC.

    A, B and C are floats, or arrays taken elementwise with the same
    bits.  With s = sqrt(max(B^2 - AC, 0)) the root is -(B + s) / A for
    B > 0, else C / (s - B): the forms of (-B - s) / A in which B and s
    never cancel.  A negative discriminant is taken as 0, which gives
    -B / A or -C / B, a point that callers clip to the piece.  A = 0 gives
    the line's root -C / 2B for B < 0 and an infinite or NaN one for
    B >= 0, and B = C = 0 gives NaN: callers clip or replace those, and
    array callers silence numpy's warnings for them.  The discriminant
    comes back unclamped, so a caller can tell where it overflowed.
    """
    disc = b * b - a * c
    s = _sqrt(_maximum(disc, 0.0))
    return _where(b > 0.0, _div(-(b + s), a), _div(c, s - b)), disc
