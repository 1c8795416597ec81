"""Scalar optimization helper shared across the package.

Golden-section minimization on a closed interval.  Roots are found
with scipy's brentq on a bracket the caller certifies.
"""
from __future__ import annotations

import math
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_RTOL = 1e-12
_MAX_ITER = 200


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
