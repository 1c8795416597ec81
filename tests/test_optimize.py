"""`optimize.brent_root` against scipy's brentq, bit for bit.

`brent_root` is a port of brentq, so the thresholds that use it keep
brentq's values exactly.  Each case calls both with the same bracket,
xtol and maxiter and asserts identical floats, or the same exception.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import brentq

from asymtail import thresholds
from asymtail.optimize import brent_root


def both(f, a, b, **kw):
    """(brentq, brent_root) results, each a float or an exception type."""
    out = []
    for solver in (brentq, brent_root):
        try:
            out.append(solver(f, a, b, **kw))
        except (ValueError, RuntimeError) as exc:
            out.append(type(exc))
    return out


def assert_bit_equal(f, a, b, **kw):
    ref, got = both(f, a, b, **kw)
    if isinstance(ref, float):
        assert isinstance(got, float) and got.hex() == ref.hex(), (a, b, kw, ref, got)
    else:
        assert got is ref, (a, b, kw, ref, got)


def test_k_tilde_residual():
    # k_tilde's bracket and tolerances, from p = 1e-9 to just below 1/2
    # and down to 1e-300, where the bracket's top moves past 60
    ps = np.concatenate([np.geomspace(1e-9, 0.5 - 1e-15, 3000),
                         np.geomspace(1e-300, 1e-9, 200)])
    for p in map(float, ps):
        f = lambda k: thresholds._k_residual(p, k)  # noqa: E731
        a, b = min(1e-8, 0.5 - p), max(60.0, -math.log(p))
        assert_bit_equal(f, a, b, xtol=1e-300, maxiter=200)
        assert thresholds.k_tilde(p) == brentq(f, a, b, xtol=1e-300, maxiter=200)


def m_zero_bracket(p):
    # the same sign-change bracket m_zero takes from its 1e4-point grid
    zs = np.linspace(1e-9, math.sqrt(2.0), 10_000)
    flip = np.nonzero(np.diff(np.sign(thresholds._z_poly(p, zs))))[0][0]
    return float(zs[flip]), float(zs[flip + 1])


def test_m_zero_sextic():
    ps = np.linspace(thresholds.M_ZERO_P_MIN, thresholds.SQRT2_MINUS_1, 502)[1:-1]
    for p in map(float, ps):
        f = lambda z: thresholds._z_poly(p, z)  # noqa: E731
        lo, hi = m_zero_bracket(p)
        assert_bit_equal(f, lo, hi, xtol=1e-15)
        z = brentq(f, lo, hi, xtol=1e-15)
        assert thresholds.m_zero(p).value == 1.0 / (2.0 * math.log2(z))


def test_p_zero_one():
    f = lambda p: thresholds.m_one(p) - thresholds.m_zero(p).value  # noqa: E731
    assert_bit_equal(f, 0.30, 0.41, xtol=1e-13)
    assert thresholds._p_zero_one() == brentq(f, 0.30, 0.41, xtol=1e-13)


@given(r=hst.floats(-3.0, 3.0), c=hst.floats(-3.0, 3.0), d=hst.floats(1e-9, 4.0),
       scale=hst.floats(1e-6, 1e6), below=hst.floats(1e-6, 4.0),
       above=hst.floats(1e-6, 4.0),
       xtol=hst.sampled_from([1e-300, 1e-15, 2e-12, 1e-6]),
       maxiter=hst.sampled_from([3, 10, 100]))
@settings(max_examples=300, deadline=None)
def test_random_cubics(r, c, d, scale, below, above, xtol, maxiter):
    # one real root r, inside the bracket, so the bracket changes sign
    def f(x):
        return scale * (x - r) * ((x - c) ** 2 + d)

    assert_bit_equal(f, r - below, r + above, xtol=xtol, maxiter=maxiter)


def test_underflowing_values():
    # f(a) f(b) underflows to -0.0; the sign test must not rely on it
    for scale in (1e-300, 1e-160, 1e300):
        assert_bit_equal(lambda x: scale * (x - 1.0 / 3.0), 0.0, 1.0, xtol=1e-300)
        assert_bit_equal(lambda x: scale * (x - 0.3) ** 3, 0.0, 1.0)


def test_zero_at_an_end():
    assert brent_root(lambda x: x - 1.0, 1.0, 5.0) == 1.0
    assert brent_root(lambda x: x - 5.0, 1.0, 5.0) == 5.0
    # a is tried first, as in brentq
    assert brent_root(lambda x: x * (x - 5.0), 0.0, 5.0) == 0.0
    assert_bit_equal(lambda x: x * (x - 5.0), 0.0, 5.0)


def test_same_sign_bracket_raises():
    with pytest.raises(ValueError, match="different signs"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0)
    assert both(lambda x: x * x + 1.0, -1.0, 1.0) == [ValueError, ValueError]


def test_out_of_iterations_raises():
    f = lambda x: math.cos(x) - x  # noqa: E731
    with pytest.raises(RuntimeError, match="after 3 iterations"):
        brent_root(f, 0.0, 1.0, maxiter=3)
    assert both(f, 0.0, 1.0, maxiter=3) == [RuntimeError, RuntimeError]
    assert brent_root(f, 0.0, 1.0) == brentq(f, 0.0, 1.0)


def test_bad_xtol_and_nan_raise():
    with pytest.raises(ValueError, match="xtol"):
        brent_root(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(ValueError, match="NaN"):
        brent_root(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
