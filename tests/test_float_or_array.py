"""optimize's float-or-array primitives: on Python floats each gives a
Python float (or bool), with the bits it gives on a one-element array.

These are the only place where the one-x path of a bound member and its
array path part ways, so the members' scalar-equals-grid tests rest on
this property.  The inputs range over every double, with NaN, both zeros,
both infinities, sub-normals and zero divisors drawn on purpose.
"""
import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from asymtail.optimize import (_abs, _all, _any, _div, _exp, _expm1, _float_or_array, _isfinite,
                               _log, _log1p, _logaddexp, _maximum, _minimum, _search, _sqrt,
                               _take, _where)

_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324, 1e-320, 709.8, -745.2)
_FLOAT = hst.one_of(hst.floats(), hst.sampled_from(_SPECIAL))


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _one(x) -> np.ndarray:
    return np.array([x])


@given(_FLOAT, _FLOAT)
@settings(max_examples=2000, deadline=None)
@example(0.0, -0.0)
@example(-0.0, 0.0)
@example(1.0, 0.0)
@example(-1.0, -0.0)
@example(0.0, 0.0)
@example(math.inf, 0.0)
@example(math.nan, 1.0)
@example(1.0, math.nan)
@example(math.inf, -math.inf)
def test_binary_primitives(a, b):
    for f in (_maximum, _minimum, _div, _logaddexp):
        with np.errstate(all="ignore"):
            got, arr = f(a, b), f(_one(a), _one(b))
        assert type(got) is float, f
        assert _bits(got) == _bits(arr[0]), (f.__name__, a, b, got, arr[0])


@given(_FLOAT)
@settings(max_examples=2000, deadline=None)
@example(-0.0)
@example(-1.0)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_unary_primitives(a):
    for f in (_sqrt, _exp, _log, _expm1, _log1p, _abs):
        with np.errstate(all="ignore"):
            got, arr = f(a), f(_one(a))
        assert type(got) is float, f
        assert _bits(got) == _bits(arr[0]), (f.__name__, a, got, arr[0])
    assert _isfinite(a) is bool(np.isfinite(_one(a))[0])


@given(hst.booleans(), _FLOAT, _FLOAT)
@example(True, 0.0, -0.0)
@example(False, 0.0, -0.0)
def test_select_and_all(c, a, b):
    got, arr = _where(c, a, b), _where(_one(c), _one(a), _one(b))
    assert type(got) is float
    assert _bits(got) == _bits(arr[0])
    assert _all(c) is c is _all(_one(c))
    assert _any(c) is c is _any(_one(c))


@given(hst.lists(hst.floats(allow_nan=False), min_size=1, max_size=8), _FLOAT,
       hst.sampled_from(("left", "right")))
def test_search(values, x, side):
    a = np.sort(values)
    got = _search(a, x, side)
    assert type(got) is int
    assert got == _search(a, _one(x), side)[0]


@given(hst.lists(_FLOAT, min_size=1, max_size=8), hst.data())
def test_take(values, data):
    i = data.draw(hst.integers(0, len(values) - 1))
    a = np.array(values)
    got = _take(a, i)
    assert type(got) is float
    assert _bits(got) == _bits(_take(a, _one(i))[0])
    # one index of a 2-d array: a Python float per row
    rows = _take(np.array((values, values[::-1])), np.intp(i))
    assert [type(v) for v in rows] == [float, float]
    assert [_bits(v) for v in rows] == [_bits(values[i]), _bits(values[::-1][i])]


def test_float_or_array():
    for x in (2.5, 3, np.float64(2.5), np.array(2.5), -0.0):
        got = _float_or_array(x)
        assert type(got) is float and _bits(got) == _bits(float(x))
    for x in ([1, 2], np.arange(3), (0.5,)):
        got = _float_or_array(x)
        assert isinstance(got, np.ndarray) and got.dtype == float
