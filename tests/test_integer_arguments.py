"""Counts and sizes given as arguments follow one rule (`optimize._count`).

A bool, or anything that is not an int or a numpy integer, raises the
entry point's own error class, as does a value below the least it takes;
a numpy integer runs as the int it holds, with the same result bit for
bit.  Non-finite scales raise too.
"""
import dataclasses
import math

import numpy as np
import pytest

from asymtail.bounds import BoundError, carrier_sum, combined_bound, hoeffding_bound
from asymtail.dist import DistError, RngSpec, bs, iid_sum, sample, st
from asymtail.majorant import MajorantError, lin_lc_majorant
from asymtail.verifier import (McConfig, SupermartingaleConfig, VerifyError, delta_grid_check,
                               supermartingale_mc)

NOT_INTEGERS = [2.5, 5.0, True, "5"]

# entry point, its error class, and the call with the count given
ENTRIES = {
    "carrier_sum": (DistError, lambda k: carrier_sum(0.3, k, 1.0)),
    "combined_bound": (DistError, lambda k: combined_bound(0.3, 1.2, 1.0, n=k, s_m=1.0)),
    "iid_sum_bs": (DistError, lambda k: iid_sum(bs(0.3), k)),
    "iid_sum_st": (DistError, lambda k: iid_sum(st(0.5), k)),
    "hoeffding_bound": (BoundError, lambda k: hoeffding_bound(0.3, k, 1.0, 1.0)),
    "delta_grid_check": (VerifyError, lambda k: delta_grid_check(0.3, 1.2, k)),
    "sample": (DistError, lambda k: sample(bs(0.3), RngSpec(4), k)),
    "lin_lc_majorant": (MajorantError, lambda k: lin_lc_majorant(carrier_sum(0.3, 6, 1.0),
                                                                  refine=k)),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_count_that_is_not_an_integer_raises(entry, value):
    error, call = ENTRIES[entry]
    with pytest.raises(error, match="must be an integer"):
        call(value)


def _same(a, b):
    """a and b equal bit for bit: arrays by their bytes, dataclasses field
    by field with the fields' types, anything else by repr."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        pairs = [(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)]
        return all(type(x) is type(y) and _same(x, y) for x, y in pairs)
    return repr(a) == repr(b)


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_numpy_integer_runs_as_its_int(entry):
    _, call = ENTRIES[entry]
    assert _same(call(np.int64(5)), call(5))


@pytest.mark.parametrize("value", [3.0, True, "3"], ids=repr)
def test_a_count_checked_against_the_coefficients_is_an_integer(value):
    coeffs = (1.0,) * (1 if value is True else 3)
    with pytest.raises(BoundError, match="must be an integer"):
        combined_bound(0.3, 1.2, 1.0, n=value, coeffs=list(coeffs))
    with pytest.raises(VerifyError, match="must be an integer"):
        supermartingale_mc(SupermartingaleConfig(n=value, p=0.3, coeffs=coeffs),
                           McConfig(seed=1, n_paths=1000, block=1000))
    assert _same(combined_bound(0.3, 1.2, 1.0, n=np.int64(3), coeffs=[1.0] * 3),
                 combined_bound(0.3, 1.2, 1.0, n=3, coeffs=[1.0] * 3))


def test_the_report_holds_n_as_an_int():
    assert type(combined_bound(0.3, 1.2, 1.0, n=np.int64(5), s_m=1.0).n) is int
    assert type(delta_grid_check(0.3, 1.2, np.int64(5)).resolution) is int


@pytest.mark.parametrize("entry,least", [
    ("carrier_sum", 1), ("iid_sum_st", 1), ("hoeffding_bound", 1), ("delta_grid_check", 1),
    ("sample", 0), ("lin_lc_majorant", 2),
])
def test_a_count_below_the_least_raises(entry, least):
    error, call = ENTRIES[entry]
    with pytest.raises(error, match=f">= {least}"):
        call(least - 1)
    call(least)


def test_sample_takes_a_shape_of_integers():
    spec = RngSpec(4)
    assert sample(bs(0.3), spec, (3, np.int64(2))).shape == (3, 2)
    assert sample(bs(0.3), spec, 0).shape == (0,)
    for shape in ((3, 2.0), (3, -1), (True, 2)):
        with pytest.raises(DistError):
            sample(bs(0.3), spec, shape)


@pytest.mark.parametrize("s_m", [math.nan, math.inf, -math.inf, 0.0])
def test_hoeffding_bound_rejects_a_scale_that_is_not_positive_and_finite(s_m):
    with pytest.raises(BoundError, match="s_m"):
        hoeffding_bound(0.3, 5, s_m, 1.0)
