"""Threshold curves, their inverses, and the optimized constant.

Frozen reference values were computed with independent high-precision
oracles (mpmath) and pinned here.
"""
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from asymtail.thresholds import (
    M_ZERO_P_MIN,
    ConjecturalValue,
    ThresholdError,
    _p_zero_one,
    _z_poly,
    c_const,
    k_tilde,
    m_conj,
    m_exp,
    m_exp_up,
    m_low_sym,
    m_one,
    m_st_high,
    m_st_low,
    m_star,
    m_tilde,
    m_zero,
    p_star,
    p_star_upper,
    p_tilde,
    threshold_row,
)


class TestMStar:
    def test_exact_at_tenth(self):
        # (1 + 0.1 + 0.02) / (2 (sqrt(0.09) + 0.02)) = 1.12 / 0.64
        assert m_star(0.1) == pytest.approx(1.75, rel=1e-12)

    def test_one_for_p_above_half(self):
        assert m_star(0.5) == 1.0
        assert m_star(0.7) == 1.0
        assert m_star(0.999) == 1.0

    @pytest.mark.parametrize("p,expected", [
        (0.01, 5.066262434217448),
        (0.2, 4.0 / 3.0),
        (0.3878795126056332, 1.0713329948308241),
    ])
    def test_frozen_values(self, p, expected):
        assert m_star(p) == pytest.approx(expected, rel=1e-12)

    @given(hst.floats(1e-6, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_decreasing_and_at_least_one(self, p):
        assert m_star(p) >= 1.0
        assert m_star(p) >= m_star(min(0.5, p * 1.01)) - 1e-12


class TestPStar:
    def test_frozen_value_at_two(self):
        assert p_star(2.0) == pytest.approx(0.07307453119852828, rel=1e-12)

    def test_roundtrip_against_m_star(self):
        for m in np.linspace(1.0, 50.0, 200):
            assert abs(m_star(p_star(float(m))) - m) <= 1e-10

    def test_upper_root_product_identity(self):
        # the two branches are the roots of the squared threshold
        # equation, whose product collapses to 1 / (2 (2m-1)^2)
        for m in np.linspace(1.001, 40.0, 57):
            prod = p_star(float(m)) * p_star_upper(float(m))
            assert prod * 2.0 * (2.0 * m - 1.0) ** 2 == pytest.approx(1.0, rel=1e-11)

    def test_domain(self):
        with pytest.raises(ThresholdError):
            p_star(0.5)


class TestExponentialClass:
    def test_m_tilde_frozen_at_one(self):
        assert m_tilde(1.0) == pytest.approx(1.0819767068693265, rel=1e-13)

    def test_k_tilde_frozen_at_tenth(self):
        assert k_tilde(0.1) == pytest.approx(1.656062785510062, rel=1e-12)

    def test_p_tilde_roundtrip(self):
        worst = 0.0
        for p in np.geomspace(1e-6, 0.49, 120):
            k = k_tilde(float(p))
            worst = max(worst, abs(p_tilde(k) - p) / p)
        assert worst <= 1e-11

    def test_k_tilde_linearizes_near_half(self):
        # k ~ 3 (1/2 - p) as p -> 1/2
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            assert k_tilde(0.5 - eps) / (3.0 * eps) == pytest.approx(1.0, rel=2e-3)

    def test_m_exp_below_m_star(self):
        for p in np.geomspace(1e-5, 0.499, 40):
            assert 1.0 <= m_exp(float(p)) <= m_star(float(p)) + 1e-12

    def test_m_exp_up_dominates_and_peak_ratio(self):
        for p in np.geomspace(1e-4, 0.49, 40):
            assert m_exp_up(float(p)) >= m_exp(float(p)) - 1e-12
        # the closed-form upper estimate is worst near p ~ 0.0053
        ratio = m_exp_up(0.005334) / m_exp(0.005334)
        assert ratio == pytest.approx(1.340757355002224, rel=1e-9)

    def test_p_tilde_roundtrip_tiny_p(self):
        # below p ~ 8.8e-27 the bracket's top moves from 60 to -ln p
        worst = 0.0
        for p in np.geomspace(1e-300, 1e-6, 300):
            k = k_tilde(float(p))
            worst = max(worst, abs(p_tilde(k) - p) / p)
        assert worst <= 1e-11

    @pytest.mark.parametrize("p", [2e-28, 1e-28, 1e-100, 1e-300])
    def test_m_exp_below_the_old_bracket(self, p):
        k = k_tilde(p)
        # the root sits near -ln p - ln(-ln p)
        assert k == pytest.approx(-math.log(p) - math.log(-math.log(p)), rel=0.02)
        assert 1.0 <= m_exp(p) <= min(m_exp_up(p), m_star(p))

    def test_large_k_forms_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for k in (39.5, 40.5, 100.0, 360.0, 709.0, 710.0, 730.0):
            with mpmath.workdps(40):
                ek = mpmath.exp(mpmath.mpf(k))
                m_ref = (ek + 1) * k / (2 * (ek - 1))
                p_ref = (ek - 1 - k) / ((ek - 1) * (1 + k + (k - 1) * ek))
            assert m_tilde(k) == pytest.approx(float(m_ref), rel=1e-15)
            if p_ref > 1e-300:
                assert p_tilde(k) == pytest.approx(float(p_ref), rel=1e-14)
            else:
                assert 0.0 <= p_tilde(k) <= 2.0 * float(p_ref) + 1e-320

    @pytest.mark.parametrize("k", [1e-4, 1e-6])
    def test_small_k_series_against_mpmath(self, k):
        # below k = 1e-3 the numerator e^k - 1 - k is read from its series
        with mpmath.workdps(50):
            kk = mpmath.mpf(k)
            ek = mpmath.exp(kk)
            p_ref = (ek - 1 - kk) / ((ek - 1) * (1 + kk + (kk - 1) * ek))
        assert p_tilde(k) == pytest.approx(float(p_ref), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [5e-324, 1e-323, 2.5e-320, 1e-310, 2.2e-308])
    def test_m_exp_at_subnormal_p(self, p):
        # subnormal p leaves few bits in the residual, but the answer is
        # still a threshold in [1, m_star(p)] or an explicit error
        try:
            m = m_exp(p)
        except ThresholdError:
            return
        assert math.isfinite(m) and 1.0 <= m <= m_star(p)


class TestSymmetricThresholds:
    def test_m_one_frozen(self):
        # (1/2) sqrt((2 - p)/p) at p = 0.2
        assert m_one(0.2) == pytest.approx(1.5, rel=1e-13)

    def test_envelope_ordering(self):
        for p in np.linspace(0.01, 0.5, 30):
            assert 1.0 <= m_st_low(float(p)) <= m_st_high(float(p)) + 1e-12

    def test_conjectured_switch(self):
        p01 = _p_zero_one()
        assert p01 == pytest.approx(0.3878795126056332, rel=1e-12)
        hi = m_conj(math.sqrt(2.0) - 1.0 + 1e-6)
        assert hi.value == 1.0 and not hi.conjectured
        low = m_conj(0.2)
        assert isinstance(low, ConjecturalValue)
        assert low.value == pytest.approx(m_one(0.2), rel=1e-12)
        mid = m_conj(0.4)
        assert mid.conjectured
        assert mid.value == pytest.approx(m_zero(0.4).value, rel=1e-12)

    def test_m_zero_domain(self):
        # the lower end is where the sextic's second root in (0, sqrt(2))
        # leaves through sqrt(2)
        assert _z_poly(M_ZERO_P_MIN, math.sqrt(2.0)) == pytest.approx(0.0, abs=1e-12)
        assert _z_poly(0.99 * M_ZERO_P_MIN, math.sqrt(2.0)) > 0.0
        assert _z_poly(1.01 * M_ZERO_P_MIN, math.sqrt(2.0)) < 0.0
        with pytest.raises(ThresholdError, match=r"requires p in \(0\.08028"):
            m_zero(1e-4)
        assert m_zero(0.1).value == pytest.approx(1.6651473725322088, rel=1e-12)
        assert m_zero(0.4).value == pytest.approx(1.0100797708007858, rel=1e-12)
        assert m_zero(1.001 * M_ZERO_P_MIN).value > m_zero(0.1).value

    def test_m_st_bounds_bracket_conjecture(self):
        for p in np.linspace(0.01, 0.41, 25):
            lo, hi = m_st_low(float(p)), m_st_high(float(p))
            c = m_conj(float(p)).value
            assert lo - 1e-9 <= c <= hi + 1e-9


class TestConstants:
    def test_frozen_c_values(self):
        assert c_const(3, 0) == pytest.approx(4.46345264959726, rel=1e-12)
        assert c_const(5, 0) == pytest.approx(5.699065309538947, rel=1e-12)
        assert c_const(2, 0) == pytest.approx(3.694528049465324, rel=1e-12)

    def test_c_diagonal_is_one(self):
        for a in (0.5, 1.0, 3.0, 7.5):
            assert c_const(a, a) == 1.0

    def test_c_const_rejects_bad_orders(self):
        with pytest.raises(ThresholdError):
            c_const(2, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("f", [
    p_star, p_star_upper, m_tilde, p_tilde, c_const,
    lambda beta: c_const(3.0, beta), m_star,
], ids=["p_star", "p_star_upper", "m_tilde", "p_tilde", "c_const_alpha", "c_const_beta",
        "m_star"])
def test_a_non_finite_argument_raises(f, bad):
    """No threshold answers NaN, or 0 or inf read off an infinite argument."""
    with pytest.raises(ThresholdError):
        f(bad)


@pytest.mark.parametrize("f,p", [
    (k_tilde, 0.0), (k_tilde, 0.5), (m_exp, 0.0), (m_exp, 1.0), (m_exp_up, 0.0), (m_exp_up, 0.5),
    (m_st_high, 0.0), (m_st_high, 1.5), (m_low_sym, 0.0), (m_low_sym, 1.5), (m_conj, 0.0),
    (m_conj, 1.5),
])
def test_a_p_outside_the_domain_raises(f, p):
    with pytest.raises(ThresholdError, match=f"{f.__name__} requires p in"):
        f(p)


def test_threshold_row_has_all_columns():
    row = threshold_row(0.25)
    assert set(row) == {"p", "m_star", "p_star_inverse", "m_exp", "m_exp_up",
                        "m_st_low", "m_st_high", "m_conj"}
    assert row["p_star_inverse"] == pytest.approx(0.25, abs=1e-10)


def test_threshold_row_fast():
    t0 = time.perf_counter()
    for p in np.linspace(0.02, 0.98, 25):
        threshold_row(float(p))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("p", [1e-4, 1e-8, 1e-30, 1e-300])
def test_threshold_row_at_tiny_p(p):
    mpmath = pytest.importorskip("mpmath")
    row = threshold_row(p)
    assert all(math.isfinite(v) and v > 0 for v in row.values())
    assert row["p_star_inverse"] == pytest.approx(p, rel=1e-12)
    # m_st_high = m_star(r) at r (1 - r) = p/2, with 1 - s written as 2p / (1 + s)
    with mpmath.workdps(40):
        q = mpmath.mpf(p)
        s = mpmath.sqrt(1 - 2 * q)
        one_minus_s = 2 * q / (1 + s)
        ref = (2 + 3 * one_minus_s - 2 * q) / (4 * (mpmath.sqrt(q / 2) + one_minus_s - q))
    assert row["m_st_high"] == pytest.approx(float(ref), rel=1e-14)
    # the envelope closes like 3p/4 in relative terms
    assert row["m_st_low"] <= row["m_st_high"] * (1.0 + 1e-15)


def test_threshold_row_rejects_subnormal_p():
    with pytest.raises(ThresholdError, match="m_one requires p"):
        threshold_row(5e-324)
