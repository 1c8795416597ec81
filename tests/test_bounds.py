"""The tail bound family: optimized moment bounds, hull bounds,
exponential bounds, and the normal ingredients they share."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from asymtail.bounds import (
    BoundError,
    b_opt,
    baseline_binom_bound,
    baseline_two_point,
    carrier_sum,
    combined_bound,
    combined_bound_grid,
    hoeffding_H,
    hoeffding_bound,
    normal_opt_bound,
    normal_partial_moment,
    normal_tail,
    partial_moment,
)
from asymtail.dist import bs, from_pairs, tail, weighted_bs_sum
from asymtail.majorant import lattice_params, lc_majorant, lin_lc_majorant
from asymtail.optimize import golden_section
from asymtail.thresholds import c_const, m_star


class TestPartialMoments:
    def test_cube_at_symmetric_base(self):
        # E (X + 1)_+^3 over +-1 fair coin: (1/2) * 2^3
        assert partial_moment(bs(0.5), 3.0, -1.0) == pytest.approx(4.0, rel=1e-14)

    def test_zero_alpha_is_tail(self):
        d = weighted_bs_sum(0.3, [1.0, 2.0])
        for t in (-1.0, 0.0, 1.5):
            assert partial_moment(d, 0.0, t) == pytest.approx(
                tail(d, t + 1e-12), rel=1e-12)

    def test_normal_density_value(self):
        assert normal_partial_moment(1, 0.0) == pytest.approx(
            0.3989422804014327, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("t", [-2.0, -0.5, 0.0, 0.8, 2.5])
    def test_normal_recurrence_vs_quadrature(self, alpha, t):
        val = normal_partial_moment(alpha, t)
        ref, _ = quad(lambda z: (z - t) ** alpha * math.exp(-z * z / 2)
                      / math.sqrt(2 * math.pi), t, t + 40)
        assert val == pytest.approx(ref, rel=1e-9, abs=1e-12)


class TestBOpt:
    def test_beats_dense_parameter_scan(self):
        d = carrier_sum(0.3, 5, 1.0)
        for x in (1.0, 2.5, 4.0):
            res = b_opt(d, 3.0, x)
            ts = np.linspace(d.min_value - 5.0, x - 1e-9, 200_001)
            num = np.array([partial_moment(d, 3.0, float(t)) for t in ts[::500]])
            dense = np.min(num / (x - ts[::500]) ** 3)
            assert res.value <= dense * (1.0 + 1e-11)

    def test_past_support_is_zero(self):
        d = bs(0.4)
        assert b_opt(d, 3.0, d.max_value + 1e-6).value == 0.0

    def test_trivial_when_target_too_low(self):
        d = bs(0.4)
        assert b_opt(d, 3.0, d.min_value - 1.0).value == 1.0

    def test_dominates_exact_tail(self):
        d = carrier_sum(0.25, 4, 1.0)
        for x in np.linspace(d.min_value, d.max_value, 23):
            assert b_opt(d, 3.0, float(x)).value >= tail(d, float(x)) - 1e-12


class TestHoeffding:
    def test_fair_coin_sixteenth(self):
        assert hoeffding_bound(0.5, 4, 1.0, 4.0) == pytest.approx(1 / 16, rel=1e-13)

    @pytest.mark.parametrize("p,n", [(0.1, 3), (0.3, 6), (0.5, 4), (0.7, 5)])
    def test_top_atom_identity(self, p, n):
        # at the top of the carrier the exponential bound is exact: p^n
        x_top = n * math.sqrt((1 - p) / p)
        d = carrier_sum(p, n, 1.0)
        assert hoeffding_bound(p, n, 1.0, x_top) == pytest.approx(p ** n, rel=1e-12)
        assert tail(d, x_top) == pytest.approx(p ** n, rel=1e-12)

    def test_H_properties(self):
        assert hoeffding_H(0.3, 0.0) == 0.0
        assert hoeffding_H(0.3, -0.5) == 0.0
        assert hoeffding_H(0.3, 0.7) == pytest.approx(-math.log(0.3), rel=1e-13)
        assert hoeffding_H(0.3, 0.71) == math.inf
        # strictly convex increasing in between
        ys = np.linspace(0.01, 0.69, 50)
        hs = [hoeffding_H(0.3, float(y)) for y in ys]
        assert all(b > a for a, b in zip(hs, hs[1:]))


class TestNormalBounds:
    def test_opt_bound_below_scaled_tail(self):
        for x in (0.5, 1.0, 2.0, 4.0):
            assert normal_opt_bound(x, 1.0) <= c_const(5, 0) * normal_tail(x) + 1e-15

    def test_opt_bound_scale_invariance(self):
        a = normal_opt_bound(2.0, 1.0)
        b = normal_opt_bound(4.0, 2.0)
        assert a == pytest.approx(b, rel=1e-10)


class TestBaseline:
    def test_two_point_is_standardized(self):
        d = baseline_two_point(2.0, 1.0)
        assert d.mean() == pytest.approx(0.0, abs=1e-14)
        assert d.max_value == 2.0
        assert d.var() == pytest.approx(1.0, rel=1e-13)

    def test_binom_bound_keys_and_monotone(self):
        r1 = baseline_binom_bound(1.0, 1.0, 6, 2.0)
        r2 = baseline_binom_bound(1.0, 1.0, 6, 3.0)
        assert set(r1) == {"b", "c", "n", "y", "h", "raw", "bound"}
        assert r2["bound"] <= r1["bound"]
        assert 0.0 <= r1["bound"] <= 1.0


class TestCombinedBound:
    def test_fair_coin_top(self):
        rep = combined_bound(0.5, 1.0, 4.0, n=4, s_m=1.0)
        assert rep.minimum == pytest.approx(0.0625, rel=1e-9)
        assert rep.hoeffding == pytest.approx(0.0625, rel=1e-12)
        assert not rep.below_threshold

    def test_chain_order_on_ten_configs(self):
        # b_opt <= c30 LinLC(x + h/2) <= c30 LC(x), every config, every x
        c30 = c_const(3, 0)
        configs = [
            (0.1, None, 4), (0.2, None, 6), (0.3, None, 5), (0.4, None, 8),
            (0.5, None, 4), (0.6, None, 6), (0.7, None, 5), (0.25, None, 10),
            (0.35, None, 7), (0.45, None, 12),
        ]
        for p, _, n in configs:
            m = m_star(p)
            carrier = carrier_sum(p, n, 1.0)
            _, h = lattice_params(carrier)
            lc = lc_majorant(carrier)
            linlc = lin_lc_majorant(carrier)
            xs = np.linspace(0.0, carrier.max_value, 15)
            for x in xs:
                bo = b_opt(carrier, 3.0, float(x)).value
                mid = c30 * float(linlc.value(float(x) + 0.5 * h))
                top = c30 * float(lc.value(float(x)))
                assert bo <= mid * (1.0 + 1e-10) + 1e-15
                assert mid <= top * (1.0 + 1e-10) + 1e-15

    def test_b_opt_beats_hoeffding_everywhere_sampled(self):
        for p, n in ((0.1, 6), (0.3, 8), (0.5, 5)):
            reports = combined_bound_grid(
                p, m_star(p), np.linspace(0.2, 0.95 * n * math.sqrt((1 - p) / p), 12),
                n=n, s_m=1.0)
            for r in reports:
                assert r.b_opt <= r.hoeffding * (1.0 + 1e-10)

    def test_minimum_is_min_of_members(self):
        rep = combined_bound(0.3, m_star(0.3), 2.0, n=6, s_m=1.0)
        members = [rep.b_opt, rep.lc, rep.lin_lc, rep.hoeffding]
        assert rep.minimum == pytest.approx(min(members), rel=1e-14)
        assert rep.argmin in ("b_opt", "lc", "lin_lc", "hoeffding", "normal_dom")

    def test_normal_domination_only_above_half(self):
        below = combined_bound(0.3, 1.0, 1.0, coeffs=[1.0, 1.0, 1.0])
        assert below.normal_dom is None
        above = combined_bound(0.6, 1.0, 1.0, coeffs=[1.0, 1.0, 1.0])
        assert above.normal_dom is not None
        assert above.normal_dom == pytest.approx(
            min(1.0, c_const(3, 0) * normal_tail(1.0 / math.sqrt(3.0))), rel=1e-12)

    def test_below_threshold_flag(self):
        rep = combined_bound(0.1, 1.2, 1.0, n=4, s_m=1.0)  # m_star(0.1) = 1.75
        assert rep.below_threshold

    def test_coeffs_and_s_m_agree(self):
        xs = [0.5, 1.5, 2.5]
        via_coeffs = combined_bound_grid(0.3, 1.0, xs, coeffs=[1.0, 1.0, 1.0, 1.0])
        via_sm = combined_bound_grid(0.3, 1.0, xs, n=4, s_m=1.0)
        for a, b in zip(via_coeffs, via_sm):
            assert a.minimum == pytest.approx(b.minimum, rel=1e-12)

    def test_rejects_inconsistent_inputs(self):
        with pytest.raises(BoundError):
            combined_bound(0.3, 1.0, 1.0, n=3, coeffs=[1.0, 1.0])
        with pytest.raises(BoundError):
            combined_bound(0.3, 1.0, 1.0, n=3)


class TestGoldenSection:
    def test_quadratic_minimum(self):
        arg, val = golden_section(lambda t: (t - 1.3) ** 2, -4.0, 5.0)
        assert arg == pytest.approx(1.3, abs=1e-7)
        assert val == pytest.approx(0.0, abs=1e-13)

    def test_respects_bracket(self):
        arg, _ = golden_section(lambda t: t, 0.0, 2.0)
        assert arg == pytest.approx(0.0, abs=1e-7)
