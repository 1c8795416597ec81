"""The tail bound family: optimized moment bounds, hull bounds,
exponential bounds, and the normal ingredients they share."""
import dataclasses
import importlib.util
import math
import pathlib
import pickle
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from asymtail import bounds, majorant
from asymtail.bounds import (
    BOptResult,
    BoundError,
    BoundReport,
    b_opt,
    carrier_sum,
    combined_bound,
    combined_bound_grid,
    hoeffding_H,
    hoeffding_bound,
    normal_tail,
    partial_moment,
    resolve_s_m,
)
from asymtail.dist import bs, from_pairs, iid_sum, scale, st, tail, weighted_bs_sum
from asymtail.majorant import MajorantError, lattice_params, lc_majorant, lin_lc_majorant
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


class TestNormalTail:
    """Q is computed with math.erfc, elementwise, with the rounding of
    z / sqrt(2) corrected; mpmath at 40 digits is the reference."""
    ZS = np.linspace(-5.0, 27.0, 1601)

    @staticmethod
    def _q_ref(z: float) -> mpmath.mpf:
        with mpmath.workdps(40):
            return mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2

    @pytest.mark.parametrize("fn", [normal_tail], ids=["normal_tail"])
    def test_within_1e_15_of_mpmath(self, fn):
        worst = 0.0
        for z in self.ZS.tolist():
            ref = self._q_ref(z)
            worst = max(worst, float(abs(mpmath.mpf(fn(z)) - ref) / ref))
        assert worst <= 1e-15

    def test_array_and_scalar_calls_bitwise_equal(self):
        zs = np.concatenate([self.ZS, [-40.0, 0.0, -0.0, 38.5, 1e300, -1e300]])
        whole = normal_tail(zs)
        assert whole.dtype == np.float64 and whole.shape == zs.shape
        assert [normal_tail(z) for z in zs.tolist()] == whole.tolist()
        grid = normal_tail(zs[:6].reshape(2, 3))
        assert grid.shape == (2, 3) and grid.ravel().tolist() == whole[:6].tolist()

    def test_limits(self):
        assert normal_tail(0.0) == 0.5
        assert normal_tail(math.inf) == 0.0 and normal_tail(-math.inf) == 1.0
        assert math.isnan(normal_tail(math.nan))
        assert normal_tail(np.zeros(0)).shape == (0,)


class TestBOpt:
    def test_beats_dense_parameter_scan(self):
        d = carrier_sum(0.3, 5, 1.0)
        for x in (1.0, 2.5, 4.0):
            res = b_opt(d, x)
            ts = np.linspace(d.min_value - 5.0, x - 1e-9, 200_001)
            num = np.array([partial_moment(d, 3.0, float(t)) for t in ts[::500]])
            dense = np.min(num / (x - ts[::500]) ** 3)
            assert res.value <= dense * (1.0 + 1e-11)

    def test_past_support_is_zero(self):
        d = bs(0.4)
        assert b_opt(d, d.max_value + 1e-6).value == 0.0

    def test_just_above_top_counts_as_top_atom(self):
        # within merge tolerance above the top atom, `tail` counts that atom
        d = carrier_sum(0.3, 6, 1.0)
        x = d.max_value * (1.0 + 1e-13)
        assert tail(d, x) == d.masses[-1]
        assert b_opt(d, x).value == pytest.approx(d.masses[-1], rel=1e-12)

    def test_trivial_when_target_too_low(self):
        d = bs(0.4)
        assert b_opt(d, d.min_value - 1.0).value == 1.0

    def test_dominates_exact_tail(self):
        d = carrier_sum(0.25, 4, 1.0)
        for x in np.linspace(d.min_value, d.max_value, 23):
            assert b_opt(d, float(x)).value >= tail(d, float(x)) - 1e-12

    @staticmethod
    def brute_min(d, x, points=2048, chunk=256):
        """min over a t-grid below x, plus the atoms below x, of the ratio."""
        lo = d.min_value - 10.0 * (d.max_value - d.min_value)
        t = np.concatenate((np.linspace(lo, x, points, endpoint=False),
                            d.values[d.values < x]))
        best = math.inf
        for i in range(0, len(t), chunk):
            tc = t[i:i + chunk]
            num = (np.clip(d.values[None, :] - tc[:, None], 0.0, None) ** 3) @ d.masses
            best = min(best, float(np.min(num / (x - tc) ** 3)))
        return best

    @pytest.mark.parametrize("n", [4, 63, 64, 65, 200, 600])
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.5, 0.9])
    def test_closed_form_vs_brute_force(self, p, n):
        # n = 63..65 straddles the atom count where the golden-section
        # search used to stop scanning atom intervals
        d = carrier_sum(p, n, 1.0)
        xs = np.concatenate((np.linspace(d.mean() - 1.0, d.max_value, 9),
                             d.values[-3:]))
        res = b_opt(d, xs)
        for x, value in zip(xs, res.value):
            assert value <= min(self.brute_min(d, float(x)), 1.0) * (1.0 + 1e-12)
            assert value >= tail(d, float(x)) * (1.0 - 1e-12)

    def test_array_matches_scalar_calls_bitwise(self):
        # a scalar x takes the float path; a one-atom law has no interval
        one_atom = from_pairs([(1.5, 1.0)])
        for d in (carrier_sum(0.3, 40, 1.3), carrier_sum(0.9, 7, 1.0), bs(0.4), one_atom):
            top = d.max_value
            xs = np.concatenate((np.linspace(d.min_value - 1.0, top + 1.0, 57), d.values,
                                 top * (1.0 + np.array([-1e-13, 1e-13, 2e-12])), [d.mean()]))
            res = b_opt(d, xs)
            for i, x in enumerate(xs.tolist()):
                one = b_opt(d, x)
                assert all(type(f) is float for f in (one.value, one.t_opt, one.raw))
                alone = b_opt(d, [x])
                for row in (res, alone):
                    j = i if row is res else 0
                    assert repr((one.value, one.t_opt, one.raw)) == repr(
                        (row.value.tolist()[j], row.t_opt.tolist()[j], row.raw.tolist()[j]))

    def test_scalar_overflow_is_the_array_error(self):
        # the carrier of coefficients 1e200 and 2e200: its root overflows
        n, s_m, _ = resolve_s_m(1.0, coeffs=[1e200, 2e200])
        d = carrier_sum(0.5, n, s_m)
        x = 0.5 * d.max_value
        with pytest.raises(BoundError) as whole:
            b_opt(d, [x])
        with pytest.raises(BoundError) as one:
            b_opt(d, x)
        assert str(one.value) == str(whole.value)
        assert str(one.value).startswith(f"b_opt overflows at x = {x!r}")

    @pytest.mark.parametrize("p,n", [(0.05, 30), (0.3, 50), (0.5, 9), (0.8, 120)])
    def test_t_opt_is_first_order_root(self, p, n):
        # g(t) = E (D - t)_+^3 - (x - t) E (D - t)_+^2 vanishes at t_opt
        d = carrier_sum(p, n, 1.0)
        for x in np.linspace(d.mean(), d.max_value, 14)[1:-1]:
            t = b_opt(d, float(x)).t_opt
            a3 = partial_moment(d, 3.0, t)
            a2 = (x - t) * partial_moment(d, 2.0, t)
            assert abs(a3 - a2) <= 1e-10 * max(a3, a2)

    @given(hst.lists(hst.tuples(hst.floats(-4, 4), hst.floats(0.01, 1.0)),
                     min_size=1, max_size=8),
           hst.floats(-5, 5), hst.floats(1e-6, 20.0))
    @settings(max_examples=150, deadline=None)
    def test_never_above_objective(self, pairs, x, gap):
        total = sum(w for _, w in pairs)
        d = from_pairs([(v, w / total) for v, w in pairs])
        top = d.max_value
        # just above the top atom, x counts as the top atom (as in `tail`)
        assume(not top < x <= top + 1e-12 * max(1.0, abs(top)))
        t = x - gap
        objective = partial_moment(d, 3.0, t) / (x - t) ** 3
        assert b_opt(d, x).value <= min(objective, 1.0) * (1.0 + 1e-12) + 1e-300

    def test_below_mean_is_trivial(self):
        d = carrier_sum(0.2, 12, 1.0)
        res = b_opt(d, np.array([d.min_value - 3.0, d.mean()]))
        assert list(res.raw) == [1.0, 1.0]
        assert np.all(np.isfinite(res.t_opt)) and np.all(res.t_opt < d.min_value)

    def test_rejects_bad_x(self):
        d = bs(0.4)
        for x in (math.nan, math.inf, [0.5, -math.inf]):
            with pytest.raises(BoundError):
                b_opt(d, x)

    def test_overflowing_root_is_an_error(self):
        # past about 1e77 the quadratic's discriminant overflows; x past
        # the top atom and x <= E D need no root
        d = carrier_sum(0.5, 4, 1e80)
        with pytest.raises(BoundError, match="overflows at x = 4e\\+79"):
            b_opt(d, [d.min_value - 1.0, 4e79])
        assert b_opt(d, [d.min_value - 1.0, 2.0 * d.max_value]).raw.tolist() == [1.0, 0.0]


class TestHoeffding:
    def test_arrays_match_scalar_calls(self):
        p, n, s_m = 0.3, 12, 1.4
        xs = np.array([-2.0, 0.0, 1e-9, 3.0, 10.0, n * s_m * math.sqrt(0.7 / 0.3), 40.0])
        ys = (xs / n) * math.sqrt(p * (1 - p)) / s_m
        for fn, args in ((hoeffding_H, (p,)), (hoeffding_bound, (p, n, s_m)),
                         (normal_tail, ())):
            arg = ys if fn is hoeffding_H else xs
            whole = fn(*args, arg)
            assert isinstance(whole, np.ndarray) and whole.shape == arg.shape
            for i, a in enumerate(arg.tolist()):
                one = fn(*args, a)
                assert type(one) is float
                assert repr(one) == repr(whole.tolist()[i])

    @pytest.mark.parametrize("p,n,s_m", [(0.5, 1, 0.1), (0.3, 6, 1.0), (0.05, 3, 40.0),
                                         (0.9, 25, 0.02)])
    def test_top_atom_rule_in_x(self, p, n, s_m):
        # up to 1e-12 max(1, top) above the top atom x counts as that atom,
        # as in b_opt and dist.tail, where the bound is p^n; well past it,
        # 0; just below it, the rate's formula, a little above p^n
        top = carrier_sum(p, n, s_m).max_value
        tol = 1e-12 * max(1.0, top)
        xs = {"below": [top - 0.9 * tol, top * (1.0 - 1e-15)],
              "at": [top, top + 0.5 * tol, top + 0.9 * tol],
              "past": [top * (1.0 + 1e-9), 2.0 * top]}
        for where, x in xs.items():
            whole = hoeffding_bound(p, n, s_m, np.array(x)).tolist()
            assert [hoeffding_bound(p, n, s_m, v) for v in x] == whole
            if where == "below":
                assert all(p ** n <= b <= p ** n * (1.0 + 1e-9) for b in whole)
            elif where == "at":
                assert whole == pytest.approx([p ** n] * len(x), rel=1e-12)
            else:
                assert whole == [0.0, 0.0]

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

    def test_H_equals_the_select_form_bit_for_bit(self):
        def select_form(p, y):
            q = 1.0 - p
            y = np.asarray(y, dtype=float)
            inside = (y > 0.0) & (y < q)
            yi = np.where(inside, y, 0.0)
            rate = (p + yi) * np.log((p + yi) / p) + (q - yi) * np.log((q - yi) / q)
            return np.select([y <= 0.0, y == q, y > q], [0.0, -math.log(p), math.inf], rate)

        rng = np.random.default_rng(7)
        for _ in range(200):
            p = float(rng.uniform(1e-4, 1.0 - 1e-4))
            q = 1.0 - p
            ys = rng.uniform(-0.1, 1.1 * q, 100)
            ys[:6] = [0.0, q, q * (1 + 5e-13), q * (1 - 5e-13), -0.0, 1.0]
            assert np.array_equal(hoeffding_H(p, ys), select_form(p, ys))
            assert hoeffding_H(p, float(ys[1])) == float(select_form(p, ys[1]))


def _assert_keyword_built(row):
    """row, stored as one instance dict, is the BoundReport the keyword
    constructor builds from its fields: the same ==, repr, asdict and
    pickle round trip, its dict in field order, and frozen."""
    names = [f.name for f in dataclasses.fields(BoundReport)]
    twin = BoundReport(**{name: getattr(row, name) for name in names})
    assert list(vars(row)) == names
    assert row == twin and repr(row) == repr(twin)
    assert dataclasses.asdict(row) == dataclasses.asdict(twin)
    back = pickle.loads(pickle.dumps(row))
    assert back == row and repr(back) == repr(row)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.minimum = 0.0


class TestCombinedBound:
    def test_fair_coin_top(self):
        rep = combined_bound(0.5, 1.0, 4.0, n=4, s_m=1.0)
        assert rep.minimum == pytest.approx(0.0625, rel=1e-9)
        assert rep.hoeffding == pytest.approx(0.0625, rel=1e-12)

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
                bo = b_opt(carrier, float(x)).value
                mid = c30 * float(linlc.value(float(x) + 0.5 * h))
                top = c30 * float(lc.value(float(x)))
                assert bo <= mid * (1.0 + 1e-10) + 1e-15
                assert mid <= top * (1.0 + 1e-10) + 1e-15

    @pytest.mark.parametrize("p,n,s_m", [
        (0.5, 1, 0.1),
        # Hoeffding read 0 here at x = top (1 + 1.2e-12), where tail counts the top atom
        (0.02955637837500028, 7, 0.020630993805438324),
        (0.25, 22, 1.0), (0.3, 6, 1.0), (0.7, 40, 3.0), (0.9, 3, 20.0), (0.1, 60, 0.05),
    ])
    def test_minimum_is_not_below_the_tail_at_the_top_atom(self, p, n, s_m):
        # within the merge tolerance either side of the top atom, `tail`
        # counts that atom, so every member must stay at or above its mass
        d = carrier_sum(p, n, s_m)
        top = d.max_value
        xs = [top * (1.0 + sign * j * 1e-13) for j in range(21) for sign in (1, -1)]
        grid = combined_bound_grid(p, m_star(p), xs, n=n, s_m=s_m)
        for x, row in zip(xs, grid):
            rep = combined_bound(p, m_star(p), x, n=n, s_m=s_m)
            assert rep == row
            assert rep.minimum >= tail(d, x) * (1.0 - 1e-12), (x, rep.raw, tail(d, x))
            _assert_keyword_built(row)
            _assert_keyword_built(rep)

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
        """Below m_star(p) an s_m is an error, and coefficients are taken
        at m_star(p), the m their reports give; within 1e-12 below it m is
        used as given."""
        with pytest.raises(BoundError, match="below the threshold"):
            combined_bound(0.1, 1.2, 1.0, n=4, s_m=1.0)  # m_star(0.1) = 1.75
        lifted = combined_bound(0.1, 1.0, 3.0, coeffs=[1.0, 2.0, 3.0])
        assert lifted == combined_bound(0.1, m_star(0.1), 3.0, coeffs=[1.0, 2.0, 3.0])
        assert lifted.m == m_star(0.1) and lifted.minimum == pytest.approx(0.718, abs=5e-4)
        near = m_star(0.1) - 5e-13
        assert combined_bound(0.1, near, 1.0, n=4, s_m=1.0).m == near

    def test_coeffs_and_s_m_agree(self):
        xs = [0.5, 1.5, 2.5]
        via_coeffs = combined_bound_grid(0.3, m_star(0.3), xs, coeffs=[1.0, 1.0, 1.0, 1.0])
        via_sm = combined_bound_grid(0.3, m_star(0.3), xs, n=4, s_m=1.0)
        for a, b in zip(via_coeffs, via_sm):
            assert a.minimum == pytest.approx(b.minimum, rel=1e-12)

    def test_rejects_inconsistent_inputs(self):
        with pytest.raises(BoundError):
            combined_bound(0.3, 1.0, 1.0, n=3, coeffs=[1.0, 1.0])
        with pytest.raises(BoundError):
            combined_bound(0.3, 1.0, 1.0, n=3)

    @pytest.mark.parametrize("p,m,x", [
        (0.3, 1.0, math.nan), (0.3, 1.0, math.inf), (0.3, 1.0, -math.inf),
        (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (math.nan, 1.0, 1.0),
        (0.3, 0.5, 1.0), (0.3, math.nan, 1.0), (0.3, math.inf, 1.0),
    ])
    def test_rejects_out_of_domain_inputs(self, p, m, x):
        with pytest.raises(BoundError):
            combined_bound(p, m, x, n=10, s_m=1.0)

    @pytest.mark.parametrize("xs", [[[1.0], [1.0, 2.0]], ["a"], [1.0, "b"]],
                             ids=["ragged", "text", "mixed"])
    def test_grid_rejects_xs_that_are_no_numbers(self, xs):
        with pytest.raises(BoundError, match="xs must be a number or an array of numbers"):
            combined_bound_grid(0.3, 1.2, xs, n=4, s_m=1.0)

    @pytest.mark.parametrize("x", ["a", [1.0, 2.0], None], ids=["text", "list", "none"])
    def test_one_x_that_is_no_number_is_a_bound_error(self, x):
        with pytest.raises(BoundError, match=r"x must be a number, got"):
            combined_bound(0.3, 2.0, x, n=3, s_m=1.0)

    def test_needs_no_golden_section(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("golden_section called")
        monkeypatch.setattr("asymtail.bounds.golden_section", refuse)
        reports = combined_bound_grid(0.3, 1.2, np.linspace(1.0, 20.0, 20), n=50, s_m=1.0)
        assert all(0.0 <= r.b_opt <= 1.0 for r in reports)


class TestResolveSM:
    """s_m = (mean c^{2m})^{1/(2m)} where the powers c^{2m} leave the
    normal floats: m_star(p) grows like 1/(2 sqrt p), so small p asks
    for large m."""

    @staticmethod
    def exact(m, coeffs):
        with mpmath.workdps(40):
            c = [mpmath.mpf(v) for v in coeffs]
            e = 2 * mpmath.mpf(m)
            return float((mpmath.fsum(v ** e for v in c) / len(c)) ** (1 / e))

    # the overflow at m = 501 and the underflow at m = 50.5 are
    # TestBoundCommand::test_s_m_at_large_m in tests/test_cli.py
    @pytest.mark.parametrize("m,coeffs", [
        (1.0, [1e-160, 3e-160, 0.0]),        # the mean square is subnormal
        (1e4, [1e-8, 1e8, 0.0, 7.0, 1e8]),   # 1e8^20000 overflows
    ])
    def test_matches_the_exact_power_mean(self, m, coeffs):
        _, s_m, _ = resolve_s_m(m, coeffs=coeffs)
        assert s_m == pytest.approx(self.exact(m, coeffs), rel=1e-15, abs=0.0)

    def test_s_1_where_the_squares_overflow(self):
        coeffs = [1e200, 3e200, 0.0]
        _, _, s_1 = resolve_s_m(2.0, coeffs=coeffs)
        assert s_1 == pytest.approx(self.exact(1.0, coeffs), rel=1e-15, abs=0.0)

    def test_s_1_where_the_squares_underflow(self):
        # the mean of c^2 is 0.0, so s_1 is read over max(c) as s_m is
        coeffs = [1e-170, 2e-170]
        _, s_m, s_1 = resolve_s_m(1.0, coeffs=coeffs)
        assert s_1 == s_m == 1.5811388300841897e-170
        assert s_1 == pytest.approx(self.exact(1.0, coeffs), rel=1e-15, abs=0.0)

    def test_coefficients_and_s_m_together_raise(self):
        with pytest.raises(BoundError, match="give coeffs or s_m, not both"):
            resolve_s_m(2.0, coeffs=[1.0, 2.0], s_m=5.0)
        with pytest.raises(BoundError, match="give coeffs or s_m, not both"):
            combined_bound(0.3, 2.0, 1.0, coeffs=[1.0, 2.0], s_m=5.0)

    def test_all_zero_coefficients_stay_zero(self):
        assert resolve_s_m(60.0, coeffs=[0.0, 0.0])[1] == 0.0


@pytest.mark.parametrize("call,match", [
    (lambda: partial_moment(bs(0.3), -1.0, 0.0), "alpha must be >= 0"),
    (lambda: b_opt(iid_sum(bs(0.3), 3), np.ones((2, 2))), "x must be a scalar or a 1-d array"),
    (lambda: hoeffding_H(0.0, 0.5), r"hoeffding_H requires p in \(0, 1\)"),
    (lambda: hoeffding_H(1.0, np.array([0.5])), r"hoeffding_H requires p in \(0, 1\)"),
    (lambda: hoeffding_bound(0.0, 3, 1.0, 1.0), r"hoeffding_bound requires p in \(0, 1\)"),
    (lambda: hoeffding_bound(1.0, 3, 1.0, np.array([1.0])),
     r"hoeffding_bound requires p in \(0, 1\)"),
], ids=["partial_moment_alpha", "b_opt_2d", "hoeffding_H_p_0", "hoeffding_H_p_1",
        "hoeffding_bound_p_0", "hoeffding_bound_p_1"])
def test_inputs_out_of_domain_raise(call, match):
    with pytest.raises(BoundError, match=match):
        call()


def log_binomial_tail(p, n, s_m, x):
    """log P(s_m (sum of n bs(p)) >= x), by lgamma and logaddexp.

    An atom within 1e-9 relative of x is left out, which can only make
    the reference smaller."""
    q = 1.0 - p
    k = np.arange(n + 1)
    atoms = s_m * (k / math.sqrt(p * q) - n * math.sqrt(p / q))
    log_mass = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                         for j in range(n + 1)]) + k * math.log(p) + (n - k) * math.log(q)
    first = int(np.searchsorted(atoms, x + 1e-9 * max(1.0, abs(x))))
    return float(np.logaddexp.reduce(log_mass[first:])) if first <= n else -math.inf


def assert_valid_reports(reports, p, n, s_m):
    for r in reports:
        exact = math.exp(log_binomial_tail(p, n, s_m, r.x))
        members = [r.b_opt, r.lc, r.lin_lc, r.hoeffding]
        if r.normal_dom is not None:
            members.append(r.normal_dom)
        for v in members:
            assert isinstance(v, float) and math.isfinite(v)
            assert exact * (1.0 - 1e-12) <= v <= 1.0
        assert r.minimum == min(members)


REPORTED_MEMBERS = ("b_opt", "lc", "lin_lc", "hoeffding", "normal_dom", "minimum")


@given(p=hst.floats(0.01, 0.99), n=hst.integers(1, 600), s_m=hst.floats(0.5, 2.0),
       m_up=hst.floats(0.0, 0.5), xs=hst.lists(
           hst.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_every_reported_member_is_a_probability(p, n, s_m, m_up, xs):
    """Each member of every report is a finite float in [0, 1], or the
    call raises BoundError; never a NaN, an infinity or another error."""
    m = m_star(p) * (1.0 + m_up)
    try:
        reports = combined_bound_grid(p, m, xs, n=n, s_m=s_m)
    except BoundError:
        return
    assert len(reports) == len(xs)
    for r in reports:
        for name in REPORTED_MEMBERS:
            v = getattr(r, name)
            if v is None and name == "normal_dom":
                continue
            assert isinstance(v, float) and math.isfinite(v), (name, v)
            assert 0.0 <= v <= 1.0, (name, v)


_LOG_X = hst.floats(-3.0, 0.1)  # x as 10^u times the carrier's top atom


@given(p=hst.floats(0.02, 0.98), n=hst.integers(1, 60), log_s_m=hst.floats(-2.0, 2.0),
       log_xs=hst.lists(_LOG_X, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
# x = 0.10000000000024706, within the merge tolerance above the top atom 0.1,
# where Hoeffding once read 0 below b_opt's 0.5
@example(p=0.5, n=1, log_s_m=-1.0, log_xs=[1.0729107392858623e-12])
# x = top (1 - 2.1e-14), where Hoeffding once snapped to p^n, 1e-12 below b_opt
@example(p=0.25, n=22, log_s_m=0.0, log_xs=[-9.000845331195109e-15])
def test_b_opt_is_below_the_hull_and_hoeffding_members(p, n, log_s_m, log_xs):
    """The theorem order on raw members: b_opt is at most c30 times
    either hull, and at most Hoeffding.  normal_dom has no such theorem
    and is left out."""
    s_m = 10.0 ** log_s_m
    xs = n * s_m * math.sqrt((1.0 - p) / p) * 10.0 ** np.array(log_xs)
    for r in combined_bound_grid(p, m_star(p), xs, n=n, s_m=s_m):
        for name in ("lc", "lin_lc", "hoeffding"):
            assert r.raw["b_opt"] <= r.raw[name] * (1.0 + 1e-12), (name, r.x, r.raw)


@given(p=hst.floats(0.02, 0.98), n=hst.integers(1, 60), m_up=hst.floats(0.0, 1.0),
       p_st=hst.floats(math.sqrt(2.0) - 1.0, 1.0),
       log_xs=hst.lists(_LOG_X, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_b_opt_is_below_the_hull_on_the_self_normalized_carriers(p, n, m_up, p_st, log_xs):
    """The carriers that `selfnorm` bounds with b_opt: n^(-1/(2m)) times
    a sum of n bs(p) laws (vym), and n^(-1/2) times one of n st(p) laws
    (vsymm, vhatsymm).  On both, b_opt <= c30 times the point hull."""
    c30 = c_const(3, 0)
    m = m_star(p) * (1.0 + m_up)
    for carrier in (carrier_sum(p, n, n ** (-1.0 / (2.0 * m))),
                    scale(iid_sum(st(p_st), n), n ** -0.5)):
        xs = carrier.max_value * 10.0 ** np.array(log_xs)
        hull = c30 * lc_majorant(carrier).value(xs)
        assert np.all(b_opt(carrier, xs).value <= hull * (1.0 + 1e-12)), (xs, hull)


def _outcome(call):
    """A call's result, or its error's type and message, as a string that
    tells every float apart (repr keeps the sign of zero and the type)."""
    try:
        return repr(call())
    except Exception as err:  # the two paths must raise alike
        return f"{type(err).__name__}: {err}"


def _paths_agree(p, m, x, **kw):
    one = _outcome(lambda: combined_bound(p, m, x, **kw))
    assert one == _outcome(lambda: combined_bound_grid(p, m, [x], **kw)[0]), (p, m, x, kw)
    return one


def _ulps(x: float, k: int) -> float:
    """x moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def _band_edges(bottom: float, top: float) -> list[float]:
    """The top atom and the tops of the top and bottom atoms' bands (the
    merge tolerance v + 1e-12 max(1, |v|)), each with 1-3 ulps either side."""
    centres = (top, top + 1e-12 * max(1.0, abs(top)), bottom + 1e-12 * max(1.0, abs(bottom)))
    return [_ulps(c, k) for c in centres for k in range(-3, 4)]


def _fields(result) -> list:
    """A member's result as a list of its fields, each a list of floats."""
    if isinstance(result, BOptResult):
        result = (result.raw, result.value, result.t_opt)
    else:
        result = (result,)
    return [np.asarray(f, dtype=float).ravel().tolist() for f in result]


@given(p=hst.floats(0.02, 0.98), n=hst.integers(1, 60), log_s_m=hst.floats(-2.0, 2.0),
       pairs=hst.one_of(hst.none(), hst.lists(hst.tuples(hst.floats(-4, 4),
                                                         hst.floats(0.01, 1.0)),
                                              min_size=1, max_size=8)))
@settings(max_examples=150, deadline=None)
# p = 0.3, n = 5: at x = top + 9e-12, past the top atom's band, Hoeffding
# once read 0.00243 where the other members read 0; inside the band lc
# once fell below the tail
@example(p=0.3, n=5, log_s_m=0.0, pairs=None)
# p = 0.3, n = 20: lc once read x in an interior atom's band past the atom,
# below the tail there
@example(p=0.3, n=20, log_s_m=0.0, pairs=None)
def test_members_agree_at_the_band_edges(p, n, log_s_m, pairs):
    """At the band edges of a carrier (pairs None) or a general law:

    (a) tail, b_opt, lc and, on carriers, Hoeffding agree on whether x
        has passed the top atom: each reads 0 exactly past its band;
    (b) lc is not below the tail, to 1e-13 relative, there and at every
        interior atom's band edge, where it reads the atom;
    (c) each member's scalar result is its [x] result bit for bit,
        lin_lc's included (whose 0 lies a lattice step further up)."""
    if pairs is None:
        s_m = 10.0 ** log_s_m
        d = carrier_sum(p, n, s_m)
        members = {"hoeffding": lambda x: hoeffding_bound(p, n, s_m, x),
                   "lin_lc": lin_lc_majorant(d).value}
    else:
        total = sum(w for _, w in pairs)
        d = from_pairs([(v, w / total) for v, w in pairs])
        members = {}
    lc = lc_majorant(d)
    members.update(lc=lc.value, b_opt=lambda x: b_opt(d, x))
    top = d.max_value
    xs = _band_edges(d.min_value, top) + [top + 9e-12 * max(1.0, abs(top))]
    for x in xs:
        t = tail(d, x)
        for name, member in members.items():
            one = _fields(member(x))
            assert repr(one) == repr(_fields(member(np.array([x])))), (name, x)
            if name != "lin_lc":
                assert (one[0][0] == 0.0) == (t == 0.0), (name, x, one, t)
        assert lc.value(x) >= t * (1.0 - 1e-13), (x, lc.value(x), t)
    for v in d.values.tolist():
        band = v + 1e-12 * max(1.0, abs(v))
        for x in [_ulps(band, k) for k in range(-3, 4)]:
            one = lc.value(x)
            assert repr(one) == repr(lc.value(np.array([x]))[0].item()), (v, x)
            assert one >= tail(d, x) * (1.0 - 1e-13), (v, x, one, tail(d, x))
            if v < x <= band:
                assert one == lc.value(v), (v, x)


_X_KINDS = ("below_support", "below_mean", "atom", "between_atoms", "top", "past_top",
            "band_edge")


@given(p=hst.floats(0.02, 0.98), n=hst.integers(1, 60), log_s_m=hst.floats(-2.0, 2.0),
       coeffs=hst.one_of(hst.none(), hst.lists(hst.floats(0.0, 10.0), min_size=1,
                                               max_size=60)),
       m_scale=hst.floats(0.8, 1.3), kind=hst.sampled_from(_X_KINDS),
       j=hst.integers(0, 60), frac=hst.floats(0.0, 1.0), sign=hst.sampled_from((-1, 0, 1)))
@settings(max_examples=200, deadline=None)
def test_combined_bound_is_the_grid_at_one_x(p, n, log_s_m, coeffs, m_scale, kind, j, frac,
                                             sign):
    """combined_bound(x) equals combined_bound_grid([x])[0] field for
    field, raw included, or raises the same error with the same message:
    x below the support, below the mean, at and between atoms, at the top
    atom and 1e-13 relative either side, past it, and at the band edges
    of the top and bottom atoms and 1-3 ulps either side.  Coefficients may
    be taken below m_star(p), where they are lifted; an s_m never is."""
    if coeffs is None:
        kw = {"n": n, "s_m": 10.0 ** log_s_m}
        m = m_star(p) * max(m_scale, 1.0)
    else:
        kw = {"coeffs": coeffs}
        m = m_star(p) * m_scale
    try:
        _, s_m, _ = resolve_s_m(max(m, m_star(p)), **kw)
        v = carrier_sum(p, len(coeffs) if coeffs else n, s_m).values
    except BoundError:
        v = np.array([-1.0, 1.0])  # the query raises; any x will do
    top = float(v[-1])
    span = max(1.0, top - float(v[0]))
    x = {"below_support": v[0] - frac * span - 1e-9 * span,
         "below_mean": v[0] * frac,
         "atom": v[j % len(v)],
         "between_atoms": (v[j % (len(v) - 1)] + frac * (v[j % (len(v) - 1) + 1]
                                                         - v[j % (len(v) - 1)])
                           if len(v) > 1 else v[0]),
         "top": top * (1.0 + sign * 1e-13),
         "past_top": top + 1e-11 * span + frac * span,
         "band_edge": _band_edges(float(v[0]), top)[j % 21]}[kind]
    _paths_agree(p, m, float(x), **kw)


def _bound_point_workload():
    """The bound_point workload of the benchmark, whose module imports its
    oracle as a top-level module."""
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      bench / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module.BoundPoint


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record each call of module.name, by its first argument."""
    calls = []
    f = getattr(module, name)
    monkeypatch.setattr(module, name, lambda first, *args: calls.append(first) or f(first, *args))
    return calls


def _count_whole_hulls(monkeypatch) -> list:
    """Record each carrier that `bounds` builds the whole lin_lc hull of."""
    return _count_calls(monkeypatch, bounds, "lin_lc_majorant")


def test_combined_bound_is_the_grid_on_every_bound_point_query(monkeypatch):
    """Every bound_point query at seeds 1-10, blocks 0-1: the scalar path
    gives the grid path's report, or its error, bit for bit; and at most
    5% of the answered queries build the whole lin_lc hull, prune its
    whole arc chain (_kept_arcs) or build the whole lc hull on the scalar
    path, the rest reading their certified segments."""
    workload = _bound_point_workload()
    builds = _count_whole_hulls(monkeypatch)
    pruned = _count_calls(monkeypatch, majorant, "_kept_arcs")
    lc_builds = _count_calls(monkeypatch, bounds, "lc_majorant")
    answered = whole = prunes = lc_whole = 0
    for seed in range(1, 11):
        for block in (0, 1):
            for q in workload(seed).block(block):
                kw = {"coeffs": q.coeffs} if q.coeffs is not None else {"n": q.n, "s_m": q.s_m}
                before = len(builds), len(pruned), len(lc_builds)
                if _paths_agree(q.p, q.m, float(q.xs[0]), **kw).startswith("BoundReport("):
                    answered += 1
                    # the grid path builds each whole hull, and prunes, once
                    whole += len(builds) - before[0] - 1
                    prunes += len(pruned) - before[1] - 1
                    lc_whole += len(lc_builds) - before[2] - 1
    assert answered > 2000
    assert whole <= 0.05 * answered
    assert prunes <= 0.05 * answered
    assert lc_whole <= 0.05 * answered


def test_a_failed_line_takes_the_whole_hull(monkeypatch):
    """With every certified line lowered by 2e-9 in log, the line check
    fails on every bound_point query of seed 1, block 0, and each answer
    comes from the whole hull: one build per query, with the grid's
    report bit for bit.  A query that reaches the check checks one line,
    its window's."""
    verdicts = []
    check = majorant._line_majorizes

    def lowered(lat, qt, h, x, y, s, clear):
        verdicts.append(check(lat, qt, h, x, y - 2e-9, s, clear))
        return verdicts[-1]
    monkeypatch.setattr(majorant, "_line_majorizes", lowered)
    builds = _count_whole_hulls(monkeypatch)
    answered = 0
    for q in _bound_point_workload()(1).block(0):
        kw = {"coeffs": q.coeffs} if q.coeffs is not None else {"n": q.n, "s_m": q.s_m}
        before, checks = len(builds), len(verdicts)
        one = _paths_agree(q.p, q.m, float(q.xs[0]), **kw)
        assert len(verdicts) - checks in (0, 1), q
        if one.startswith("BoundReport(") and len(verdicts) > checks:
            answered += 1
            assert len(builds) - before == 2, (q, one)  # the scalar path's, and the grid's
    assert answered > 50
    assert not any(verdicts)


def test_a_failed_chord_takes_the_whole_lc_hull(monkeypatch):
    """With the chord check failing everywhere, every bound_point query of
    seed 1, block 0 that reaches it reads lc from the whole hull: one
    build on the scalar path, with the grid's report bit for bit."""
    chords = []
    monkeypatch.setattr(majorant, "_chord_majorizes", lambda *args: chords.append(args) and False)
    lc_builds = _count_calls(monkeypatch, bounds, "lc_majorant")
    answered = 0
    for q in _bound_point_workload()(1).block(0):
        kw = {"coeffs": q.coeffs} if q.coeffs is not None else {"n": q.n, "s_m": q.s_m}
        before, checks = len(lc_builds), len(chords)
        one = _paths_agree(q.p, q.m, float(q.xs[0]), **kw)
        if one.startswith("BoundReport(") and len(chords) > checks:
            answered += 1
            assert len(lc_builds) - before == 2, (q, one)  # the scalar path's, and the grid's
    assert answered > 50


def test_one_pair_solved_as_floats_is_its_array_solve():
    """majorant._bridges on one pair of neighbour arcs as floats equals its
    solve in an array of every neighbour pair, bit for bit, on the arc
    chain of each bound_point carrier at seed 1, blocks 0-1."""
    workload = _bound_point_workload()(1)
    pairs = 0
    for block in (0, 1):
        for q in workload.block(block):
            kw = ((None, q.coeffs, None) if q.coeffs is not None else (q.n, None, q.s_m))
            d = bounds._query(q.p, q.m, *kw)[5]
            arcs = majorant._arcs(majorant._lattice_tails(d)[1])
            n = len(arcs[0])
            u, _ = majorant._bridges(*arcs, np.arange(n - 1), np.arange(1, n))
            one = [majorant._bridges(*arcs, i, i + 1)[0] for i in range(n - 1)]
            assert [repr(v) for v in one] == [repr(v) for v in u.tolist()], q
            pairs += n - 1
    assert pairs > 10_000


class TestLargeCarriers:
    # (p, n, s_m) lattice points of the bound benchmark where the averaged
    # merge pushed atoms off the lattice and the carrier raised
    # LatticeError or IndexError
    @pytest.mark.parametrize("p,n,s_m", [
        (0.8085714285714285, 502, 0.5935499592903313),
        (0.09285714285714285, 429, 0.5835099310103146),
        (0.05, 287, 1.3953552517622982),
        (0.7614285714285715, 561, 0.7270508948459816),
    ])
    def test_former_lattice_failures(self, p, n, s_m):
        xs = np.array([0.25, 1.0, 2.5, 5.0]) * math.sqrt(n) * s_m
        reports = combined_bound_grid(p, m_star(p), xs, n=n, s_m=s_m)
        assert_valid_reports(reports, p, n, s_m)

    @pytest.mark.parametrize("p,n,seed", [
        (0.9414285714285714, 410, 0),
        (0.8728571428571428, 587, 1),
    ])
    def test_former_lattice_failures_with_coeffs(self, p, n, seed):
        coeffs = np.random.default_rng(seed).uniform(0.2, 2.0, size=n)
        m = m_star(p)
        s_m = float(np.mean(coeffs ** (2.0 * m)) ** (1.0 / (2.0 * m)))
        xs = np.array([0.25, 1.0, 2.5, 5.0]) * math.sqrt(n) * s_m
        reports = combined_bound_grid(p, m, xs, coeffs=coeffs)
        assert reports[0].normal_dom is not None
        assert_valid_reports(reports, p, n, s_m)

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5])
    def test_ten_thousand_terms(self, p):
        n = 10_000
        xs = math.sqrt(n) * np.array([0.0, 0.25, 1.0, 2.0, 4.0, 8.0, 40.0])
        reports = combined_bound_grid(p, m_star(p), xs, n=n, s_m=1.0)
        for r in reports:
            for v in (r.b_opt, r.lc, r.lin_lc, r.hoeffding):
                assert math.isfinite(v) and 0.0 <= v <= 1.0
        assert_valid_reports(reports[:-1], p, n, 1.0)

    @pytest.mark.parametrize("s_m", [1e254, 1e256, 1e260])
    def test_point_path_past_the_whole_hulls_scale(self, s_m):
        # from s_m = 1e254 the whole hull fails its certificate (see
        # test_majorant's test_touch_points_past_the_float_range); the
        # point path at one x either raises or gives a certified lin_lc
        # value at or above the exact tail
        p, n = 0.6, 300
        d = carrier_sum(p, n, s_m)
        top = d.max_value
        for x in (0.5 * top, top * (1.0 + 1e-9), top * 1.5):
            try:
                value = bounds._hull_value(d, x, majorant._lin_lc_at, lin_lc_majorant)
            except MajorantError:
                continue
            exact = log_binomial_tail(p, n, s_m, x)
            assert 0.0 <= value <= 1.0
            assert exact == -math.inf or math.log(value) >= exact - 1e-12 * abs(exact)
        # the scalar query raises b_opt's overflow first
        with pytest.raises(BoundError, match="b_opt overflows"):
            combined_bound(p, 1.0, 0.5 * top, n=n, s_m=s_m)
        # in the flat head, ahead of the first arc, b_opt has no root and
        # lin_lc reads the first arc's log tail, with no whole hull
        lat, qt, h = majorant._lattice_tails(d)
        head = float(qt[majorant._arcs(qt)[0][0]])
        for x in (lat[0] + 0.5 * h, lat[0] + h):
            rep = combined_bound(p, 1.0, float(x), n=n, s_m=s_m)
            assert rep.minimum == 1.0
            assert rep.raw["lin_lc"] == c_const(3.0) * float(np.exp(np.log(head)))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the carrier drops the mass its window cuts above its top atom")
    def test_minimum_at_the_windows_top_atom_is_not_below_the_exact_tail(self):
        # at p = 1/2 the carrier is the sum itself, and its window ends at
        # 1970 of 3000; the exact P(sum BS_i >= 1970) = P(Bin(3000, 1/2) >=
        # 2485) is 4.93791598596e-308 (mpmath, 40 digits), and the reported
        # minimum is 3.9156019968092926e-308 (b_opt) while the cut mass is
        # lost
        rep = combined_bound(0.5, 1.0, 1970.0, n=3000, s_m=1.0)
        assert rep.minimum >= 4.93791598596e-308 * (1 - 1e-12)

    def test_argmin_takes_first_of_equal_members(self):
        # past the top atom every member but normal_dom is 0
        rep = combined_bound(0.6, 1.0, 100.0, n=5, s_m=1.0)
        assert (rep.b_opt, rep.lc, rep.lin_lc, rep.hoeffding) == (0.0, 0.0, 0.0, 0.0)
        assert rep.argmin == "b_opt" and rep.minimum == 0.0


class TestGoldenSection:
    def test_quadratic_minimum(self):
        arg, val = golden_section(lambda t: (t - 1.3) ** 2, -4.0, 5.0)
        assert arg == pytest.approx(1.3, abs=1e-7)
        assert val == pytest.approx(0.0, abs=1e-13)

    def test_respects_bracket(self):
        arg, _ = golden_section(lambda t: t, 0.0, 2.0)
        assert arg == pytest.approx(0.0, abs=1e-7)
