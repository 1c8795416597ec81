"""The tail bound family: optimized moment bounds, hull bounds,
exponential bounds, and the normal ingredients they share."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from asymtail.bounds import (
    BoundError,
    b_opt,
    carrier_sum,
    combined_bound,
    combined_bound_grid,
    hoeffding_H,
    hoeffding_bound,
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
        for d in (carrier_sum(0.3, 40, 1.3), carrier_sum(0.9, 7, 1.0), bs(0.4)):
            xs = np.linspace(d.min_value - 1.0, d.max_value + 1.0, 57)
            res = b_opt(d, xs)
            for i, x in enumerate(xs):
                one = b_opt(d, float(x))
                assert isinstance(one.value, float)
                assert (one.value, one.t_opt, one.raw) == (
                    res.value[i], res.t_opt[i], res.raw[i])

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
                assert isinstance(one, float)
                assert one == pytest.approx(float(whole[i]), rel=1e-15, abs=0.0)

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
                bo = b_opt(carrier, float(x)).value
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

    @pytest.mark.parametrize("p,m,x", [
        (0.3, 1.0, math.nan), (0.3, 1.0, math.inf), (0.3, 1.0, -math.inf),
        (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (math.nan, 1.0, 1.0),
        (0.3, 0.5, 1.0), (0.3, math.nan, 1.0),
    ])
    def test_rejects_out_of_domain_inputs(self, p, m, x):
        with pytest.raises(BoundError):
            combined_bound(p, m, x, n=10, s_m=1.0)

    def test_needs_no_golden_section(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("golden_section called")
        monkeypatch.setattr("asymtail.bounds.golden_section", refuse)
        reports = combined_bound_grid(0.3, 1.2, np.linspace(1.0, 20.0, 20), n=50, s_m=1.0)
        assert all(0.0 <= r.b_opt <= 1.0 for r in reports)


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
