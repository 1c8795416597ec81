"""Certificate checks: delta polynomials, exact enumeration, Schur sweeps,
exactness witnesses, and the supermartingale Monte Carlo harness."""
import math
import os

import numpy as np
import pytest
from scipy.stats import beta as scipy_beta

from asymtail import selfnorm, verifier
from asymtail.dist import from_pairs
from asymtail.thresholds import m_star, p_star
from asymtail.verifier import (
    McConfig,
    SupermartingaleConfig,
    VerifyError,
    beta_dist,
    delta,
    delta_grid_check,
    delta_piecewise,
    delta_positive_part_form,
    enumeration_check,
    exactness_witness,
    run_suite,
    schur_sweep,
    supermartingale_mc,
)

RNG = np.random.default_rng(20240817)


def _cpms():
    """A small deterministic grid of (c, p, m) triples above threshold."""
    out = []
    for p in (0.05, 0.2, 0.4):
        for m in (m_star(p), m_star(p) + 0.8, 7.0):
            for c in (0.1, 0.45, 0.8, 0.99):
                out.append((c, p, m))
    return out


class TestDeltaPolynomials:
    @pytest.mark.parametrize("c,p,m", _cpms())
    def test_continuity_at_region_joins(self, c, p, m):
        # the four pieces agree where their domains meet
        d2 = delta(2, -c, c, p, m)
        d3 = delta(3, -c, c, p, m)
        assert d2 == pytest.approx(d3, rel=1e-11, abs=1e-13)
        d3b = delta(3, -1.0, c, p, m)
        d4 = delta(4, -1.0, c, p, m)
        assert d3b == pytest.approx(d4, rel=1e-11, abs=1e-13)
        # frozen closed form of the shared corner value
        corner = c * c * (1.0 - c ** (2.0 * m - 1.0)) * p
        assert d4 == pytest.approx(corner, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("c,p,m", _cpms()[::3])
    def test_piecewise_matches_positive_part_form(self, c, p, m):
        us = np.concatenate([
            RNG.uniform(-1.0 - c - 0.5, 3.0, size=400),
            [-1.0 - c, -1.0, -c, 0.0],
        ])
        lhs = delta_piecewise(us, c, p, m)
        rhs = delta_positive_part_form(us, c, p, m)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_vanishes_below_support(self):
        assert delta_piecewise(np.array([-5.0]), 0.5, 0.3, 2.0)[0] == 0.0

    def test_table_equals_positive_part_form_symbolically(self):
        # delta_1..delta_4 as written in `delta`, with the powers of c kept
        # as c^(2m+k); C = c^(2m-1) turns every difference into a
        # polynomial in (u, c, p, C) that must expand to zero.
        sp = pytest.importorskip("sympy")
        u, c, p, m, C = sp.symbols("u c p m C", positive=True)

        def cpow(k):
            return c ** (2 * m + k)

        c1 = cpow(-1)
        d1 = (2 * c * (1 - cpow(-2)) * u + 2 * p * c * (1 - c1)
              + c * c * (1 - cpow(-3)))
        table = {
            1: d1,
            2: (1 - p) * (1 - c1) * u * u + d1,
            3: (-c1 * u * u - 2 * (c1 - c * p + cpow(0) * p) * u
                + ((2 * c + c * c - 2 * cpow(0) - cpow(1)) * p - c1)),
            4: (1 - c1) * p * (1 + c + u) ** 2,
        }
        q = 1 - p
        terms = (-(1 - C) * q * u ** 2,              # (u)_+^2
                 -(C * q + p) * (1 + u) ** 2,        # (1+u)_+^2
                 (q + C * p) * (c + u) ** 2,         # (c+u)_+^2
                 (1 - C) * p * (1 + c + u) ** 2)     # (1+c+u)_+^2
        active = {1: (0, 1, 2, 3), 2: (1, 2, 3), 3: (1, 3), 4: (3,)}
        for i, expr in table.items():
            in_c = sp.expand_power_exp(sp.expand(expr)).subs(c ** (2 * m), C * c)
            assert not in_c.has(m)
            assert sp.expand(in_c - sum(terms[k] for k in active[i])) == 0, i
            # the symbolic table is the one `delta` computes
            f = sp.lambdify((u, c, p, m), expr, "numpy")
            for uu, cc, pp, mm in ((-1.3, 0.4, 0.2, 2.3), (-0.7, 0.9, 0.05, 1.1),
                                   (-0.2, 0.3, 0.6, 4.0), (1.5, 0.6, 0.35, 1.0)):
                assert delta(i, uu, cc, pp, mm) == pytest.approx(
                    f(uu, cc, pp, mm), rel=1e-13, abs=1e-15)

    @staticmethod
    def _dense_scan_min(p, m, resolution, points=200):
        """Minimum over an even u-grid on every region, plus the region-2
        vertex, on the c values delta_grid_check uses."""
        cs = np.linspace(0.0, 1.0, resolution + 2)[1:-1][:, None]
        frac = np.linspace(0.0, 1.0, points)[None, :]
        C = cs ** (2.0 * m - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = -cs * (1.0 - cs ** (2.0 * m - 2.0)) / ((1.0 - C) * (1.0 - p))
        vertex = np.clip(np.nan_to_num(vertex, nan=0.0, posinf=0.0, neginf=0.0),
                         -cs, 0.0)
        grids = {
            1: 3.0 * frac + 0.0 * cs,
            2: np.hstack([-cs * (1.0 - frac), vertex]),
            3: -1.0 + (1.0 - cs) * frac,
            4: -1.0 - cs * (1.0 - frac),
        }
        return min(float(np.min(delta(i, ug, cs, p, m))) for i, ug in grids.items())

    @pytest.mark.parametrize("p", [0.03, 0.1, 0.2, 0.3, 0.45, 0.6, 0.9])
    def test_grid_minimum_matches_dense_scan(self, p):
        ms = (0.9 * m_star(p), m_star(p), 1.3 * m_star(p), 5.0)
        for m in ms:
            res = delta_grid_check(p, m, resolution=60)
            ref = self._dense_scan_min(p, m, 60)
            assert abs(res.min_value - ref) <= 1e-14, (p, m, res.min_value, ref)
            at = delta(res.argmin_region, res.argmin_u, res.argmin_c, p, m)
            assert float(at) == res.min_value
            if p < 0.5 and m < m_star(p):
                assert res.min_value < 0

    def test_grid_nonnegative_at_threshold(self):
        for p in (0.05, 0.15, 0.3, 0.45):
            res = delta_grid_check(p, m_star(p), resolution=120)
            assert res.nonnegative, (p, res.min_value, res.argmin_region)
            assert res.identity_max_err <= 1e-12

    def test_grid_fails_below_threshold(self):
        res = delta_grid_check(0.2, 1.05, resolution=120)
        assert not res.nonnegative
        assert res.min_value == pytest.approx(-0.1126374602598984, rel=1e-9)

    def test_grid_nonnegative_above_half(self):
        # p >= 1/2 needs only m >= 1
        res = delta_grid_check(0.7, 1.0, resolution=100)
        assert res.nonnegative

    def test_threshold_sharpness_bracket(self):
        # just above m_star passes, 2 percent below fails
        p = 0.1
        assert delta_grid_check(p, m_star(p) * 1.001, resolution=150).nonnegative
        assert not delta_grid_check(p, m_star(p) * 0.98, resolution=150).nonnegative


class TestEnumeration:
    def test_equal_coefficients_tie_out(self):
        # equal weights make both sides the same distribution, any m
        res = enumeration_check(0.2, 1.0, [1.0, 1.0, 1.0])
        assert res.max_violation <= 1e-14
        assert (res.t_count, res.lam_count) == (401, 20)

    @pytest.mark.parametrize("coeffs", [
        [1.0, 2.0], [0.5, 1.0, 1.5], [1.0, 1.0, 3.0, 0.25],
    ])
    @pytest.mark.parametrize("p", [0.1, 0.35, 0.5])
    def test_above_threshold_passes(self, coeffs, p):
        res = enumeration_check(p, m_star(p), coeffs)
        assert res.passed, (res.max_violation, res.worst_family)

    def test_two_sided_and_left_tail_modes(self):
        res2 = enumeration_check(0.3, m_star(0.3), [1.0, 2.0, 0.7],
                                 two_sided=True)
        assert res2.passed and res2.mode == "two_sided"
        resl = enumeration_check(0.3, m_star(1.0 - 0.3), [1.0, 2.0, 0.7],
                                 left_tail=True)
        assert resl.passed and resl.mode == "left_tail"

    def test_reports_worst_family(self):
        res = enumeration_check(0.2, m_star(0.2), [1.0, 1.7])
        assert res.worst_family in ("cube_plus", "exp", "abs_cube", "cosh")
        assert np.isfinite(res.worst_param)


class TestSchurSweep:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.45])
    def test_monotone_along_equalizing_path(self, p):
        res = schur_sweep(p, m_star(p), t=1.2)
        assert res.monotone

    def test_not_monotone_below_threshold(self):
        # at m clearly below the threshold the sweep must break somewhere
        found = False
        for t in np.linspace(0.9, 1.8, 7):
            if not schur_sweep(0.1, 1.0, t=float(t)).monotone:
                found = True
                break
        assert found


class TestExactnessWitness:
    @pytest.mark.parametrize("p,gap", [
        (0.02, -1.840158e-3),
        (0.10, -8.016807e-3),
        (0.20, -1.520854e-2),
        (0.32, -2.470355e-2),
    ])
    def test_frozen_gaps_below_threshold(self, p, gap):
        w = exactness_witness(p, 0.9 * m_star(p))
        assert w is not None
        assert w.gap == pytest.approx(gap, rel=1e-5)
        assert w.gap < -1e-12

    def test_no_witness_at_threshold(self):
        assert exactness_witness(0.1, m_star(0.1)) is None

    def test_rejects_bad_domain(self):
        with pytest.raises(VerifyError):
            exactness_witness(0.6, 1.2)
        with pytest.raises(VerifyError):
            exactness_witness(0.1, 1.0)


class TestSupermartingaleMC:
    def _cfg(self, rule, p=0.3, n=6):
        return SupermartingaleConfig(
            n=n, p=p, coeffs=tuple([1.0] * n), rule=rule, m=m_star(p))

    @pytest.mark.parametrize("rule", ["constant", "history_scaled",
                                      "random_modulated"])
    def test_small_run_within_bound(self, rule):
        rep = supermartingale_mc(self._cfg(rule),
                                 McConfig(seed=7, n_paths=60_000))
        assert rep.all_ok
        # every rule meets sqrt(A B) = c_i on some step
        assert abs(rep.max_sqrtab_excess) <= 1e-12
        assert rep.n_paths == 60_000

    def test_counts_independent_of_thread_split(self):
        cfg = self._cfg("history_scaled")
        mc = McConfig(seed=11, n_paths=50_000, block=8_192)
        old = os.environ.get("ASYMTAIL_THREADS")
        try:
            os.environ["ASYMTAIL_THREADS"] = "1"
            a = supermartingale_mc(cfg, mc)
            os.environ["ASYMTAIL_THREADS"] = "4"
            b = supermartingale_mc(cfg, mc)
        finally:
            if old is None:
                os.environ.pop("ASYMTAIL_THREADS", None)
            else:
                os.environ["ASYMTAIL_THREADS"] = old
        assert [r.count for r in a.rows] == [r.count for r in b.rows]
        assert a.max_sqrtab_excess == b.max_sqrtab_excess
        assert [(rep.seed, rep.blocks, rep.workers) for rep in (a, b)] == [
            (11, 7, 1), (11, 7, 4)]

    def test_tail_counts_returns_extras_in_block_order(self, monkeypatch):
        monkeypatch.setenv("ASYMTAIL_THREADS", "3")
        tc = verifier.tail_counts(lambda rng, size: (rng.random(size), size),
                                  [0.0, 0.5, 2.0], McConfig(seed=4, n_paths=10_000, block=4_096))
        assert tc.extras == [4_096, 4_096, 1_808]
        assert (tc.n_paths, tc.blocks, tc.workers) == (10_000, 3, 3)
        assert tc.counts[0] == 10_000 and tc.counts[2] == 0

    def test_guards(self):
        with pytest.raises(VerifyError):
            supermartingale_mc(self._cfg("constant", p=0.7),
                               McConfig(n_paths=1000))
        with pytest.raises(VerifyError):
            supermartingale_mc(self._cfg("random_modulated", p=0.6),
                               McConfig(n_paths=1000))
        with pytest.raises(VerifyError):
            supermartingale_mc(
                SupermartingaleConfig(n=3, p=0.3, coeffs=(1.0, 2.0),
                                      rule="constant", m=2.0),
                McConfig(n_paths=1000))
        with pytest.raises(VerifyError):
            supermartingale_mc(
                SupermartingaleConfig(n=2, p=0.3, coeffs=(1.0, -1.0),
                                      rule="constant", m=2.0),
                McConfig(n_paths=1000))

    @pytest.mark.parametrize("kwargs", [
        {"n_paths": 0}, {"n_paths": -5}, {"block": 0},
        {"confidence": 0.0}, {"confidence": 1.0}, {"confidence": math.nan},
    ])
    def test_mc_config_rejects_out_of_range(self, kwargs):
        with pytest.raises(VerifyError):
            McConfig(**kwargs)

    def test_history_scaled_allows_large_p(self):
        rep = supermartingale_mc(self._cfg("history_scaled", p=0.65, n=4),
                                 McConfig(seed=3, n_paths=30_000))
        assert rep.all_ok


def _cp_cases():
    """(k, total, confidence) with k = 1, k = total and points between."""
    out = []
    for total in (1, 2, 7, 100, 4_096, 65_536, 1_000_000):
        ks = {1, 2, total // 3, total // 2, total - 1, total}
        for k in sorted(j for j in ks if 1 <= j <= total):
            for conf in (0.9, 0.99, 0.999):
                out.append((k, total, conf))
    return out


class TestClopperPearson:
    """The one Clopper-Pearson quantile that verifier and selfnorm share."""

    @pytest.mark.parametrize("k,total,conf", _cp_cases())
    def test_bit_equal_to_scipy_stats(self, k, total, conf):
        a, b, q = k, total - k + 1, 1.0 - conf
        assert float(beta_dist.ppf(q, a, b)) == float(scipy_beta.ppf(q, a, b))

    def test_selfnorm_shares_the_object(self):
        assert selfnorm.beta_dist is verifier.beta_dist

    def test_supermartingale_report_frozen(self):
        cfg = SupermartingaleConfig(n=6, p=0.3, coeffs=(1.0,) * 6,
                                    rule="history_scaled", m=m_star(0.3))
        rep = supermartingale_mc(cfg, McConfig(seed=7, n_paths=20_000))
        assert [(r.count, r.cp_lower) for r in rep.rows] == [
            (5110, 0.24834946322399223), (4733, 0.22968602938301566),
            (1356, 0.06372518837966014), (20, 0.0005542162576428615),
            (0, 0.0), (0, 0.0), (0, 0.0), (0, 0.0)]

    def test_selfnorm_report_frozen(self):
        base = from_pairs([(-1.0, 2 / 3), (1.0, 1 / 6), (3.0, 1 / 6)])
        rep = selfnorm.selfnorm_bound_check(selfnorm.SelfNormConfig(base=base, n=6, kind="vw"),
                                            McConfig(seed=9, n_paths=20_000, block=4_096))
        assert [(r.count, r.cp_lower) for r in rep.rows] == [
            (5268, 0.25617658949330646), (2785, 0.13360169028657387),
            (1160, 0.0542175884228976), (438, 0.019562135952492364),
            (119, 0.004757796401517287), (16, 0.0004091251435945157)]


class TestSuiteRunner:
    def test_fast_suites_pass(self):
        for name in ("delta", "enumeration", "schur", "exactness"):
            results = run_suite(name, seed=0)
            assert results, name
            assert all(r.passed for r in results), name

    def test_unknown_suite_raises(self):
        with pytest.raises(VerifyError):
            run_suite("nonsense", seed=0)
