"""Certificate checks: delta polynomials, exact enumeration, Schur sweeps,
exactness witnesses, and the supermartingale Monte Carlo harness."""
import dataclasses
import json
import math
import os
import sys
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy.stats import beta as scipy_beta

from asymtail import selfnorm, verifier
from asymtail.bounds import combined_bound_grid
from asymtail.dist import FiniteDist, RngSpec, bs, from_pairs, iid_sum, scale, weighted_bs_sum
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

    @staticmethod
    def _per_region_check(p, m, resolution):
        """delta_grid_check region by region: the minimum and its argmin,
        and two identity residuals, one of each region's own polynomial
        and one of the region-dispatched table at the same points."""
        cs = np.linspace(0.0, 1.0, resolution + 2)[1:-1][:, None]
        C = cs ** (2.0 * m - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_star = -cs * (1.0 - cs ** (2.0 * m - 2.0)) / ((1.0 - C) * (1.0 - p))
        u_star = np.clip(np.where(np.isfinite(u_star), u_star, 0.0), -cs, 0.0)
        zero = np.zeros_like(cs)
        grids = {1: np.hstack([zero, zero + 3.0]), 2: np.hstack([-cs, zero, u_star]),
                 3: np.hstack([zero - 1.0, -cs]), 4: np.hstack([-1.0 - cs, zero - 1.0])}
        best = (math.inf, 0, math.nan, math.nan)
        own_err = dispatched_err = 0.0
        for region, ug in grids.items():
            vals = delta(region, ug, cs, p, m)
            ci, ui = divmod(int(np.argmin(vals)), vals.shape[1])
            if vals[ci, ui] < best[0]:
                best = (float(vals[ci, ui]), region, float(cs[ci, 0]), float(ug[ci, ui]))
            form = delta_positive_part_form(ug, cs, p, m)
            own_err = max(own_err, float(np.max(np.abs(vals - form))))
            dispatched = delta_piecewise(ug, cs, p, m)
            dispatched_err = max(dispatched_err, float(np.max(np.abs(dispatched - form))))
        return best, own_err, dispatched_err

    def test_one_pass_identity_equals_the_per_region_check(self):
        # ACCEPTANCE 4's (p, m) pairs, every fourth m
        for m in np.linspace(1.0, 50.0, 40)[::4]:
            for p in np.linspace(0.02, 0.98, 40):
                if p < p_star(float(m)):
                    continue
                args = (float(p), float(m), 200)
                res = delta_grid_check(*args)
                best, own_err, dispatched_err = self._per_region_check(*args)
                assert (res.min_value, res.argmin_region, res.argmin_c, res.argmin_u) == best
                assert res.identity_max_err == own_err, args
                # the dispatched table takes array-valued exponents, so its
                # residual may differ in the last bits, never by more
                assert res.identity_max_err <= 1e-12
                assert abs(res.identity_max_err - dispatched_err) <= 1e-15, args


class TestEnumeration:
    def test_equal_coefficients_tie_out(self):
        # equal weights make both sides the same distribution, any m: the
        # binomial's 4 atoms make 3 pieces, and one-sided samples no rate
        res = enumeration_check(0.2, 1.0, [1.0, 1.0, 1.0])
        assert res.max_violation <= 1e-14
        assert (res.t_count, res.lam_count) == (3, 0)
        res = enumeration_check(0.2, 1.0, [1.0, 1.0, 1.0], two_sided=True)
        assert res.max_violation <= 1e-14
        assert (res.t_count, res.lam_count) == (3, 20)

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
        # -bs(p) is bs(1 - p): the left tail at p is the right tail at 1 - p
        resl = enumeration_check(1.0 - 0.3, m_star(1.0 - 0.3), [1.0, 2.0, 0.7])
        assert resl.passed and resl.mode == "right_tail"

    def test_reports_worst_family(self):
        # m = 1 < m_star(0.2): the cubes fail, and the winning peak is a t
        # inside the supports where d(t) > 0; no family samples exp
        coeffs = [1.0, 1.7]
        res = enumeration_check(0.2, 1.0, coeffs, two_sided=True)
        assert res.worst_family in ("cube_plus", "abs_cube", "cosh")
        res = enumeration_check(0.2, 1.0, coeffs)
        assert res.worst_family == "cube_plus"
        lhs, rhs = _laws(0.2, 1.0, coeffs)
        t = res.worst_param
        assert rhs.min_value <= t <= rhs.max_value
        assert _cube(lhs, t) - _cube(rhs, t) > 0.0

    @pytest.mark.parametrize("m", [0.9, math.nan, math.inf])
    def test_rejects_m_below_one_or_not_finite(self, m):
        # the certificate's treatment of t below both supports rests on
        # E S^2 <= E eta^2, which needs m >= 1
        with pytest.raises(VerifyError, match="m must be finite and >= 1"):
            enumeration_check(0.3, m, [1.0, 0.7])

    def test_rejects_coefficients_whose_laws_collapse_to_one_point(self):
        # atoms 1e-300 apart merge, so each side is one point and no piece
        # is left to certify
        with pytest.raises(VerifyError, match="one point"):
            enumeration_check(0.3, 1.0, [1e-300, 1e-300])


def _laws(p, m, coeffs):
    """The two sides of the comparison: the weighted sum and its carrier."""
    c = np.asarray(coeffs, dtype=float)
    s_m = float(np.mean(c ** (2.0 * m)) ** (1.0 / (2.0 * m)))
    return weighted_bs_sum(p, c), scale(iid_sum(bs(p), len(c)), s_m)


def _cube(law, t):
    """E (D - t)_+^3 by math.fsum."""
    return math.fsum(m * (v - t) ** 3 for v, m in zip(law.values.tolist(),
                                                       law.masses.tolist()) if v > t)


def _dense_worst(p, m, coeffs, two_sided=False):
    """The largest normalized violation of the cube families over 401
    thresholds t spanning both supports, by dense (grid x atoms) sums:
    the sampled reference that enumeration_check's certificate bounds."""
    lhs, rhs = _laws(p, m, coeffs)
    vl, ml = lhs.values[None, :], lhs.masses[None, :]
    vr, mr = rhs.values[None, :], rhs.masses[None, :]
    t = np.linspace(min(lhs.min_value, rhs.min_value) - 1.0,
                    max(lhs.max_value, rhs.max_value) + 1.0, 401)[:, None]
    el = np.sum(np.clip(vl - t, 0.0, None) ** 3 * ml, axis=1)
    er = np.sum(np.clip(vr - t, 0.0, None) ** 3 * mr, axis=1)
    worst = float(np.max((el - er) / np.maximum(1.0, er)))
    if two_sided:
        al = np.sum(np.abs(vl - t) ** 3 * ml, axis=1)
        ar = np.sum(np.abs(vr - t) ** 3 * mr, axis=1)
        worst = max(worst, float(np.max((al - ar) / np.maximum(1.0, ar))))
    return worst


def _acceptance_5_configs():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 6):
        for coeffs in rng.uniform(0.2, 2.0, size=(25, n)):
            for p in (0.1, 0.3, 0.5, 0.7):
                yield p, list(coeffs)


def _mode_call(mode, p, m, coeffs):
    """enumeration_check in a test mode; left_tail is the right tail at
    1 - p, since -bs(p) is bs(1 - p)."""
    if mode == "left_tail":
        return enumeration_check(1.0 - p, m, coeffs)
    return enumeration_check(p, m, coeffs, two_sided=mode == "two_sided")


class TestEnumerationAgainstDenseSums:
    @pytest.mark.parametrize("mode", ["right_tail", "two_sided", "left_tail"])
    def test_acceptance_5_configurations(self, mode):
        for p, coeffs in _acceptance_5_configs():
            p_eff = 1.0 - p if mode == "left_tail" else p
            m = m_star(p_eff)
            res = _mode_call(mode, p, m, coeffs)
            ref = _dense_worst(p_eff, m, coeffs, mode == "two_sided")
            assert res.mode == ("two_sided" if mode == "two_sided" else "right_tail")
            # the certificate bounds the violation at every t, so at the
            # 401 sampled ones too
            assert res.max_violation >= ref - 1e-15, (p, coeffs, res.max_violation, ref)
            if m == 1.0:
                assert res.passed == (ref <= verifier.DEFAULT_TOL), (p, coeffs)

    def test_violations_below_the_threshold_agree(self):
        # m = 1 < m_star(p): real violations, where the cubes cancel least
        for p, coeffs in [(0.1, [1.0, 2.0, 0.5]), (0.2, [1.0, 1.7, 0.3, 0.9])]:
            for mode in ("right_tail", "two_sided", "left_tail"):
                res = _mode_call(mode, p, 1.0, coeffs)
                ref = _dense_worst(1.0 - p if mode == "left_tail" else p, 1.0, coeffs,
                                   mode == "two_sided")
                assert res.max_violation >= ref - 1e-15
                assert res.passed == (ref <= verifier.DEFAULT_TOL), (p, mode)
            assert not enumeration_check(p, 1.0, coeffs).passed


def test_every_acceptance_6_witness_pair_fails_the_check():
    """The pair (cos^{1/m} theta*, sin^{1/m} theta*) of each witness at
    0.9 m_star(p) has d(t*) = |gap|, and its carrier is the equal point,
    so g_equal = E (eta - t*)_+^3.  The certificate bounds d(t) over the
    normalizer at the right end r of t's piece, the least atom >= t, at
    every t; that normalizer is at most the one at t*.  A 401-point t grid
    read 0.0102 at p ~ 0.29, where d(t*) / max(1, E (eta - r)_+^3) is
    0.0221."""
    for p in np.linspace(0.02, 0.34, 20).tolist():
        m = 0.9 * m_star(p)
        wit = exactness_witness(p, m)
        coeffs = [math.cos(wit.theta_star) ** (1.0 / m), math.sin(wit.theta_star) ** (1.0 / m)]
        res = enumeration_check(p, m, coeffs)
        lhs, rhs = _laws(p, m, coeffs)
        atoms = np.union1d(lhs.values, rhs.values)
        r = float(atoms[atoms >= wit.t][0])
        assert not res.passed, p
        assert res.max_violation >= abs(wit.gap) / max(1.0, wit.g_equal) - 1e-15, p
        assert res.max_violation >= abs(wit.gap) / max(1.0, _cube(rhs, r)) - 1e-15, (
            p, res.max_violation)


@given(p=hst.floats(0.02, 0.98), stretch=hst.floats(0.0, 1.0),
       coeffs=hst.lists(hst.floats(0.2, 2.0), min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_a_passing_certificate_implies_the_exp_comparison(p, stretch, coeffs):
    """e^{lam x} is in the class, so wherever the cube order is certified
    the exponential moments compare too: the violation of E e^{lam D},
    by log-sum-exp at the 20 rates the exp family once sampled, is at
    most 1e-12.  No check is lost with that family."""
    m = m_star(p) * (1.0 + stretch)
    res = enumeration_check(p, m, coeffs)
    assume(res.passed)
    lhs, rhs = _laws(p, m, coeffs)
    lam = np.geomspace(0.1, 5.0, 20)
    viol = np.expm1(verifier._log_mgf(lhs, lam) - verifier._log_mgf(rhs, lam))
    assert viol.max() <= 1e-12, (viol.max(), lam[np.argmax(viol)])


def _scale_convolve_fold(p, coeffs):
    """weighted_bs_sum as a fold of laws: scale(bs(p), c) per term, and
    per sum the law of the outer sums and products, which the
    constructor sorts and merges."""
    base = bs(p)
    out = scale(base, float(coeffs[0]))
    for c in coeffs[1:]:
        term = scale(base, float(c))
        out = FiniteDist(np.add.outer(out.values, term.values).ravel(),
                         np.multiply.outer(out.masses, term.masses).ravel())
    return out


@pytest.mark.parametrize("mode", ["right_tail", "two_sided", "left_tail"])
def test_enumeration_check_equals_the_fold_of_laws_field_for_field(mode, monkeypatch):
    """Certify's draws (2-12 terms, p in [0.02, 0.98], coefficients in
    [0.2, 2]) give the same EnumCheck, every field bit for bit, whether
    the left side is folded on raw arrays or as laws, and whether the
    cosh rates come from the module's grid or a fresh geomspace."""
    rng = np.random.default_rng(25)
    draws = [(float(rng.uniform(0.02, 0.98)), rng.uniform(0.2, 2.0, int(rng.integers(2, 13))))
             for _ in range(40)]

    def checks():
        return [repr(dataclasses.astuple(_mode_call(
                    mode, p, m_star(1.0 - p if mode == "left_tail" else p), c)))
                for p, c in draws]

    got = checks()
    monkeypatch.setattr(verifier, "weighted_bs_sum", _scale_convolve_fold)
    monkeypatch.setattr(verifier, "_ENUM_LAMS", np.geomspace(0.1, 5.0, 20))
    assert got == checks()


class TestEnumerationOverflow:
    LAM = np.geomspace(0.1, 5.0, 20)

    def test_log_mgf_matches_mpmath_where_the_moment_overflows(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        # E e^{5 D} is about e^{2290}: a double overflows, and the dense
        # sums took inf - inf = NaN at 7 of the 421 points and skipped them
        law = weighted_bs_sum(0.3, [200.0, 100.0])
        got = verifier._log_mgf(law, self.LAM)
        assert np.all(np.isfinite(got))
        for lam, g in zip(self.LAM.tolist(), got.tolist()):
            ref = mpmath.log(mpmath.fsum(mpmath.mpf(m) * mpmath.exp(mpmath.mpf(lam) * v)
                                         for v, m in zip(law.values.tolist(),
                                                         law.masses.tolist())))
            assert abs(g - float(ref)) <= 1e-15 * abs(float(ref)) + 1e-15

    def test_large_coefficients_compare_every_rate(self):
        p = 0.3
        res = enumeration_check(p, m_star(p), [200.0, 100.0], two_sided=True)
        assert res.passed
        lhs = weighted_bs_sum(p, [200.0, 100.0])
        c = np.array([200.0, 100.0])
        s_m = float(np.mean(c ** (2.0 * m_star(p))) ** (1.0 / (2.0 * m_star(p))))
        rhs = scale(iid_sum(bs(p), 2), s_m)
        viol = np.expm1(verifier._log_mgf(lhs, self.LAM) - verifier._log_mgf(rhs, self.LAM))
        assert np.all(np.isfinite(viol))
        assert viol.max() == pytest.approx(-0.9593211272822461, rel=1e-12)

    def test_nan_comparison_raises(self):
        # cubes of values near 1e103 overflow, and inf - inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(VerifyError, match="NaN"):
                enumeration_check(0.3, m_star(0.3), [1e103, 2e103])


def test_twelve_term_enumeration_peaks_under_4_mib():
    # the dense (401 x 4096) sums peaked at 25.2 MiB here
    coeffs = np.random.default_rng(1).uniform(0.2, 2.0, 12)
    enumeration_check(0.3, m_star(0.3), coeffs)
    tracemalloc.start()
    try:
        enumeration_check(0.3, m_star(0.3), coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_enumeration_at_a_large_m():
    # the powers c^{2m} underflow to 0 at m = 50.5 > m_star(1e-4)
    res = enumeration_check(1e-4, 50.5, [1e-5, 2e-5])
    assert res.passed and res.max_violation <= 1e-14


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

    @staticmethod
    def _scanned(p, m):
        """The 10 001-angle scan the exact maximization replaced:
        (gap, g_equal), or None when the gap is not below -1e-12."""
        q = 1.0 - p
        pow2 = 2.0 ** (1.0 - 1.0 / (2.0 * m))
        u_p = -pow2 * (m - 1.0) / ((2.0 * m - 1.0) * q)
        t = (-u_p - pow2 * p) / math.sqrt(p * q)
        th = np.linspace(math.pi / 4.0 - 0.2, math.pi / 4.0, 10_001)
        g = verifier._pair_moment(verifier._pair_terms(p), m, th, t)
        gap = float(g[-1]) - float(np.max(g[:-1]))
        return (gap, float(g[-1])) if gap < -1e-12 else None

    @settings(max_examples=150, deadline=None)
    @given(p=hst.floats(0.005, 0.5, exclude_max=True),
           frac=hst.floats(0.0, 1.0, exclude_min=True))
    def test_verdict_and_gap_match_the_scan(self, p, frac):
        # m runs over (1, 1.5 m_star(p)]
        top = 1.5 * m_star(p)
        assume(top > 1.0)
        m = 1.0 + frac * (top - 1.0)
        assume(m > 1.0)
        w, ref = exactness_witness(p, m), self._scanned(p, m)
        assert (w is None) == (ref is None), (p, m, w, ref)
        if w is not None:
            assert w.gap <= ref[0] + 2e-15 * abs(ref[1])
            assert w.g_equal == ref[1]
            assert w.gap < 0.0

    def test_witness_point_attains_the_gap(self):
        p, m = 0.2, 0.9 * m_star(0.2)
        w = exactness_witness(p, m)
        lo = math.pi / 4.0 - 0.2
        assert lo <= w.theta_star < math.pi / 4.0
        g = verifier._pair_moment(verifier._pair_terms(p), m,
                                  [w.theta_star, math.pi / 4.0], w.t)
        assert (float(g[0]), float(g[1])) == (w.g_star, w.g_equal)
        assert w.gap == w.g_equal - w.g_star

    @pytest.mark.parametrize("p,m", [(0.1, 1.74), (0.2, 1.33), (0.05, 2.36)])
    def test_interior_maximum_is_a_root_of_the_slope(self, p, m):
        # here the maximum lies inside the window, not at its edge
        w = exactness_witness(p, m)
        ref = self._scanned(p, m)
        assert math.pi / 4.0 - 0.2 + 1e-3 < w.theta_star < math.pi / 4.0 - 1e-3
        h = 1e-4
        th = np.array([w.theta_star - h, w.theta_star, w.theta_star + h])
        left, mid, right = verifier._pair_slope(verifier._pair_terms(p), m, w.t, th)
        assert left > 0.0 > right
        assert abs(mid) <= 1e-8 * min(left, -right)
        assert w.gap <= ref[0] + 2e-15 * abs(ref[1])

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
        assert all(r.margin == r.bound - r.cp_lower >= 0.0 for r in rep.rows)
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

    def test_reports_carry_a_measured_path_rate(self):
        rep = supermartingale_mc(self._cfg("constant"), McConfig(seed=2, n_paths=5_000))
        assert math.isfinite(rep.paths_per_s) and rep.paths_per_s > 0.0

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

    def test_rows_name_the_bound_family_argmin(self):
        cfg = dataclasses.replace(self._cfg("constant", p=0.2, n=8), x_grid=(0.5, 2.0, 4.0, 6.0))
        rep = supermartingale_mc(cfg, McConfig(seed=3, n_paths=5_000))
        reports = combined_bound_grid(cfg.p, cfg.m, cfg.x_grid, coeffs=cfg.coeffs)
        assert [(r.bound, r.bound_name) for r in rep.rows] == [
            (b.minimum, b.argmin) for b in reports]

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_non_finite_x_grid(self, x):
        cfg = dataclasses.replace(self._cfg("constant"), x_grid=(1.0, x))
        with pytest.raises(VerifyError, match="x_grid must be finite"):
            supermartingale_mc(cfg, McConfig(n_paths=1000))

    @pytest.mark.parametrize("kwargs", [
        {"n_paths": 0}, {"n_paths": -5}, {"block": 0},
        {"block": -3}, {"n_paths": math.nan}, {"block": math.nan},
        {"seed": -1},
    ])
    def test_mc_config_rejects_out_of_range(self, kwargs):
        with pytest.raises(VerifyError):
            McConfig(**kwargs)

    def test_history_scaled_allows_large_p(self):
        rep = supermartingale_mc(self._cfg("history_scaled", p=0.65, n=4),
                                 McConfig(seed=3, n_paths=30_000))
        assert rep.all_ok


def _whole_step_block(cfg, rng, size):
    """The supermartingale block as it was before its buffers: fresh
    arrays at every step."""
    p, q = cfg.p, 1.0 - cfg.p
    ratio = q / p
    c = np.asarray(cfg.coeffs, dtype=float)
    sref = math.sqrt(float(np.sum(c * c)))
    S = np.zeros(size)
    sqrtab_excess = -math.inf
    for i in range(cfg.n):
        ci = c[i]
        if cfg.rule == "constant":
            A = B = ci
        elif cfg.rule == "history_scaled":
            sigma = 1.0 / (1.0 + (S / sref) ** 2)
            B = ci * math.sqrt(ratio) * sigma
            A = ci / math.sqrt(ratio) * sigma
        else:
            U = rng.random(size)
            B = ci * ratio ** (0.5 * U)
            A = ci * ratio ** (-0.5 * U)
        sqrtab_excess = max(sqrtab_excess, float(np.max(np.sqrt(A * B))) / ci - 1.0)
        take_up = rng.random(size) < A / (A + B)
        S = S + np.where(take_up, B, -A)
    return S, sqrtab_excess


class TestBufferedBlock:
    """`_simulate_block` writes every step into buffers it allocates once;
    the sums and the sqrt(A B) excess must not move by a bit."""

    @pytest.mark.parametrize("rule", ["constant", "history_scaled", "random_modulated"])
    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_sums_match_the_fresh_array_steps(self, rule, n):
        coeffs = tuple(np.random.default_rng(n).uniform(0.5, 1.5, size=n))
        for p in (0.15, 0.5) + ((0.8,) if rule == "history_scaled" else ()):
            cfg = SupermartingaleConfig(n=n, p=p, coeffs=coeffs, rule=rule)
            for size in (1, 4095, 4096, 4097, 32_768, 40_000):
                for seed in (1, 2, 3):
                    got, got_ex = verifier._simulate_block(cfg, RngSpec(seed, 2).generator(), size)
                    want, want_ex = _whole_step_block(cfg, RngSpec(seed, 2).generator(), size)
                    assert got.tobytes() == want.tobytes(), (p, size, seed)
                    assert got_ex == want_ex and type(got_ex) is type(want_ex)

    @pytest.mark.parametrize("rule", ["constant", "random_modulated"])
    def test_rule_guard_inside_the_block(self, rule):
        # supermartingale_mc turns these rules away above p = 1/2 before
        # any block runs, so only a direct call reaches the block's guard
        cfg = SupermartingaleConfig(n=3, p=0.7, coeffs=(1.0, 0.8, 1.2), rule=rule)
        with pytest.raises(VerifyError, match=r"B/A <= q/p"):
            verifier._simulate_block(cfg, RngSpec(1).generator(), 100)

    def test_history_scaled_passes_the_guard_above_one_half(self):
        # its B/A is q/p at every step, so the guard lets it through
        cfg = SupermartingaleConfig(n=3, p=0.7, coeffs=(1.0, 0.8, 1.2), rule="history_scaled")
        S, excess = verifier._simulate_block(cfg, RngSpec(1).generator(), 100)
        assert S.shape == (100,) and abs(excess) <= 1e-12


def _cp_cases():
    """(k, total, confidence) with k = 1, k = total and points between."""
    out = []
    for total in (1, 2, 7, 100, 4_096, 65_536, 1_000_000):
        ks = {1, 2, total // 3, total // 2, total - 1, total}
        for k in sorted(j for j in ks if 1 <= j <= total):
            for conf in (0.9, 0.99, 0.999):
                out.append((k, total, conf))
    return out


def _exact_tail(n: int, k: int, p: float) -> mpmath.mpf:
    """P(Bin(n, p) >= k) at the float p, to 60 digits.

    Sums the binomial terms from k up when k is above the mean, else the
    lower tail from k - 1 down; the term ratios fall along the sum, so
    it stops once a geometric bound on the rest is below 1e-40 of it.
    """
    with mpmath.workdps(60):
        p = mpmath.mpf(p)
        q = 1 - p
        if p == 0 or p == 1:
            return p
        upper = k > n * p
        j = k if upper else k - 1
        term = mpmath.binomial(n, j) * p ** j * q ** (n - j)
        total = term
        while j < n if upper else j > 0:
            if upper:
                ratio, j = (n - j) * p / ((j + 1) * q), j + 1
            else:
                ratio, j = j * q / ((n - j + 1) * p), j - 1
            term *= ratio
            total += term
            if ratio < 1 and term * ratio / (1 - ratio) < total * mpmath.mpf(10) ** -40:
                break
        return total if upper else 1 - total


def _check_cp(k: int, total: int, conf: float) -> None:
    """The limit is at or below the exact quantile, and within 1e-12 of it."""
    alpha = 1.0 - conf
    cp = beta_dist.ppf(alpha, k, total - k + 1)
    assert isinstance(cp, float) and 0.0 < cp < 1.0
    assert _exact_tail(total, k, cp) <= alpha
    assert _exact_tail(total, k, min(cp * (1.0 + 1e-12), 1.0)) >= alpha


class TestClopperPearson:
    """The one Clopper-Pearson quantile that verifier and selfnorm share,
    against the binomial tail at 60 digits."""

    @pytest.mark.parametrize("k,total,conf", _cp_cases())
    def test_brackets_the_exact_quantile(self, k, total, conf):
        _check_cp(k, total, conf)

    # named from when the limit was scipy's betaincinv itself; the two now
    # agree to 1e-12 relative, and the check above says which one is right
    @pytest.mark.parametrize("k,total,conf", _cp_cases())
    def test_bit_equal_to_scipy_stats(self, k, total, conf):
        a, b, q = k, total - k + 1, 1.0 - conf
        assert beta_dist.ppf(q, a, b) == pytest.approx(float(scipy_beta.ppf(q, a, b)),
                                                       rel=1e-12, abs=0.0)

    # scipy's betaincinv put the first three above the exact quantile (twice it at the first)
    @pytest.mark.parametrize("k,total,conf", [(1_000, 10 ** 9, 0.99), (1_000, 10 ** 12, 0.9),
                                              (2, 10 ** 12, 0.999), (10 ** 6, 10 ** 9, 0.99)])
    def test_brackets_the_exact_quantile_at_large_n(self, k, total, conf):
        _check_cp(k, total, conf)

    @settings(max_examples=40, deadline=None)
    @given(total=hst.integers(1, 1_000_000), frac=hst.floats(0.0, 1.0),
           conf=hst.one_of(hst.floats(0.5, 0.999999), hst.just(1.0 - 1e-15)))
    def test_brackets_the_exact_quantile_anywhere(self, total, frac, conf):
        _check_cp(max(1, math.ceil(frac * total)), total, conf)

    @pytest.mark.parametrize("total", [2, 7, 1_000, 131_072])
    @pytest.mark.parametrize("conf", [0.5, 0.99])
    def test_increasing_in_k(self, total, conf):
        ks = np.unique(np.linspace(1, total, min(total, 400)).astype(int))
        cps = [beta_dist.ppf(1.0 - conf, int(k), total - int(k) + 1) for k in ks]
        assert all(a < b for a, b in zip(cps, cps[1:]))

    @pytest.mark.parametrize("total", [1, 2, 7, 131_072, 10 ** 9])
    @pytest.mark.parametrize("conf", [0.5, 0.99, 0.999999])
    def test_closed_form_ends(self, total, conf):
        alpha = 1.0 - conf
        one = -math.expm1(math.log1p(-alpha) / total)      # 1 - (1 - p)^N = alpha
        every = math.exp(math.log(alpha) / total)          # p^N = alpha
        for k, exact in ((1, one), (total, every)):
            cp = beta_dist.ppf(alpha, k, total - k + 1)
            assert exact * (1.0 - 1e-14) < cp < exact

    def test_edges_and_bad_shapes(self):
        _check_cp(3, 6, 0.5)
        # the limits are one-sided at confidence >= 1/2, so q lies in (0, 1/2]
        for args in ((0.0, 3, 4), (1.0, 3, 4), (math.nextafter(0.5, 1.0), 3, 4),
                     (math.nan, 3, 4), (0.1, 0, 4), (0.1, 3, 0), (0.1, 2.5, 4), (0.1, math.inf, 4)):
            with pytest.raises(VerifyError):
                beta_dist.ppf(*args)

    def test_selfnorm_shares_the_object(self):
        assert selfnorm.beta_dist is verifier.beta_dist

    # counts frozen exactly; limits frozen from scipy's betaincinv, which the
    # in-house limit matches to 1e-12 relative
    def test_supermartingale_report_frozen(self):
        cfg = SupermartingaleConfig(n=6, p=0.3, coeffs=(1.0,) * 6,
                                    rule="history_scaled", m=m_star(0.3))
        rep = supermartingale_mc(cfg, McConfig(seed=7, n_paths=20_000))
        frozen = [(5110, 0.24834946322399223), (4733, 0.22968602938301566),
                  (1356, 0.06372518837966014), (20, 0.0005542162576428615),
                  (0, 0.0), (0, 0.0), (0, 0.0), (0, 0.0)]
        assert [r.count for r in rep.rows] == [k for k, _ in frozen]
        assert [r.cp_lower for r in rep.rows] == pytest.approx([c for _, c in frozen],
                                                               rel=1e-12, abs=0.0)

    # frozen from the rule's full-size A and B arrays; unequal coefficients,
    # so each step's c_i shows in the counts
    def test_constant_rule_report_frozen(self):
        cfg = SupermartingaleConfig(n=5, p=0.2, coeffs=(0.7, 1.3, 1.0, 0.6, 1.1),
                                    rule="constant", m=m_star(0.2))
        rep = supermartingale_mc(cfg, McConfig(seed=3, n_paths=20_000, block=8_192))
        frozen = [(6769, 0.33067382506479587), (4290, 0.20777973559712043),
                  (1826, 0.08661799237562624), (626, 0.028503478539119883),
                  (0, 0.0), (0, 0.0), (0, 0.0), (0, 0.0)]
        assert [r.count for r in rep.rows] == [k for k, _ in frozen]
        assert [r.cp_lower for r in rep.rows] == pytest.approx([c for _, c in frozen],
                                                               rel=1e-12, abs=0.0)
        assert rep.max_sqrtab_excess == 0.0
        assert rep.blocks == 3

    def test_selfnorm_report_frozen(self):
        base = from_pairs([(-1.0, 2 / 3), (1.0, 1 / 6), (3.0, 1 / 6)])
        rep = selfnorm.selfnorm_bound_check(selfnorm.SelfNormConfig(base=base, n=6, kind="vw"),
                                            McConfig(seed=9, n_paths=20_000, block=4_096))
        frozen = [(5268, 0.25617658949330646), (2785, 0.13360169028657387),
                  (1160, 0.0542175884228976), (438, 0.019562135952492364),
                  (119, 0.004757796401517287), (16, 0.0004091251435945157)]
        assert [r.count for r in rep.rows] == [k for k, _ in frozen]
        assert [r.cp_lower for r in rep.rows] == pytest.approx([c for _, c in frozen],
                                                               rel=1e-12, abs=0.0)


def _block_threads(rng, size):
    """A block whose extra is the thread that ran it."""
    return rng.random(size), threading.get_ident()


def _paired_blocks(inner=None):
    """Blocks that wait for each other two by two, so two threads run
    them; each returns its thread, after calling inner() if given."""
    barrier = threading.Barrier(2, timeout=30)

    def simulate(rng, size):
        barrier.wait()
        extra = inner() if inner is not None else None
        return rng.random(size), (extra, threading.get_ident())
    return simulate


class TestBlockPool:
    """The Monte Carlo blocks run on one process-wide pool of threads."""

    MC = McConfig(seed=4, n_paths=16_384, block=4_096)   # four blocks

    def test_pool_is_reused_across_checks(self, monkeypatch):
        monkeypatch.setenv("ASYMTAIL_THREADS", "2")
        first = verifier.tail_counts(_paired_blocks(), [0.5], self.MC)
        pool = verifier._pool._executor
        second = verifier.tail_counts(_paired_blocks(), [0.5], self.MC)
        assert verifier._pool._executor is pool
        assert first.workers == second.workers == 2
        # the same two threads ran both checks, and neither was this one
        threads = {t for _, t in first.extras}
        assert {t for _, t in second.extras} == threads
        assert len(threads) == 2 and threading.get_ident() not in threads
        assert list(first.counts) == list(second.counts)

    def test_pool_is_rebuilt_when_the_thread_cap_changes(self, monkeypatch):
        monkeypatch.setenv("ASYMTAIL_THREADS", "2")
        verifier.tail_counts(_block_threads, [0.5], self.MC)
        old = verifier._pool._executor
        monkeypatch.setenv("ASYMTAIL_THREADS", "3")
        tc = verifier.tail_counts(_block_threads, [0.5], self.MC)
        new = verifier._pool._executor
        assert new is not old and old._shutdown and not new._shutdown
        assert new._max_workers == 3 and tc.workers == 3
        # a cap of 1 runs on the calling thread and leaves the pool alone
        monkeypatch.setenv("ASYMTAIL_THREADS", "1")
        tc = verifier.tail_counts(_block_threads, [0.5], self.MC)
        assert set(tc.extras) == {threading.get_ident()}
        assert verifier._pool._executor is new

    def test_a_block_that_runs_tail_counts_finishes(self, monkeypatch):
        # the inner call runs inline on the worker; on the pool it would
        # wait for workers that are all busy with outer blocks
        monkeypatch.setenv("ASYMTAIL_THREADS", "2")
        inner_mc = McConfig(seed=9, n_paths=3_000, block=1_000)

        def inner():
            tc = verifier.tail_counts(lambda r, k: (r.random(k), None), [0.5], inner_mc)
            return int(tc.counts[0]), tc.workers

        done = []
        worker = threading.Thread(
            target=lambda: done.append(verifier.tail_counts(_paired_blocks(inner), [0.5],
                                                            self.MC)), daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "nested tail_counts did not finish"
        # the nested calls ran on one thread each, and count what a
        # top-level call counts on two
        count, workers = inner()
        assert workers == 2
        assert {e for e, _ in done[0].extras} == {(count, 1)}
        assert len({t for _, t in done[0].extras}) == 2

    def test_concurrent_checks_share_the_pool_and_keep_their_counts(self, monkeypatch):
        # four callers at once on three workers (more than this box's
        # cores), switching threads often: each caller's counts are the
        # ones it gets alone, so no block reads another's buffers
        cfg = SupermartingaleConfig(n=5, p=0.3, coeffs=(1.0, 0.8, 1.2, 1.0, 0.9),
                                    rule="random_modulated", m=m_star(0.3))
        mcs = [McConfig(seed=s, n_paths=12_000, block=2_000) for s in range(4)]
        monkeypatch.setenv("ASYMTAIL_THREADS", "1")
        want = [[r.count for r in supermartingale_mc(cfg, mc).rows] for mc in mcs]
        monkeypatch.setenv("ASYMTAIL_THREADS", "3")
        got = [None] * len(mcs)

        def check(i):
            got[i] = [r.count for r in supermartingale_mc(cfg, mcs[i]).rows]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=check, args=(i,), daemon=True)
                       for i in range(len(mcs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == want

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_builds_its_own_pool(self, monkeypatch):
        monkeypatch.setenv("ASYMTAIL_THREADS", "2")
        parent = verifier.tail_counts(_paired_blocks(), [0.5], self.MC)
        assert verifier._pool._executor is not None
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:   # the child: report, then leave without running pytest's exit
            try:
                fresh = verifier._pool._executor is None
                tc = verifier.tail_counts(_paired_blocks(), [0.5], self.MC)
                os.write(write, json.dumps([fresh, int(tc.counts[0]), tc.workers,
                                            len({t for _, t in tc.extras})]).encode())
            finally:
                os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 60
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish")
            time.sleep(0.01)
        with os.fdopen(read) as fh:
            got = json.loads(fh.read())
        assert got == [True, int(parent.counts[0]), 2, 2]


class TestBlockBuffers:
    def test_a_thread_reuses_its_buffer_and_a_nested_call_gets_another(self):
        specs = (((100, 3), float), ((100, 3), np.intp), ((7,), bool))
        with verifier._block_buffers(*specs) as first:
            assert [(a.shape, a.dtype) for a in first] == [(s, np.dtype(d)) for s, d in specs]
            assert all(a.flags.c_contiguous and a.flags.aligned for a in first)
            with verifier._block_buffers(*specs) as nested:
                assert not any(np.shares_memory(a, b) for a in first for b in nested)
            # the arrays of one call do not overlap
            assert not np.shares_memory(first[0], first[1])
        with verifier._block_buffers(((50,), float)) as (again,):
            assert np.shares_memory(again, first[0]) or np.shares_memory(again, nested[0])


class TestSuiteRunner:
    def test_fast_suites_pass(self):
        for name in ("delta", "enumeration", "schur", "exactness"):
            results = run_suite(name, seed=0)
            assert results, name
            assert all(r.passed for r in results), name

    def test_supermartingale_rows_carry_the_margin(self):
        results = verifier.run_supermartingale_suite(seed=0, n_paths=5_000)
        for res in results:
            rows = res.details["rows"]
            assert all(r["margin"] == r["bound"] - r["cp_lower"] for r in rows)
            assert res.metric == min(r["margin"] for r in rows)
            assert res.details["paths_per_s"] > 0.0
            # each row names the member of the bound family that won
            assert {r["bound_name"] for r in rows} <= {"b_opt", "lc", "lin_lc", "hoeffding",
                                                       "normal_dom"}

    def test_unknown_suite_raises(self):
        with pytest.raises(VerifyError):
            run_suite("nonsense", seed=0)


class TestCertificateInputs:
    """Non-finite inputs to the certificate checks raise VerifyError; none
    passes as a verdict (an infinite minimum, a None witness, a NaN
    difference)."""

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_delta_grid_rejects_a_non_finite_m(self, m):
        with pytest.raises(VerifyError, match="m must be finite"):
            delta_grid_check(0.3, m)

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_delta_grid_rejects_an_empty_grid(self, resolution):
        with pytest.raises(VerifyError, match="resolution must be >= 1"):
            delta_grid_check(0.3, 1.5, resolution)

    def test_delta_grid_keeps_m_below_1(self):
        # 0.9 m_star(p) at p >= 1/2, where m_star is 1
        assert not delta_grid_check(0.7, 0.9, 20).nonnegative
        assert delta_grid_check(0.3, 1.5, 1).resolution == 1

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_witness_rejects_a_non_finite_m(self, m):
        with pytest.raises(VerifyError, match="finite m > 1"):
            exactness_witness(0.2, m)

    @pytest.mark.parametrize("m,t", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
                                     (1.5, math.nan), (1.5, -math.inf)])
    def test_schur_sweep_rejects_a_non_finite_m_or_t(self, m, t):
        with pytest.raises(VerifyError, match="must be finite"):
            schur_sweep(0.3, m, t)
