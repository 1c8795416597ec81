"""Carriers that know their lattice, and the array point hull.

`bs`, `st`, `iid_sum` and `scale` by c > 0 build their laws with
`FiniteDist(..., on_lattice=True)`, which skips the sort and merge.
These tests hold that claim to the general path: the same atoms and
masses bit for bit, the lattice `majorant.lattice_params` infers, the
same lattice tails, and the same bound reports as the general-path
carrier with the monotone-chain point hull.
"""
import dataclasses
import math

import numpy as np
import pytest

from asymtail import bounds, majorant
from asymtail.bounds import carrier_sum, combined_bound_grid
from asymtail.dist import FiniteDist, bs, from_pairs, iid_sum, scale, tail
from asymtail.majorant import (
    _lattice_tails,
    _upper_hull_indices,
    lattice_params,
    lc_majorant,
    lin_lc_majorant,
)
from asymtail.thresholds import m_star


def random_carriers(seed, count, n_max=3000):
    """(p, n, s_m, carrier) with p in [0.02, 0.98], n log-uniform up to
    n_max and s_m log-uniform on [1e-3, 1e3]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = float(rng.uniform(0.02, 0.98))
        n = int(np.exp(rng.uniform(0.0, math.log(n_max))))
        s_m = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        yield p, n, s_m, carrier_sum(p, n, s_m)


def general_carrier(p, n, s_m):
    """The carrier through the general constructor: sort, merge, drop."""
    d = bs(p)
    (a, b), (q, pp) = d.values, d.masses
    k = np.arange(n + 1)
    mode = min(int((n + 1) * pp), n)
    up = (n - k[mode:n]) * pp / ((k[mode:n] + 1) * q)
    down = k[mode:0:-1] * q / ((n - k[mode:0:-1] + 1) * pp)
    mass = np.concatenate((np.cumprod(down)[::-1], [1.0], np.cumprod(up)))
    law = FiniteDist(n * a + k * (b - a), mass / math.fsum(mass))
    return FiniteDist(law.values * s_m, law.masses)


def monotone_chain(x, y):
    """Upper concave hull of points sorted by x (Andrew's monotone chain)."""
    keep = []
    for i in range(len(x)):
        while len(keep) >= 2:
            i1, i2 = keep[-2], keep[-1]
            if (x[i2] - x[i1]) * (y[i] - y[i1]) - (x[i] - x[i1]) * (y[i2] - y[i1]) >= 0:
                keep.pop()
            else:
                break
        keep.append(i)
    return keep


def assert_bit_equal(d, ref):
    assert np.array_equal(d.values, ref.values)
    assert np.array_equal(d.masses, ref.masses)


class TestCarriedLattice:
    def test_equals_inferred_lattice_on_random_carriers(self):
        for p, n, s_m, d in random_carriers(1, 300):
            assert d.lattice == lattice_params(d), (p, n, s_m)

    def test_carriers_are_bit_equal_to_the_general_path(self):
        for p, n, s_m, d in random_carriers(2, 300):
            assert_bit_equal(d, general_carrier(p, n, s_m))

    def test_bs_and_its_sums_carry_their_lattice(self):
        d = bs(0.3)
        assert d.lattice == lattice_params(d) == (d.max_value, d.max_value - d.min_value)
        assert iid_sum(d, 7).lattice == lattice_params(iid_sum(d, 7))
        assert_bit_equal(d, FiniteDist(d.values.copy(), d.masses.copy()))

    def test_general_constructor_and_negative_scale_carry_none(self):
        d = iid_sum(bs(0.3), 5)
        assert FiniteDist(d.values, d.masses).lattice is None
        assert from_pairs([(0.0, 0.5), (1.0, 0.5)]).lattice is None
        flipped = scale(d, -1.0)
        assert flipped.lattice is None
        assert_bit_equal(flipped, FiniteDist(-d.values, d.masses))

    def test_fallback_is_the_general_law(self):
        # gaps of 1e-13 sit within the merge tolerance: the atoms merge
        v = np.array([0.0, 1e-13, 2e-13, 1.0])
        m = np.array([0.25, 0.25, 0.25, 0.25])
        d = FiniteDist(v, m, on_lattice=True)
        assert d.lattice is None
        assert_bit_equal(d, FiniteDist(v, m))
        assert d.n_atoms == 2

    def test_fallback_when_one_gap_is_within_tolerance(self):
        # the smallest gap clears the absolute tolerance but not the one at 1e13
        v = np.array([0.0, 1.0, 1e13, 1e13 + 1.0])
        m = np.full(4, 0.25)
        d = FiniteDist(v, m, on_lattice=True)
        assert d.lattice is None
        assert_bit_equal(d, FiniteDist(v, m))

    def test_shortcut_drops_subnormal_masses_like_the_general_path(self):
        v = np.arange(5.0)
        m = np.array([1e-320, 0.25, 0.5, 0.25, 0.0])
        d = FiniteDist(v, m, on_lattice=True)
        assert_bit_equal(d, FiniteDist(v, m))
        assert d.lattice == (3.0, 1.0)

    def test_a_drop_between_kept_atoms_leaves_no_lattice(self):
        # the atom at 1 drops: 0 and 2 are not consecutive lattice points,
        # and a lattice of step 1 carried on would put the tail at 2 on 1
        v = np.arange(5.0)
        m = np.array([0.25, 1e-320, 0.25, 0.25, 0.25])
        d = FiniteDist(v, m, on_lattice=True)
        assert d.lattice is None
        assert_bit_equal(d, FiniteDist(v, m))
        assert lin_lc_majorant(d).value(2.0) >= tail(d, 2.0) == 0.75
        lat, qt, h = _lattice_tails(d)
        assert (h, qt.tolist()) == (1.0, [1.0, 0.75, 0.75, 0.5, 0.25, 0.0])

    @pytest.mark.parametrize("v,m", [
        ([0.0, 1.0, np.inf], [0.25, 0.5, 0.25]),
        ([0.0, 1.0, 2.0], [0.25, np.nan, 0.25]),
        ([0.0, 1.0, 2.0], [0.75, -0.25, 0.5]),
        ([0.0, 1.0, 2.0], [0.25, 0.25, 0.25]),
    ])
    def test_rejects_what_the_general_constructor_rejects(self, v, m):
        v, m = np.array(v), np.array(m)
        with pytest.raises(ValueError) as general:
            FiniteDist(v, m)
        with pytest.raises(type(general.value), match=str(general.value)[:20]):
            FiniteDist(v, m, on_lattice=True)

    def test_lattice_tails_equal_the_searched_tails(self):
        for p, n, s_m, d in random_carriers(3, 200):
            lat, qt, h = _lattice_tails(d)
            plain = FiniteDist(d.values, d.masses)
            ref_lat, ref_qt, ref_h = _lattice_tails(plain)
            assert h == ref_h
            assert np.array_equal(lat, ref_lat)
            assert np.array_equal(qt, ref_qt)
            assert np.array_equal(qt[:-1], tail(d, lat[:-1]))

    def test_inferred_lattice_counts_an_atom_off_its_point(self):
        # lattice_params puts the top atom at 1.5 (1e-9 relative), so it
        # counts there, and the interpolated hull is no lower than the tail,
        # which is 0.25 up to 1.4999999999
        d = from_pairs([(0.0, 0.5), (0.5, 0.25), (1.4999999999, 0.25)])
        lat, qt, h = _lattice_tails(d)
        assert h == 0.5
        assert qt.tolist() == [1.0, 0.5, 0.25, 0.25, 0.0]
        xs = np.concatenate((lat, [1.25, 1.4]))
        assert (lin_lc_majorant(d).value(xs) >= tail(d, xs)).all()


class TestCarrierSumCollapse:
    def test_tiny_s_m_is_a_bound_error(self):
        with pytest.raises(bounds.BoundError, match="s_m = 4e-13.*merge tolerance 1e-12"):
            carrier_sum(0.3, 10, 4e-13)

    def test_smallest_s_m_that_keeps_every_atom(self):
        d = carrier_sum(0.3, 10, 1e-12)
        assert d.n_atoms == 11 and d.lattice is not None


class TestArrayPointHull:
    def test_equals_monotone_chain_on_carriers(self):
        for p, n, s_m, d in random_carriers(4, 300):
            logq = np.log(d.upper_tails)
            assert _upper_hull_indices(d.values, logq).tolist() == monotone_chain(d.values, logq)

    def test_equals_monotone_chain_on_random_laws(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            k = int(rng.integers(1, 60))
            vals = np.sort(rng.uniform(-3.0, 3.0, k))
            w = rng.dirichlet(np.full(k, float(rng.choice([0.1, 1.0, 10.0]))))
            d = from_pairs(zip(vals, w))
            logq = np.log(d.upper_tails)
            assert _upper_hull_indices(d.values, logq).tolist() == monotone_chain(d.values, logq)

    def test_monotone_chain_finishes_a_slow_peel(self):
        # a concave arc under the chord to a high last point sheds one
        # point per round, more rounds than the array code runs
        x = np.arange(200.0)
        y = -((x / 100.0) ** 2)
        y[-1] = 10.0
        assert _upper_hull_indices(x, y).tolist() == monotone_chain(x, y)

    @pytest.mark.parametrize("ratio,k", [(0.5, 30), (0.1, 200), (0.9, 400)])
    def test_geometric_laws_agree_in_value(self, ratio, k):
        # collinear log tails: the vertex sets may differ, the hull may not
        w = ratio ** np.arange(k)
        d = from_pairs(zip(np.arange(float(k)), w / w.sum()))
        logq = np.log(d.upper_tails)
        ref = monotone_chain(d.values, logq)
        maj = lc_majorant(d)
        xs = np.linspace(d.min_value, d.max_value, 5 * k)
        ref_logq = np.interp(xs, d.values[ref], logq[ref])
        assert np.allclose(maj.log_value(xs), ref_logq, rtol=0.0, atol=1e-12)


def old_bound_reports(monkeypatch, p, m, xs, **kw):
    """combined_bound_grid on the general-path carrier, with lattice
    inference in both hulls and the monotone-chain point hull."""
    with monkeypatch.context() as mp:
        mp.setattr(bounds, "carrier_sum", general_carrier)
        mp.setattr(majorant, "_upper_hull_indices", monotone_chain)
        return combined_bound_grid(p, m, xs, **kw)


def test_bound_reports_bit_equal_to_the_general_path(monkeypatch):
    rng = np.random.default_rng(6)
    for i in range(120):
        p = float(rng.uniform(0.02, 0.98))
        n = int(np.exp(rng.uniform(0.0, math.log(600))))
        m = m_star(p) if i % 2 else max(m_star(p), 1.0 + float(rng.random()))
        xs = np.sort(rng.uniform(-0.5, 5.5, 6)) * math.sqrt(n)
        if i % 3 == 0:
            kw = {"coeffs": rng.uniform(0.2, 2.0, n)}
        else:
            s_m = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            kw = {"n": n, "s_m": s_m}
            xs = xs * s_m
        new = combined_bound_grid(p, m, xs, **kw)
        old = old_bound_reports(monkeypatch, p, m, xs, **kw)
        assert [repr(dataclasses.astuple(r)) for r in new] == \
            [repr(dataclasses.astuple(r)) for r in old]
