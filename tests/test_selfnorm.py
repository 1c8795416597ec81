"""Self-normalized sums: the reciprocating pairing, two-point
decomposition, the conditioned-law variance identity, and the
Monte Carlo tail checks against the moment-constant bounds."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from asymtail.dist import FiniteDist, from_pairs
from asymtail.selfnorm import (
    ReciprocatingMap,
    TwoPointDecomposition,
    SelfNormConfig,
    SelfNormError,
    hat_dist,
    recombine,
    selfnorm_bound_check,
    selfnorm_stat,
    two_point_decomposition,
    var_identity_check,
)
from asymtail.thresholds import SQRT2_MINUS_1, m_star
from asymtail.verifier import McConfig

RADEMACHER = from_pairs([(-1.0, 0.5), (1.0, 0.5)])
ASYM3 = from_pairs([(-1.0, 2 / 3), (1.0, 1 / 6), (3.0, 1 / 6)])
# the CLI's symm5 preset: half its mass sits at 0
SYMM5 = from_pairs([(-2.0, 0.1), (-1.0, 0.15), (0.0, 0.5), (1.0, 0.15), (2.0, 0.1)])


def dist_close(a: FiniteDist, b: FiniteDist, tol=1e-12):
    assert a.n_atoms == b.n_atoms
    assert np.allclose(a.values, b.values, rtol=0, atol=tol)
    assert np.allclose(a.masses, b.masses, rtol=0, atol=tol)


class TestReciprocatingMap:
    def test_rademacher_basics(self):
        rm = ReciprocatingMap(RADEMACHER)
        assert rm.g_total == pytest.approx(0.5, rel=1e-15)
        assert rm.zero_mass == 0.0
        assert rm.x_plus(0.3) == 1.0
        assert rm.x_minus(0.3) == -1.0
        assert rm.reciprocate(1.0, 0.25) == -1.0
        assert rm.reciprocate(-1.0, 0.9) == 1.0
        assert rm.reciprocate(0.0, 0.5) == 0.0

    def test_asym3_pairing(self):
        rm = ReciprocatingMap(ASYM3)
        # negative side is one atom of depth 2/3; positive side splits at 1/6
        assert rm.g_total == pytest.approx(2 / 3, rel=1e-14)
        assert rm.x_plus(0.1) == 1.0
        assert rm.x_plus(0.2) == 3.0
        assert rm.x_minus(0.5) == -1.0
        # the +1 atom occupies levels (0, 1/6]: every u lands on -1
        assert rm.reciprocate(1.0, 0.0) == -1.0
        assert rm.reciprocate(1.0, 0.999) == -1.0

    def test_rejects_nonzero_mean(self):
        with pytest.raises(SelfNormError):
            ReciprocatingMap(from_pairs([(0.0, 0.5), (1.0, 0.5)]))

    def test_keeps_zero_mass(self):
        d = from_pairs([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        rm = ReciprocatingMap(d)
        assert rm.zero_mass == pytest.approx(0.5)
        assert rm.g_total == pytest.approx(0.25)


class TestTwoPointDecomposition:
    def test_asym3_frozen_components(self):
        dec = two_point_decomposition(ASYM3)
        assert dec.zero_mass == 0.0
        assert len(dec.components) == 2
        comps = sorted(dec.components, key=lambda c: c.b)
        # {-1, 1} with weight 1/3 and {-1, 3} with weight 2/3
        assert comps[0].a == 1.0 and comps[0].b == 1.0
        assert comps[0].weight == pytest.approx(1 / 3, rel=1e-14)
        assert comps[1].a == 1.0 and comps[1].b == 3.0
        assert comps[1].weight == pytest.approx(2 / 3, rel=1e-14)
        assert dec.max_asymmetry == pytest.approx(3.0, rel=1e-14)
        assert dec.zero_mass + sum(c.weight for c in dec.components) == pytest.approx(
            1.0, rel=1e-14)

    def test_component_laws_are_zero_mean(self):
        dec = two_point_decomposition(ASYM3)
        for c in dec.components:
            alone = TwoPointDecomposition((dataclasses.replace(c, weight=1.0),), 0.0)
            assert recombine(alone).mean() == pytest.approx(0.0, abs=1e-15)

    @staticmethod
    def _check_roundtrip(d: FiniteDist):
        dec = two_point_decomposition(d)
        # the weights and the zero atom's mass add to one
        assert dec.zero_mass + sum(c.weight for c in dec.components) == pytest.approx(
            1.0, rel=1e-12)
        back = recombine(dec)
        assert back.mean() == pytest.approx(0.0, abs=1e-12)
        for mom in (2, 3, 4):
            assert math.fsum(back.masses * back.values ** mom) == pytest.approx(
                math.fsum(d.masses * d.values ** mom), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_recombine_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 8))
        v = np.sort(rng.uniform(-3, 3, size=k))
        w = rng.uniform(0.05, 1.0, size=k)
        w /= w.sum()
        d = from_pairs(zip(v, w))
        self._check_roundtrip(from_pairs(zip(d.values - d.mean(), d.masses)))  # recentered

    def test_recombine_roundtrip_with_zero_mass(self):
        assert two_point_decomposition(SYMM5).zero_mass == 0.5
        self._check_roundtrip(SYMM5)

    def test_roundtrip_exact_on_lattice(self):
        dec = two_point_decomposition(ASYM3)
        dist_close(recombine(dec), ASYM3, tol=1e-14)


class TestVarIdentity:
    def test_exact_on_three_point(self):
        d = from_pairs([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        res = var_identity_check(d, lambda x: x * x)
        assert res["p"] == pytest.approx(0.5)
        assert res["lhs"] == pytest.approx(-0.25, rel=1e-14)
        assert res["rhs"] == pytest.approx(-0.25, rel=1e-14)
        assert res["err"] <= 1e-14

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_exact_on_random_laws(self, seed):
        rng = np.random.default_rng(seed)
        v = np.concatenate([[0.0], rng.uniform(-2, 2, size=5)])
        w = rng.uniform(0.05, 1.0, size=6)
        w /= w.sum()
        d = from_pairs(zip(v, w))
        res = var_identity_check(d, lambda x: np.abs(x) ** 1.5)
        assert res["err"] <= 1e-12 * max(1.0, abs(res["rhs"]))

    def test_needs_g_zero_at_zero(self):
        d = from_pairs([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        with pytest.raises(SelfNormError):
            var_identity_check(d, lambda x: x + 1.0)

    def test_hat_dist_drops_zero(self):
        d = from_pairs([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        h = hat_dist(d)
        assert h.n_atoms == 2
        assert np.allclose(h.masses, [0.5, 0.5])
        with pytest.raises(SelfNormError):
            hat_dist(from_pairs([(0.0, 1.0)]))


class TestStatistics:
    def test_zero_rows_are_zero(self):
        x = np.zeros((3, 4))
        for kind, kw in (("v", {}), ("vw", {"r": x}), ("vym", {"r": x})):
            out = selfnorm_stat(kind, x, **kw)
            assert np.all(out == 0.0)

    def test_v_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 5))
        out = selfnorm_stat("v", x)
        ref = x.sum(axis=1) / np.sqrt((x * x).sum(axis=1))
        assert np.allclose(out, ref, rtol=1e-14)

    def test_vhatsymm_ess_sup(self):
        # |sum x| / (sqrt(p) ||xhat||_2) <= sqrt(n / p) with equality
        # when all coordinates share one sign and magnitude
        n, p = 6, 0.4
        x = np.ones((1, n))
        out = selfnorm_stat("vhatsymm", x, hat_abs=np.abs(x), p=p)
        assert out[0] == pytest.approx(math.sqrt(n / p), rel=1e-14)

    @pytest.mark.parametrize("m", [1.0, 1.37])
    def test_vhatsymm_leaves_the_callers_hat_abs_alone(self, m):
        # the statistic raises its own copy of hat_abs to 2m in place
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 7))
        habs = np.abs(rng.normal(size=(50, 7)))
        before = habs.copy()
        out = selfnorm_stat("vhatsymm", x, hat_abs=habs, p=0.4, m=m)
        assert np.array_equal(habs, before)
        den = math.sqrt(0.4) * (habs ** (2.0 * m)).sum(axis=1) ** (1.0 / (2.0 * m))
        assert np.array_equal(out, x.sum(axis=1) / den)

    def test_unknown_kind_raises(self):
        with pytest.raises(SelfNormError):
            selfnorm_stat("bogus", np.zeros((1, 1)))
        with pytest.raises(SelfNormError):
            selfnorm_stat("v", np.zeros(3))
        with pytest.raises(SelfNormError):
            selfnorm_stat("vw", np.zeros((2, 2)))  # missing r


class TestBoundChecks:
    MC = McConfig(seed=42, n_paths=40_000, block=16_384)

    def test_vw_normal_bound(self):
        cfg = SelfNormConfig(base=ASYM3, n=8, kind="vw")
        rep = selfnorm_bound_check(cfg, self.MC)
        assert rep.all_ok
        assert rep.n_paths == 40_000
        assert all(r.bound <= 1.0 for r in rep.rows)

    def test_vym_asymmetric_bound(self):
        p = 0.25
        cfg = SelfNormConfig(base=ASYM3, n=8, kind="vym", m=m_star(p), p=p)
        rep = selfnorm_bound_check(cfg, self.MC)
        assert rep.all_ok

    def test_vsymm_symmetric_multipliers(self):
        p = 0.45
        cfg = SelfNormConfig(base=ASYM3, n=8, kind="vsymm", m=1.0, p=p)
        rep = selfnorm_bound_check(cfg, self.MC)
        assert rep.all_ok

    def test_vhatsymm_conditioned(self):
        base = from_pairs([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        cfg = SelfNormConfig(base=base, n=8, kind="vhatsymm", m=1.0, p=0.5)
        rep = selfnorm_bound_check(cfg, self.MC)
        assert rep.all_ok

    def test_vhatsymm_atoms_near_zero_count_as_zero(self):
        # on this law's scale the atoms at +-5e-10 are zero, for hat_dist
        # and for the simulated paths alike, so the counts match the law
        # that holds their mass at exactly 0
        near = from_pairs([(-1e3, 0.3), (-5e-10, 0.2), (5e-10, 0.2), (1e3, 0.3)])
        exact = from_pairs([(-1e3, 0.3), (0.0, 0.4), (1e3, 0.3)])
        mc = McConfig(seed=3, n_paths=20_000)
        near_rep, exact_rep = (
            selfnorm_bound_check(SelfNormConfig(base=b, n=4, kind="vhatsymm", p=0.7), mc)
            for b in (near, exact))
        assert [r.count for r in near_rep.rows] == [r.count for r in exact_rep.rows]
        assert exact_rep.rows[0].count > 0

    def test_deterministic_counts(self):
        cfg = SelfNormConfig(base=ASYM3, n=6, kind="vw")
        mc = McConfig(seed=9, n_paths=20_000, block=4_096)
        a = selfnorm_bound_check(cfg, mc)
        b = selfnorm_bound_check(cfg, mc)
        assert [r.count for r in a.rows] == [r.count for r in b.rows]


class TestGuards:
    def test_vym_rejects_excess_asymmetry(self):
        # asym3 has max asymmetry 3; p=0.4 allows only q/p = 1.5
        cfg = SelfNormConfig(base=ASYM3, n=4, kind="vym",
                             m=m_star(0.4), p=0.4)
        with pytest.raises(SelfNormError):
            selfnorm_bound_check(cfg, McConfig(n_paths=1000))

    def test_vym_rejects_m_below_threshold(self):
        cfg = SelfNormConfig(base=ASYM3, n=4, kind="vym", m=1.0, p=0.25)
        with pytest.raises(SelfNormError):
            selfnorm_bound_check(cfg, McConfig(n_paths=1000))

    def test_vsymm_rejects_small_p(self):
        cfg = SelfNormConfig(base=ASYM3, n=4, kind="vsymm", m=1.0,
                             p=SQRT2_MINUS_1 - 0.05)
        with pytest.raises(SelfNormError):
            selfnorm_bound_check(cfg, McConfig(n_paths=1000))

    def test_vsymm_rejects_m_not_one(self):
        cfg = SelfNormConfig(base=ASYM3, n=4, kind="vsymm", m=1.5, p=0.45)
        with pytest.raises(SelfNormError):
            selfnorm_bound_check(cfg, McConfig(n_paths=1000))

    def test_vhatsymm_rejects_asymmetric_base(self):
        cfg = SelfNormConfig(base=ASYM3, n=4, kind="vhatsymm", m=1.0, p=0.5)
        with pytest.raises(SelfNormError):
            selfnorm_bound_check(cfg, McConfig(n_paths=1000))

    def test_vhatsymm_rejects_p_below_nonzero_mass(self):
        base = from_pairs([(-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)])
        cfg = SelfNormConfig(base=base, n=4, kind="vhatsymm", m=1.0, p=0.45)
        with pytest.raises(SelfNormError):
            selfnorm_bound_check(cfg, McConfig(n_paths=1000))

    def test_map_rejects_nonzero_mean(self):
        with pytest.raises(SelfNormError):
            two_point_decomposition(from_pairs([(0.0, 0.5), (1.0, 0.5)]))


# ---------------------------------------------------------------------------
# the slice-table pairing against the masked value-level pairing
# ---------------------------------------------------------------------------

def masked_reciprocate(d: FiniteDist, x, u):
    """r(x, u) as computed before the slice table: split x by sign with
    masks, search each value back to its atom, scatter the partners."""
    scale_v = max(1.0, abs(d.min_value), abs(d.max_value))
    ztol = 1e-12 * scale_v
    v, w = d.values, d.masses
    pos, neg = v > ztol, v < -ztol
    pos_x = v[pos]
    pos_span = pos_x * w[pos]
    pos_h = np.cumsum(pos_span)
    order = np.argsort(-v[neg])
    neg_x = v[neg][order]
    neg_span = -neg_x * w[neg][order]
    neg_h = np.cumsum(neg_span)
    g_total = 0.5 * (float(pos_h[-1]) + float(neg_h[-1]))
    xa, ua = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(u, dtype=float))
    out = np.zeros(xa.shape)
    px, nx = xa > ztol, xa < -ztol
    if np.any(px):
        idx = np.searchsorted(pos_x, xa[px], side="left")
        h = np.clip(pos_h[idx] - pos_span[idx] + ua[px] * pos_span[idx], 0.0, g_total)
        out[px] = neg_x[np.minimum(np.searchsorted(neg_h, h, side="left"), neg_h.size - 1)]
    if np.any(nx):
        idx = np.searchsorted(-neg_x, -xa[nx], side="left")
        h = np.clip(neg_h[idx] - neg_span[idx] + ua[nx] * neg_span[idx], 0.0, g_total)
        out[nx] = pos_x[np.minimum(np.searchsorted(pos_h, h, side="left"), pos_h.size - 1)]
    return out


@hst.composite
def zero_mean_laws(draw):
    """2-8 atoms on both sides of zero, sometimes one at zero, with the
    positive masses rescaled so that the mean is zero."""
    n_neg = draw(hst.integers(1, 4))
    n_pos = draw(hst.integers(1, 4))
    with_zero = draw(hst.booleans()) and n_neg + n_pos < 8
    mag = hst.floats(0.05, 5.0)
    mass = hst.floats(0.01, 1.0)
    neg = -np.array(draw(hst.lists(mag, min_size=n_neg, max_size=n_neg, unique=True)))
    pos = np.array(draw(hst.lists(mag, min_size=n_pos, max_size=n_pos, unique=True)))
    wn = np.array(draw(hst.lists(mass, min_size=n_neg, max_size=n_neg)))
    wp = np.array(draw(hst.lists(mass, min_size=n_pos, max_size=n_pos)))
    wp *= float(np.dot(wn, -neg)) / float(np.dot(wp, pos))
    w0 = draw(mass) if with_zero else 0.0
    total = wn.sum() + wp.sum() + w0
    pairs = list(zip(np.concatenate((neg, pos)), np.concatenate((wn, wp)) / total))
    if with_zero:
        pairs.append((0.0, w0 / total))
    return from_pairs(pairs)


U_EDGES = [0.0, 1.0 - 2.0 ** -53]


class TestSliceTablePairing:
    @given(d=zero_mean_laws(), us=hst.lists(hst.sampled_from(U_EDGES) | hst.floats(0.0, 1.0,
                                                                                  exclude_max=True),
                                            min_size=1, max_size=12),
           seed=hst.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_masked_pairing(self, d, us, seed):
        try:
            rm = ReciprocatingMap(d)
        except SelfNormError:
            return  # the rescaled masses missed zero mean by more than 1e-12
        rng = np.random.default_rng(seed)
        x = rng.choice(np.concatenate((d.values, [0.0])), size=(3, len(us)))
        u = np.broadcast_to(np.asarray(us), x.shape)
        got = rm.reciprocate(x, u)
        assert np.array_equal(got, masked_reciprocate(d, x, u))
        for xi, ui in zip(x[0], us):
            assert rm.reciprocate(float(xi), float(ui)) == masked_reciprocate(d, xi, ui)

    def test_bit_equal_on_a_long_law(self):
        # a 50-atom law: dozens of harvest levels and slices
        rng = np.random.default_rng(4)
        neg, pos = -rng.uniform(0.1, 3.0, 25), rng.uniform(0.1, 3.0, 25)
        wn, wp = rng.uniform(0.1, 1.0, 25), rng.uniform(0.1, 1.0, 25)
        wp *= float(np.dot(wn, -neg)) / float(np.dot(wp, pos))
        total = wn.sum() + wp.sum()
        d = from_pairs(zip(np.concatenate((neg, pos)), np.concatenate((wn, wp)) / total))
        rm = ReciprocatingMap(d)
        x = rng.choice(d.values, size=(200, 7))
        u = rng.random((200, 7))
        u[0] = U_EDGES[0]
        u[1] = U_EDGES[1]
        assert np.array_equal(rm.reciprocate(x, u), masked_reciprocate(d, x, u))

    def test_outside_support_raises(self):
        rm = ReciprocatingMap(ASYM3)
        with pytest.raises(SelfNormError):
            rm.reciprocate(3.5, 0.5)
        with pytest.raises(SelfNormError):
            rm.reciprocate(-1.5, 0.5)


class TestSampledBlocks:
    """The checks draw atom indices and pair them through the slice
    table; their counts must not move from the value-level simulation
    (`sample`, masked pairing), nor with the thread count."""

    # rows frozen from the value-level implementation (sample, masked
    # pairing, out-of-place statistics)
    FROZEN = {
        "vym": [(7532, 0.3686295852569684), (4181, 0.20239405307559125),
                (2178, 0.10382833401459841), (1158, 0.054120720157915726),
                (585, 0.026546340633117168), (194, 0.00815986802692408)],
        "vsymm": [(6326, 0.3086622694040404), (3125, 0.15032060427671787),
                  (1246, 0.05838587109999739), (377, 0.016683188298276176),
                  (87, 0.0033406692487458144), (5, 6.395965486278428e-05)],
        "vhatsymm": [(7903, 0.3871043743654771), (3964, 0.19167756013106282),
                     (1477, 0.06960746468886354), (398, 0.0176727495006008),
                     (65, 0.0023872474755905686), (6, 8.927139916815099e-05)],
    }

    @staticmethod
    def _cfg(kind, n=6):
        if kind == "vw":
            return SelfNormConfig(base=ASYM3, n=n, kind="vw")
        if kind == "vym":
            return SelfNormConfig(base=ASYM3, n=n, kind="vym", m=m_star(0.25), p=0.25)
        if kind == "vsymm":
            sym = from_pairs([(-2.0, 0.2), (-0.5, 0.3), (0.5, 0.3), (2.0, 0.2)])
            return SelfNormConfig(base=sym, n=n, kind="vsymm", p=0.45)
        base = from_pairs([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        return SelfNormConfig(base=base, n=n, kind="vhatsymm", p=0.5)

    @pytest.mark.parametrize("kind", sorted(FROZEN))
    def test_report_frozen(self, kind):
        rep = selfnorm_bound_check(self._cfg(kind),
                                   McConfig(seed=9, n_paths=20_000, block=4_096))
        assert [(r.count, r.cp_lower) for r in rep.rows] == self.FROZEN[kind]
        assert [r.margin for r in rep.rows] == [r.bound - r.cp_lower for r in rep.rows]

    @pytest.mark.parametrize("kind", ["vw", "vym", "vsymm", "vhatsymm"])
    def test_counts_independent_of_thread_split(self, kind, monkeypatch):
        mc = McConfig(seed=11, n_paths=20_000, block=4_096)
        reps = []
        for threads in (1, 2, 4):
            monkeypatch.setenv("ASYMTAIL_THREADS", str(threads))
            reps.append(selfnorm_bound_check(self._cfg(kind), mc))
        rows = [[(r.count, r.cp_lower) for r in rep.rows] for rep in reps]
        assert rows[0] == rows[1] == rows[2]
        assert [(rep.seed, rep.blocks, rep.workers) for rep in reps] == [
            (11, 5, 1), (11, 5, 2), (11, 5, 4)]

    def test_one_block_reports_one_worker(self, monkeypatch):
        monkeypatch.setenv("ASYMTAIL_THREADS", "4")
        rep = selfnorm_bound_check(self._cfg("vw"), McConfig(seed=1, n_paths=1_000))
        assert (rep.blocks, rep.workers) == (1, 1)

    def test_two_blocks_in_flight_stay_small(self, monkeypatch):
        # each block holds at most three (paths, n) arrays at once: 7.5 MiB
        # at 32768 x 10, so two threads stay under 24 MiB (the masked
        # value-level block code peaked at 36 MiB on two threads)
        monkeypatch.setenv("ASYMTAIL_THREADS", "2")
        cfg = self._cfg("vw", n=10)
        mc = McConfig(seed=2, n_paths=4 * 32_768, block=32_768)
        tracemalloc.start()
        try:
            rep = selfnorm_bound_check(cfg, mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.workers == 2
        assert peak <= 24 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
