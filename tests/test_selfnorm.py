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

from asymtail import selfnorm
from asymtail.bounds import b_opt, carrier_sum, normal_tail
from asymtail.dist import (FiniteDist, RngSpec, _uniforms, delta, from_pairs, iid_sum, scale,
                           st)
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
from asymtail.thresholds import SQRT2_MINUS_1, c_const, m_star
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

    def test_a_law_at_zero_has_no_component(self):
        assert two_point_decomposition(delta(0.0)) == TwoPointDecomposition(components=(),
                                                                            zero_mass=1.0)


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


# ---------------------------------------------------------------------------
# row sums as column adds, against numpy's per-row reduction
# ---------------------------------------------------------------------------

def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


# every kind of double: signed zeros, infinities, NaNs, subnormals, and
# magnitudes far apart, so that the order of the adds shows in the bits
NASTY = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308,
         1e308, -1e308, 1.0, -1.0, 1e16, -1e16, 3.0, 1e-300]
ENTRY = (hst.sampled_from(NASTY) | hst.floats(allow_nan=True, allow_infinity=True)
         | hst.floats(-1e3, 1e3))


def _row_blocks(n: int, rows: int, seed: int) -> np.ndarray:
    """Mixed magnitudes with both signs, some signed zeros and a NaN."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-12, 12, (rows, n))
    a.ravel()[rng.integers(0, a.size, 3)] = [0.0, -0.0, np.nan]
    a[0] = -0.0
    return a


def _same_sums(re, im):
    """Whether `_part_sums` of re + 1j im gives re.sum(axis=1) and
    im.sum(axis=1), as two C-contiguous arrays, bit for bit.

    A NaN sum only has to be a NaN: where two NaNs meet, the one that
    comes out is the first operand's, and which operand is first inside
    numpy's loop is its compiler's choice (numpy 2.4 on x86-64 adds
    r3 + r2 where its source says r2 + r3)."""
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    with np.errstate(all="ignore"):
        got = selfnorm._part_sums(z)
        wants = re.sum(axis=1), im.sum(axis=1)
    for part, want in zip(got, wants):
        assert part.flags.c_contiguous
        nan = np.isnan(want)
        if not (np.array_equal(np.isnan(part), nan)
                and np.array_equal(_bits(part)[~nan], _bits(want)[~nan])):
            return False
    return True


class TestRowSums:
    """The row sums of a tile at every width and shape it meets: each part
    of `_part_sums` is `part.sum(axis=1)` of a C-contiguous array, bit for
    bit, with the rows of a in the real part and a's rows reversed in the
    imaginary part.

    It adds whole columns for fewer than 16 columns and at least 32 rows
    per column, and reduces row by row otherwise, so the arrays here have
    32 n rows below 16 columns."""

    @staticmethod
    def _same(a):
        return _same_sums(a, a[::-1].copy())

    @given(data=hst.data(), n=hst.integers(1, 20), distinct=hst.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_the_reduction(self, data, n, distinct):
        flat = data.draw(hst.lists(ENTRY, min_size=n * distinct, max_size=n * distinct))
        rows = np.array(flat, dtype=float).reshape(distinct, n)
        assert self._same(np.tile(rows, (32 * n // distinct + 1, 1)))

    @pytest.mark.parametrize("n", [*range(1, 301), 8191, 8192, 8193, 40_000])
    def test_bit_equal_at_every_width(self, n):
        assert self._same(_row_blocks(n, 32 * n if n < 16 else 3, n))

    def test_one_row_is_the_reduction_itself(self):
        a = np.array([[np.nan, -np.nan, 1.0]])
        z = a + 0j
        z.imag = a[:, ::-1]
        re, im = selfnorm._part_sums(z)
        assert _bits(re) == _bits(a.sum(axis=1))
        assert _bits(im) == _bits(a[:, ::-1].sum(axis=1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 10, 12, 15, 16, 17, 40, 129])
    def test_bit_equal_on_the_rows_of_a_tile(self, n):
        # the tiles' own shape: max(1, _TILE // n) rows, C-contiguous,
        # read as a leading slice of a tile buffer as the blocks read it
        rows = max(1, selfnorm._TILE // n)
        buf = _row_blocks(n, rows, 7)
        for t in (rows, rows - 1, 1):
            assert self._same(buf[:t])

    @pytest.mark.parametrize("n", [8, 10, 15, 40])
    def test_fortran_order_sums_in_sequence(self, n):
        # numpy reduces a Fortran-ordered array's rows column by column, in
        # sequence, so from 8 columns on its last bits differ from the
        # pairwise sum of the same rows in C order; selfnorm_stat makes the
        # sample C-contiguous first, so its statistic is the C-order one
        c = _row_blocks(n, 500, 3)
        f = np.asfortranarray(c)
        seq = np.zeros(c.shape[0])
        for i in range(n):
            seq += c[:, i]
        assert np.array_equal(_bits(f.sum(axis=1)), _bits(seq))
        assert not np.array_equal(_bits(f.sum(axis=1)), _bits(c.sum(axis=1)))
        assert self._same(c)
        clean = np.nan_to_num(c)
        assert np.array_equal(_bits(selfnorm_stat("v", np.asfortranarray(clean))),
                              _bits(selfnorm_stat("v", clean)))


class TestPartSums:
    """`_part_sums` of a complex array is `part.sum(axis=1)` of its real
    and its imaginary part, bit for bit, as two C-contiguous arrays."""

    @given(data=hst.data(), n=hst.integers(1, 20), distinct=hst.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_each_part_summed(self, data, n, distinct):
        flat = data.draw(hst.lists(ENTRY, min_size=2 * n * distinct, max_size=2 * n * distinct))
        re, im = np.array(flat, dtype=float).reshape(2, distinct, n)
        rows = (32 * n // distinct + 1, 1)
        assert _same_sums(np.tile(re, rows), np.tile(im, rows))

    @pytest.mark.parametrize("n", [*range(1, 41), 129, 8193])
    def test_bit_equal_at_every_width(self, n):
        rows = 32 * n if n < 16 else 3
        assert _same_sums(_row_blocks(n, rows, n), _row_blocks(n, rows, n + 1))
        # few rows per column: both parts go to the reduction
        assert _same_sums(_row_blocks(n, 5, n), _row_blocks(n, 5, n + 1))


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
    @pytest.mark.parametrize("n", [4.0, 4.5, True], ids=["float", "fraction", "bool"])
    def test_n_must_be_an_integer(self, n):
        cfg = SelfNormConfig(base=ASYM3, n=n, kind="vw")
        with pytest.raises(SelfNormError, match="n must be an integer"):
            selfnorm_bound_check(cfg, McConfig(n_paths=1000))

    def test_numpy_integer_n_runs_as_its_int(self):
        mc = McConfig(seed=5, n_paths=3_000, block=1_000)
        rows = [selfnorm_bound_check(SelfNormConfig(base=ASYM3, n=n, kind="vw"), mc).rows
                for n in (np.int64(4), 4)]
        assert rows[0] == rows[1]

    def test_vym_rejects_excess_asymmetry(self):
        # asym3 has max asymmetry 3; p=0.4 allows only q/p = 1.5
        cfg = SelfNormConfig(base=ASYM3, n=4, kind="vym",
                             m=m_star(0.4), p=0.4)
        with pytest.raises(SelfNormError):
            selfnorm_bound_check(cfg, McConfig(n_paths=1000))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x_grid_before_any_bound(self, x, monkeypatch):
        def no_curve(cfg, xs):
            raise AssertionError("the bound curve was built before the x grid was checked")
        monkeypatch.setattr(selfnorm, "_bound_curve", no_curve)
        cfg = SelfNormConfig(base=ASYM3, n=4, kind="vym", m=m_star(0.25), p=0.25,
                             x_grid=(1.0, x))
        with pytest.raises(SelfNormError, match="x_grid must be finite"):
            selfnorm_bound_check(cfg, McConfig(n_paths=1000))

    @pytest.mark.parametrize("kind,kwargs", [("vw", {}), ("vym", {"m": m_star(0.25), "p": 0.25})],
                             ids=["vw", "vym"])
    @pytest.mark.parametrize("x_grid", [(), ((1.0,), (2.0,)), ((1.0,), (1.0, 2.0)), ("a",)],
                             ids=["empty", "2d", "ragged", "text"])
    def test_rejects_an_x_grid_before_any_path(self, kind, kwargs, x_grid, monkeypatch):
        # an empty grid simulated the paths and passed with no row
        def refuse(*args, **kwargs):
            raise AssertionError("paths simulated")
        monkeypatch.setattr(selfnorm, "tail_counts", refuse)
        cfg = SelfNormConfig(base=ASYM3, n=3, kind=kind, x_grid=x_grid, **kwargs)
        with pytest.raises(SelfNormError, match="x_grid must be a 1-d sequence of one or more"):
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

    def test_vw_rejects_m_not_one(self):
        cfg = SelfNormConfig(base=ASYM3, n=4, kind="vw", m=1.5)
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


@pytest.mark.parametrize("call,match", [
    (lambda: selfnorm_stat("vsymm", np.ones((3, 2))), "vsymm needs the symmetric multipliers"),
    (lambda: selfnorm_stat("vhatsymm", np.ones((3, 2)), hat_abs=np.ones((3, 2))),
     "vhatsymm needs hat_abs and p"),
    (lambda: selfnorm_bound_check(SelfNormConfig(base=ASYM3, n=3, kind="w"),
                                  McConfig(n_paths=1000)), "unknown check kind 'w'"),
    (lambda: hat_dist(delta(0.0)), "law is concentrated at zero"),
], ids=["vsymm", "vhatsymm", "check_kind", "hat_of_zero"])
def test_inputs_out_of_domain_raise(call, match):
    with pytest.raises(SelfNormError, match=match):
        call()


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

    @given(d=zero_mean_laws() | hst.sampled_from([ASYM3, SYMM5]),
           us=hst.lists(hst.sampled_from(U_EDGES) | hst.floats(0.0, 1.0, exclude_max=True),
                        min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_reachable_pairs_hold_every_pair_a_draw_meets(self, d, us):
        # the one pair table: each (atom, u) lands in its atom's own run,
        # on the partner of the masked pairing
        try:
            rm = ReciprocatingMap(d)
        except SelfNormError:
            return
        k = d.values.size
        size = rm._pair_atom.size
        assert rm._pair_partner.size == size <= k + 2 * (rm.levels.size + 1)
        j = np.repeat(np.arange(k), len(us) + len(U_EDGES))
        u = np.tile(np.asarray(us + U_EDGES, dtype=float), k)
        idx = rm._slice_index(j, u)
        assert ((idx >= 0) & (idx < size)).all()
        assert np.array_equal(rm._pair_atom[idx], j)
        assert np.array_equal(rm._pair_partner[idx], masked_reciprocate(d, d.values[j], u))

    @given(d=zero_mean_laws() | hst.sampled_from([ASYM3, SYMM5]),
           seed=hst.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_pair_guide_reads_the_slice_index(self, guide_reads_index, d, seed):
        # the pair guide is a guide table of _slice_index, a row per atom
        try:
            rm = ReciprocatingMap(d)
        except SelfNormError:
            return
        assert rm._pairs.index == rm._slice_index
        raw = np.random.default_rng(seed).integers(0, 2 ** 64, 256, dtype=np.uint64,
                                                   endpoint=False)
        guide_reads_index(rm._pairs, d.values.size, rm._pair_atom.size, raw)

    @pytest.mark.parametrize("law", ["ZERO4", "MANY_SLICES", "MANY_ATOMS"])
    def test_pair_guides_of_the_tile_laws_read_the_slice_index(self, guide_reads_index, law):
        # the laws are defined below, with the tile tests
        d = globals()[law]
        rm = ReciprocatingMap(d)
        raw = np.random.default_rng(d.values.size).integers(0, 2 ** 64, 64, dtype=np.uint64,
                                                            endpoint=False)
        guide_reads_index(rm._pairs, d.values.size, rm._pair_atom.size, raw)

    @given(d=zero_mean_laws() | hst.sampled_from([ASYM3, SYMM5]),
           kind=hst.sampled_from(["vw", "vym"]), m=hst.sampled_from([1.0, 1.37]),
           seed=hst.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_value_term_tables_read_the_pair_index(self, d, kind, m, seed):
        # each pair's atom value and term, as the kind's term ufuncs give
        # them; a tile's read, the pair guide and then one take of the
        # table, is the table at the _slice_index of the uniforms that the
        # PCG64 outputs make
        try:
            rm = ReciprocatingMap(d)
        except SelfNormError:
            return
        by_pair = selfnorm._pair_table(rm, kind, m)
        x = d.values[rm._pair_atom]
        term = selfnorm._PAIRED[kind][0](x, rm._pair_partner.copy(), m)
        assert np.array_equal(by_pair.real.view(np.int64), x.view(np.int64))
        assert np.array_equal(by_pair.imag.view(np.int64), term.view(np.int64))
        k = d.values.size
        raw = np.random.default_rng(seed).integers(0, 2 ** 64, (k, 300), dtype=np.uint64,
                                                   endpoint=False)
        j = np.repeat(np.arange(k), 300).reshape(raw.shape)
        want = by_pair[rm._slice_index(j, _uniforms(raw))]
        got = by_pair.take(rm._pairs.from_bits(raw, np.empty(raw.shape, np.intp), j.copy()))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_pair_guide_grows_with_the_pairs(self):
        # 2000 atoms and about 6000 pairs: 32 buckets per atom, 64000 in
        # all, where 2048 per atom would be 4 million
        rm = ReciprocatingMap(MANY_ATOMS)
        pairs = rm._pair_atom.size
        table = rm._pairs._table
        assert max(4096, 8 * pairs) <= table.size < 2 * max(4096, 8 * pairs)
        assert table.size == MANY_ATOMS.values.size << rm._pairs._bits
        # few draws miss: about one bucket per harvest level and side
        assert np.count_nonzero(table < 0) <= 2 * (rm.levels.size + 1)

    @pytest.mark.parametrize("u", [1.0, -0.25, np.nan, np.inf])
    def test_uniform_outside_the_unit_interval_raises(self, u):
        rm = ReciprocatingMap(ASYM3)
        with pytest.raises(SelfNormError):
            rm.reciprocate(1.0, u)
        with pytest.raises(SelfNormError):
            rm.reciprocate(np.array([1.0, -1.0]), np.array([0.5, u]))

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
    # pairing, out-of-place statistics); counts exactly, and the limits,
    # frozen from scipy's betaincinv, to 1e-12 relative
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
        assert [r.count for r in rep.rows] == [k for k, _ in self.FROZEN[kind]]
        assert [r.cp_lower for r in rep.rows] == pytest.approx(
            [c for _, c in self.FROZEN[kind]], rel=1e-12, abs=0.0)
        assert [r.margin for r in rep.rows] == [r.bound - r.cp_lower for r in rep.rows]

    @pytest.mark.parametrize("kind,name", [("vw", "normal"), ("vym", "b_opt"),
                                           ("vsymm", "b_opt"), ("vhatsymm", "b_opt")])
    def test_rows_name_their_bound_curve(self, kind, name):
        rep = selfnorm_bound_check(self._cfg(kind), McConfig(seed=1, n_paths=2_000))
        assert [r.bound_name for r in rep.rows] == [name] * 6

    @pytest.mark.parametrize("kind", ["vw", "vym", "vsymm", "vhatsymm"])
    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_rows_carry_their_bound_curve_bit_for_bit(self, kind, n):
        cfg = self._cfg(kind, n)
        xs = np.linspace(0.5, 3.0, 6)
        if kind == "vw":
            want = [min(1.0, c_const(5, 0) * normal_tail(float(x))) for x in xs]
        elif kind == "vym":
            want = b_opt(carrier_sum(cfg.p, n, n ** (-1.0 / (2.0 * cfg.m))), xs).value
        else:
            want = b_opt(scale(iid_sum(st(cfg.p), n), n ** -0.5), xs).value
        rep = selfnorm_bound_check(cfg, McConfig(seed=1, n_paths=1_000))
        assert [r.bound for r in rep.rows] == list(want)

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
        # a block holds its (paths,) statistic, one tile's index and
        # complex arrays and the draws of the phase it reads, 32 bytes a
        # coordinate for 2^15 coordinates: about 1.3 MiB, so two threads
        # stay under 4 MiB
        # (blocks that built whole (paths, n) arrays peaked at 16-17 MiB);
        # a small check first, so that the lazy imports and caches of a
        # first check are not counted
        monkeypatch.setenv("ASYMTAIL_THREADS", "2")
        mc = McConfig(seed=2, n_paths=4 * 32_768, block=32_768)
        for kind in ("vw", "vym", "vsymm", "vhatsymm"):
            cfg = self._cfg(kind, n=10)
            selfnorm_bound_check(cfg, McConfig(seed=1, n_paths=1_000))
            tracemalloc.start()
            try:
                rep = selfnorm_bound_check(cfg, mc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.workers == 2
            assert peak <= 4 * 2 ** 20, f"{kind}: peak {peak / 2 ** 20:.1f} MiB"

    @pytest.mark.parametrize("kind", ["vw", "vym"])
    def test_a_many_atom_law_stays_small(self, kind, monkeypatch):
        # 2000 atoms, 2001 slices: the vw and vym term tables hold about
        # 6000 (atom, slice) pairs, where a row of slices per atom would be
        # 4 million doubles (31 MiB); a check peaks at about 1.3 MiB
        monkeypatch.setenv("ASYMTAIL_THREADS", "1")
        cfg = (SelfNormConfig(base=MANY_ATOMS, n=10, kind="vw") if kind == "vw" else
               SelfNormConfig(base=MANY_ATOMS, n=10, kind="vym", m=m_star(0.2), p=0.2))
        selfnorm_bound_check(dataclasses.replace(cfg, base=MANY_SLICES), McConfig(seed=1, n_paths=1_000))
        tracemalloc.start()
        try:
            rep = selfnorm_bound_check(cfg, McConfig(seed=2, n_paths=4_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_paths == 4_000
        assert peak <= 4 * 2 ** 20, f"{kind}: peak {peak / 2 ** 20:.1f} MiB"


# ---------------------------------------------------------------------------
# tiled blocks against the whole-block simulation
# ---------------------------------------------------------------------------

def _whole_block_simulator(cfg, rm, hat):
    """The block simulator as it was before tiling: every (size, n) array
    at once, the second phase read from rng after the first."""
    def vw(x, r):
        w = x - r
        w *= w
        return selfnorm._safe_ratio(x.sum(axis=1), 0.5 * np.sqrt(w.sum(axis=1)))

    def vym(x, r):
        y = x * r
        np.abs(y, out=y)
        y **= cfg.m
        return selfnorm._safe_ratio(x.sum(axis=1), y.sum(axis=1) ** (1.0 / (2.0 * cfg.m)))

    def vsymm(x, multipliers):
        t = multipliers * x
        num = t.sum(axis=1)
        np.abs(x, out=t)
        t **= 2.0 * cfg.m
        return selfnorm._safe_ratio(num, t.sum(axis=1) ** (1.0 / (2.0 * cfg.m)))

    def vhatsymm(x, hat_abs):
        hat_abs **= 2.0 * cfg.m
        return selfnorm._safe_ratio(
            x.sum(axis=1), math.sqrt(cfg.p) * hat_abs.sum(axis=1) ** (1.0 / (2.0 * cfg.m)))

    def draw(law, u):
        return law.values.take(np.searchsorted(np.cumsum(law.masses)[:-1], u, "right"))

    if rm is not None:
        stat = vw if cfg.kind == "vw" else vym

        def simulate(rng, size):
            u = rng.random((size, cfg.n))
            x = draw(cfg.base, u)
            rng.random(out=u)
            return stat(x, rm.reciprocate(x, u)), None
    elif cfg.kind == "vsymm":
        def simulate(rng, size):
            u = rng.random((size, cfg.n))
            x = draw(cfg.base, u)
            rng.random(out=u)
            return vsymm(x, draw(st(cfg.p), u)), None
    else:
        def simulate(rng, size):
            x = draw(cfg.base, rng.random((size, cfg.n)))
            habs = np.abs(x)
            zeros = habs <= selfnorm._zero_tol(cfg.base)
            if np.any(zeros):
                habs[zeros] = np.abs(draw(hat, rng.random(int(np.sum(zeros)))))
            return vhatsymm(x, habs), None
    return simulate


# zero-mean, with an atom at zero and a slice split on both sides
ZERO4 = from_pairs([(-1.5, 0.2), (-0.5, 0.3), (0.0, 0.2), (1.0, 0.15), (2.0, 0.15)])
SYM_ZERO = from_pairs([(-2.0, 0.15), (-0.5, 0.2), (0.0, 0.3), (0.5, 0.2), (2.0, 0.15)])


def _many_slices():
    """Zero-mean, four negative atoms, an atom at zero and three positive
    atoms: the harvest levels cut it into 8 slices."""
    neg, wn = np.array([-2.0, -1.2, -0.7, -0.3]), np.array([0.1, 0.15, 0.1, 0.12])
    pos, wp = np.array([0.4, 1.1, 2.5]), np.array([0.2, 0.1, 0.08])
    wp *= (wn @ -neg) / (wp @ pos)
    total = wn.sum() + wp.sum() + 0.1
    return from_pairs(zip(np.r_[neg, 0.0, pos], np.r_[wn, 0.1, wp] / total))


MANY_SLICES = _many_slices()


def _many_atoms(k, seed=0):
    """Zero-mean, k atoms with |x| in [0.5, 2], half on each side: about
    k harvest slices, and no two-point component more asymmetric than 4."""
    rng = np.random.default_rng(seed)
    neg = -np.sort(rng.uniform(0.5, 2.0, k // 2))
    pos = np.sort(rng.uniform(0.5, 2.0, k - k // 2))
    wn, wp = rng.uniform(1.0, 2.0, neg.size), rng.uniform(1.0, 2.0, pos.size)
    wp *= (wn @ -neg) / (wp @ pos)
    total = wn.sum() + wp.sum()
    return from_pairs(zip(np.r_[neg, pos], np.r_[wn, wp] / total))


MANY_ATOMS = _many_atoms(2000)
TILE_CFGS = {
    "vw": lambda n: SelfNormConfig(base=ZERO4, n=n, kind="vw"),
    "vym": lambda n: SelfNormConfig(base=ZERO4, n=n, kind="vym", m=m_star(0.25), p=0.25),
    # a law of 8 slices, and m is not an integer
    "vym_many_slices": lambda n: SelfNormConfig(base=MANY_SLICES, n=n, kind="vym", m=1.37,
                                                p=0.2),
    "vsymm": lambda n: SelfNormConfig(base=SYM_ZERO, n=n, kind="vsymm", p=0.8),
    "vhatsymm": lambda n: SelfNormConfig(base=SYM_ZERO, n=n, kind="vhatsymm", p=0.7),
}


def _simulators(cfg):
    rm = ReciprocatingMap(cfg.base) if cfg.kind in ("vw", "vym") else None
    hat = hat_dist(cfg.base) if cfg.kind == "vhatsymm" else None
    return (selfnorm._block_simulator(cfg, rm, hat), _whole_block_simulator(cfg, rm, hat))


def _tile_sizes(n):
    rows = max(1, selfnorm._TILE // n)
    if rows == 1:
        return [1, 2, 3]   # 32768 paths of over 2^15 coordinates are too many here
    return sorted({1, rows - 1, rows, rows + 1, 32_768, 40_000})


class TestTiledBlocks:
    """Tiles read the same uniforms as the whole-block simulation, and
    each row's statistic depends on that row alone, so the statistic is
    the same bit for bit at any tile boundary."""

    def test_many_slices_law_has_six_or_more_slices(self):
        assert ReciprocatingMap(MANY_SLICES).levels.size + 1 >= 6

    @pytest.mark.parametrize("kind", sorted(TILE_CFGS))
    @pytest.mark.parametrize("n", [1, 4, 10, 40_000])
    def test_statistic_bytes_match_the_whole_block(self, kind, n):
        tiled, whole = _simulators(TILE_CFGS[kind](n))
        for size in _tile_sizes(n):
            for seed in (1, 2, 3):
                got, _ = tiled(RngSpec(seed, 5).generator(), size)
                want, _ = whole(RngSpec(seed, 5).generator(), size)
                assert got.tobytes() == want.tobytes(), (size, seed)

    @pytest.mark.parametrize("kind", sorted(TILE_CFGS))
    def test_tiles_leave_the_block_generator_after_the_first_phase(self, kind):
        # the second phase reads a copy, so rng has drawn size * n doubles
        tiled, _ = _simulators(TILE_CFGS[kind](4))
        rng = RngSpec(8, 1).generator()
        tiled(rng, 10_000)
        ref = RngSpec(8, 1).generator()
        ref.random(40_000)
        assert rng.random(5).tobytes() == ref.random(5).tobytes()

    @pytest.mark.parametrize("kind,arg", [("vw", "r"), ("vym", "r"), ("vsymm", "multipliers")])
    def test_stat_leaves_the_callers_arrays_alone(self, kind, arg):
        # the helpers overwrite their second argument; selfnorm_stat
        # passes them a copy, broadcast to the sample's shape
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 5))
        second = rng.normal(size=(40, 5))
        before = second.copy()
        out = selfnorm_stat(kind, x, m=1.3, **{arg: second})
        assert np.array_equal(second, before)
        row = selfnorm_stat(kind, x, m=1.3, **{arg: second[0]})
        assert np.array_equal(row, selfnorm_stat(kind, x, m=1.3, **{arg: np.tile(second[0], (40, 1))}))
        assert out.shape == row.shape == (40,)
