"""Exact distribution arithmetic against brute-force enumeration."""
import functools
import itertools
import json
import math
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from asymtail.dist import (
    MASS_ATOL,
    MIN_MASS,
    DistError,
    FiniteDist,
    RngSpec,
    atom_band,
    bs,
    delta,
    from_pairs,
    iid_sum,
    sample,
    scale,
    st,
    tail,
    weighted_bs_sum,
)
from asymtail.dist import (
    MERGE_RTOL,
    _advanced,
    _bs_sum,
    _canonicalize,
    _atom_guide,
    _GuideTable,
    _uniforms,
    _normal_products,
    _power_sum,
    _shifted_suffix_moments,
)
from asymtail.bounds import carrier_sum
from asymtail.majorant import (
    LatticeError,
    _lattice_tails,
    _step,
    lattice_params,
    lc_majorant,
    lin_lc_majorant,
)
from asymtail.verifier import enumeration_check


def atoms(d):
    return list(zip(d.values.tolist(), d.masses.tolist()))


def moment(d, k):
    return math.fsum(d.masses * d.values ** k)


def var(d):
    return math.fsum(d.masses * (d.values - d.mean()) ** 2)


def brute_weighted_sum(p, coeffs):
    """2^n enumeration of sum c_i BS_i, the slow reference."""
    base = bs(p)
    acc = {}
    for signs in itertools.product(range(2), repeat=len(coeffs)):
        v = sum(c * base.values[s] for c, s in zip(coeffs, signs))
        w = math.prod(base.masses[s] for s in signs)
        acc[round(v, 9)] = acc.get(round(v, 9), 0.0) + w
    return sorted(acc.items())


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("coeffs", [
    (1.0, 1.0),
    (1.0, 2.0, 0.5),
    (0.3, 0.7, 1.1, 1.9),
    (1.0,) * 10,
])
def test_weighted_bs_sum_matches_bruteforce(p, coeffs):
    d = weighted_bs_sum(p, coeffs)
    ref = brute_weighted_sum(p, coeffs)
    got = {round(v, 9): m for v, m in atoms(d)}
    assert len(got) == len(ref)
    for v, w in ref:
        assert got[v] == pytest.approx(w, rel=1e-12, abs=1e-15)


def convolve(d1, d2):
    """Law of the sum of independent draws from d1 and d2: the outer sums
    and products, sorted and merged by the constructor.  The reference
    that weighted_bs_sum equals bit for bit and that iid sums approach."""
    v = np.add.outer(d1.values, d2.values).ravel()
    m = np.multiply.outer(d1.masses, d2.masses).ravel()
    return FiniteDist(v, m)


def convolve_fold(p, coeffs):
    """weighted_bs_sum as a fold of validated laws, one convolve per term."""
    base = bs(p)
    out = scale(base, coeffs[0])
    for c in coeffs[1:]:
        out = convolve(out, scale(base, c))
    return out


def _assert_bit_equal(d, ref):
    assert np.array_equal(d.values, ref.values)
    assert np.array_equal(d.masses, ref.masses)


def test_weighted_bs_sum_equals_the_convolve_fold_on_random_laws():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        coeffs = rng.uniform(0.0, 3.0, n)
        if rng.random() < 0.3:
            coeffs = np.round(coeffs, 1)  # repeated values make atoms merge
        if rng.random() < 0.1:
            coeffs[rng.integers(n)] = 0.0
        p = float(rng.uniform(0.005, 0.995))
        _assert_bit_equal(weighted_bs_sum(p, coeffs), convolve_fold(p, coeffs))


@pytest.mark.parametrize("p,coeffs", [
    (0.3, [1e-14, 1.0]),     # the first term's two atoms merge
    (0.5, [0.0, 0.0]),
    *((0.3, [1.0] * n) for n in (2, 5, 13, 24)),
    # ties between the two runs of each outer sum, which a stable sort must
    # keep in the atom-major order
    (0.5, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    (0.5, [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),
    (0.3, [0.7] * 8 + [1.4] * 8),
    # a term's two atoms lost in the rounding of the larger atoms
    (0.3, [1e20, 1e-3, 1e-3, 2e-3]),
])
def test_weighted_bs_sum_equals_the_convolve_fold(p, coeffs):
    _assert_bit_equal(weighted_bs_sum(p, coeffs), convolve_fold(p, coeffs))


def test_weighted_bs_sum_merges_equal_coefficients_every_step():
    # 24 equal terms are the binomial lattice: 25 atoms, not 2^24
    assert weighted_bs_sum(0.3, [1.0] * 24).n_atoms == 25


@pytest.mark.parametrize("coeffs,msg", [
    ([math.inf, 1.0], "scale factor must be finite"),
    ([1.0, math.nan], "scale factor must be finite"),
    ([1e308, 1e308], "atoms must be finite"),
])
def test_weighted_bs_sum_rejects_overflow_like_the_fold(coeffs, msg):
    for build in (weighted_bs_sum, convolve_fold):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DistError, match=msg):
            build(0.3, coeffs)


@pytest.mark.parametrize("coeffs", [[[1.0, 2.0]], np.ones((2, 2)), 2.0],
                         ids=["nested", "square", "scalar"])
def test_weighted_bs_sum_rejects_a_coefficient_array_not_1d(coeffs):
    with pytest.raises(DistError, match="coefficients must be a 1-d sequence"):
        weighted_bs_sum(0.3, coeffs)


@pytest.mark.parametrize("build,match", [
    (lambda: weighted_bs_sum(0.3, [1.0] * 25), "refusing 25 terms"),
    (lambda: iid_sum(bs(0.5), 10**15), "keeps about 1.19e[+]09 atoms"),
    (lambda: st(0.0), r"st requires p in \(0, 1\]"),
], ids=["25_terms", "window_guard", "st_at_0"])
def test_guards_refuse_before_building(build, match):
    with pytest.raises(DistError, match=match):
        build()


_WIDE = np.array([-1e308, 1e308])  # one gap, past the float range


@pytest.mark.parametrize("build,error,match", [
    (lambda: scale(bs(0.3), 1.7e308), DistError, "atoms must be finite"),
    (lambda: carrier_sum(0.3, 2, 1e308), DistError, "atoms must be finite"),
    (lambda: weighted_bs_sum(0.3, [1.7e308]), DistError, "atoms must be finite"),
    (lambda: weighted_bs_sum(0.3, [1e308, 1e308]), DistError, "atoms must be finite"),
    (lambda: enumeration_check(0.3, 2.0, [1.7e308]), DistError, "atoms must be finite"),
    (lambda: iid_sum(FiniteDist(np.array([-1e307, 1e307]), np.array([0.5, 0.5])), 30),
     DistError, "atoms must be finite"),
    # the law builds, with no lattice to read whether or not it claims one
    (lambda: _step(FiniteDist(_WIDE, np.array([0.5, 0.5]))), LatticeError, "not an affine"),
    (lambda: _step(FiniteDist(_WIDE, np.array([0.5, 0.5]), on_lattice=True)),
     LatticeError, "not an affine"),
    # the chain scale(iid_sum(bs(p), n), c) takes the window before c
    (lambda: _bs_sum(0.5, 10**15, math.inf), DistError, "keeps about 1.19e[+]09 atoms"),
], ids=["scale", "carrier", "one_term", "term_sum", "enumeration", "iid_sum",
        "wide_law", "wide_lattice", "window_before_c"])
def test_the_float_range_edge_raises_one_error_and_no_warning(build, error, match):
    # pyproject makes a numpy RuntimeWarning an error, so any warning fails
    with pytest.raises(error, match=match):
        build()


def test_an_atom_at_the_float_max_has_its_band_reach_inf():
    top = sys.float_info.max
    assert atom_band(np.array([1.0, top])).tolist() == [1.0 + 1e-12, math.inf]
    assert atom_band(top) == math.inf


@pytest.mark.parametrize("coeffs", [(3.0, 4.0), (0.1, 0.7, 1.3), (1e150, 3e153), (1e-200, 1.0)])
def test_power_sum_keeps_the_bits_of_every_finite_sum(coeffs):
    # ||c||_2 as the supermartingale check reads it
    c = np.asarray(coeffs)
    top, total = _power_sum(c, 2.0)
    assert top * math.sqrt(total) == math.sqrt(float(np.sum(c * c)))
    # and the sum over max(c) where the squares overflow
    big = c * (1e300 / c.max())
    top, total = _power_sum(big, 2.0)
    assert top * math.sqrt(total) == pytest.approx(
        1e300 * math.sqrt(float(np.sum((c / c.max()) ** 2))), rel=1e-15)


@pytest.mark.parametrize("p,coeffs", [
    (0.3, [-0.0, 1.0]),      # -0.0 is a zero coefficient: the atom 0.0
    (0.3, [1.0, -0.0, 2.0]),
    (0.45, [1e-14, 1.0]),    # a term's two atoms merge (at p = 0.3 the sums
    (0.45, [1.0, 1e-14]),    # would round as if they did not)
    (0.45, [1.3, 1e-14, 0.4]),
    (0.3, [5e-324, 1.0]),    # both atoms underflow toward 0 and merge
    (1e-308, [1.0, 2.0]),    # bs(p) drops its sub-normal mass: one atom
    (1e-308, [0.5]),
])
def test_weighted_bs_sum_keeps_the_scale_rules(p, coeffs):
    _assert_bit_equal(weighted_bs_sum(p, coeffs), convolve_fold(p, coeffs))


def _canonicalize_reference(values, masses):
    """_canonicalize as it was before it skipped the merge and the drop:
    every step on every law."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    m = masses[order]
    if len(v) > 1:
        gaps = np.diff(v)
        tol = MERGE_RTOL * np.maximum(1.0, np.maximum(np.abs(v[:-1]), np.abs(v[1:])))
        firsts = np.flatnonzero(np.concatenate(([True], gaps > tol)))
        v, m = v[firsts], np.add.reduceat(m, firsts)
    keep = m >= MIN_MASS
    return np.ascontiguousarray(v[keep]), np.ascontiguousarray(m[keep])


def _random_law(rng):
    """Shuffled atoms with merge groups of two and three atoms, gaps just
    inside and just outside the merge tolerance, exact ties and sub-normal
    masses, each in some of the laws."""
    n = int(rng.integers(1, 40))
    v = rng.normal(size=n) * 10.0 ** rng.integers(-3, 6)
    m = rng.random(n)
    if n > 1 and rng.random() < 0.4:  # exact ties
        v[rng.integers(n, size=n // 3)] = v[rng.integers(n)]
    if n > 2 and rng.random() < 0.4:  # groups of two and three within tolerance
        step = 0.4 * MERGE_RTOL * max(1.0, abs(v[0]))
        v[1], v[2] = v[0] + step, v[0] + 2 * step
    if n > 4 and rng.random() < 0.5:  # a gap just inside or just outside the tolerance
        v[4] = v[3] - rng.choice([0.5, 0.99, 1.01, 1.5]) * MERGE_RTOL * max(1.0, abs(v[3]))
    if rng.random() < 0.3:
        m[rng.integers(n, size=max(1, n // 4))] = rng.choice([0.0, 5e-324, 1e-310])
    return rng.permutation(v), m


def test_canonicalize_equals_every_step_bit_for_bit():
    rng = np.random.default_rng(25)
    seen = {"merge": 0, "no merge": 0, "drop": 0, "neither": 0, "single": 0}
    for _ in range(3000):
        v, m = _random_law(rng)
        v0, m0 = v.copy(), m.copy()
        got, ref = _canonicalize(v, m), _canonicalize_reference(v, m)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous and a.flags.writeable
            assert not np.shares_memory(a, v) and not np.shares_memory(a, m)
        # the caller's arrays are left as they were, and writable
        assert v.tobytes() == v0.tobytes() and m.tobytes() == m0.tobytes()
        assert v.flags.writeable and m.flags.writeable
        sv = np.sort(v)
        tol = MERGE_RTOL * np.maximum(1.0, np.maximum(np.abs(sv[:-1]), np.abs(sv[1:])))
        merged = bool((np.diff(sv) <= tol).any())
        dropped = bool((m < MIN_MASS).any())
        seen["merge" if merged else "no merge"] += 1
        seen["drop"] += dropped
        seen["neither"] += not (merged or dropped)
        seen["single"] += len(v) == 1
    assert min(seen.values()) >= 50, seen


def test_bs_frozen_atoms():
    d = bs(0.2)
    assert d.values == pytest.approx([-0.5, 2.0])
    assert d.masses == pytest.approx([0.8, 0.2])
    assert d.mean() == pytest.approx(0.0, abs=1e-15)
    assert var(d) == pytest.approx(1.0, rel=1e-14)


def test_st_is_standardized_three_point():
    d = st(0.25)
    assert d.values == pytest.approx([-2.0, 0.0, 2.0])
    assert d.masses == pytest.approx([0.125, 0.75, 0.125])
    assert var(d) == pytest.approx(1.0, rel=1e-14)
    assert moment(d, 4) == pytest.approx(1 / 0.25, rel=1e-14)  # kurtosis 1/p
    assert d.is_symmetric()


def test_iid_sum_coin_flips():
    d = iid_sum(bs(0.5), 2)
    assert d.values == pytest.approx([-2.0, 0.0, 2.0])
    assert d.masses == pytest.approx([0.25, 0.5, 0.25])


def test_tail_at_top_atom():
    d = iid_sum(bs(0.3), 3)
    assert tail(d, d.max_value) == pytest.approx(0.3 ** 3, rel=1e-13)
    assert tail(d, d.max_value + 1.0) == 0.0
    assert tail(d, d.min_value - 1.0) == pytest.approx(1.0, abs=1e-12)


def test_convolve_of_mirrored_bs_is_scaled_st():
    # bs(p) + bs(1-p) has the symmetric three-point shape
    left = convolve(bs(0.2), bs(0.8))
    right = scale(st(0.32), math.sqrt(2.0))
    assert left.values == pytest.approx(right.values, rel=1e-12)
    assert left.masses == pytest.approx(right.masses, rel=1e-12)


def test_json_roundtrip_is_exact():
    d = weighted_bs_sum(0.17, [1.0, 0.6, 2.2])
    text = json.dumps({"atoms": [{"v": v, "p": m} for v, m in atoms(d)]})
    back = FiniteDist.from_json(text)
    assert np.array_equal(back.values, d.values)
    assert np.array_equal(back.masses, d.masses)


def test_from_pairs_merges_duplicate_atoms():
    d = from_pairs([(1.0, 0.25), (1.0, 0.25), (0.0, 0.5)])
    assert d.n_atoms == 2
    assert d.masses == pytest.approx([0.5, 0.5])


def test_merge_keeps_first_value_and_drops_subnormal_masses():
    lone = 0.1 + 0.2  # not representable exactly; must survive bit for bit
    close = 1.0 + 4e-13  # within merge tolerance of 1.0
    d = FiniteDist(np.array([close, lone, 1.0, 5.0, 7.0]),
                   np.array([0.25, 0.5, 0.25, MIN_MASS / 2, 5e-324]))
    assert d.values.tolist() == [lone, 1.0]  # the group's first (smallest) value
    assert d.masses.tolist() == [0.5, 0.5]
    kept = FiniteDist(np.array([0.0, 1.0]), np.array([1.0, MIN_MASS]))
    assert kept.masses.tolist() == [1.0, MIN_MASS]


def test_invalid_masses_rejected():
    with pytest.raises(DistError):
        from_pairs([(0.0, 0.4), (1.0, 0.4)])  # sums to 0.8
    with pytest.raises(DistError):
        from_pairs([(0.0, 1.2), (1.0, -0.2)])


@pytest.mark.parametrize("n_atoms,offsets", [
    pytest.param(3, range(-40, 41), id="3"),
    pytest.param(10_000, range(-40, 41), id="10000"),
    # np.add.reduce sums these pairwise, so only totals within
    # (27 + n.bit_length()) eps of the limit go to fsum: 88 ulps of 0.5 at
    # 10^5 atoms and 94 at 10^6; the offsets fall inside and outside it
    pytest.param(100_000, (-400, -120, -97, -80, -40, -3, -1, 0, 1, 3, 40, 80, 97, 120, 400),
                 id="100000"),
    pytest.param(1_000_000, (-400, -100, -60, -1, 0, 1, 60, 100, 400), id="1000000"),
])
def test_total_mass_verdict_is_the_fsum_rule(n_atoms, offsets):
    # totals 1 +- 1e-12 offset by k ulps of 0.5, on both sides of the
    # limit and of the band where np.sum's rounding could decide the
    # other way.  The masses take two values, so their exact sum, which
    # fsum rounds correctly, is known without fsum
    share = 0.5 / (n_atoms - 1)
    rest = np.full(n_atoms - 1, share * 0.7)
    rest[::2] = share * 1.3
    big = (n_atoms - 1 + 1) // 2
    rest_sum = Fraction(share * 1.3) * big + Fraction(share * 0.7) * (n_atoms - 1 - big)
    ulp = math.ulp(0.5)
    values = np.arange(float(n_atoms))
    for sign in (-1.0, 1.0):
        verdicts = set()
        for k in offsets:
            last = 1.0 + sign * MASS_ATOL - float(rest_sum) + k * ulp
            m = np.append(rest, last)
            expect = abs(float(rest_sum + Fraction(last)) - 1.0) <= MASS_ATOL
            try:
                FiniteDist(values, m, on_lattice=True)
                accepted = True
            except DistError:
                accepted = False
            assert accepted == expect, (sign, k)
            verdicts.add(accepted)
        assert verdicts == {True, False}


def test_total_mass_that_overflows_is_a_dist_error():
    # the suite turns RuntimeWarning into an error, so numpy's overflow
    # warning in the mass sum would fail this test before the DistError
    with pytest.raises(DistError, match="total mass inf is not 1"):
        FiniteDist(np.array([0.0, 1.0]), np.array([1e308, 1e308]))
    with pytest.raises(DistError, match="total mass 1.5 is not 1"):
        FiniteDist(np.array([0.0, 1.0]), np.array([1.5, 0.0]))


def test_delta_point_mass():
    d = delta(3.0)
    assert atoms(d) == [(3.0, 1.0)]
    assert d.mean() == 3.0
    assert var(d) == 0.0


@given(p=hst.floats(0.01, 0.99), n=hst.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_iid_sum_mass_and_moments(p, n):
    d = iid_sum(bs(p), n)
    assert math.fsum(d.masses) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(d.values) > 0)
    assert d.mean() == pytest.approx(0.0, abs=1e-9)
    assert var(d) == pytest.approx(n, rel=1e-9)


def zero_mean_two_point(b, c):
    """Zero-mean two-point law with maximum b and variance c^2."""
    denom = b * b + c * c
    return from_pairs([(-c * c / b, b * b / denom), (b, c * c / denom)])


def two_atom_laws():
    return hst.one_of(
        hst.floats(0.01, 0.99).map(bs),
        # the centered Bernoulli law: -p w.p. 1 - p, 1 - p w.p. p
        hst.floats(0.01, 0.99).map(lambda p: from_pairs([(-p, 1.0 - p), (1.0 - p, p)])),
        hst.builds(zero_mean_two_point, hst.floats(0.1, 10.0), hst.floats(0.1, 10.0)),
    )


@given(d=two_atom_laws(), n=hst.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_two_atom_iid_sum_is_exact_binomial_lattice(d, n):
    got = iid_sum(d, n)
    conv = functools.reduce(convolve, [d] * n)
    assert got.n_atoms == conv.n_atoms == n + 1
    scale_ = max(1.0, float(np.max(np.abs(conv.values))))
    assert np.allclose(got.values, conv.values, rtol=1e-12, atol=1e-12 * scale_)
    assert np.allclose(got.masses, conv.masses, rtol=1e-13, atol=0.0)
    (a, b), (q, p) = d.values, d.masses
    fq, fp = Fraction(float(q)), Fraction(float(p))
    total = (fq + fp) ** n
    exact = [math.comb(n, k) * fp ** k * fq ** (n - k) / total for k in range(n + 1)]
    assert np.allclose(got.masses, [float(e) for e in exact], rtol=1e-13, atol=0.0)
    assert got.values[0] == n * a


@pytest.mark.parametrize("n", [30, 200, 600])
@pytest.mark.parametrize("p", [0.02, 0.3, 0.9])
def test_two_atom_iid_sum_matches_scipy_binomial(p, n):
    from scipy.stats import binom

    d = iid_sum(bs(p), n)
    lo, hi = bs(p).values
    k = np.rint((d.values - n * lo) / (hi - lo)).astype(int)
    assert np.array_equal(k, np.arange(k[0], k[0] + d.n_atoms))  # consecutive lattice
    ref = binom.pmf(k, n, p)
    big = ref > 1e-250
    assert np.all(np.abs(d.masses[big] / ref[big] - 1.0) <= 2e-13)
    assert np.all(d.masses >= MIN_MASS)


def full_binomial_lattice(d, n):
    """All n + 1 atoms of iid_sum(d, n) for a two-atom law: the ratio
    products over the whole range in one np.cumprod each side of the mode,
    normalized by math.fsum of all of them (the reference)."""
    (a, b), (q, p) = d.values, d.masses
    k = np.arange(n + 1)
    mode = min(int((n + 1) * p), n)
    up = (n - k[mode:n]) * p / ((k[mode:n] + 1) * q)
    down = k[mode:0:-1] * q / ((n - k[mode:0:-1] + 1) * p)
    mass = np.concatenate((np.cumprod(down)[::-1], [1.0], np.cumprod(up)))
    return FiniteDist(n * a + k * (b - a), mass / math.fsum(mass), on_lattice=True)


def test_binomial_window_equals_the_full_lattice_bit_for_bit():
    # n up to 10^4 at random, and up to 2 10^5 where the products run
    # over several chunks and far below the float range
    rng = np.random.default_rng(18)
    cases = [(float(rng.uniform(0.001, 0.999)), int(np.exp(rng.uniform(0.0, math.log(1e4)))))
             for _ in range(60)]
    cases += [(0.5, 10_000), (0.02, 10_000), (0.999, 10_000), (0.5, 200_000), (0.3, 50_000)]
    for p, n in cases:
        got, want = iid_sum(bs(p), n), full_binomial_lattice(bs(p), n)
        assert got.values.tobytes() == want.values.tobytes(), (p, n)
        assert got.masses.tobytes() == want.masses.tobytes(), (p, n)
        assert got.lattice == want.lattice, (p, n)
    # the window is the atoms above the float range, not all n + 1
    assert iid_sum(bs(0.5), 200_000).n_atoms < 20_000


def binomial_window(p, n):
    """The unnormalized masses iid_sum(bs(p), n) keeps: 1 at the mode and
    the ratio products >= MIN_MASS each side of it."""
    q, p = bs(p).masses
    mode = min(int((n + 1) * p), n)
    up = _normal_products(lambda j: (n - j) * p / ((j + 1) * q), mode, n, 1)
    down = _normal_products(lambda j: j * q / ((n - j + 1) * p), mode, 0, -1)
    return np.concatenate((down[::-1], [1.0], up)).tolist()


@given(p=hst.one_of(hst.floats(-300.0, 0.0).map(lambda e: 10.0 ** e),
                    hst.floats(1.2e-16, 1e-15).map(lambda u: 1.0 - u)),
       n=hst.integers(1, 200_000))
@settings(max_examples=300, deadline=None)
def test_products_left_out_cannot_move_the_total(p, n):
    """The window's masses are normalized by the window's fsum.  The
    products left out, fewer than n and each below MIN_MASS, would add less
    than n MIN_MASS; adding that much leaves the rounded total as it is.
    Asserted only where something is left out: at small n a sum of two or
    three products is often an exact tie, which any addition breaks."""
    assume(0.0 < p < 1.0)
    window = binomial_window(p, n)
    if len(window) < n + 1:
        assert math.fsum(window) == math.fsum(window + [n * MIN_MASS]), (p, n)


def log_binomial_masses(p, n, k):
    """log P(K = k) for K binomial(n, p), by lgamma."""
    q = 1.0 - p
    return (np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                      for j in k.tolist()]) + k * math.log(p) + (n - k) * math.log(q))


def exact_cuts(p, n, window):
    """The binomial mass below and above the window's lattice indices, by
    lgamma and logaddexp; 0.0 where the window reaches that end."""
    k = np.arange(n + 1)
    ends = (k[:window.lo], k[window.lo + window.length:])
    return [math.exp(np.logaddexp.reduce(log_binomial_masses(p, n, e))) if len(e) else 0.0
            for e in ends]


def assert_window_holds_the_cut(p, n, rtol):
    """_bs_sum's window is iid_sum(bs(p), n)'s, and each end's cut is at
    or above the exact cut mass, within the reference's rtol; 0 where
    nothing was cut."""
    d, window = _bs_sum(p, n, 1.0)
    whole = iid_sum(bs(p), n)
    a, b = bs(p).values
    assert window.length == whole.n_atoms == d.n_atoms
    assert whole.values[0] == n * a + window.lo * (b - a)
    below, above = exact_cuts(p, n, window)
    assert window.cut_below >= below * (1.0 - rtol), (p, n, window, below)
    assert window.cut_above >= above * (1.0 - rtol), (p, n, window, above)
    if window.lo == 0:
        assert window.cut_below == 0.0
    if window.lo + window.length == n + 1:
        assert window.cut_above == 0.0
    return window


@given(p=hst.floats(0.01, 0.99),
       n=hst.one_of(hst.integers(1, 4000), hst.integers(4000, 100_000)))
@settings(max_examples=60, deadline=None)
def test_the_window_records_at_least_the_mass_it_cut(p, n):
    """The exact cut is lgamma's sum, good to about 1e-9 relative at
    n = 10^5 (lgamma(n + 1) is 1.05e6 there, rounded to 1.2e-10); the
    window's bound g r / (1 - r) past its products runs 1e-5 or more above
    the exact mass past them, far above that."""
    assert_window_holds_the_cut(p, n, 1e-8)


@pytest.mark.parametrize("p", [0.01, 0.05, 0.5, 0.99])
@pytest.mark.parametrize("n", [287, 3000, 100_000])
def test_windows_that_cut_record_it(p, n):
    assert_window_holds_the_cut(p, n, 1e-8)


@pytest.mark.parametrize("p,n", [(0.5, 3000), (0.01, 287), (0.99, 287), (0.05, 3000)])
def test_the_window_holds_the_cut_in_40_digits(p, n):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    _, window = _bs_sum(p, n, 1.0)
    mp, mq = mpmath.mpf(p), 1 - mpmath.mpf(p)
    mass = [mpmath.binomial(n, k) * mp ** k * mq ** (n - k) for k in range(n + 1)]
    assert window.cut_below >= mpmath.fsum(mass[:window.lo])
    assert window.cut_above >= mpmath.fsum(mass[window.lo + window.length:])


def test_the_stored_tail_and_the_cut_reach_the_exact_tail():
    # the carrier's top atom 1970 at p = 1/2, n = 3000: the stored tail is
    # that atom's mass, 3.9156e-308, and the exact tail 4.93792e-308
    d, window = _bs_sum(0.5, 3000, 1.0)
    assert d.max_value == 1970.0
    assert tail(d, 1970.0) + window.cut_above >= 4.93792e-308


def test_a_dropped_sub_normal_p_is_recorded_as_cut():
    p, n = 1e-308, 10 ** 6
    d, window = _bs_sum(p, n, 1.0)
    assert d.n_atoms == 1 and window[:3] == (0, 1, 0.0)
    assert window.cut_above >= -math.expm1(n * math.log1p(-p)) > 0.0


def st_lattice_index(d, p, n):
    """The index k of each atom of a sum of n st(p) laws, at -n r + k r."""
    r = 1.0 / math.sqrt(p)
    k = np.rint(d.values / r + n).astype(int)
    assert np.allclose(d.values, (k - n) * r, rtol=1e-13, atol=1e-13 * n * r)
    return k


def exact_st_sum(p, n):
    """The masses of the sum of n st(p) laws at k = 0..2n, as Fractions,
    with st(p)'s masses as the floats it is built from."""
    fp = Fraction(p)
    side, zero = fp / 2, 1 - fp
    out = [Fraction(1)]
    for _ in range(n):
        out = [(out[k - 2] * side if k >= 2 else 0)
               + (out[k - 1] * zero if 1 <= k <= len(out) else 0)
               + (out[k] * side if k < len(out) else 0) for k in range(len(out) + 2)]
    return out


@pytest.mark.parametrize("p", [1.0, 1.0 - 1e-6, 0.9, 0.5, 0.45, 0.01, 1e-3, 1e-6])
def test_st_sums_equal_the_exact_masses(p):
    worst = 0.0
    for n in (*range(1, 11), 16, 23, 30):
        d = iid_sum(st(p), n)
        exact = exact_st_sum(p, n)
        total = sum(exact)
        k = st_lattice_index(d, p, n)
        want = [float(exact[j] / total) for j in k.tolist()]
        # every atom of normal mass is there, and no other
        assert len(want) == sum(e / total >= MIN_MASS for e in exact), (p, n)
        worst = max(worst, float(np.max(np.abs(d.masses / want - 1.0))))
    assert worst <= 1e-13, worst


@pytest.mark.parametrize("p", [0.999, 0.9, 0.5, 0.45, 0.05])
def test_three_atom_iid_sum_equals_the_convolve_fold(p):
    ref = law = st(p)
    for n in range(2, 201):
        ref = convolve(ref, law)
        if n not in (2, 3, 5, 8, 13, 50, 128, 200):
            continue
        d = iid_sum(law, n)
        got = dict(zip(st_lattice_index(d, p, n).tolist(), d.masses.tolist()))
        for k, m in zip(st_lattice_index(ref, p, n).tolist(), ref.masses.tolist()):
            if m > 1e-250:
                assert abs(got[k] / m - 1.0) <= 1e-12, (p, n, k)


@pytest.mark.parametrize("p", [0.5, 0.45, 0.2, 0.01])
@pytest.mark.parametrize("n", [1, 7, 60, 1000])
def test_st_sum_is_a_shifted_sum_of_two_binomials(p, n):
    # for p <= 1/2, st(p) is (B + B' - 1) / sqrt(p) with B ~ Bernoulli(r)
    # and B' ~ Bernoulli(1 - r) independent, where r (1 - r) = p / 2; so
    # the sum of n is (X + Y - n) / sqrt(p), X ~ Bin(n, r), Y ~ Bin(n, 1 - r)
    from scipy.stats import binom

    r = (1.0 - math.sqrt(1.0 - 2.0 * p)) / 2.0
    j = np.arange(n + 1)
    ref = np.convolve(binom.pmf(j, n, r), binom.pmf(j, n, 1.0 - r))
    d = iid_sum(st(p), n)
    k = st_lattice_index(d, p, n)
    big = ref[k] > 1e-250
    assert np.all(np.abs(d.masses[big] / ref[k][big] - 1.0) <= 1e-12)
    assert np.all(ref[np.setdiff1d(np.arange(2 * n + 1), k)] < 1e-300)


def test_st_sums_carry_their_lattice():
    for p in (1.0, 0.999, 0.9, 0.5, 0.2, 1e-3):
        for n in (1, 2, 5, 40, 300):
            d = iid_sum(st(p), n)
            assert d.lattice is not None and d.lattice == lattice_params(d), (p, n)
            twice = iid_sum(scale(d, 0.5), 3)   # a lattice law keeps it
            assert twice.lattice == lattice_params(twice), (p, n)


def test_st_sum_near_one_loses_its_lattice_and_keeps_its_hulls():
    # the masses off the parity of n are about (1 - p) times the others,
    # so some of them underflow between kept atoms
    d = iid_sum(st(1.0 - 1e-6), 3000)
    assert d.lattice is None
    q = tail(d, d.values)
    lc, linlc = lc_majorant(d), lin_lc_majorant(d)
    assert np.all(lc.log_value(d.values) >= np.log(q))
    # the inferred lattice puts each atom within its 1e-9 relative
    # tolerance of a lattice point: exact there, within it at the atoms
    lat, qt, _ = _lattice_tails(d)
    assert np.all(linlc.log_value(lat[:-1]) >= np.log(qt[:-1]))
    assert np.all(linlc.log_value(d.values) >= np.log(q) - 1e-9)


def test_iid_sum_of_a_point_mass_is_a_point_mass():
    assert atoms(iid_sum(delta(0.3), 7)) == [(7 * 0.3, 1.0)]
    assert atoms(iid_sum(st(1e-308), 4)) == [(0.0, 1.0)]   # only the zero atom is normal


def test_iid_sum_of_a_law_off_any_known_lattice_is_an_error():
    law = from_pairs([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
    with pytest.raises(DistError, match="known lattice"):
        iid_sum(law, 3)
    with pytest.raises(DistError, match="known lattice"):
        iid_sum(weighted_bs_sum(0.3, [1.0, 0.5]), 2)


def test_st_sum_builds_only_the_mass_window():
    d = iid_sum(st(0.5), 20_000)
    assert d.n_atoms < 10_000 and d.lattice is not None
    assert d.masses.min() >= MIN_MASS


@given(p=hst.floats(0.01, 0.99), x=hst.floats(-5, 5))
@settings(max_examples=60, deadline=None)
def test_tail_monotone_and_bounded(p, x):
    d = iid_sum(bs(p), 3)
    t1 = tail(d, x)
    t2 = tail(d, x + 0.25)
    assert 0.0 <= t2 <= t1 <= 1.0


@given(hst.lists(hst.tuples(hst.floats(-4, 4), hst.floats(0.01, 1.0)),
                 min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_from_pairs_normalizable(pairs):
    total = sum(w for _, w in pairs)
    d = from_pairs([(v, w / total) for v, w in pairs])
    assert math.fsum(d.masses) == pytest.approx(1.0, abs=1e-12)
    assert d.n_atoms <= len(pairs)


def test_sampling_is_deterministic_and_unbiased():
    d = weighted_bs_sum(0.3, [1.0, 1.0, 1.0])
    spec = RngSpec(seed=1234, stream=7)
    xs = sample(d, spec, 200_000)
    ys = sample(d, RngSpec(seed=1234, stream=7), 200_000)
    assert np.array_equal(xs, ys)
    assert abs(np.mean(xs)) <= 4e-3  # sd of the mean is ~0.0039
    zs = sample(d, RngSpec(seed=1234, stream=8), 1000)
    assert not np.array_equal(xs[:1000], zs)


@pytest.mark.parametrize("k", [0, 1, 7, 4096, 123_457])
def test_advanced_draws_what_follows_k_discarded_doubles(k):
    gen = RngSpec(12, 3).generator()
    gen.random(5)
    ref = RngSpec(12, 3).generator()
    ref.random(5 + k)
    ahead = _advanced(gen, k)
    assert ahead.random(1000).tobytes() == ref.random(1000).tobytes()
    # gen is left where it was
    again = RngSpec(12, 3).generator()
    again.random(5)
    assert gen.random(10).tobytes() == again.random(10).tobytes()


LAWS = [bs(0.3), st(0.4), weighted_bs_sum(0.3, [1.0, 0.7, 1.4, 0.2, 0.9])]


def edge_table(edges):
    """The one-row guide table of np.searchsorted(edges, u, "right")."""
    return _GuideTable(lambda r, u: np.searchsorted(edges, u, side="right"), len(edges) + 1)


def read(table, raw):
    return table.from_bits(raw, np.empty(raw.shape, dtype=np.intp))


def outputs_at(keys):
    """For each key in [0, 1), the PCG64 outputs of the largest uniform at
    or below it and of the next uniform up: a uniform m 2^-53 is made of
    the outputs with top 53 bits m."""
    m = np.floor(keys[(keys >= 0.0) & (keys < 1.0)] * 2.0 ** 53).astype(np.uint64)
    return np.concatenate((m, m[m < 2 ** 53 - 1] + np.uint64(1))) << np.uint64(11)


@pytest.mark.parametrize("law", LAWS)
def test_atom_index_is_the_clipped_inverse_cdf(law):
    # the first atom whose cumulative mass exceeds the uniform, and the
    # last atom for a uniform at or above the rounded total
    cum = np.cumsum(law.masses)
    table = _atom_guide(law)
    raw = np.concatenate((bit_keys(table, cum, np.random.default_rng(0)),
                          outputs_at(np.concatenate((cum, [0.0, 1.0 - 2.0 ** -53])))))
    ref = np.minimum(np.searchsorted(cum, _uniforms(raw), side="right"), law.n_atoms - 1)
    assert np.array_equal(read(table, raw), ref)
    # sample draws the same atoms from any uniforms, the cumulative masses too
    u = np.concatenate((np.random.default_rng(0).random(500), cum, [0.0, 1.0 - 2.0 ** -53]))
    ref = np.minimum(np.searchsorted(cum, u, side="right"), law.n_atoms - 1)
    fixed = types.SimpleNamespace(random=lambda size: u[:size])
    assert np.array_equal(sample(law, fixed, u.size), law.values[ref])


@pytest.mark.parametrize("law", LAWS)
def test_sample_draws_the_guide_tables_atoms(law):
    cum = np.cumsum(law.masses)
    # any Generator: the searchsorted reference on the uniforms it draws
    u = np.random.Generator(np.random.MT19937(5)).random((300, 7))
    got = sample(law, np.random.Generator(np.random.MT19937(5)), (300, 7))
    assert got.tobytes() == law.values[np.searchsorted(cum[:-1], u, "right")].tobytes()
    # an RngSpec: the guide table's read of the same stream's PCG64 outputs,
    # as the Monte Carlo blocks draw them
    raw = RngSpec(8, 2).generator().bit_generator.random_raw(5000)
    want = law.values[read(_atom_guide(law), raw)]
    assert sample(law, RngSpec(8, 2), 5000).tobytes() == want.tobytes()


def guide_keys(table, edges, rng):
    """Keys in [0, 1) where a guide table could go wrong: 0 and the ulps
    above it, 1 - 2^-53, every edge and its neighbours, the bucket
    boundaries b / 2^s around every edge, and uniform keys."""
    f = 2.0 ** table._bits
    b = np.floor(edges * f)
    near = np.concatenate([(b + k) / f for k in (-1, 0, 1, 2)])
    return np.concatenate((
        [0.0, 5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53],
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        near, np.nextafter(near, -np.inf), rng.random(2000)))


def assert_guide_table_is_searchsorted(edges, guide_reads_index):
    # the guide table's property, at the outputs around every edge too
    rng = np.random.default_rng(len(edges))
    table = edge_table(edges)
    raw = np.concatenate((outputs_at(guide_keys(table, edges, rng)), bit_keys(table, edges, rng)))
    guide_reads_index(table, 1, len(edges) + 1, raw)


@hst.composite
def guide_edges(draw):
    """Sorted edges in [0, 1], cut from masses with an optional cluster
    of masses near 1e-9, which lands in a single bucket."""
    weights = draw(hst.lists(hst.floats(1e-3, 1.0), min_size=1, max_size=40))
    cluster = draw(hst.lists(hst.floats(0.5e-9, 2e-9), max_size=12))
    at = draw(hst.integers(0, len(weights)))
    w = np.array(weights[:at] + cluster + weights[at:])
    return np.minimum(np.cumsum(w / w.sum())[:-1], 1.0)


@given(edges=guide_edges())
@settings(max_examples=150, deadline=None)
def test_guide_table_is_searchsorted(edges, guide_reads_index):
    assert_guide_table_is_searchsorted(edges, guide_reads_index)


@pytest.mark.parametrize("edges", [
    np.arange(1, 8) / 8.0,                  # every edge on a bucket boundary
    np.array([0.0, 0.0, 0.5, 0.5, 1.0]),    # repeated edges, edges at 0 and 1
    np.array([]),                           # one atom: no edges
    np.array([1e-300, 2e-300, 1.0]),        # edges far below one bucket
    np.array([-1.0, -0.5, 0.25]),           # edges below every uniform
    np.array([0.5, 1.0, 2.0]),              # edges above every uniform
], ids=["dyadic", "repeated", "empty", "tiny", "negative", "past-one"])
def test_guide_table_corner_edges(edges, guide_reads_index):
    assert_guide_table_is_searchsorted(edges, guide_reads_index)


def test_guide_table_on_a_large_law(guide_reads_index):
    masses = np.random.default_rng(5).random(10_000)
    cum = np.cumsum(masses / masses.sum())
    assert_guide_table_is_searchsorted(cum[:-1], guide_reads_index)
    raw = np.random.default_rng(6).integers(0, 2 ** 64, 100_000, dtype=np.uint64,
                                            endpoint=False)
    assert np.array_equal(read(edge_table(cum[:-1]), raw),
                          np.minimum(np.searchsorted(cum, _uniforms(raw), side="right"), 9_999))


def test_uniforms_are_what_random_draws():
    gen, ref = RngSpec(4, 2).generator(), RngSpec(4, 2).generator()
    assert _uniforms(gen.bit_generator.random_raw(5000)).tobytes() == ref.random(5000).tobytes()
    # and the generator has moved as far
    assert gen.random(10).tobytes() == ref.random(10).tobytes()


def bit_keys(table, edges, rng):
    """PCG64 outputs where reading a guide table by bits could go wrong:
    0 and 2^64 - 1, the first and last output of every bucket that holds
    an edge and of its neighbours, the outputs beside each edge's
    uniform, and random outputs."""
    shift = np.uint64(64 - table._bits)
    b = np.floor(edges[(edges >= 0.0) & (edges < 1.0)] * 2.0 ** table._bits).astype(np.uint64)
    b = np.concatenate([b + np.uint64(k) for k in (0, 1)] + [b[b > 0] - np.uint64(1)])
    starts = b << shift
    m = (np.floor(edges[(edges >= 0.0) & (edges < 1.0)] * 2.0 ** 53)).astype(np.uint64)
    at = m << np.uint64(11)
    return np.concatenate((
        np.array([0, 2 ** 64 - 1], dtype=np.uint64), starts, starts - np.uint64(1),
        at, at - np.uint64(1), at + np.uint64(2 ** 11),
        rng.integers(0, 2 ** 64, 2000, dtype=np.uint64, endpoint=False)))


@given(rows=hst.lists(guide_edges(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_guide_table_reads_bits_as_their_uniforms(rows, guide_reads_index):
    # rows of monotone edges, each row's index offset by the edges of the
    # rows before it: every read keeps its row
    starts = np.cumsum([0] + [len(e) + 1 for e in rows])

    def index(r, u):
        out = np.empty(r.shape, dtype=np.intp)
        for k, edges in enumerate(rows):
            at = r == k
            out[at] = starts[k] + np.searchsorted(edges, u[at], side="right")
        return out

    table = _GuideTable(index, int(starts[-1]), rows=len(rows))
    rng = np.random.default_rng(len(rows))
    raw = np.concatenate([bit_keys(table, edges, rng) for edges in rows])
    guide_reads_index(table, len(rows), int(starts[-1]), raw)


def test_substream_derivation():
    spec = RngSpec(seed=9)
    a = spec.substream(0).generator().random(4)
    b = spec.substream(1).generator().random(4)
    assert not np.array_equal(a, b)
    again = spec.substream(0).generator().random(4)
    assert np.array_equal(a, again)


@pytest.mark.parametrize("kwargs", [
    {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "3"}, {"seed": 2, "stream": -1},
])
def test_rng_spec_rejects_what_seed_sequence_cannot_take(kwargs):
    with pytest.raises(DistError, match="must be a nonnegative integer"):
        RngSpec(**kwargs)


def test_rng_spec_takes_numpy_integers():
    a = RngSpec(np.int64(9), np.uint32(1)).generator().random(4)
    assert np.array_equal(a, RngSpec(9).substream(1).generator().random(4))


def _suffix_moments_loop(d):
    """The backward pass over the atoms one at a time: the reference."""
    v = d.values.tolist()
    m = d.masses.tolist()
    p0, p1, p2, p3 = m[-1], 0.0, 0.0, 0.0
    rows = [(p0, p1, p2, p3)]
    for k in range(len(v) - 2, -1, -1):
        h = v[k + 1] - v[k]
        p3 += h * (3.0 * p2 + h * (3.0 * p1 + h * p0))
        p2 += h * (2.0 * p1 + h * p0)
        p1 += h * p0
        p0 += m[k]
        rows.append((p0, p1, p2, p3))
    return np.array(rows[::-1]).T


@pytest.mark.parametrize("law", [
    delta(0.5), bs(0.3), st(0.4), iid_sum(st(0.2), 6),
    scale(iid_sum(bs(0.1), 400), 0.7),
    weighted_bs_sum(0.3, np.random.default_rng(1).uniform(0.2, 2.0, 12)),
])
def test_shifted_suffix_moments_equal_the_loop_bit_for_bit(law):
    # b_opt reads these moments, so its bits hang on this equality
    assert np.array_equal(_shifted_suffix_moments(law), _suffix_moments_loop(law))


@hst.composite
def cube_cases(draw):
    """A law with 1-64 atoms, Dirichlet(1) masses (some scaled to about
    1e-300), and thresholds at, between, below and above its atoms."""
    n = draw(hst.integers(1, 64))
    gaps = draw(hst.lists(hst.floats(0.01, 10.0), min_size=n, max_size=n))
    values = draw(hst.floats(-100.0, 100.0)) + np.cumsum(gaps)
    w = -np.log(draw(hst.lists(hst.floats(1e-6, 0.999), min_size=n, max_size=n)))
    tiny = draw(hst.lists(hst.booleans(), min_size=n, max_size=n))
    w[np.array(tiny)] *= 1e-300
    law = FiniteDist(values, w / w.sum())
    v = law.values
    fracs = np.array(draw(hst.lists(hst.floats(0.01, 0.99), min_size=n - 1, max_size=n - 1)))
    ts = np.concatenate((
        v, v[:-1] + fracs * np.diff(v),
        [v[0] - draw(hst.floats(0.1, 50.0)), v[-1] + draw(hst.floats(0.0, 50.0))]))
    return law, ts


def _merged_moments(law, ts, left=False):
    """The moments at each t as the enumeration check reads them: one
    pass over the union of the law's atoms and ts, with the law's masses
    as one column (0 at the ts that are not its atoms) and equal masses
    on every point as the other; left, the pass over the reversed,
    negated union.  Returns the moments and each column's atoms."""
    support = np.union1d(law.values, ts)
    masses = np.zeros((len(support), 2))
    masses[np.searchsorted(support, law.values), 0] = law.masses
    masses[:, 1] = 1.0 / len(support)
    if left:
        moments = _shifted_suffix_moments(-support[::-1], masses[::-1])[:, ::-1]
    else:
        moments = _shifted_suffix_moments(support, masses)
    columns = [list(zip(support.tolist(), masses[:, k].tolist())) for k in (0, 1)]
    return moments[:, np.searchsorted(support, ts)], [[a for a in c if a[1]] for c in columns]


def _assert_moments(ts, got, columns, left):
    """got[j, i, k] against fsum of m r^j over column k's atoms (v, m)
    at reach r = v - t_i >= 0 (left: t_i - v); 0 past the column's last
    atom, and the cube 0 at it."""
    for k, pairs in enumerate(columns):
        edge = pairs[0][0] if left else pairs[-1][0]
        for i, t in enumerate(ts.tolist()):
            reach = [((t - v) if left else (v - t), m) for v, m in pairs]
            if max(r for r, _ in reach) < 0:
                assert not got[:, i, k].any()
                continue
            for j in range(4):
                g = float(got[j, i, k])
                ref = math.fsum(m * r ** j for r, m in reach if r >= 0)
                if j == 3 and t == edge:
                    assert g == 0.0
                # below the smallest normal double no float has 4e-15 relative precision
                assert abs(g - ref) <= 4e-15 * ref + MIN_MASS, (t, j, k, g, ref)


@given(case=cube_cases())
@settings(max_examples=100, deadline=None)
def test_cube_plus_matches_fsum(case):
    # all four moments sum (v - t)^j m over v >= t; P3 is E (D - t)_+^3
    law, ts = case
    got, columns = _merged_moments(law, ts)
    _assert_moments(ts, got, columns, left=False)
    # at its own atoms the column is the law's own pass, bit for bit
    assert np.array_equal(got[:, :law.n_atoms, 0], _shifted_suffix_moments(law))


@given(case=cube_cases())
@settings(max_examples=100, deadline=None)
def test_left_cubes_match_fsum(case):
    # the reversed pass sums (t - v)^j m over v <= t; Q3 is E (t - D)_+^3
    law, ts = case
    _assert_moments(ts, *_merged_moments(law, ts, left=True), left=True)
