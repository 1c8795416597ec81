"""Exact distribution arithmetic against brute-force enumeration."""
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from asymtail.dist import (
    MIN_MASS,
    DistError,
    FiniteDist,
    RngSpec,
    bc,
    bs,
    convolve,
    delta,
    expect,
    from_pairs,
    iid_sum,
    sample,
    scale,
    shift,
    st,
    tail,
    weighted_bs_sum,
)
from asymtail.dist import _atom_index, _cube_plus, _shifted_suffix_moments


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
    got = {round(v, 9): m for v, m in d.atoms()}
    assert len(got) == len(ref)
    for v, w in ref:
        assert got[v] == pytest.approx(w, rel=1e-12, abs=1e-15)


def test_bs_frozen_atoms():
    d = bs(0.2)
    assert d.values == pytest.approx([-0.5, 2.0])
    assert d.masses == pytest.approx([0.8, 0.2])
    assert d.mean() == pytest.approx(0.0, abs=1e-15)
    assert d.var() == pytest.approx(1.0, rel=1e-14)


def test_st_is_standardized_three_point():
    d = st(0.25)
    assert d.values == pytest.approx([-2.0, 0.0, 2.0])
    assert d.masses == pytest.approx([0.125, 0.75, 0.125])
    assert d.var() == pytest.approx(1.0, rel=1e-14)
    assert d.moment(4) == pytest.approx(1 / 0.25, rel=1e-14)  # kurtosis 1/p
    assert d.is_symmetric()


def test_bc_centered_bernoulli():
    d = bc(0.3)
    assert d.values == pytest.approx([-0.3, 0.7])
    assert d.masses == pytest.approx([0.7, 0.3])
    assert d.var() == pytest.approx(0.21, rel=1e-14)


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
    back = FiniteDist.from_json(d.to_json())
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


def test_delta_point_mass():
    d = delta(3.0)
    assert d.atoms() == [(3.0, 1.0)]
    assert d.mean() == 3.0
    assert d.var() == 0.0


def test_shift_and_scale_compose():
    d = bs(0.4)
    e = shift(scale(d, 2.0), 1.0)
    assert e.mean() == pytest.approx(1.0, abs=1e-14)
    assert e.var() == pytest.approx(4.0, rel=1e-13)


@given(p=hst.floats(0.01, 0.99), n=hst.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_iid_sum_mass_and_moments(p, n):
    d = iid_sum(bs(p), n)
    assert math.fsum(d.masses) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(d.values) > 0)
    assert d.mean() == pytest.approx(0.0, abs=1e-9)
    assert d.var() == pytest.approx(n, rel=1e-9)


def zero_mean_two_point(b, c):
    """Zero-mean two-point law with maximum b and variance c^2."""
    denom = b * b + c * c
    return from_pairs([(-c * c / b, b * b / denom), (b, c * c / denom)])


def two_atom_laws():
    return hst.one_of(
        hst.floats(0.01, 0.99).map(bs),
        hst.floats(0.01, 0.99).map(bc),
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


def test_three_atom_iid_sum_still_convolves():
    d = iid_sum(st(0.4), 5)
    ref = functools.reduce(convolve, [st(0.4)] * 5)
    assert d.n_atoms == ref.n_atoms == 11
    assert np.allclose(d.values, ref.values, rtol=1e-12, atol=1e-12)
    assert np.allclose(d.masses, ref.masses, rtol=1e-12, atol=0.0)


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


def test_expect_matches_moment_functions():
    d = weighted_bs_sum(0.3, [1.0, 1.5])

    def f(x):
        return np.clip(x - 0.5, 0.0, None) ** 3

    direct = sum(m * max(v - 0.5, 0.0) ** 3 for v, m in d.atoms())
    assert expect(d, f) == pytest.approx(direct, rel=1e-14)

    def g(x):
        return np.exp(0.7 * x)

    direct = sum(m * math.exp(0.7 * v) for v, m in d.atoms())
    assert expect(d, g) == pytest.approx(direct, rel=1e-14)

    def h(x):
        return 1.0 - 0.25 * x + 2.0 * f(x) + 0.5 * g(x)

    direct = 1.0 - 0.25 * d.mean() + 2.0 * expect(d, f) + 0.5 * expect(d, g)
    assert expect(d, h) == pytest.approx(direct, rel=1e-13)


def test_abs_power_and_cosh_agree_with_definitions():
    d = st(0.4)
    assert expect(d, lambda x: np.abs(x - 0.1) ** 3) == pytest.approx(
        sum(m * abs(v - 0.1) ** 3 for v, m in d.atoms()), rel=1e-14)
    assert expect(d, lambda x: np.cosh(1.2 * x)) == pytest.approx(
        sum(m * math.cosh(1.2 * v) for v, m in d.atoms()), rel=1e-14)


def test_sampling_is_deterministic_and_unbiased():
    d = weighted_bs_sum(0.3, [1.0, 1.0, 1.0])
    spec = RngSpec(seed=1234, stream=7)
    xs = sample(d, spec, 200_000)
    ys = sample(d, RngSpec(seed=1234, stream=7), 200_000)
    assert np.array_equal(xs, ys)
    assert abs(np.mean(xs)) <= 4e-3  # sd of the mean is ~0.0039
    zs = sample(d, RngSpec(seed=1234, stream=8), 1000)
    assert not np.array_equal(xs[:1000], zs)


@pytest.mark.parametrize("law", [bs(0.3), st(0.4), weighted_bs_sum(0.3, [1.0, 0.7, 1.4, 0.2, 0.9])])
def test_atom_index_is_the_clipped_inverse_cdf(law):
    cum = np.cumsum(law.masses)
    u = np.concatenate((np.random.default_rng(0).random(500), cum, [0.0, 1.0 - 2.0 ** -53]))
    ref = np.minimum(np.searchsorted(cum, u, side="right"), law.n_atoms - 1)
    assert np.array_equal(_atom_index(cum, u), ref)


def test_substream_derivation():
    spec = RngSpec(seed=9)
    a = spec.substream(0).generator().random(4)
    b = spec.substream(1).generator().random(4)
    assert not np.array_equal(a, b)
    again = spec.substream(0).generator().random(4)
    assert np.array_equal(a, again)


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


@given(case=cube_cases())
@settings(max_examples=100, deadline=None)
def test_cube_plus_matches_fsum(case):
    law, ts = case
    got = _cube_plus(law, ts)
    for t, g in zip(ts.tolist(), got.tolist()):
        if t >= law.max_value:
            assert g == 0.0
            continue
        ref = math.fsum(m * (v - t) ** 3 for v, m in law.atoms() if v > t)
        # below the smallest normal double no float has 4e-15 relative precision
        assert abs(g - ref) <= 4e-15 * ref + MIN_MASS, (t, g, ref)
