"""Log-concave tail hulls: contact, majorization, refinement stability.

The interpolated hull has no closed form, so the reference here is a
brute comparator: sample the lattice-linear tail densely, take the
upper concave hull of the log points, and require the exact hull to
majorize it everywhere while touching it at the hull's own vertices.
"""
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from asymtail import majorant
from asymtail.bounds import carrier_sum, resolve_s_m
from asymtail.dist import bs, from_pairs, iid_sum, scale, tail, weighted_bs_sum
from asymtail.majorant import (
    LatticeError,
    MajorantError,
    _arcs,
    _certify,
    _kept_arcs,
    _lattice_tails,
    lattice_params,
    lc_majorant,
    lin_lc_majorant,
)
from asymtail.thresholds import m_star


def lattice_knots(d):
    """Lattice points from the bottom atom to one step past the top, and
    the tail at each: the knots of the lattice-linear interpolant."""
    origin, h = lattice_params(d)
    lo = d.min_value
    n_steps = int(round((origin - lo) / h)) + 1
    knots = origin - h * np.arange(n_steps + 1)[::-1]
    knots = np.append(knots, origin + h)
    return knots, np.array([tail(d, k) for k in knots])


def dense_hull_oracle(d, per_step=400):
    """Sampled upper concave hull of the log lattice-linear tail.

    The interpolant's final ramp (top atom down to zero one step later)
    matters: when the incoming chord is steeper than the ramp the hull
    bridges over the top knot, so the oracle must sample it too.
    """
    knots, qt = lattice_knots(d)
    xs = np.linspace(knots[0], knots[-1], per_step * len(knots))
    lin = np.interp(xs, knots, qt)
    keep = lin > 0
    pts_x, pts_y = xs[keep], np.log(lin[keep])
    hull_idx = []
    for i in range(len(pts_x)):
        while len(hull_idx) >= 2:
            i1, i2 = hull_idx[-2], hull_idx[-1]
            cross = ((pts_x[i2] - pts_x[i1]) * (pts_y[i] - pts_y[i1])
                     - (pts_x[i] - pts_x[i1]) * (pts_y[i2] - pts_y[i1]))
            if cross >= 0:
                hull_idx.pop()
            else:
                break
        hull_idx.append(i)
    return pts_x[hull_idx], pts_y[hull_idx]


class TestLatticeParams:
    def test_unit_lattice(self):
        d = iid_sum(bs(0.5), 4)
        origin, h = lattice_params(d)
        assert origin == pytest.approx(4.0)
        assert h == pytest.approx(2.0)

    def test_subdivided_lattice(self):
        # gaps 0.3 and 0.5 force the step down to 0.1
        d = from_pairs([(0.0, 0.5), (0.3, 0.3), (0.8, 0.2)])
        _, h = lattice_params(d)
        assert h == pytest.approx(0.1, rel=1e-9)

    def test_irrational_ratio_rejected(self):
        d = from_pairs([(0.0, 0.5), (1.0, 0.3), (math.sqrt(2.0), 0.2)])
        with pytest.raises(LatticeError):
            lattice_params(d)


class TestPointHull:
    def test_binomial_tail_touches_every_knot(self):
        # the carrier tail is log-concave, so the hull IS the tail
        for p, n in ((0.1, 6), (0.3, 5), (0.5, 8), (0.7, 4)):
            d = carrier_sum(p, n, 1.0)
            maj = lc_majorant(d)
            for v in d.values:
                q = tail(d, float(v))
                assert maj.value(float(v)) == pytest.approx(q, rel=1e-12)

    def test_rademacher_midpoint(self):
        d = bs(0.5)
        maj = lc_majorant(d)
        assert maj.value(0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_majorizes_arbitrary_laws(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            vals = np.sort(rng.uniform(-2, 3, k))
            w = rng.dirichlet(np.ones(k))
            d = from_pairs(zip(vals, w))
            maj = lc_majorant(d)
            xs = np.linspace(d.min_value - 0.5, d.max_value + 0.5, 200)
            assert np.all(maj.value(xs) >= tail(d, xs) - 1e-12)

    def test_outside_support(self):
        d = bs(0.3)
        maj = lc_majorant(d)
        assert maj.value(d.min_value - 1.0) == 1.0
        assert maj.value(d.max_value + 1e-6) == 0.0


class TestInterpolatedHull:
    def test_hole_lattice_bridge_is_geometric(self):
        # tail 1 at 0 and 1/4 at 3; the bridge decays by 4^(-1/3) per step
        d = from_pairs([(0.0, 0.5), (1.0, 0.25), (3.0, 0.25)])
        maj = lin_lc_majorant(d)
        assert maj.value(1.0) == pytest.approx(0.25 ** (1.0 / 3.0), rel=1e-10)
        assert maj.value(2.0) == pytest.approx(0.25 ** (2.0 / 3.0), rel=1e-10)
        assert maj.value(3.0) == pytest.approx(0.25, rel=1e-12)

    def test_refinement_doubling_is_stable(self):
        d = carrier_sum(0.3, 6, 1.0)
        a = lin_lc_majorant(d, refine=64)
        b = lin_lc_majorant(d, refine=128)
        xs = np.linspace(d.min_value - 0.5, d.max_value + 0.5, 4001)
        assert np.max(np.abs(a.value(xs) - b.value(xs))) <= 1e-9

    def test_sparse_weighted_sum_regression(self):
        # two-coefficient lattice whose hull once lost an interior
        # vertex to an over-eager stack pop; keep it pinned
        d = weighted_bs_sum(0.3, [1.0, 1.3])
        maj = lin_lc_majorant(d)
        hx, hq = dense_hull_oracle(d)
        exact = np.log(np.maximum(maj.value(hx), 1e-300))
        diffs = exact - hq
        assert np.min(diffs) >= -1e-9
        assert np.max(np.abs(diffs[np.abs(hq) < 50])) <= 1e-3

    def test_half_step_shift_tightens_on_atoms(self):
        for p, n in ((0.2, 5), (0.5, 6)):
            d = carrier_sum(p, n, 1.0)
            _, h = lattice_params(d)
            lc = lc_majorant(d)
            linlc = lin_lc_majorant(d)
            for v in d.values:
                assert (linlc.value(float(v) + 0.5 * h)
                        <= lc.value(float(v)) * (1.0 + 1e-12))

    # the feature-stack construction this replaced raised a bare ValueError
    # from brentq here: a feature shrunk to its right corner was bridged
    # across a flat hole at the same height
    HOLE_LAW = [(-3.0, 0.1929934671960955), (-0.9000000000000004, 0.1799434383177208),
                (3.3, 0.0473321531463145), (10.299999999999999, 0.4437393880349943),
                (11.0, 0.046189761591674844), (12.399999999999999, 0.08980179171320006)]

    @pytest.mark.parametrize("seed", [*range(8), "hole"])
    def test_against_dense_comparator(self, seed):
        if seed == "hole":
            d = from_pairs(self.HOLE_LAW)
        else:
            rng = np.random.default_rng(seed)
            p = float(rng.uniform(0.1, 0.9))
            n = int(rng.integers(2, 6))
            d = carrier_sum(p, n, 1.0)
        maj = lin_lc_majorant(d)
        hx, hq = dense_hull_oracle(d)
        exact = np.log(np.maximum(maj.value(hx), 1e-300))
        diffs = exact - hq
        assert np.min(diffs[hq > -600]) >= -1e-9, \
            "exact hull fell below the sampled hull"
        # chord error of the sampled comparator explodes near the final
        # dive to zero, so looseness is only meaningful at moderate depth
        assert np.max(diffs[hq > -50]) <= 1e-3, "exact hull is visibly loose"

    def test_majorizes_lattice_tail(self):
        d = weighted_bs_sum(0.25, [0.5, 1.0, 1.5])
        maj = lin_lc_majorant(d)
        for v in d.values:
            assert maj.value(float(v)) >= tail(d, float(v)) - 1e-12

    def test_to_obj_shape(self):
        d = carrier_sum(0.4, 3, 1.0)
        obj = lin_lc_majorant(d).to_obj()
        assert obj["kind"] == "linlc"
        assert obj["step"] > 0
        assert len(obj["hull"]) >= 2
        assert obj["hull"][0]["logq"] == pytest.approx(0.0, abs=1e-12)

    def test_non_lattice_raises(self):
        d = from_pairs([(0.0, 0.5), (1.0, 0.3), (math.pi, 0.2)])
        with pytest.raises(MajorantError):
            lin_lc_majorant(d)


@hst.composite
def lattice_laws(draw):
    """Lattice laws unlike any carrier: random atoms with holes and
    Dirichlet masses, or a binomial bulk with one to four far atoms."""
    h = draw(hst.sampled_from([1.0, 0.7, 0.3]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    if draw(hst.booleans()):
        span = draw(hst.integers(2, 40))
        idx = np.sort(rng.choice(span, size=draw(hst.integers(2, span)), replace=False))
        w = rng.dirichlet(np.full(len(idx), draw(hst.sampled_from([0.2, 1.0, 5.0]))))
    else:
        bulk = iid_sum(bs(draw(hst.floats(0.05, 0.95))), draw(hst.integers(3, 60)))
        k = np.rint((bulk.values - bulk.min_value) / (bulk.values[1] - bulk.values[0]))
        far = k[-1] + np.cumsum(rng.integers(2, 150, size=draw(hst.integers(1, 4))))
        idx = np.concatenate((k, far))
        w = np.concatenate((bulk.masses, 10.0 ** rng.uniform(-8, -1, len(far))))
        w /= w.sum()
    return from_pairs(zip(-3.0 + h * idx, w))


@given(lattice_laws())
@settings(max_examples=200, deadline=None)
def test_hull_is_concave_majorant_on_any_lattice_law(d):
    try:
        maj = lin_lc_majorant(d)
    except MajorantError:
        return
    knots, qt = lattice_knots(d)
    xs = np.linspace(knots[0], knots[-1], 50 * len(knots))
    lin = np.interp(xs, knots, qt)
    live = lin > 0
    assert np.all(maj.log_value(xs[live]) >= np.log(lin[live]) - 1e-9)
    hx, hy = maj.hull_x, maj.hull_logq
    fin = np.isfinite(hy)
    hx, hy = hx[fin], hy[fin]
    dx = np.diff(hx)
    slope = np.diff(hy) / dx
    # roundoff of the vertex logs, over the chord length
    err = 1e-15 * (1.0 + np.abs(hy[:-1]) + np.abs(hy[1:])) / dx
    assert np.all(slope[1:] <= slope[:-1] + err[1:] + err[:-1])


# ---------------------------------------------------------------------------
# bridge solver against the fixed-halving bisection it replaced
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def reference_bridges(k, lm, lq0, lq1, r, a, b):
    """The 72-halving bisection of the bridge u over [-709, 8]: each step
    moves every u by half the previous step toward its pair's sign change
    of psi, and stays where psi is exactly 0."""
    pair = np.stack((a, b))
    dk = (k[b] - k[a]).astype(float)
    lm, lq0, lq1, r = lm[pair], lq0[pair], lq1[pair], r[pair]
    u = np.full(len(a), 0.5 * (-709.0 + 8.0))
    step = 0.25 * (8.0 + 709.0)
    for _ in range(72):
        g = np.exp(-u)
        log_i = np.minimum(np.maximum(lm - u, lq1), lq0)
        t = np.minimum(np.maximum(r - g, 0.0), 1.0)
        psi = (log_i[0] - log_i[1]) - (dk + t[1] - t[0]) / g
        u += step * np.sign(psi)
        step *= 0.5
    return u, 72


def psi_and_noise(arcs, a, b, u):
    """psi(u) of each pair, -psi'(u), and the rounding error of evaluating
    psi: the logs, psi' times the float spacing at u, and e^u times the
    rounding of every touch offset r - e^-u that is not clipped by more
    than that rounding."""
    k, lm, lq0, lq1, r = arcs
    dk = (k[b] - k[a]).astype(float)
    g = np.exp(-u)
    log_a = np.clip(lm[a] - u, lq1[a], lq0[a])
    log_b = np.clip(lm[b] - u, lq1[b], lq0[b])
    off = np.stack((r[a] - g, r[b] - g))
    t = np.clip(off, 0.0, 1.0)
    slope = (dk + t[1] - t[0]) / g
    err = EPS * (np.stack((r[a], r[b])) + g)
    near = (off > -err) & (off < 1.0 + err)
    noise = (EPS * (np.abs(log_a) + np.abs(log_b) + (dk + 1.0) * (1.0 + np.abs(u)) / g)
             + np.where(near, err, 0.0).sum(axis=0) / g)
    return (log_a - log_b) - slope, slope, noise


def oracle_laws():
    """Bound-query carriers over p in [0.02, 0.98] and n in [4, 600] (a
    rank-1 lattice, a quarter with s_m from explicit coefficients), the
    n = 10^4 carriers, random holey lattice laws and the hole law."""
    rng = np.random.default_rng(2024)
    laws = []
    for i in range(56):
        p = 0.02 + 0.96 * (i + 0.5) / 56
        n = int(round(4.0 * 150.0 ** (((i * 21) % 56 + 0.5) / 56)))
        if i % 4 == 0:
            _, s_m, _ = resolve_s_m(m_star(p), coeffs=rng.uniform(0.2, 2.0, n))
        else:
            s_m = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        laws.append((f"carrier p={p:.4f} n={n}", carrier_sum(p, n, s_m)))
    for p in (0.01, 0.3, 0.5):
        laws.append((f"carrier p={p} n=10000", carrier_sum(p, 10_000, 1.0)))
    for seed in range(24):
        r = np.random.default_rng(seed)
        span = int(r.integers(2, 40))
        idx = np.sort(r.choice(span, size=int(r.integers(2, span + 1)), replace=False))
        w = r.dirichlet(np.full(len(idx), r.choice([0.2, 1.0, 5.0])))
        laws.append((f"holey {seed}", from_pairs(zip(-3.0 + 0.7 * idx, w))))
    laws.append(("hole law", from_pairs(TestInterpolatedHull.HOLE_LAW)))
    return laws


def contact(arcs, keep, u):
    """Touch offsets (steps into the cell) of each kept arc's incoming and
    outgoing bridge."""
    ends = np.concatenate(([-np.inf], u, [np.inf]))
    return np.clip(arcs[4][keep, None] - np.exp(-np.stack((ends[:-1], ends[1:]), axis=1)),
                   0.0, 1.0)


class TestBridgeSolver:
    """Where psi is 0 on a whole interval (two neighbour arcs touching at
    their shared corner), any u in it is a root, and the bisection keeps
    the dyadic point where it first lands.  An arc whose only contact is
    such a corner may then be kept by one solver and dropped by the other
    without changing the hull; every other arc must be kept by both.
    Where two neighbour arcs have equal masses that interval is a single
    point, a double root, which the bisection finds only to about 1e-8:
    its hull can then hold a bridge 1e-7 steps long that the closed form
    does not make, so vertex lists are compared by value, not length."""

    @pytest.mark.parametrize("name,d", oracle_laws(), ids=lambda v: v if isinstance(v, str) else "")
    def test_matches_fixed_halving_bisection(self, name, d, monkeypatch):
        lat, qt, _ = _lattice_tails(d)
        arcs = _arcs(qt)
        evals = []
        solve = majorant._bridges

        def counted(*args):
            u, n_evals = solve(*args)
            evals.append(n_evals)
            return u, n_evals

        monkeypatch.setattr(majorant, "_bridges", counted)
        keep, u = _kept_arcs(arcs)
        maj = lin_lc_majorant(d)
        monkeypatch.setattr(majorant, "_bridges", reference_bridges)
        keep_ref, u_ref = _kept_arcs(arcs)
        maj_ref = lin_lc_majorant(d)
        assert max(evals) <= 10, f"Newton took {max(evals)} evaluations"

        for mine, other, u_mine in ((keep, keep_ref, u), (keep_ref, keep, u_ref)):
            off = contact(arcs, mine, u_mine)[~np.isin(mine, other)]
            assert np.all((off[:, 0] == off[:, 1]) & ((off[:, 0] == 0) | (off[:, 0] == 1))), \
                "an arc with more than a corner on the hull is kept by one solver only"

        bridged = {(a, b): i for i, (a, b) in enumerate(zip(keep_ref[:-1], keep_ref[1:]))}
        both = [(i, bridged[(a, b)]) for i, (a, b) in enumerate(zip(keep[:-1], keep[1:]))
                if (a, b) in bridged]
        mine, ref = np.array(both, dtype=int).reshape(-1, 2).T
        a, b = keep[mine], keep[mine + 1]
        _, slope, noise = psi_and_noise(arcs, a, b, u_ref[ref])
        # 1e-13 wherever the reference itself pins u that well; where psi
        # is flat at u_ref (a shared corner, or a touch offset below the
        # rounding of e^-u) u need only be a root too
        with np.errstate(divide="ignore"):
            allowed = 1e-13 + 8.0 * noise / slope
        assert np.all(np.abs(u[mine] - u_ref[ref]) <= allowed)
        psi, _, noise = psi_and_noise(arcs, a, b, u[mine])
        assert np.all(np.abs(psi) <= 4.0 * noise)

        # the hulls: 1e-13 in log, plus a few ulps of log q past |log q| = 512
        xs = np.concatenate((np.linspace(lat[0] - 0.1, lat[-1] + 0.1, 4000),
                             maj.hull_x, maj_ref.hull_x))
        got, want = maj.log_value(xs), maj_ref.log_value(xs)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        fin = np.isfinite(want)
        assert np.all(np.abs(got[fin] - want[fin]) <= 1e-13 + 4 * EPS * np.abs(want[fin]))


# ---------------------------------------------------------------------------
# exact majorization certificate
# ---------------------------------------------------------------------------

class TestCertificate:
    LAWS = {
        "carrier": lambda: carrier_sum(0.3, 6, 1.0),
        "weighted": lambda: weighted_bs_sum(0.3, [1.0, 1.3]),
        "hole": lambda: from_pairs(TestInterpolatedHull.HOLE_LAW),
    }

    @pytest.mark.parametrize("law", LAWS)
    def test_rejects_any_lowered_bridge_vertex(self, law):
        d = self.LAWS[law]()
        lat, qt, _ = _lattice_tails(d)
        maj = lin_lc_majorant(d)
        _certify(maj, lat, qt)
        ends = np.flatnonzero(~maj.seg_is_arc)
        vertices = [v for v in np.union1d(ends, ends + 1) if np.isfinite(maj.hull_logq[v])]
        assert vertices
        for v in vertices:
            low = maj.hull_logq.copy()
            low[v] -= 1e-8
            with pytest.raises(MajorantError, match="fails to majorize"):
                _certify(dataclasses.replace(maj, hull_logq=low), lat, qt)

    def test_rejects_deficit_between_sample_knots(self):
        # replace a stretch of an arc segment by the chord between two
        # neighbouring knots of the 64-per-step sample: the chord is below
        # the concave log arc only strictly between the knots
        d = carrier_sum(0.3, 6, 1.0)
        lat, qt, _ = _lattice_tails(d)
        maj = lin_lc_majorant(d, refine=64)
        knots = maj.knot_x
        arcs = [i for i in np.flatnonzero(maj.seg_is_arc)
                if np.count_nonzero((knots > maj.hull_x[i]) & (knots < maj.hull_x[i + 1])) >= 2]
        i = arcs[0]
        inside = knots[(knots > maj.hull_x[i]) & (knots < maj.hull_x[i + 1])]
        xa, xb = inside[0], inside[1]

        def split(arr, new):
            return np.concatenate((arr[:i], new, arr[i + 1:]))

        chord = dataclasses.replace(
            maj,
            hull_x=split(maj.hull_x, maj.hull_x[i:i + 1].tolist() + [xa, xb]),
            hull_logq=split(maj.hull_logq,
                            [maj.hull_logq[i], maj.log_value(xa), maj.log_value(xb)]),
            seg_is_arc=split(maj.seg_is_arc, [True, False, True]),
            **{f: split(getattr(maj, f), [getattr(maj, f)[i]] * 3)
               for f in ("seg_q", "seg_beta", "seg_x0")})
        # the sampled check (hull against the knots, within 1e-9) passes
        assert np.min(chord.log_value(knots) - maj.knot_logq) >= -1e-9
        mid = 0.5 * (xa + xb)
        assert chord.log_value(mid) < maj.log_value(mid) - 1e-8
        with pytest.raises(MajorantError, match="fails to majorize"):
            _certify(chord, lat, qt)


# ---------------------------------------------------------------------------
# to_obj output, frozen from the eager-knot implementation
# ---------------------------------------------------------------------------

def eager_knots(d, refine):
    """The knot sample as it was built on every construction: refine
    points per lattice step of the interpolant, where it is positive."""
    lat, qt, h = _lattice_tails(d)
    frac = np.arange(refine) / refine
    knot_x = (lat[:-1, None] + frac * h).ravel()
    knot_q = (qt[:-1, None] + (qt[1:] - qt[:-1])[:, None] * frac).ravel()
    live = knot_q > 0
    return knot_x[live], np.log(knot_q[live])


# (law, refine): (knot count, fsum of knot x, fsum of knot logq)
FROZEN_KNOTS = {
    ("carrier", 2): (14, 44.29823171790646, -35.74923614633127),
    ("carrier", 64): (448, 1654.3098258790585, -1274.111013315648),
    ("carrier", 128): (896, 3316.257277916377, -2554.447774682968),
    ("weighted", 2): (48, 50.801124846939025, -70.48513134926571),
    ("weighted", 64): (1536, 1706.813050269838, -2328.597112707079),
    ("weighted", 128): (3072, 3416.2447152225077, -4661.047285510078),
    ("hole", 2): (46, 224.25000000000054, -33.041628853049694),
    ("hole", 64): (1472, 7425.550000000018, -1130.0494198747808),
    ("hole", 128): (2944, 14859.150000000036, -2263.952228767781),
}
# law: (support_min, zero_from, step, origin, hull [(x, logq)])
FROZEN_HULLS = {
    "carrier": (-3.927922024247863, 11.347330292271606, 2.182178902359924, 9.165151389911681,
                [(-3.927922024247863, 0.0), (-1.745743121887939, -0.12516534295642603),
                 (0.43643578047198517, -0.5450289451074889),
                 (2.032990314457624, -1.0709667545367076),
                 (3.3240295192898905, -1.6305825424721303),
                 (4.086746672223073, -2.031968760271977),
                 (5.839488035488843, -3.1669486931109616),
                 (6.285315794355165, -3.507600970136927),
                 (8.222556248491017, -5.271189562398286),
                 (8.553205865431261, -5.629309249771443),
                 (10.579514846194048, -8.268366579386702), (11.347330292271606, None)]),
    "weighted": (-1.5057034426283475, 3.73152592303547, 0.2182178902359924, 3.5133080327994777,
                 [(-1.5057034426283475, 0.0), (0.6764754597315765, -0.6733445532637656),
                  (3.5133080327994772, -2.4079456086518722), (3.73152592303547, None)]),
    "hole": (-3.0, 13.100000000000023, 0.7000000000000011, 12.399999999999999,
             [(-3.0, 0.0), (10.30000000000002, -0.5451911773154984),
              (12.400000000000023, -2.41015035161022), (13.100000000000023, None)]),
}


def assert_frozen_obj(obj, law, refine):
    """Scalars exactly; counts exactly; knot and hull values to 1e-14 (the
    last bit of a libm log may differ between machines)."""
    support_min, zero_from, step, origin, hull = FROZEN_HULLS[law]
    assert obj["kind"] == "linlc"
    assert (obj["support_min"], obj["zero_from"], obj["step"], obj["origin"]) == \
        (support_min, zero_from, step, origin)
    count, sum_x, sum_logq = FROZEN_KNOTS[(law, refine)]
    assert len(obj["knots"]) == count
    assert math.fsum(k["x"] for k in obj["knots"]) == sum_x
    assert math.fsum(k["logq"] for k in obj["knots"]) == pytest.approx(sum_logq, rel=1e-14)
    assert len(obj["hull"]) == len(hull)
    for got, (x, logq) in zip(obj["hull"], hull):
        assert got["x"] == pytest.approx(x, rel=1e-14, abs=1e-14)
        if logq is None:
            assert got["logq"] is None
        else:
            assert got["logq"] == pytest.approx(logq, rel=1e-14, abs=1e-14)


class TestToObj:
    @pytest.mark.parametrize("refine", [2, 64, 128])
    @pytest.mark.parametrize("law", TestCertificate.LAWS)
    def test_matches_frozen_output(self, law, refine):
        d = TestCertificate.LAWS[law]()
        obj = lin_lc_majorant(d, refine=refine).to_obj()
        assert_frozen_obj(obj, law, refine)
        knot_x, knot_logq = eager_knots(d, refine)
        assert [k["x"] for k in obj["knots"]] == knot_x.tolist()
        assert [k["logq"] for k in obj["knots"]] == knot_logq.tolist()

    def test_cli_output_matches_frozen(self):
        proc = subprocess.run(
            [sys.executable, "-m", "asymtail.cli", "majorant", "--p", "0.3", "--n", "6",
             "--s-m", "1", "--kind", "linlc", "--refine", "128"],
            capture_output=True, text=True, check=True)
        assert_frozen_obj(json.loads(proc.stdout)["majorant"], "carrier", 128)

    @pytest.mark.parametrize("refine", [1, 0, -3])
    def test_refine_below_two_raises(self, refine):
        with pytest.raises(MajorantError, match="refine"):
            lin_lc_majorant(carrier_sum(0.3, 6, 1.0), refine=refine)

    def test_point_hull_knots_are_the_step_corners(self):
        d = carrier_sum(0.3, 6, 1.0)
        maj = lc_majorant(d)
        assert np.array_equal(maj.knot_x, d.values)
        assert np.array_equal(maj.knot_logq, np.log(np.cumsum(d.masses[::-1])[::-1]))
