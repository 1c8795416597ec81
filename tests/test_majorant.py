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

from asymtail import bounds, majorant
from asymtail.bounds import carrier_sum, combined_bound_grid, resolve_s_m
from asymtail.dist import FiniteDist, bs, from_pairs, iid_sum, scale, tail, weighted_bs_sum
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

    @pytest.mark.parametrize("k", range(-12, 13))
    def test_inference_commutes_with_scaling(self, k):
        # the tolerance is relative to the law's own atoms, so a law and
        # its scaled copy infer the same lattice, scaled; at k = -11 the
        # first law is (0, 1e-10, 2.5e-10).  Every gap is >= 3, so at
        # k = -12 the atoms stay clear of the merge tolerance, 1e-12
        c = 10.0 ** k
        masses = np.array([0.5, 0.3, 0.2])
        for values, lattice in (([0.0, 10.0, 25.0], (25.0, 5.0)),
                                ([-30.0, 5.0, 20.0], (20.0, 5.0)),
                                ([70.0, 73.0, 78.0], (78.0, 1.0))):
            d = FiniteDist(np.array(values) * c, masses)
            assert lattice_params(d) == pytest.approx((lattice[0] * c, lattice[1] * c),
                                                      rel=1e-9), values
        with pytest.raises(LatticeError):
            lattice_params(FiniteDist(np.array([0.0, 10.0, 10.0 * math.sqrt(2.0)]) * c, masses))

    def test_small_atoms_keep_their_lattice(self):
        # the tolerance once had a floor of 1, so atoms below 1 read as
        # a lattice of step 1e-10 that put the top atom on 2e-10
        d = FiniteDist(np.array([0.0, 1e-10, 2.5e-10]), np.array([0.5, 0.3, 0.2]))
        assert lattice_params(d) == pytest.approx((2.5e-10, 5e-11), rel=1e-12)
        for maj in (lc_majorant(d), lin_lc_majorant(d)):
            assert (maj.value(d.values) >= tail(d, d.values)).all()


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

    def test_log_tails_are_at_most_0(self):
        # the suffix sums' roundoff puts the first of them above 1 here
        d = carrier_sum(0.990234375, 2, 1.0)
        assert d.upper_tails[0] > 1.0
        maj = lc_majorant(d)
        assert maj.hull_logq[0] == 0.0 and (maj.knot_logq <= 0.0).all()
        assert maj.value(float(d.values[1])) <= 1.0

    def test_point_mass_has_one_vertex(self):
        maj = lc_majorant(from_pairs([(0.5, 1.0)]))
        assert len(maj.hull_x) == 1 and maj.step is None
        assert maj.value(np.array([0.0, 0.5, 1.0])).tolist() == [1.0, 1.0, 0.0]
        assert maj.value(0.5 + 1e-6) == 0.0


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


def _evaluation_points(d, maj):
    """Below the support, every atom and midpoint, the hull vertices, the
    top atom and 1e-13 relative either side of it, and past the top."""
    v = d.values
    top = float(v[-1])
    span = max(1.0, top - float(v[0]))
    return np.concatenate(([v[0] - span, v[0] - 1e-13 * span], v, 0.5 * (v[:-1] + v[1:]),
                           maj.hull_x, top * (1.0 + np.array([-1e-13, 1e-13])),
                           [top + 1e-11 * span, top + span]))


@given(lattice_laws())
@settings(max_examples=100, deadline=None)
def test_scalar_and_array_evaluations_agree_bitwise(d):
    """value(x) and log_value(x) for a scalar x are value([x])[0] and
    log_value([x])[0] bit for bit, on both hulls: the scalar path uses
    numpy's log and exp as the array path does."""
    hulls = [lc_majorant(d)]
    try:
        hulls.append(lin_lc_majorant(d))
    except MajorantError:
        pass
    for maj in hulls:
        xs = _evaluation_points(d, maj)
        for method in (maj.value, maj.log_value):
            whole = method(xs)
            one = [method(float(x)) for x in xs]
            assert all(type(v) is float for v in one)
            assert [repr(v) for v in one] == [repr(v) for v in whole.tolist()], maj.kind


def test_scalar_evaluation_of_a_point_mass_and_bad_x():
    maj = lc_majorant(from_pairs([(0.5, 1.0)]))
    assert [maj.value(x) for x in (0.0, 0.5, 1.0)] == maj.value([0.0, 0.5, 1.0]).tolist()
    for x in (math.nan, math.inf):
        with pytest.raises(MajorantError, match="x must be finite"):
            maj.value(x)


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

    def test_touch_points_past_the_float_range(self):
        # on atoms near 1e302 some bridge slopes are sub-normal and 1 / slope
        # overflows, quietly: the certificate's verdict is the only report.
        # It fails from s_m = 1e254 on (atoms near 1e256), and the bound
        # grid raises it, since it builds the whole hull before b_opt
        for s_m in (1e254, 1e256, 1e260, 1e300):
            with pytest.raises(MajorantError, match="fails to majorize"):
                lin_lc_majorant(carrier_sum(0.6, 300, s_m))
            with pytest.raises(MajorantError, match="fails to majorize"):
                combined_bound_grid(0.6, 1.0, [0.0], n=300, s_m=s_m)

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


def assert_floats_solve_as_arrays(d) -> int:
    """_bridges on each neighbour pair of d's arc chain, one pair at a
    time as floats, equals the solve of all of them as arrays, bit for
    bit; returns the number of pairs."""
    arcs = _arcs(_lattice_tails(d)[1])
    n = len(arcs[0])
    u, _ = majorant._bridges(*arcs, np.arange(n - 1), np.arange(1, n))
    one = [majorant._bridges(*arcs, i, i + 1)[0] for i in range(n - 1)]
    assert all(type(v) is float for v in one)
    assert [repr(v) for v in one] == [repr(v) for v in u.tolist()]
    return n - 1


class TestPointPath:
    """majorant._lin_lc_at and majorant._lc_at: the whole hull's log-value
    at one x, bit for bit, from the hull segment at x and its supporting
    line, or from the chord of the corners around x, or None."""
    LAWS = {
        "carrier": lambda: carrier_sum(0.3, 6, 1.0),
        "bulk": lambda: carrier_sum(0.3, 200, 1.0),
        "symmetric": lambda: carrier_sum(0.5, 57, 0.5),
        "skewed": lambda: carrier_sum(0.95, 80, 0.7),
        "weighted": lambda: weighted_bs_sum(0.3, [1.0, 1.3]),
        "hole": lambda: from_pairs(TestInterpolatedHull.HOLE_LAW),
    }

    @pytest.mark.parametrize("law", LAWS)
    def test_is_the_whole_hull_bit_for_bit(self, law):
        # every lattice point, cell midpoint and hull vertex, 1 ulp either
        # side of each vertex, and the band edges of both ends: each answer
        # is the whole hull's, and bounds' read, which falls back to the
        # whole hull, is its value everywhere.  The window answers at least
        # 90% of the x at or above the mean on each carrier, where bound
        # queries read it; the weighted and hole laws have arcs off the hull
        d = self.LAWS[law]()
        maj = lin_lc_majorant(d)
        lat = maj.node_x
        vertices = maj.hull_x.tolist()
        edges = [v + 1e-12 * max(1.0, abs(v)) for v in (lat[0], lat[-1])]
        xs = (lat.tolist() + (0.5 * (lat[1:] + lat[:-1])).tolist() + vertices
              + [math.nextafter(v, -math.inf) for v in vertices]
              + [math.nextafter(v, math.inf) for v in vertices]
              + [math.nextafter(e, k) for e in edges for k in (-math.inf, math.inf)]
              + [lat[0] - 1.0, lat[-1] + 1.0])
        mean = d.mean()
        answered = upper = 0
        for x in xs:
            lv = majorant._lin_lc_at(d, x)
            if lv is not None:
                answered += x >= mean
                assert repr(lv) == repr(maj.log_value(x)), x
            upper += x >= mean
            value = bounds._hull_value(d, x, majorant._lin_lc_at, lin_lc_majorant)
            assert repr(value) == repr(maj.value(x)), x
        if law not in ("weighted", "hole"):
            assert answered >= 0.9 * upper, (answered, upper)

    def test_bands_read_without_a_hull(self, monkeypatch):
        # the bottom atom's band reads 0 and past the top lattice point's
        # band -inf, before any arc is built
        d = carrier_sum(0.3, 20, 1.0)
        lat, _, _ = _lattice_tails(d)
        bottom, top = (v + 1e-12 * max(1.0, abs(v)) for v in (float(lat[0]), float(lat[-1])))
        monkeypatch.setattr(majorant, "_arcs", None)
        assert majorant._lin_lc_at(d, bottom) == 0.0
        assert majorant._lin_lc_at(d, math.nextafter(top, math.inf)) == -math.inf

    @pytest.mark.parametrize("law", ["carrier", "bulk", "weighted", "hole"])
    def test_lines_of_the_hull_majorize_and_lowered_ones_fail(self, law):
        # each bridge's chord and each arc's tangent at its midpoint passes
        # the line check on every cell; lowered by 2e-9 in log, each fails it
        d = self.LAWS[law]()
        lat, qt, h = _lattice_tails(d)
        cells = (0, len(lat) - 2)
        maj = lin_lc_majorant(d)
        hx, hy = maj.hull_x, maj.hull_logq
        checked = 0
        for i in range(len(hx) - 1):
            if maj.seg_is_arc[i]:
                x = 0.5 * (hx[i] + hx[i + 1])
                val = maj.seg_q[i] + maj.seg_beta[i] * (x - maj.seg_x0[i])
                y, s = math.log(val), maj.seg_beta[i] / val
            elif np.isfinite(hy[i + 1]):
                x, y, s = hx[i], hy[i], (hy[i + 1] - hy[i]) / (hx[i + 1] - hx[i])
            else:
                continue
            assert majorant._line_majorizes(lat, qt, h, x, y, s, cells), (i, x)
            assert not majorant._line_majorizes(lat, qt, h, x, y - 2e-9, s, cells), (i, x)
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("law", LAWS)
    def test_lc_chord_is_the_whole_hull_bit_for_bit(self, law):
        # every corner, cell midpoint and hull vertex, 1 ulp either side of
        # each vertex, and the band edges of both ends; the chord answers
        # at least 90% of them on each carrier, skewed included
        d = self.LAWS[law]()
        maj = lc_majorant(d)
        v = d.values
        vertices = maj.hull_x.tolist()
        edges = [c + 1e-12 * max(1.0, abs(c)) for c in (v[0], v[-1])]
        xs = (v.tolist() + (0.5 * (v[1:] + v[:-1])).tolist() + vertices
              + [math.nextafter(c, -math.inf) for c in vertices]
              + [math.nextafter(c, math.inf) for c in vertices]
              + [math.nextafter(e, k) for e in edges for k in (-math.inf, math.inf)])
        answered = 0
        for x in xs:
            lv = majorant._lc_at(d, x)
            if lv is not None:
                answered += 1
                assert repr(lv) == repr(maj.log_value(x)), x
        if law not in ("weighted", "hole"):
            assert answered >= 0.9 * len(xs), (answered, len(xs))

    def test_lc_reads_a_run_of_equal_first_tails_flat(self):
        # the suffix sums of carrier_sum(0.6, 300, 1) round to 1 - 2^-53 on
        # its first 110 corners: the hull is flat there, at that log tail,
        # and the chord answers nine in ten corners and midpoints in all
        d = carrier_sum(0.6, 300, 1.0)
        maj = lc_majorant(d)
        q0 = float(d.upper_tails[0])
        assert q0 == 1.0 - 2.0 ** -53
        v = d.values
        run = int(np.count_nonzero(d.upper_tails == q0))
        assert run > 100
        xs = v.tolist() + (0.5 * (v[1:] + v[:-1])).tolist()
        flat = [x for x in xs if x <= v[run - 1] + 1e-12 * max(1.0, abs(v[run - 1]))]
        assert all(majorant._lc_at(d, x) == math.log(q0) for x in flat[1:])
        answered = 0
        for x in xs:
            lv = majorant._lc_at(d, x)
            if lv is not None:
                answered += 1
                assert repr(lv) == repr(maj.log_value(x)), x
        assert answered >= 0.9 * len(xs)

    def test_lin_lc_reads_its_flat_head_by_numpys_log(self):
        # the tails of carrier_sum(0.9, 500, 1) are 1 - 2^-52 on its first
        # 294 lattice points, so its first arc is cell 293; up to that
        # arc's left corner the hull reads log(1 - 2^-52) by numpy's log,
        # one ulp from math.log's, and so does the flat read
        d = carrier_sum(0.9, 500, 1.0)
        lat, qt, _ = _lattice_tails(d)
        q0 = 1.0 - 2.0 ** -52
        assert np.count_nonzero(qt == q0) == 294 and qt[0] == q0
        k0 = int(_arcs(qt)[0][0])
        assert k0 == 293
        assert float(np.log(q0)) != math.log(q0)
        maj = lin_lc_majorant(d)
        xs = lat[1:k0 + 1].tolist() + (0.5 * (lat[:k0] + lat[1:k0 + 1])).tolist()
        for x in xs:
            lv = majorant._lin_lc_at(d, x)
            assert repr(lv) == repr(maj.log_value(x)) == repr(float(np.log(q0))), x

    def test_lines_decline_under_a_far_heavy_atom(self, monkeypatch):
        # k = 300 equal masses and a 0.5 atom k steps past them: both
        # tails' logs are concave there and lie under the bridge to the
        # heavy atom, so every local line fails with no pruned chain
        # built, and the whole hulls answer bit for bit
        d = from_pairs([(float(j), 0.5 / 300) for j in range(300)] + [(599.0, 0.5)])
        lc, linlc = lc_majorant(d), lin_lc_majorant(d)
        pruned = []
        kept = majorant._kept_arcs
        monkeypatch.setattr(majorant, "_kept_arcs", lambda arcs: pruned.append(1) or kept(arcs))
        xs = [float(j) + f for j in (1, 40, 150, 297) for f in (0.0, 0.5)]
        for x in xs:
            assert majorant._lc_at(d, x) is None, x
            assert majorant._lin_lc_at(d, x) is None, x
        assert not pruned
        for x in xs:
            lc_value = bounds._hull_value(d, x, majorant._lc_at, lc_majorant)
            assert repr(lc_value) == repr(lc.value(x)), x
            value = bounds._hull_value(d, x, majorant._lin_lc_at, lin_lc_majorant)
            assert repr(value) == repr(linlc.value(x)), x

    @pytest.mark.parametrize("law", LAWS)
    def test_one_pair_solved_as_floats_is_its_array_solve(self, law):
        assert_floats_solve_as_arrays(self.LAWS[law]())

    def test_a_line_near_a_cell_outside_the_window_is_not_clear(self):
        # the hole law's long bridge touches the arcs at both ends of its
        # hole: its line clears every other cell, but the far arc's cell
        # only where the window takes it in
        d = self.LAWS["hole"]()
        lat, qt, h = _lattice_tails(d)
        maj = lin_lc_majorant(d)
        i = int(np.argmax(np.diff(maj.hull_x) * ~maj.seg_is_arc))
        x, y = float(maj.hull_x[i]), float(maj.hull_logq[i])
        s = (float(maj.hull_logq[i + 1]) - y) / (float(maj.hull_x[i + 1]) - x)
        c0, c1 = (int(np.floor((float(v) - lat[0]) / h)) for v in maj.hull_x[i:i + 2])
        c1 = min(c1, len(lat) - 2)
        assert majorant._line_majorizes(lat, qt, h, x, y, s, (0, len(lat) - 2))
        assert majorant._line_majorizes(lat, qt, h, x, y, s, (c0, c1))
        assert not majorant._line_majorizes(lat, qt, h, x, y, s, (c0, c0))
        assert not majorant._line_majorizes(lat, qt, h, x, y, s, (c1, c1))

    def test_no_line_for_a_flat_or_rising_slope(self):
        d = carrier_sum(0.3, 6, 1.0)
        lat, qt, h = _lattice_tails(d)
        for s in (0.0, 1.0, math.nan, -math.inf):
            assert not majorant._line_majorizes(lat, qt, h, float(lat[0]), 10.0, s,
                                                (0, len(lat) - 2))


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
