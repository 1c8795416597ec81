"""Log-concave tail hulls: contact, majorization, refinement stability.

The interpolated hull has no closed form, so the reference here is a
brute comparator: sample the lattice-linear tail densely, take the
upper concave hull of the log points, and require the exact hull to
majorize it everywhere while touching it at the hull's own vertices.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from asymtail.bounds import carrier_sum
from asymtail.dist import bs, from_pairs, iid_sum, scale, tail, weighted_bs_sum
from asymtail.majorant import (
    LatticeError,
    MajorantError,
    lattice_params,
    lc_majorant,
    lin_lc_majorant,
)


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
