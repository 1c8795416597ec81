"""Least log-concave majorants of discrete tail functions.

Two constructions over the tail q(x) = P(D >= x) of a FiniteDist:

- lc_majorant: the least log-concave majorant of the step tail itself.
  Because the constraint set is the finite family of step corners
  (x_k, log q_k), this is the upper concave hull of those points:
  log-linear between hull knots, 1 left of the support, 0 past it.
  The hull is _hull_rounds over the corners: each round drops every
  middle point on or below the chord of its current neighbours, until
  none drops (see _upper_hull_indices).

- lin_lc_majorant: the least log-concave majorant of the *linear
  interpolation* of the tail over the carrying lattice {min + k h}.
  In log space the interpolant is a chain of concave arcs
  log(q0 + beta (x - x0)), one per lattice cell where the tail
  decreases, so the majorant alternates between touched sub-arcs and
  straight bridges.  The hull is array code over the arcs: at slope
  s < 0 an arc touches its support line where q0 + beta (x - x0) =
  beta / s, clipped to its cell; the slope of the bridge between two
  arcs is where their support intercepts agree, which has a closed
  form when both touch points are interior and is polished by
  safeguarded Newton for all pairs at once; _hull_rounds drops the arcs
  under the bridge of their neighbours (see lin_lc_majorant).
  The result is certified exactly: on a cell under a bridge, the bridge
  minus the log interpolant is convex, so comparing the two at the
  lattice points, the hull vertices and each cell's clipped touch point
  for the bridge's slope covers every x (see _certify).  The refined
  knot sample that `to_obj` reports (refine points per lattice step) is
  built only there; the hull does not depend on it.

Both read the lattice a law carries (`FiniteDist.lattice`, set by the
constructors of the comparison carriers).  lattice_params infers a
lattice only for laws that carry none: laws read from JSON, and lattice
laws that lost an atom between two others to underflow (st sums near
p = 1, whose off-parity masses fall below MIN_MASS).  Either way the
lattice tails are the law's suffix sums, read at each atom's lattice
index; on a carried lattice atom k has index k, so they are the suffix
sums themselves, with no search.

lin_lc_majorant works from an arc table (see _arcs): per arc its cell k,
log m, log q0, log q1 and r = q0 / m, and, for the vertex build, q0,
beta, x0, x1, the cell width and r stacked in one array.  At the sizes
of a bound query the cost is the count of numpy calls more than the
arithmetic, so the path makes as few as it can: where every cell is an
arc the per-arc fields are views of the per-cell arrays, where every
arc is kept the vertex build gathers nothing (otherwise one take serves
every field), and the bridge solve stops after its first pass where
every pair has converged.

A point query needs one segment of each hull, read from the stretch
around x and certified by one supporting-line pass over the whole law;
the whole hull is only the fallback, so a point reads its grid's bits.
_lc_at takes the chord of the corners around x where every other corner
lies below its line by more than the rounding of the hull's own test
(_chord_majorizes): both are then adjacent hull vertices.  _lin_lc_at
reads x up to the first arc's left corner flat, at that corner's log
tail, as log_value does.  Past it, it takes the arcs around x with the
bridges of their own pairs (at most four, each solved as floats by
_bridges' one body), evaluates the segment at x by log_value's formulas
(_arc_log, _bridge_log), and certifies its supporting line against
every cell, as _certify checks a hull segment (see _slack): the value
lies on the interpolant or on a chord between two of its points, so
below the hull, and the hull lies below a certified line, so the value
is the hull's.  The cells outside the window must clear that line, so
that no arc past the window is on the hull near x.  Where the line
check declines, the caller builds the whole hull.

Evaluation is exact on arc segments (linear in probability space),
log-linear on bridges.  The ends follow dist.atom_band: x up to
support_min's band reads 1, x in zero_from's band reads zero_from's value.
lc reads x in any atom's band at that atom, as `tail` counts it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import FiniteDist, atom_band
from .optimize import (_abs, _all, _any, _count, _div, _exp, _expm1, _float_or_array, _isfinite,
                       _log, _log1p, _logaddexp, _maximum, _minimum, _quiet, _search, _take,
                       _where)

_LATTICE_RTOL = 1e-9
_CERT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)


class MajorantError(ValueError):
    """Construction failure (bad support, broken certificate)."""


class LatticeError(MajorantError):
    """The support does not sit on an affine lattice."""


def lattice_params(d: FiniteDist) -> tuple[float, float]:
    """Infer (origin, step) with origin = max atom; raise LatticeError.

    The step is the smallest gap, divided by a small integer if needed
    so that every gap is an integer multiple within 1e-9 of the largest
    |atom|, so that the inference commutes with scaling the law.
    """
    v = d.values
    if len(v) < 2:
        raise LatticeError("lattice inference needs at least two atoms")
    gaps = np.diff(v)
    base = float(np.min(gaps))
    scale = float(np.max(np.abs(v)))
    for div in range(1, 9):
        h = base / div
        ratios = gaps / h
        if np.all(np.abs(ratios - np.round(ratios)) * h <= _LATTICE_RTOL * scale):
            return float(v[-1]), h
    raise LatticeError("support is not an affine lattice (within 1e-9)")


def _bridge_log(x, x0, x1, y0, y1):
    """log of a bridge, log-linear from (x0, y0) to (x1, y1), at x."""
    return y0 + _div(x - x0, x1 - x0) * (y1 - y0)


def _arc_log(x, q0, beta, x0):
    """log of an arc, the interpolant q0 + beta (x - x0), at x: -inf where
    that is not > 0, and floored at 1e-320 above 0."""
    val = q0 + beta * (x - x0)
    return _where(val > 0, _log(_maximum(val, 1e-320)), -math.inf)


@dataclass(frozen=True)
class TailMajorant:
    """Evaluable log-concave tail majorant.

    hull_x / hull_logq list the hull vertices; segment i between
    vertices i and i+1 is either an exact arc of the interpolant
    (seg_is_arc[i], probability value seg_q[i] + seg_beta[i] * (x -
    seg_x0[i])) or a log-linear bridge.  node_x / node_q are the points
    of the majorized tail: its step corners (refine None), or the
    lattice points of its linear interpolant, sampled `refine` times per
    step into knot_x / knot_logq on first use.
    """
    kind: str
    node_x: np.ndarray
    node_q: np.ndarray
    hull_x: np.ndarray
    hull_logq: np.ndarray
    seg_is_arc: np.ndarray
    seg_q: np.ndarray
    seg_beta: np.ndarray
    seg_x0: np.ndarray
    support_min: float
    zero_from: float
    step: float | None = None
    origin: float | None = None
    refine: int | None = None

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        if self.refine is None:
            return self.node_x, np.log(self.node_q)
        lat, qt = self.node_x, self.node_q
        frac = np.arange(self.refine) / self.refine
        knot_x = (lat[:-1, None] + frac * self.step).ravel()
        knot_q = (qt[:-1, None] + (qt[1:] - qt[:-1])[:, None] * frac).ravel()
        live = knot_q > 0
        return knot_x[live], np.log(knot_q[live])

    @cached_property
    def _bands(self) -> np.ndarray:
        """The top of each step corner's band (dist.atom_band)."""
        return atom_band(self.node_x)

    @property
    def knot_x(self) -> np.ndarray:
        return self._knots[0]

    @property
    def knot_logq(self) -> np.ndarray:
        return self._knots[1]

    def log_value(self, x) -> float | np.ndarray:
        """log of the majorant at x: a float for a scalar x, else an array.

        One body for both (optimize's primitives): a scalar x is taken in
        float arithmetic, so log_value(x) is log_value([x])[0] bit for
        bit."""
        x = _float_or_array(x)
        if not _all(_isfinite(x)):
            raise MajorantError("x must be finite")
        below = x <= atom_band(self.support_min)
        above = x > atom_band(self.zero_from)
        # one x outside the support needs no segment; a one-atom law has
        # every x below or above
        if (below | above) is True or len(self.hull_x) < 2:
            return _where(below, 0.0, -math.inf)
        if self.refine is None:
            # x in a step corner's band is read at the corner: the first
            # corner whose band reaches x, where x passed it
            x = _minimum(x, _take(self.node_x, _minimum(_search(self._bands, x),
                                                        len(self.node_x) - 1)))
        # the segment of each x: the last vertex at or below it, but at
        # least the first and at most the last segment
        i = _search(self.hull_x[1:-1], x, "right")
        x0, x1 = _take(self.hull_x, i), _take(self.hull_x, i + 1)
        y0, y1 = _take(self.hull_logq, i), _take(self.hull_logq, i + 1)
        # before the first vertex (the flat cells ahead of the first
        # arc of linlc) the tail is that vertex's: the first segment,
        # extended there, would rise past 1; x in zero_from's band is
        # evaluated at zero_from, the last vertex
        x = _minimum(_maximum(x, float(self.hull_x[0])), self.zero_from)
        # the segment's form at each x: a bridge, or an arc of the
        # interpolant (log of a linear tail); outside the support, where
        # either form may overflow, x takes 0 or -inf
        with _quiet(x):
            seg = _bridge_log(x, x0, x1, y0, y1)
            if self.kind == "linlc":  # lc has no arcs
                q, beta, a0 = (_take(f, i) for f in (self.seg_q, self.seg_beta, self.seg_x0))
                seg = _where(_take(self.seg_is_arc, i), _arc_log(x, q, beta, a0), seg)
        return _where(below, 0.0, _where(above, -math.inf, seg))

    def value(self, x) -> float | np.ndarray:
        """The majorant at x, exp of log_value by numpy's exp for a scalar
        x too, so value(x) is value([x])[0] bit for bit."""
        return _exp(self.log_value(x))

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "support_min": self.support_min,
            "zero_from": self.zero_from,
            "step": self.step,
            "origin": self.origin,
            "knots": [{"x": float(a), "logq": float(b)}
                      for a, b in zip(self.knot_x, self.knot_logq)],
            "hull": [{"x": float(a), "logq": (float(b) if np.isfinite(b) else None)}
                     for a, b in zip(self.hull_x, self.hull_logq)],
        }


def _hull_rounds(n: int, off, cols=(), bridge=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The pieces 0..n-1 of a chain on its upper hull, as indices, and
    with `bridge` the bridge of each pair of consecutive ones.

    cols are arrays over the pieces left; bridge(a, b) bridges the pairs
    of pieces a[i] < b[i], and w holds those of neighbours.  Each round
    drops every interior piece that off(cols, w) marks as under (or on)
    the bridge of its neighbours, which is off the hull whatever else is
    removed, and bridges only the new neighbour pairs.  When a round
    drops nothing the chain is concave, so it is the hull.  A chain can
    shed as few as one piece a round (a concave stretch under the bridge
    to a heavy top atom), so at worst there are as many rounds as pieces.
    """
    keep = np.arange(n)
    w = None if bridge is None else bridge(keep[:-1], keep[1:])
    while len(keep) > 2:
        drop = off(cols, w)
        if not drop.any():
            break
        stay = np.concatenate(([True], ~drop, [True]))
        keep, cols = keep[stay], [c[stay] for c in cols]
        if bridge is not None:
            # pair i of the chain left joins its pieces i and i + 1; where
            # those were neighbours before, its bridge is known
            i = stay.nonzero()[0]
            w = w[i[:-1]]
            new = (np.diff(i) > 1).nonzero()[0]
            w[new] = bridge(keep[new], keep[new + 1])
    return keep, w


def _upper_hull_indices(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Upper concave hull of points sorted by x, as indices: _hull_rounds
    drops each middle point on or below the chord of its neighbours, whose
    cross product is >= 0 (the monotone chain's test)."""
    def under_chord(cols, _):
        x, y = cols
        return (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (x[2:] - x[:-2]) * (y[1:-1] - y[:-2]) >= 0
    return _hull_rounds(len(x), under_chord, (x, y))[0]


def lc_majorant(d: FiniteDist) -> TailMajorant:
    """Least log-concave majorant of the step tail of d.

    The lattice reported is the one d carries, else lattice_params(d),
    else none."""
    v = d.values
    # cumsum roundoff can pass 1, as in _lattice_tails
    q = np.minimum(d.upper_tails, 1.0)
    logq = np.log(q)
    hull = _upper_hull_indices(v, logq)
    hx, hy = v[hull], logq[hull]
    nseg = max(len(hx) - 1, 0)
    try:
        origin, step = d.lattice or lattice_params(d)
    except LatticeError:
        origin, step = None, None
    return TailMajorant(
        kind="lc", node_x=v, node_q=q, hull_x=hx, hull_logq=hy,
        seg_is_arc=np.zeros(nseg, dtype=bool), seg_q=np.zeros(nseg),
        seg_beta=np.zeros(nseg), seg_x0=np.zeros(nseg),
        support_min=float(v[0]), zero_from=float(v[-1]),
        step=step, origin=origin)


def _lc_at(d: FiniteDist, x: float) -> float | None:
    """lc_majorant(d).log_value(x) at one x, bit for bit, from the chord
    of the step corners around x; None where the whole hull has to answer.

    x is clipped as log_value clips it: x in a corner's band reads at the
    corner.  Up to the band of the last corner whose tail is the first
    corner's (1, or 1 - 2^-53 where the suffix sums round below 1), the
    hull is flat at the first corner's log tail, and x reads it: the
    hull's test drops every corner inside such a run and keeps its ends.
    Past it, the corners a < b = a + 1 around the clipped x answer where
    every other corner lies below the line through them by more than the
    rounding of that test (_chord_majorizes): a and b are then adjacent
    hull vertices, and x reads their segment by log_value's formula.  x
    in the bottom atom's band reads 0 and past the top atom's band -inf."""
    if not math.isfinite(x):
        return None
    v = d.values
    if x <= atom_band(float(v[0])):
        return 0.0
    if x > atom_band(float(v[-1])):
        return -math.inf
    # the first corner whose band reaches x (bands rise with the corners)
    c = _search(v, x)
    if x <= atom_band(float(v[c - 1])):
        c -= 1
    q = np.minimum(d.upper_tails, 1.0)
    logq = np.log(q)
    if q[c] == q[0]:
        return float(logq[0])
    xc = _minimum(x, float(v[c]))
    a = c - 1 if xc < v[c] or c == len(v) - 1 else c
    if not _chord_majorizes(v, logq, a):
        return None
    x0, x1, y0, y1 = float(v[a]), float(v[a + 1]), float(logq[a]), float(logq[a + 1])
    return _bridge_log(xc, x0, x1, y0, y1)


def _chord_majorizes(v: np.ndarray, logq: np.ndarray, a: int) -> bool:
    """Whether every corner but a and b = a + 1 lies below the line
    through them by more than the rounding of _upper_hull_indices' test,
    so that both are adjacent vertices of the hull it builds.

    With y in [-Y, 0], that test's cross product for corners l < m < r is
    within 3.01 eps/2 of 2 Y (v_r - v_l) of its value, which for m = a or
    b is -(v_r - v_m) delta_l - (v_m - v_l) delta_r, delta being the depth
    below the line.  So depths with delta_j (v_b - v_a) above 8 eps Y
    times the farther of v_b - v_j and v_j - v_a keep every such sign.
    delta_j (v_b - v_a) is taken as the cross product (y_a - y_j) (v_b -
    v_a) + (y_b - y_a) (v_j - v_a), within 4 eps Y of the same span of its
    value, so 32 eps Y covers both.  It is 0 at a and b, which fail."""
    x0, x1 = v[a], v[a + 1]
    y0 = logq[a]
    cross = (y0 - logq) * (x1 - x0) + (logq[a + 1] - y0) * (v - x0)
    span = np.abs(v - 0.5 * (x0 + x1)) + 0.5 * (x1 - x0)
    return np.count_nonzero(cross > (32.0 * _EPS * -logq[-1]) * span) == len(v) - 2


# ---------------------------------------------------------------------------
# exact hull over the log of the linearly interpolated tail
# ---------------------------------------------------------------------------

# Bridge slopes are solved in u = log(-s h), safeguarded by the bracket
# [-709, 8].  At u = -709 every arc touches at its left corner, because a
# cell's mass over its tail is at least MIN_MASS > e^-709, so an
# intercept difference is log(q0_a / q0_b) > 0 up to e^-709 per step.  At
# u = 8 it is below 717 - (e^8 - 1) < 0: no touch value is below
# MIN_MASS e^-8, and the later arc's touch point is at least 1 - e^-8
# steps right of the earlier one's.  A Newton step that leaves the
# current bracket is replaced by its midpoint; halving alone narrows the
# bracket below the float spacing in 62 evaluations, so _MAX_EVALS only
# bounds the loop.
_U_FLAT = -709.0
_U_STEEP = 8.0
_MAX_EVALS = 100


def _step(d: FiniteDist) -> float:
    """The lattice step of d's interpolated hull: the one d carries, else
    lattice_params(d)'s."""
    return d.lattice[1] if d.lattice is not None else lattice_params(d)[1]


def _lattice_tails(d: FiniteDist) -> tuple[np.ndarray, np.ndarray, float]:
    """The lattice points from the bottom atom through the top atom plus
    one step, the tail at each (0 at the last), and the step.

    The lattice is the one d carries, else lattice_params(d).  Each atom
    counts at its lattice index rint((v - v_min) / h), so the tail at
    lattice point j is the clipped suffix sum from the first atom of
    index >= j.  On a carried lattice atom k has index k, and the tails
    are the suffix sums themselves; on an inferred one an atom off its
    point by up to lattice_params' tolerance still counts there.
    """
    v = d.values
    # suffix sums of positive masses are > 0; cumsum roundoff can pass 1
    suffix = np.concatenate((d.upper_tails, [0.0]))
    np.minimum(suffix, 1.0, out=suffix)
    h = _step(d)
    if d.lattice is not None:
        return v[0] + h * np.arange(len(suffix)), suffix, h  # through max + h
    index = np.rint((v - v[0]) / h)
    lat = v[0] + h * np.arange(index[-1] + 2)
    return lat, suffix[np.searchsorted(index, np.arange(len(lat)))], h


def _at_arcs(k: np.ndarray, *cells: np.ndarray) -> list[np.ndarray]:
    """Each per-lattice-point array at the arcs' left and right corners,
    k and k + 1; where every cell is an arc these are views, not gathers."""
    if len(k) == len(cells[0]) - 1:
        return [c for a in cells for c in (a[:-1], a[1:])]
    k1 = k + 1
    return [c for a in cells for c in (a[k], a[k1])]


def _arcs(qt: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arc table (k, log m, log q0, log q1, r): one entry per lattice
    cell k where the tail decreases, with mass m = q0 - q1 and r = q0 / m.

    The tail is > 0 up to its last point, where it is 0, so log q1 of
    the last arc is -inf.  Where every cell decreases (each atom's mass
    shows in the tail sums), the per-arc fields are the cells' own, and
    no gather is made."""
    k = (qt[:-1] > qt[1:]).nonzero()[0]
    lq = np.empty(len(qt))
    np.log(qt[:-1], out=lq[:-1])
    lq[-1] = -np.inf
    q0, q1, lq0, lq1 = _at_arcs(k, qt, lq)
    m = q0 - q1
    return k, np.log(m), lq0, lq1, q0 / m


def _bridges(k, lm, lq0, lq1, r, a, b) -> tuple[float | np.ndarray, int]:
    """u of the common support line of arcs a[i] < b[i], all pairs at once,
    and the number of psi evaluations it took; for one pair of int indices
    a < b, u as a float.

    The intercept difference psi(u) = log(I_a / I_b) - e^u (k_b + t_b -
    k_a - t_a), with I = clip(m e^-u, q1, q0) and touch offsets t = clip(r
    - e^-u, 0, 1) in steps, is nonincreasing and C^1 in u: where an arc's
    touch point is interior, d log I / du = -1 and e^u dt/du = 1 cancel,
    so psi'(u) = -e^u (k_b + t_b - k_a - t_a).  With both touch points
    interior the root is closed-form, u0 = log(log(m_a / m_b) / (k_b + r_b
    - k_a - r_a)); where that is not a finite point of the bracket, the
    chord slope between the two cell midpoints starts instead.  Newton
    steps in e^u, u + log1p(psi / -psi'), then run on the pairs whose
    |psi| is above rounding level: psi is linear in e^u where both touch
    points are interior, and e^u plus or minus log e^u where one is.
    Where psi is 0 (both arcs touch a shared corner) u stays, so such a
    bridge has no length.

    One body for both (optimize's primitives): each pair's u moves on its
    own, and a pair stops where its |psi| first falls to rounding level,
    so one pair solved as floats is the same pair in an array bit for
    bit.  Float arithmetic raises no numpy warning; for arrays they are
    off.
    """
    dk = 1.0 * (_take(k, b) - _take(k, a))
    lma, q0a, q1a, ra = _take(lm, a), _take(lq0, a), _take(lq1, a), _take(r, a)
    lmb, q0b, q1b, rb = _take(lm, b), _take(lq0, b), _take(lq1, b), _take(r, b)
    d = lma - lmb
    with _quiet(d):
        # neighbour cells share q1_a = q0_b, so the closed form is
        # log(m_a m_b / (q0_b L)) with L the logarithmic mean of m_a, m_b:
        # no cancellation, and exact where the masses are equal (a double
        # root of psi)
        nad = -_abs(d)
        log_mean = _where(d != 0, _log(_div(_expm1(nad), nad)), 0.0)
        u = lma - q0b - log_mean - _maximum(d, 0.0)
        neighbours = dk == 1
        if not _all(neighbours):
            u = _where(neighbours, u, _log(_div(d, dk + rb - ra)))
        inside = (u > _U_FLAT) & (u < _U_STEEP)
        if not _all(inside):
            chord = _log(_div(_logaddexp(q0a, q1a) - _logaddexp(q0b, q1b), dk))
            u = _where(inside, u, _minimum(_maximum(chord, _U_FLAT), _U_STEEP))
        # the bracket of each pair's root, narrowed by each step it takes
        lo, hi = _U_FLAT, _U_STEEP
        evals = 0
        while evals < _MAX_EVALS:
            evals += 1
            g = _exp(-u)
            la = _minimum(_maximum(lma - u, q1a), q0a)
            lb = _minimum(_maximum(lmb - u, q1b), q0b)
            offa, offb = ra - g, rb - g
            drop = (dk + _minimum(_maximum(offb, 0.0), 1.0)
                    - _minimum(_maximum(offa, 0.0), 1.0)) / g  # -psi'
            psi = (la - lb) - drop
            # rounding level: the logs, psi' times the float spacing at u,
            # and e^u times the rounding of each touch offset that is not
            # clipped by more than that rounding.  The last term is >= 0,
            # so it is added only if some |psi| is above the level without it
            abs_psi = _abs(psi)
            level = 4.0 * _EPS * (_abs(la) + _abs(lb) + (dk + 1.0) * (1.0 + _abs(u)) / g)
            busy = abs_psi > level
            if _any(busy):
                erra, errb = 4.0 * _EPS * (ra + g), 4.0 * _EPS * (rb + g)
                near_a = _where((offa > -erra) & (offa < 1.0 + erra), erra, 0.0)
                near_b = _where((offb > -errb) & (offb < 1.0 + errb), errb, 0.0)
                busy = abs_psi > level + (near_a + near_b) / g
            if not _any(busy):
                break
            # a safeguarded Newton step for the pairs still busy; a pair
            # at rounding level keeps its u, so its psi stays there
            lo = _where(busy & (psi > 0), u, lo)
            hi = _where(busy & (psi < 0), u, hi)
            nxt = u + _log1p(_div(psi, drop))
            u = _where(busy, _where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi)), u)
    return u, evals


def _kept_arcs(arcs) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the arcs on the hull, and the u of each bridge between
    consecutive ones: _hull_rounds drops each arc whose incoming bridge is
    steeper than its outgoing one (see lin_lc_majorant)."""
    return _hull_rounds(len(arcs[0]), lambda _, u: u[:-1] > u[1:],
                        bridge=lambda a, b: _bridges(*arcs, a, b)[0])


def _slack(lo, hi, x0, q0, beta, s, top: float, hull) -> np.ndarray:
    """hull(x) - log(q0 + beta (x - x0)) at the ends of each overlap [lo,
    hi] of a line or arc with a lattice cell and at the cell's touch point
    for slope s clipped to it, a (3, overlaps) array; +inf where a point
    does not count.

    On a decreasing cell a line of slope s minus the log interpolant is
    convex, least at the touch point x0 + 1/s - q0/beta; on a flat cell
    it is linear.  Elsewhere the touch point is another point of the
    overlap, checked to no harm, or NaN, which the comparison skips; one
    past the float range (a slope or a beta near 0) clips to an end.
    Past the last lattice point, top, both are 0, and no point counts.  A
    NaN slack stays NaN.  Its callers ignore numpy's divide, invalid and
    overflow warnings."""
    touch = x0 + 1.0 / s - q0 / beta
    x = np.array((lo, hi, np.minimum(np.maximum(touch, lo), hi)))
    q = q0 + beta * (x - x0)
    return np.where((q > 0) & (x < top), hull(x) - np.log(q), math.inf)


def _certify(maj: TailMajorant, lat: np.ndarray, qt: np.ndarray) -> None:
    """Raise MajorantError unless maj majorizes the linear interpolant of
    the tail values qt at the lattice points lat, to within 1e-9 in log.

    Exact in O(cells): each hull segment is compared with the log
    interpolant on every cell it overlaps, at the ends of the overlap and,
    under a bridge of slope s, where their difference is least (see
    _slack).  On an arc segment both are logs of linear functions,
    whose difference is monotone.
    """
    h = maj.step
    hx, hy = maj.hull_x, maj.hull_logq
    ncell = len(lat) - 1
    pos = (hx - lat[0]) / h
    first = np.minimum(np.maximum(np.floor(pos[:-1]), 0), ncell - 1)
    last = np.minimum(np.maximum(np.ceil(pos[1:]) - 1, first), ncell - 1)
    count = (last - first + 1).astype(int)
    seg = np.repeat(np.arange(len(count)), count)
    cell = np.arange(len(seg)) + np.repeat(first.astype(int) - np.cumsum(count) + count, count)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # each segment's and each cell's fields, gathered once per overlap
        slope = (hy[1:] - hy[:-1]) / (hx[1:] - hx[:-1])
        hx0, hx1, hy0, s, sq, sb, sx0 = np.array(
            (hx[:-1], hx[1:], hy[:-1], slope, maj.seg_q, maj.seg_beta, maj.seg_x0)
        ).take(seg, axis=1)
        x0, x1, q0, beta = np.array(
            (lat[:-1], lat[1:], qt[:-1], (qt[1:] - qt[:-1]) / h)).take(cell, axis=1)
        arc = maj.seg_is_arc[seg]
        least = _slack(np.maximum(x0, hx0), np.minimum(x1, hx1), x0, q0, beta, s, lat[-1],
                       lambda x: np.where(arc, np.log(sq + sb * (x - sx0)),
                                          hy0 + s * (x - hx0))).min()
    if not least >= -_CERT_TOL:
        raise MajorantError(f"hull fails to majorize the interpolant (deficit {least:g})")


def lin_lc_majorant(d: FiniteDist, refine: int = 64) -> TailMajorant:
    """Least log-concave majorant of the lattice-linear interpolant of the tail.

    The arcs are the lattice cells where the tail decreases, each with
    I(x) = q0 + beta (x - x0) on [x0, x1] and mass m = q0 - q1; flat
    cells add nothing beyond their right corner, which starts the next
    arc.  At slope s < 0, log I touches its support line where I = beta
    / s, i.e. m e^-u with u = log(-s h), clipped to the cell.  Bridges
    are taken between full cells: the hull's contact with an arc is then
    the range between the touch points of its two bridges.

    An arc whose incoming bridge is steeper than its outgoing one lies
    under the bridge of its two neighbours at every slope, so it is off
    the hull whatever else is removed.  The arcs are pruned by
    _hull_rounds (_kept_arcs): each round drops every such arc at once
    and bridges only the new neighbour pairs, until nothing drops.  The
    result is checked exactly against the interpolant (_certify).
    `refine`, an integer >= 2, only sets the density of the knot sample
    that `to_obj` reports, not the hull.
    """
    refine = _count(refine, "refine", MajorantError, 2)
    lat, qt, h = _lattice_tails(d)
    arcs = _arcs(qt)
    k, *_, r = arcs
    if len(k) == 0:
        raise MajorantError("tail has no decreasing segment")
    x0, x1, q0, q1 = _at_arcs(k, lat, qt)
    dx = x1 - x0
    # the fields of the arcs on the hull, one row each
    table = np.array((q0, (q1 - q0) / dx, x0, x1, dx, r))
    keep, u = _kept_arcs(arcs)
    if len(keep) < len(k):
        table = table.take(keep, axis=1)
    q0, beta, x0, x1, dx, r = table

    # vertices: each kept arc's in and out touch points (rows), where e^-u
    # is +inf before the first arc and 0 after the last; then segments
    # alternate arc and bridge, and one shorter than roundoff gives way to
    # the next one
    g = np.exp(-np.concatenate(([-np.inf], u, [np.inf])))
    off = np.minimum(np.maximum(r - np.array((g[:-1], g[1:])), 0.0), 1.0)
    tx = np.where(off < 1.0, x0 + off * dx, x1)
    with np.errstate(divide="ignore"):
        ty = np.log(np.maximum(q0 + beta * (tx - x0), 0.0))
    tx, ty = tx.T.ravel(), ty.T.ravel()
    seg = (tx[1:] > tx[:-1] + 1e-15 * np.maximum(1.0, np.abs(tx[1:]))).nonzero()[0]
    vert = np.concatenate(([0], seg + 1))
    seg_is_arc = seg % 2 == 0
    seg_q, seg_beta, seg_x0 = np.where(seg_is_arc, table[:3].take(seg // 2, axis=1), np.nan)

    maj = TailMajorant(
        kind="linlc", node_x=lat, node_q=qt,
        hull_x=tx[vert], hull_logq=ty[vert], seg_is_arc=seg_is_arc,
        seg_q=seg_q, seg_beta=seg_beta, seg_x0=seg_x0,
        support_min=float(lat[0]), zero_from=float(lat[-1]),
        step=h, origin=float(d.max_value), refine=refine)
    _certify(maj, lat, qt)
    return maj


def _lin_lc_at(d: FiniteDist, x: float) -> float | None:
    """lin_lc_majorant(d).log_value(x) at one x, bit for bit, from the
    hull segment at x alone; None where the whole hull has to answer.

    x at or below the first arc's left corner, the hull's first vertex,
    reads that corner's log tail, as log_value reads it: it clips x to
    that vertex.  Otherwise the window is the arc a whose cell starts
    last at or below x and the arcs a - 1 and a + 1 next to it, with the
    bridges into, between and out of them (at most four), each solved
    alone, as floats (_bridges).  The window is used only where no arc of
    it lies under the bridge of its neighbours (each incoming bridge no
    steeper than the outgoing one), as lin_lc_majorant's first round
    would keep it, and otherwise None.

    _window_at evaluates the segment at x and its supporting line, which
    is certified against the interpolant on every cell (_line_majorizes):
    exp of the line is log-concave and majorizes the interpolant, so the
    hull lies below the line, and the value, on an arc of the interpolant
    or the chord between two of its points, lies below the hull.  So a
    certified value is the hull's, to within the check's 1e-9.  It has
    the hull's own vertices where no arc outside the window comes near
    the line, so every cell outside the window must clear the line by
    more than 1e-9: an arc the hull bridges to past the window would lie
    on or above it.  Where the check declines, None.  x in the bottom
    atom's band reads 0 and x past the top lattice point's band -inf,
    with no arc built.
    """
    if not math.isfinite(x):
        return None
    lat, qt, h = _lattice_tails(d)
    if x <= atom_band(float(lat[0])):
        return 0.0
    top = float(lat[-1])
    if x > atom_band(top):
        return -math.inf
    arcs = _arcs(qt)
    k, r = arcs[0], arcs[-1]
    if len(k) == 0:
        return None
    if x <= lat[k[0]]:
        return _log(qt[k[0]])
    a = _search(k, _search(lat, x, "right") - 1, "right") - 1
    lo, hi = max(a - 1, 0), min(a + 1, len(k) - 1)
    u = [_bridges(*arcs, i, i + 1)[0] for i in range(max(lo - 1, 0), min(hi + 1, len(k) - 1))]
    if not all(u0 <= u1 for u0, u1 in zip(u, u[1:])):
        return None
    line = _window_at(x, lat, qt, top, k, r, lo, hi, [_exp(-v) for v in u])
    if line is None or not _line_majorizes(lat, qt, h, *line, (int(k[lo]), int(k[hi]))):
        return None
    return line[1]


def _window_at(x: float, lat: np.ndarray, qt: np.ndarray, top: float, k: np.ndarray,
               r: np.ndarray, lo: int, hi: int,
               g: list[float]) -> tuple[float, float, float] | None:
    """x clipped to the top lattice point, the log-value at x of the hull
    of arcs lo..hi of the chain (cells k, r = q0 / m), and the slope of
    the segment's supporting line there; None where the window has no
    vertex at or below x or none above it (every segment of a stretch
    merged).  x lies past the chain's first vertex, the left corner of
    arc 0 (the caller reads x up to it flat).

    g holds e^-u of the bridges into, between and out of the window's
    arcs, with none into arc 0 or out of the last arc.  The in and out
    touch points of each arc are built with lin_lc_majorant's vertex
    expressions on floats (numpy's exp and log, as log_value takes
    them), and its rule merges the segments shorter than roundoff.  x
    lies at or past the out touch point of arc lo and below the in touch
    point of arc hi (at the chain's ends, anywhere), so the vertices
    around x are the window's; the segment at x is picked as
    TailMajorant.log_value picks it and evaluated by its formulas
    (_arc_log, _bridge_log), its line being the bridge's chord or the
    arc's tangent at x."""
    # e^-u is +inf before the first arc and 0 after the last
    last = hi == len(k) - 1
    if lo == 0:
        g = [math.inf, *g]
    if last:
        g = [*g, 0.0]
    tx, tq, fields = [], [], []
    for b in range(lo, hi + 1):
        j = int(k[b])
        x0, x1, q0, q1 = float(lat[j]), float(lat[j + 1]), float(qt[j]), float(qt[j + 1])
        dx = x1 - x0
        beta = _div(q1 - q0, dx)
        fields.append((q0, beta, x0))
        for gb in g[b - lo:b - lo + 2]:
            off = _minimum(_maximum(float(r[b]) - gb, 0.0), 1.0)
            tx.append(x0 + off * dx if off < 1.0 else x1)
            tq.append(q0 + beta * (tx[-1] - x0))
    # touch point i + 1 is a hull vertex where segment i (arc i // 2, or
    # a bridge for odd i) is longer than roundoff; the first touch point
    # is the hull's first vertex
    ends = [-1] if lo == 0 else []
    ends += [i for i, (t0, t1) in enumerate(zip(tx, tx[1:]))
             if t1 > t0 + 1e-15 * _maximum(1.0, abs(t1))]
    vert = [tx[i + 1] for i in ends]
    if len(vert) < 2 or not (vert[0] <= x and (last or x < vert[-1])):
        return None
    # the segment at x, which ends where segment `end` of the window does
    i = sum(v <= x for v in vert[1:-1])
    end = ends[i + 1]
    # x clipped as log_value clips it: x is past the hull's first vertex
    xc = _minimum(x, top)
    if end % 2 == 0:
        q0, beta, x0 = fields[end // 2]
        return xc, _arc_log(xc, q0, beta, x0), _div(beta, q0 + beta * (xc - x0))
    y0, y1 = _log(_maximum(tq[ends[i] + 1], 0.0)), _log(_maximum(tq[end + 1], 0.0))
    v0, v1 = vert[i], vert[i + 1]
    return xc, _bridge_log(xc, v0, v1, y0, y1), (y1 - y0) / (v1 - v0)


def _line_majorizes(lat: np.ndarray, qt: np.ndarray, h: float, x: float, y: float,
                    s: float, clear: tuple[int, int]) -> bool:
    """Whether the line through (x, y) of slope s < 0, both finite, lies
    above the log of the linear interpolant of the tail values qt at the
    lattice points lat on cells c0..c1 of clear = (c0, c1), to within
    1e-9 (see _slack), and by more than 1e-9 on every other cell."""
    if not (math.isfinite(y) and s < 0.0):
        return False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slack = _slack(lat[:-1], lat[1:], lat[:-1], qt[:-1], (qt[1:] - qt[:-1]) / h, s,
                       float(lat[-1]), lambda t: y + s * (t - x))
    c0, c1 = clear
    return bool(slack[:, c0:c1 + 1].min() >= -_CERT_TOL
                and min(slack[:, :c0].min(initial=math.inf),
                        slack[:, c1 + 1:].min(initial=math.inf)) > _CERT_TOL)
