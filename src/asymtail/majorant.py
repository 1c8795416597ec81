"""Least log-concave majorants of discrete tail functions.

Two constructions over the tail q(x) = P(D >= x) of a FiniteDist:

- lc_majorant: the least log-concave majorant of the step tail itself.
  Because the constraint set is the finite family of step corners
  (x_k, log q_k), this is the upper concave hull of those points:
  log-linear between hull knots, 1 left of the support, 0 past it.
  The hull is array code in rounds: each round drops every middle
  point on or below the chord of its current neighbours, until none
  drops (see _upper_hull_indices).

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
  safeguarded Newton for all pairs at once; arcs that lie under a
  bridge of two others are dropped in rounds (see lin_lc_majorant).
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

A point query needs one segment of the hull: _lin_lc_at runs the same
construction up to the bridge slopes, builds only the touch points of
the kept arcs around x, and certifies the value there by its supporting
line against every cell, as _certify checks a hull segment (see
_least_slack), falling back to the whole hull where it cannot.

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
from .optimize import _div, _maximum, _minimum

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
    so that every gap is an integer multiple within 1e-9 relative.
    """
    v = d.values
    if len(v) < 2:
        raise LatticeError("lattice inference needs at least two atoms")
    gaps = np.diff(v)
    base = float(np.min(gaps))
    scale = max(1.0, float(np.max(np.abs(v))))
    for div in range(1, 9):
        h = base / div
        ratios = gaps / h
        if np.all(np.abs(ratios - np.round(ratios)) * h <= _LATTICE_RTOL * scale):
            return float(v[-1]), h
    raise LatticeError("support is not an affine lattice (within 1e-9)")


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

    @cached_property
    def _segments(self) -> np.ndarray:
        """The per-segment fields that log_value reads, one row each, so
        that one gather serves them all."""
        hx, hy = self.hull_x, self.hull_logq
        return np.array((hx[:-1], hx[1:], hy[:-1], hy[1:], self.seg_q, self.seg_beta, self.seg_x0))

    @property
    def knot_x(self) -> np.ndarray:
        return self._knots[0]

    @property
    def knot_logq(self) -> np.ndarray:
        return self._knots[1]

    def log_value(self, x) -> float | np.ndarray:
        """log of the majorant at x: a float for a scalar x, else an array.

        A scalar x is evaluated in float arithmetic, with the array
        path's operations in its order, so log_value(x) is
        log_value([x])[0] bit for bit."""
        if np.ndim(x) == 0:
            return self._log_value_at(float(x))
        xa = np.asarray(x, dtype=float)
        if not np.isfinite(xa).all():
            raise MajorantError("x must be finite")
        below = xa <= atom_band(self.support_min)
        above = xa > atom_band(self.zero_from)
        if len(self.hull_x) < 2:
            # a one-atom law: every x is below or above
            return np.where(below, 0.0, -np.inf)
        if self.refine is None:
            # x in a step corner's band is read at the corner: the first
            # corner whose band reaches x, where x passed it
            xa = np.minimum(xa, self.node_x[np.minimum(
                np.searchsorted(self._bands, xa), len(self.node_x) - 1)])
        # the segment of each x: the last vertex at or below it, but at
        # least the first and at most the last segment
        idx = np.searchsorted(self.hull_x[1:-1], xa, side="right")
        x0, x1, y0, y1, q, beta, a0 = self._segments.take(idx, axis=1)
        # before the first vertex (the flat cells ahead of the first
        # arc of linlc) the tail is that vertex's: the first segment,
        # extended there, would rise past 1; x in zero_from's band is
        # evaluated at zero_from, the last vertex
        xa = np.minimum(np.maximum(xa, self.hull_x[0]), self.zero_from)
        # both segment forms at every x, then the one of its segment:
        # an arc of the interpolant (log of a linear tail) or a bridge;
        # outside the support, where either form may overflow, x takes 0 or -inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            seg = y0 + (xa - x0) / (x1 - x0) * (y1 - y0)
            arc = self.seg_is_arc[idx]
            if arc.any():
                val = q + beta * (xa - a0)
                seg = np.where(arc, np.where(val > 0, np.log(np.maximum(val, 1e-320)),
                                             -np.inf), seg)
        return np.where(below, 0.0, np.where(above, -np.inf, seg))

    def _log_value_at(self, x: float) -> float:
        """log_value at one x: one search for the segment, whose fields
        are read directly.  x is clipped as np.minimum(np.maximum(x, a), b)
        clips it, keeping a and b on ties, as max(a, x) and min(b, x) do."""
        if not math.isfinite(x):
            raise MajorantError("x must be finite")
        if x <= atom_band(self.support_min):
            return 0.0
        hx = self.hull_x
        if x > atom_band(self.zero_from) or len(hx) < 2:
            return -math.inf
        if self.refine is None:
            # x is within zero_from's band, so some corner's band reaches it
            x = min(x, float(self.node_x[np.searchsorted(self._bands, x)]))
        i = int(np.searchsorted(hx[1:-1], x, side="right"))
        x = min(self.zero_from, max(float(hx[0]), x))
        if self.seg_is_arc[i]:
            val = float(self.seg_q[i]) + float(self.seg_beta[i]) * (x - float(self.seg_x0[i]))
            if not val > 0:
                return -math.inf
            return float(np.log(val if val > 1e-320 else 1e-320))
        x0, x1 = float(hx[i]), float(hx[i + 1])
        y0, y1 = float(self.hull_logq[i]), float(self.hull_logq[i + 1])
        return y0 + (x - x0) / (x1 - x0) * (y1 - y0)

    def value(self, x) -> float | np.ndarray:
        """The majorant at x.  Both paths take numpy's exp, so value(x) is
        value([x])[0] bit for bit."""
        lv = self.log_value(x)
        out = np.exp(lv)  # exp(-inf) is 0
        return float(out) if isinstance(lv, float) else out

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


# Rounds of the point hull before the monotone chain finishes.  Carriers
# need at most 3 and random general laws at most about 17; a binomial
# tail ending in a heavy top atom needs 38 at n = 1000.
_HULL_ROUNDS = 32


def _monotone_chain(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Upper concave hull of points sorted by x (Andrew's monotone chain)."""
    keep: list[int] = []
    for i in range(len(x)):
        while len(keep) >= 2:
            i1, i2 = keep[-2], keep[-1]
            if (x[i2] - x[i1]) * (y[i] - y[i1]) - (x[i] - x[i1]) * (y[i2] - y[i1]) >= 0:
                keep.pop()
            else:
                break
        keep.append(i)
    return keep


def _upper_hull_indices(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Upper concave hull of points sorted by x, as indices, in rounds.

    Each round drops every middle point whose cross product with its
    current neighbours is >= 0 (on or below their chord), the monotone
    chain's test.  A point on or below a chord of one point on each side
    is no hull vertex, so no round drops a vertex; when a round drops
    nothing the chain is strictly concave, so it is the hull.  A chain
    can shed as little as one point a round (a concave stretch under the
    chord to a heavy top atom), which would make the rounds quadratic, so
    after _HULL_ROUNDS rounds the monotone chain finishes on the points
    left.
    """
    keep = np.arange(len(x))
    for _ in range(_HULL_ROUNDS):
        if len(keep) < 3:
            return keep
        # the points left, x[keep] and y[keep], as they shrink
        x1, x2, x3, y1, y2, y3 = x[:-2], x[1:-1], x[2:], y[:-2], y[1:-1], y[2:]
        drop = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1) >= 0
        if not drop.any():
            return keep
        stay = np.concatenate(([True], ~drop, [True]))
        keep, x, y = keep[stay], x[stay], y[stay]
    return keep[_monotone_chain(x, y)]


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


def _bridges(k, lm, lq0, lq1, r, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """u of the common support line of arcs a[i] < b[i], all pairs at once,
    and the number of psi evaluations it took.

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
    """
    pair = np.array((a, b))
    kp = k[pair]
    dk = (kp[1] - kp[0]).astype(float)
    lm, lq0, lq1, r = lm[pair], lq0[pair], lq1[pair], r[pair]
    neighbours = dk == 1
    d = lm[0] - lm[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # neighbour cells share q1_a = q0_b, so the closed form is
        # log(m_a m_b / (q0_b L)) with L the logarithmic mean of m_a, m_b:
        # no cancellation, and exact where the masses are equal (a double
        # root of psi)
        nad = -np.abs(d)
        log_mean = np.where(d != 0, np.log(np.expm1(nad) / nad), 0.0)
        u = lm[0] - lq0[1] - log_mean - np.maximum(d, 0.0)
        if not neighbours.all():
            u = np.where(neighbours, u, np.log(d / (dk + r[1] - r[0])))
        inside = (u > _U_FLAT) & (u < _U_STEEP)
        if not inside.all():
            mid = np.logaddexp(lq0, lq1)
            chord = np.log((mid[0] - mid[1]) / dk)
            u = np.where(inside, u, np.minimum(np.maximum(chord, _U_FLAT), _U_STEEP))
    # the first pass takes every pair; after it act, lo and hi exist, and
    # dk and the pair fields hold only the pairs in act
    act = lo = hi = None
    ua = u
    evals = 0
    while len(ua) and evals < _MAX_EVALS:
        evals += 1
        if act is not None:
            ua = u[act]
        g = np.exp(-ua)
        log_i = np.minimum(np.maximum(lm - ua, lq1), lq0)
        off = r - g
        t = np.minimum(np.maximum(off, 0.0), 1.0)
        drop = (dk + t[1] - t[0]) / g  # -psi'
        psi = (log_i[0] - log_i[1]) - drop
        # rounding level: the logs, psi' times the float spacing at u, and
        # e^u times the rounding of each touch offset that is not clipped
        # by more than that rounding.  The last term is >= 0, so it is
        # added only if some |psi| is above the level without it
        abs_i = np.abs(log_i)
        abs_psi = np.abs(psi)
        level = 4.0 * _EPS * (abs_i[0] + abs_i[1] + (dk + 1.0) * (1.0 + np.abs(ua)) / g)
        busy = abs_psi > level
        if busy.any():
            off_err = 4.0 * _EPS * (r + g)
            near = (off > -off_err) & (off < 1.0 + off_err)
            near_err = np.where(near, off_err, 0.0)
            busy = abs_psi > level + (near_err[0] + near_err[1]) / g
        if not busy.any():
            break
        if act is None:
            act = np.arange(len(a))
            lo = np.full(len(a), _U_FLAT)
            hi = np.full(len(a), _U_STEEP)
        still = busy.nonzero()[0]
        act, ua, psi, drop = act[still], ua[still], psi[still], drop[still]
        dk, lm, lq0, lq1, r = dk[still], lm[:, still], lq0[:, still], lq1[:, still], r[:, still]
        lo[act] = np.where(psi > 0, ua, lo[act])
        hi[act] = np.where(psi < 0, ua, hi[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = ua + np.log1p(psi / drop)
        u[act] = np.where((nxt > lo[act]) & (nxt < hi[act]), nxt,
                          0.5 * (lo[act] + hi[act]))
    return u, evals


def _kept_arcs(arcs) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the arcs on the hull, and the u of each bridge between
    consecutive ones (see lin_lc_majorant for the rounds)."""
    keep = np.arange(len(arcs[0]))
    u, _ = _bridges(*arcs, keep[:-1], keep[1:])
    while True:
        steeper = u[:-1] > u[1:]
        if not steeper.any():
            return keep, u
        bad = np.zeros(len(keep), dtype=bool)
        bad[1:-1] = steeper
        # bridge every arc of the stretch before each bad run to the arc
        # after the run; the stretch keeps its arcs up to the last one whose
        # incoming bridge is no steeper than that bridge (its first arc,
        # whose incoming bridge is not known yet, always stays)
        runs = bad.nonzero()[0]
        grp = np.searchsorted(runs, np.arange(len(keep)))
        back = (~bad & (grp < len(runs))).nonzero()[0]
        grp = grp[back]
        good = (~bad).nonzero()[0]
        to = good[np.searchsorted(good, runs[grp])]
        w, _ = _bridges(*arcs, keep[back], keep[to])
        stay = ((back == 0) | bad[back - 1] | (u[back - 1] <= w)).nonzero()[0]
        stay = stay[np.append(grp[stay[1:]] != grp[stay[:-1]], True)]
        gone = bad.copy()
        gone[back[back > back[stay][np.searchsorted(grp[stay], grp)]]] = True
        # the new neighbours of each run's successor were bridged just now
        kept = (~gone).nonzero()[0]
        u = u[kept[:-1]]
        joined = (np.diff(kept) > 1).nonzero()[0]
        u[joined] = w[np.searchsorted(back, kept[joined])]
        keep = keep[kept]


def _least_slack(lo, hi, x0, q0, beta, s, top: float, hull) -> float:
    """The least of hull(x) - log(q0 + beta (x - x0)) over the ends of
    each overlap [lo, hi] of a line or arc with a lattice cell and the
    cell's touch point for slope s clipped to it; +inf where none counts.

    On a decreasing cell a line of slope s minus the log interpolant is
    convex, least at the touch point x0 + 1/s - q0/beta; on a flat cell
    it is linear.  Elsewhere the touch point is another point of the
    overlap, checked to no harm, or NaN, which the comparison skips; one
    past the float range (a slope or a beta near 0) clips to an end.
    Past the last lattice point, top, both are 0.  A NaN slack is
    returned as NaN.  Its callers ignore numpy's divide, invalid and
    overflow warnings."""
    touch = x0 + 1.0 / s - q0 / beta
    x = np.array((lo, hi, np.minimum(np.maximum(touch, lo), hi)))
    q = q0 + beta * (x - x0)
    slack = (hull(x) - np.log(q))[(q > 0) & (x < top)]
    return float(slack.min()) if slack.size else math.inf


def _certify(maj: TailMajorant, lat: np.ndarray, qt: np.ndarray) -> None:
    """Raise MajorantError unless maj majorizes the linear interpolant of
    the tail values qt at the lattice points lat, to within 1e-9 in log.

    Exact in O(cells): each hull segment is compared with the log
    interpolant on every cell it overlaps, at the ends of the overlap and,
    under a bridge of slope s, where their difference is least (see
    _least_slack).  On an arc segment both are logs of linear functions,
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
        least = _least_slack(np.maximum(x0, hx0), np.minimum(x1, hx1), x0, q0, beta, s, lat[-1],
                             lambda x: np.where(arc, np.log(sq + sb * (x - sx0)),
                                                hy0 + s * (x - hx0)))
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

    An arc whose incoming bridge is steeper than its bridge to a later
    arc lies below the bridge of those two at every slope, so it is off
    the hull whatever else is removed.  Each round takes the bridges of
    neighbouring arcs and drops the arcs whose incoming bridge is
    steeper than their outgoing one.  In the same solve it bridges the
    arc after each dropped run back to every arc since the previous run,
    and drops those after the last one whose incoming bridge is no
    steeper than that bridge, so a long dominated stretch goes in one
    round; those back bridges are the next round's new neighbour
    bridges.  The rounds stop when nothing drops.  The result is checked
    exactly against the interpolant (_certify).  `refine` only sets the
    density of the knot sample that `to_obj` reports, not the hull.
    """
    if refine < 2:
        raise MajorantError("refine must be >= 2")
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

    The arcs, the kept arcs and the bridge slopes are lin_lc_majorant's
    own.  Around the kept arc a whose cell starts last at or below x, the
    in and out touch points of kept arcs a - 1, a and a + 1 are built with
    the vertex build's expressions on floats (numpy's exp and log, as
    log_value takes them), and its rule merges the segments shorter than
    roundoff.  x lies at or past the out touch point of a - 1 and below
    the in touch point of a + 1, so the hull vertices around x are those
    of the window, and the segment at x is picked and evaluated as
    TailMajorant._log_value_at does.  That value is certified by its
    supporting line (the bridge's chord, or the arc's tangent at x)
    against the interpolant on every cell (_line_majorizes): exp of the
    line is log-concave and majorizes the interpolant, so the least such
    majorant lies below it at x.  x in the bottom atom's band reads 0 and
    x past the top lattice point's band -inf, with no arc built.  None
    where the window has no vertex at or below x or none above it (every
    segment of a stretch merged), and where the line is not finite or
    fails.
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
    keep, u = _kept_arcs(arcs)
    if len(keep) < len(k):
        k, r = k[keep], r[keep]
    n = len(k)
    a = int(np.searchsorted(k, np.searchsorted(lat, x, side="right") - 1, side="right")) - 1
    lo, hi = max(a - 1, 0), min(a + 1, n - 1)
    # e^-u at the in touch point of each arc lo..hi and after the last:
    # +inf before the first arc and 0 after the last
    g = np.exp(-u[max(lo - 1, 0):min(hi + 1, n - 1)]).tolist()
    if lo == 0:
        g.insert(0, math.inf)
    if hi == n - 1:
        g.append(0.0)
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
    if len(vert) < 2 or not ((lo == 0 or vert[0] <= x) and (hi == n - 1 or x < vert[-1])):
        return None
    # the segment at x, which ends where segment `end` of the window does
    i = sum(v <= x for v in vert[1:-1])
    end = ends[i + 1]
    # x clipped as log_value clips it: tx[0] is the hull's first vertex
    # where lo is 0, and at or below x otherwise
    xc = _minimum(top, _maximum(tx[0], x))
    if end % 2 == 0:
        q0, beta, x0 = fields[end // 2]
        val = q0 + beta * (xc - x0)
        if not val > 1e-320:
            return None
        lv = float(np.log(val))
        s = beta / val
    else:
        with np.errstate(divide="ignore"):
            y0, y1 = np.log((_maximum(tq[ends[i] + 1], 0.0), _maximum(tq[end + 1], 0.0)))
        v0, v1 = vert[i], vert[i + 1]
        lv = float(y0 + (xc - v0) / (v1 - v0) * (y1 - y0))
        s = float((y1 - y0) / (v1 - v0))
    return lv if _line_majorizes(lat, qt, h, xc, lv, s) else None


def _line_majorizes(lat: np.ndarray, qt: np.ndarray, h: float, x: float, y: float,
                    s: float) -> bool:
    """Whether the line through (x, y) of slope s < 0, both finite, lies
    above the log of the linear interpolant of the tail values qt at the
    lattice points lat on every cell, to within 1e-9 (see _least_slack)."""
    if not (math.isfinite(y) and s < 0.0):
        return False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _least_slack(lat[:-1], lat[1:], lat[:-1], qt[:-1], (qt[1:] - qt[:-1]) / h, s,
                            float(lat[-1]), lambda t: y + s * (t - x)) >= -_CERT_TOL
