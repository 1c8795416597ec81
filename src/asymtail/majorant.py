"""Least log-concave majorants of discrete tail functions.

Two constructions over the tail q(x) = P(D >= x) of a FiniteDist:

- lc_majorant: the least log-concave majorant of the step tail itself.
  Because the constraint set is the finite family of step corners
  (x_k, log q_k), this is the upper concave hull of those points:
  log-linear between hull knots, 1 left of the support, 0 past it.

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

Evaluation is exact on arc segments (linear in probability space),
log-linear on bridges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dist import FiniteDist, tail

_EVAL_RTOL = 1e-12
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

    @property
    def knot_x(self) -> np.ndarray:
        return self._knots[0]

    @property
    def knot_logq(self) -> np.ndarray:
        return self._knots[1]

    def log_value(self, x) -> float | np.ndarray:
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xa)
        below = xa <= self.support_min + _EVAL_RTOL * max(1.0, abs(self.support_min))
        above = xa > self.zero_from + _EVAL_RTOL * max(1.0, abs(self.zero_from))
        mid = ~(below | above)
        out[below] = 0.0
        out[above] = -np.inf
        if np.any(mid):
            xm = xa[mid]
            idx = np.clip(np.searchsorted(self.hull_x, xm, side="right") - 1,
                          0, len(self.hull_x) - 2)
            res = np.empty_like(xm)
            arc = self.seg_is_arc[idx]
            if np.any(arc):
                i = idx[arc]
                val = self.seg_q[i] + self.seg_beta[i] * (xm[arc] - self.seg_x0[i])
                with np.errstate(divide="ignore", invalid="ignore"):
                    res[arc] = np.where(val > 0, np.log(np.maximum(val, 1e-320)), -np.inf)
            lin = ~arc
            if np.any(lin):
                i = idx[lin]
                x0, x1 = self.hull_x[i], self.hull_x[i + 1]
                y0, y1 = self.hull_logq[i], self.hull_logq[i + 1]
                w = (xm[lin] - x0) / (x1 - x0)
                res[lin] = y0 + w * (y1 - y0)
            out[mid] = res
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(out[0])
        return out

    def value(self, x) -> float | np.ndarray:
        lv = self.log_value(x)
        if np.isscalar(lv):
            return math.exp(lv) if lv > -math.inf else 0.0
        with np.errstate(over="ignore"):
            return np.where(np.isneginf(lv), 0.0, np.exp(lv))

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


def _upper_hull_indices(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Upper concave hull of points sorted by x (monotone chain)."""
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


def lc_majorant(d: FiniteDist) -> TailMajorant:
    """Least log-concave majorant of the step tail of d."""
    v = d.values
    q = np.cumsum(d.masses[::-1])[::-1]
    logq = np.log(q)
    hull = _upper_hull_indices(v, logq)
    hx, hy = v[hull], logq[hull]
    nseg = max(len(hx) - 1, 0)
    try:
        origin, step = lattice_params(d)
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


def _lattice_tails(d: FiniteDist) -> tuple[np.ndarray, np.ndarray, float]:
    origin, h = lattice_params(d)
    nsteps = int(round((d.max_value - d.min_value) / h))
    lat = d.min_value + h * np.arange(nsteps + 2)  # through max + h
    qt = tail(d, lat)
    qt[-1] = 0.0
    return lat, qt, h


def _arcs(qt: np.ndarray) -> tuple[np.ndarray, ...]:
    """(k, log m, log q0, log q1, r) of each lattice cell k where the tail
    decreases, with mass m = q0 - q1 and r = q0 / m."""
    k = np.flatnonzero(qt[:-1] > qt[1:])
    q0, q1 = qt[k], qt[k + 1]
    with np.errstate(divide="ignore"):
        return k, np.log(q0 - q1), np.log(q0), np.log(q1), q0 / (q0 - q1)


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
    pair = np.stack((a, b))
    dk = (k[b] - k[a]).astype(float)
    lm, lq0, lq1, r = lm[pair], lq0[pair], lq1[pair], r[pair]
    with np.errstate(divide="ignore", invalid="ignore"):
        # neighbour cells share q1_a = q0_b, so the closed form is
        # log(m_a m_b / (q0_b L)) with L the logarithmic mean of m_a, m_b:
        # no cancellation, and exact where the masses are equal (a double
        # root of psi)
        d = lm[0] - lm[1]
        log_mean = np.where(d != 0, np.log(-np.expm1(-np.abs(d)) / np.abs(d)), 0.0)
        u = np.where(dk == 1, lm[0] - lq0[1] - log_mean - np.maximum(d, 0.0),
                     np.log(d / (dk + r[1] - r[0])))
        mid = np.logaddexp(lq0, lq1)
        u = np.where((u > _U_FLAT) & (u < _U_STEEP), u,
                     np.clip(np.log((mid[0] - mid[1]) / dk), _U_FLAT, _U_STEEP))
    lo = np.full(len(a), _U_FLAT)
    hi = np.full(len(a), _U_STEEP)
    act = np.arange(len(a))
    evals = 0
    while len(act) and evals < _MAX_EVALS:
        evals += 1
        ua = u[act]
        g = np.exp(-ua)
        log_i = np.minimum(np.maximum(lm[:, act] - ua, lq1[:, act]), lq0[:, act])
        off = r[:, act] - g
        t = np.minimum(np.maximum(off, 0.0), 1.0)
        drop = (dk[act] + t[1] - t[0]) / g  # -psi'
        psi = (log_i[0] - log_i[1]) - drop
        # rounding level: the logs, psi' times the float spacing at u, and
        # e^u times the rounding of each touch offset that is not clipped
        # by more than that rounding
        off_err = 4.0 * _EPS * (r[:, act] + g)
        near = (off > -off_err) & (off < 1.0 + off_err)
        busy = np.abs(psi) > (
            4.0 * _EPS * (np.abs(log_i[0]) + np.abs(log_i[1])
                          + (dk[act] + 1.0) * (1.0 + np.abs(ua)) / g)
            + np.where(near, off_err, 0.0).sum(axis=0) / g)
        act, ua, psi, drop = act[busy], ua[busy], psi[busy], drop[busy]
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
        bad = np.zeros(len(keep), dtype=bool)
        bad[1:-1] = u[:-1] > u[1:]
        if not bad.any():
            return keep, u
        # bridge every arc of the stretch before each bad run to the arc
        # after the run; the stretch keeps its arcs up to the last one whose
        # incoming bridge is no steeper than that bridge (its first arc,
        # whose incoming bridge is not known yet, always stays)
        runs = np.flatnonzero(bad)
        grp = np.searchsorted(runs, np.arange(len(keep)))
        back = np.flatnonzero(~bad & (grp < len(runs)))
        grp = grp[back]
        good = np.flatnonzero(~bad)
        to = good[np.searchsorted(good, runs[grp])]
        w, _ = _bridges(*arcs, keep[back], keep[to])
        stay = np.flatnonzero((back == 0) | bad[back - 1] | (u[back - 1] <= w))
        stay = stay[np.append(grp[stay[1:]] != grp[stay[:-1]], True)]
        gone = bad.copy()
        gone[back[back > back[stay][np.searchsorted(grp[stay], grp)]]] = True
        # the new neighbours of each run's successor were bridged just now
        kept = np.flatnonzero(~gone)
        u = u[kept[:-1]]
        joined = np.flatnonzero(np.diff(kept) > 1)
        u[joined] = w[np.searchsorted(back, kept[joined])]
        keep = keep[kept]


def _certify(maj: TailMajorant, lat: np.ndarray, qt: np.ndarray) -> None:
    """Raise MajorantError unless maj majorizes the linear interpolant of
    the tail values qt at the lattice points lat, to within 1e-9 in log.

    Exact in O(cells): each hull segment is compared with the log
    interpolant on every cell it overlaps, at the ends of the overlap and,
    under a bridge of slope s, where their difference is least.  On a
    decreasing cell that difference is convex, least at the touch point
    x0 + 1/s - q0/beta clipped to the overlap; on a flat cell it is
    linear.  On an arc segment both are logs of linear functions, whose
    difference is monotone.
    """
    h = maj.step
    hx, hy = maj.hull_x, maj.hull_logq
    ncell = len(lat) - 1
    first = np.minimum(np.maximum(np.floor((hx[:-1] - lat[0]) / h), 0), ncell - 1)
    last = np.minimum(np.maximum(np.ceil((hx[1:] - lat[0]) / h) - 1, first), ncell - 1)
    count = (last - first + 1).astype(int)
    seg = np.repeat(np.arange(len(count)), count)
    cell = np.arange(len(seg)) + np.repeat(first.astype(int) - np.cumsum(count) + count, count)
    lo = np.maximum(lat[cell], hx[seg])
    hi = np.minimum(lat[cell + 1], hx[seg + 1])
    q0 = qt[cell]
    beta = (qt[cell + 1] - q0) / h
    arc = maj.seg_is_arc[seg]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (hy[seg + 1] - hy[seg]) / (hx[seg + 1] - hx[seg])
        touch = np.where((beta < 0) & (s < 0) & ~arc, lat[cell] + 1.0 / s - q0 / beta, lo)
        x = np.stack((lo, hi, np.minimum(np.maximum(touch, lo), hi)))
        q = q0 + beta * (x - lat[cell])
        hull = np.where(arc, np.log(maj.seg_q[seg] + maj.seg_beta[seg] * (x - maj.seg_x0[seg])),
                        hy[seg] + s * (x - hx[seg]))
        # past the last lattice point both are 0
        slack = (hull - np.log(q))[(q > 0) & (x < lat[-1])]
    if not np.all(slack >= -_CERT_TOL):
        raise MajorantError(f"hull fails to majorize the interpolant "
                            f"(deficit {np.min(slack):g})")


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
    x0, x1, q0, q1 = lat[k], lat[k + 1], qt[k], qt[k + 1]
    beta = (q1 - q0) / (x1 - x0)
    keep, u = _kept_arcs(arcs)

    # vertices: each kept arc's in and out touch points, then segments
    # alternate arc and bridge; a segment shorter than roundoff gives way
    # to the next one
    ends = np.concatenate(([-np.inf], u, [np.inf]))
    u_in_out = np.stack((ends[:-1], ends[1:]), axis=1)
    off = np.clip(r[keep, None] - np.exp(-u_in_out), 0.0, 1.0)
    dx = (x1 - x0)[keep, None]
    tx = np.where(off < 1.0, x0[keep, None] + off * dx, x1[keep, None]).ravel()
    owner = np.repeat(keep, 2)
    with np.errstate(divide="ignore"):
        ty = np.log(np.maximum(q0[owner] + beta[owner] * (tx - x0[owner]), 0.0))
    seg = np.flatnonzero(tx[1:] > tx[:-1] + 1e-15 * np.maximum(1.0, np.abs(tx[1:])))
    vert = np.concatenate(([0], seg + 1))
    seg_is_arc = seg % 2 == 0
    seg_arc = keep[seg // 2]

    maj = TailMajorant(
        kind="linlc", node_x=lat, node_q=qt,
        hull_x=tx[vert], hull_logq=ty[vert],
        seg_is_arc=seg_is_arc,
        seg_q=np.where(seg_is_arc, q0[seg_arc], np.nan),
        seg_beta=np.where(seg_is_arc, beta[seg_arc], np.nan),
        seg_x0=np.where(seg_is_arc, x0[seg_arc], np.nan),
        support_min=float(lat[0]), zero_from=float(lat[-1]),
        step=h, origin=float(d.max_value), refine=refine)
    _certify(maj, lat, qt)
    return maj
