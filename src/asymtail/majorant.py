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
  arcs is where their support intercepts agree, found for every pair of
  arcs by one shared bisection; arcs that lie under a bridge of two
  others are dropped in rounds (see lin_lc_majorant).  A refined sample
  of the interpolant (refine points per lattice step) is stored as the
  knot set that the hull is validated against; the hull itself does
  not depend on the refinement, which is what makes doubling the
  refinement a no-op at evaluation points.

Evaluation is exact on arc segments (linear in probability space),
log-linear on bridges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import FiniteDist, tail

_EVAL_RTOL = 1e-12
_LATTICE_RTOL = 1e-9


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
    seg_x0[i])) or a log-linear bridge.  knot_x / knot_logq store the
    certified sample of the majorized function.
    """
    kind: str
    knot_x: np.ndarray
    knot_logq: np.ndarray
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
        kind="lc", knot_x=v, knot_logq=logq, hull_x=hx, hull_logq=hy,
        seg_is_arc=np.zeros(nseg, dtype=bool), seg_q=np.zeros(nseg),
        seg_beta=np.zeros(nseg), seg_x0=np.zeros(nseg),
        support_min=float(v[0]), zero_from=float(v[-1]),
        step=step, origin=origin)


# ---------------------------------------------------------------------------
# exact hull over the log of the linearly interpolated tail
# ---------------------------------------------------------------------------

# Bridge slopes are bisected in u = log(-s h) on [-709, 8].  At u = -709
# every arc touches at its left corner, because a cell's mass over its
# tail is at least MIN_MASS > e^-709, so an intercept difference is
# log(q0_a / q0_b) > 0 up to e^-709 per step.  At u = 8 it is below
# 717 - (e^8 - 1) < 0: no touch value is below MIN_MASS e^-8, and the
# later arc's touch point is at least 1 - e^-8 steps right of the
# earlier one's.  72 halvings of that range leave 1.5e-19 in u.
_U_FLAT = -709.0
_U_STEEP = 8.0
_HALVINGS = 72


def _lattice_tails(d: FiniteDist) -> tuple[np.ndarray, np.ndarray, float]:
    origin, h = lattice_params(d)
    nsteps = int(round((d.max_value - d.min_value) / h))
    lat = d.min_value + h * np.arange(nsteps + 2)  # through max + h
    qt = tail(d, lat)
    qt[-1] = 0.0
    return lat, qt, h


def _bridges(k, lm, lq0, lq1, r, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u of the common support line of arcs a[i] < b[i], all pairs at once.

    The intercept difference psi(u) = log(I_a / I_b) - e^u (k_b + t_b -
    k_a - t_a), with I = clip(m e^-u, q1, q0) and touch offsets t in
    steps, is nonincreasing in u; each step moves every u by half the
    previous step toward its pair's sign change.  Where psi is exactly 0
    (both arcs touch a shared corner) u stays, so such a bridge has no
    length.
    """
    pair = np.stack((a, b))
    dk = (k[b] - k[a]).astype(float)
    lm, lq0, lq1, r = lm[pair], lq0[pair], lq1[pair], r[pair]
    u = np.full(len(a), 0.5 * (_U_FLAT + _U_STEEP))
    step = 0.25 * (_U_STEEP - _U_FLAT)
    for _ in range(_HALVINGS):
        g = np.exp(-u)
        log_i = np.minimum(np.maximum(lm - u, lq1), lq0)
        t = np.minimum(np.maximum(r - g, 0.0), 1.0)
        psi = (log_i[0] - log_i[1]) - (dk + t[1] - t[0]) / g
        u += step * np.sign(psi)
        step *= 0.5
    return u


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
    steeper than their outgoing one.  In the same bisection it bridges
    the arc after each dropped run back to every arc since the previous
    run, and drops those after the last one whose incoming bridge is no
    steeper than that bridge, so a long dominated stretch goes in one
    round; those back bridges are the next round's new neighbour
    bridges.  The rounds stop when nothing drops.  `refine` only sets
    the density of the stored knot sample that the result is checked
    against, not the hull itself.
    """
    if refine < 2:
        raise MajorantError("refine must be >= 2")
    lat, qt, h = _lattice_tails(d)

    k = np.flatnonzero(qt[:-1] > qt[1:])
    if len(k) == 0:
        raise MajorantError("tail has no decreasing segment")
    x0, x1, q0, q1 = lat[k], lat[k + 1], qt[k], qt[k + 1]
    beta = (q1 - q0) / (x1 - x0)
    r = q0 / (q0 - q1)
    with np.errstate(divide="ignore"):
        arcs = (k, np.log(q0 - q1), np.log(q0), np.log(q1), r)

    keep = np.arange(len(k))
    u = _bridges(*arcs, keep[:-1], keep[1:])
    while True:
        bad = np.zeros(len(keep), dtype=bool)
        bad[1:-1] = u[:-1] > u[1:]
        if not bad.any():
            break
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
        w = _bridges(*arcs, keep[back], keep[to])
        stay = np.flatnonzero((back == 0) | bad[back - 1] | (u[back - 1] <= w))
        stay = stay[np.r_[grp[stay[1:]] != grp[stay[:-1]], True]]
        gone = bad.copy()
        gone[back[back > back[stay][np.searchsorted(grp[stay], grp)]]] = True
        # the new neighbours of each run's successor were bridged just now
        kept = np.flatnonzero(~gone)
        u = u[kept[:-1]]
        joined = np.flatnonzero(np.diff(kept) > 1)
        u[joined] = w[np.searchsorted(back, kept[joined])]
        keep = keep[kept]

    # vertices: each kept arc's in and out touch points, then segments
    # alternate arc and bridge; a segment shorter than roundoff gives way
    # to the next one
    u_in_out = np.stack((np.r_[-np.inf, u], np.r_[u, np.inf]), axis=1)
    off = np.clip(r[keep, None] - np.exp(-u_in_out), 0.0, 1.0)
    dx = (x1 - x0)[keep, None]
    tx = np.where(off < 1.0, x0[keep, None] + off * dx, x1[keep, None]).ravel()
    owner = np.repeat(keep, 2)
    with np.errstate(divide="ignore"):
        ty = np.log(np.maximum(q0[owner] + beta[owner] * (tx - x0[owner]), 0.0))
    seg = np.flatnonzero(tx[1:] > tx[:-1] + 1e-15 * np.maximum(1.0, np.abs(tx[1:])))
    vert = np.r_[0, seg + 1]
    seg_is_arc = seg % 2 == 0
    seg_arc = keep[seg // 2]

    # certified knot sample of the interpolant
    frac = np.arange(refine) / refine
    knot_x = (lat[:-1, None] + frac * h).ravel()
    knot_q = (qt[:-1, None] + (qt[1:] - qt[:-1])[:, None] * frac).ravel()
    live = knot_q > 0
    knot_x, knot_logq = knot_x[live], np.log(knot_q[live])

    maj = TailMajorant(
        kind="linlc", knot_x=knot_x, knot_logq=knot_logq,
        hull_x=tx[vert], hull_logq=ty[vert],
        seg_is_arc=seg_is_arc,
        seg_q=np.where(seg_is_arc, q0[seg_arc], np.nan),
        seg_beta=np.where(seg_is_arc, beta[seg_arc], np.nan),
        seg_x0=np.where(seg_is_arc, x0[seg_arc], np.nan),
        support_min=float(lat[0]), zero_from=float(lat[-1]),
        step=h, origin=float(d.max_value))

    lv = np.atleast_1d(maj.log_value(knot_x))
    slack = lv - knot_logq
    if np.min(slack) < -1e-9:
        raise MajorantError(f"hull fails to majorize its knots (deficit {np.min(slack):g})")
    return maj
