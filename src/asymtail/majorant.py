"""Least log-concave majorants of discrete tail functions.

Two constructions over the tail q(x) = P(D >= x) of a FiniteDist:

- lc_majorant: the least log-concave majorant of the step tail itself.
  Because the constraint set is the finite family of step corners
  (x_k, log q_k), this is the upper concave hull of those points:
  log-linear between hull knots, 1 left of the support, 0 past it.

- lin_lc_majorant: the least log-concave majorant of the *linear
  interpolation* of the tail over the carrying lattice {min + k h}.
  In log space the interpolant is a chain of concave arcs
  log(q_j + beta_j (x - L_j)) glued with convex kinks, so the majorant
  alternates between touched sub-arcs and straight bridges.  Bridges
  are computed exactly: for a given slope s the support point of an
  arc has the closed form I = beta / s, and the bridge slope between
  two hull features is the root of the (strictly monotone) difference
  of their support intercepts.  A refined sample of the interpolant
  (refine points per lattice step) is stored as the knot set that the
  hull is validated against; the hull itself does not depend on the
  refinement, which is what makes doubling the refinement a no-op at
  evaluation points.

Evaluation is exact on arc segments (linear in probability space),
log-linear on bridges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .dist import FiniteDist, tail

_EVAL_RTOL = 1e-12


class MajorantError(ValueError):
    """Construction failure (bad support, broken certificate)."""


class LatticeError(MajorantError):
    """The support does not sit on an affine lattice."""


def lattice_params(d: FiniteDist, rtol: float = 1e-9) -> tuple[float, float]:
    """Infer (origin, step) with origin = max atom; raise LatticeError.

    The step is the smallest gap, divided by a small integer if needed
    so that every gap is an integer multiple within rtol.
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
        if np.all(np.abs(ratios - np.round(ratios)) * h <= rtol * scale):
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

class _Arc:
    """One lattice segment of the interpolant: I(x) = q0 + beta (x - x0)."""
    __slots__ = ("x0", "x1", "q0", "q1", "beta")

    def __init__(self, x0, x1, q0, q1):
        self.x0, self.x1, self.q0, self.q1 = x0, x1, q0, q1
        self.beta = (q1 - q0) / (x1 - x0)

    def prob(self, x: float) -> float:
        return self.q0 + self.beta * (x - self.x0)

    def log(self, x: float) -> float:
        val = self.prob(x)
        return math.log(val) if val > 0 else -math.inf

    def support(self, s: float, lo: float, hi: float) -> tuple[float, float]:
        """argmax / max of log I(x) - s x over [lo, hi] (s < 0).

        The stationary point has I = beta / s; it is clamped into the
        range, which also covers corner support at either endpoint.
        """
        if self.beta < 0:
            t = self.x0 + (self.beta / s - self.q0) / self.beta
            t = min(max(t, lo), hi)
        else:
            t = lo  # flat arcs never occur here; guard anyway
        return t, self.log(t) - s * t


def _bridge(arc_a: _Arc, range_a: tuple[float, float],
            arc_b: _Arc, range_b: tuple[float, float]) -> tuple[float, float, float]:
    """Common support line of two features; returns (tA, tB, slope).

    psi(s) = intercept_A(s) - intercept_B(s) is strictly increasing in
    the slope s < 0 (its derivative is tB - tA > 0), positive as s -> 0-
    because A's range starts higher, negative for steep s.  brentq on a
    doubling bracket finds the unique bridge slope; the clamped support
    points then fall out directly, covering interior bitangents, corner
    contacts and parallel arcs uniformly.
    """
    def psi(s: float) -> float:
        _, ca = arc_a.support(s, *range_a)
        _, cb = arc_b.support(s, *range_b)
        return ca - cb

    s_hi = -1e-300
    s_lo = -1.0
    for _ in range(80):
        if psi(s_lo) < 0:
            break
        s_hi = s_lo
        s_lo *= 4.0
    else:
        raise MajorantError("bridge slope bracket not found")
    s = brentq(psi, s_lo, s_hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    ta, _ = arc_a.support(s, *range_a)
    tb, _ = arc_b.support(s, *range_b)
    return ta, tb, s


def _lattice_tails(d: FiniteDist) -> tuple[np.ndarray, np.ndarray, float]:
    origin, h = lattice_params(d)
    nsteps = int(round((d.max_value - d.min_value) / h))
    lat = d.min_value + h * np.arange(nsteps + 2)  # through max + h
    qt = tail(d, lat)
    qt[-1] = 0.0
    return lat, qt, h


def lin_lc_majorant(d: FiniteDist, refine: int = 64) -> TailMajorant:
    """Least log-concave majorant of the lattice-linear interpolant of the tail.

    The hull is computed with exact arc contacts (see module docstring);
    `refine` only controls the density of the stored knot sample that
    the result is checked against, not the hull itself.
    """
    if refine < 2:
        raise MajorantError("refine must be >= 2")
    lat, qt, h = _lattice_tails(d)

    arcs: list[_Arc] = []
    for j in range(len(lat) - 1):
        if qt[j] > qt[j + 1]:  # flat pieces constrain nothing beyond their right corner
            arcs.append(_Arc(lat[j], lat[j + 1], qt[j], qt[j + 1]))
    if not arcs:
        raise MajorantError("tail has no decreasing segment")

    # feature stack: [arc index, touched from, touched to, incoming slope].
    # A feature whose contact interval has shrunk to its left endpoint is
    # still a hull vertex; it is discarded only when a new bridge slope
    # exceeds its incoming slope, which would break concavity there.
    feats: list[list[float]] = []
    for ai, arc in enumerate(arcs):
        t_in = arc.x0
        s_in = math.inf  # the first feature's corner can never be cut
        while feats:
            fa, sa, ea, fs_in = feats[-1]
            ta, tb, s = _bridge(arcs[int(fa)], (sa, ea), arc, (arc.x0, arc.x1))
            if ta <= sa and s > fs_in:
                feats.pop()
                continue
            ta = min(max(ta, sa), ea)
            # tolerance sized for the sqrt(eps) root slop of a C1 kink,
            # where the bridge-slope equation has a double root
            if tb - ta <= 1e-6 * (arc.x1 - arc.x0) and ea == arc.x0:
                # contact passes straight through the kink (C1 join or
                # corner); collapse the bridge so no stray vertex is kept
                ta = tb = arc.x0
            feats[-1][2] = ta
            t_in = tb
            s_in = s
            break
        feats.append([ai, t_in, arc.x1, s_in])

    hull_x: list[float] = []
    hull_y: list[float] = []
    seg_arc: list[bool] = []
    seg_q: list[float] = []
    seg_beta: list[float] = []
    seg_x0: list[float] = []

    def push_vertex(x: float, y: float, *, is_arc: bool, arc: _Arc | None):
        if hull_x and x <= hull_x[-1] + 1e-15 * max(1.0, abs(x)):
            return
        if hull_x:
            seg_arc.append(is_arc)
            if is_arc and arc is not None:
                seg_q.append(arc.q0)
                seg_beta.append(arc.beta)
                seg_x0.append(arc.x0)
            else:
                seg_q.append(math.nan)
                seg_beta.append(math.nan)
                seg_x0.append(math.nan)
        hull_x.append(x)
        hull_y.append(y)

    for fa, sa, ea, _ in feats:
        arc = arcs[int(fa)]
        push_vertex(sa, arc.log(sa), is_arc=False, arc=None)  # bridge from previous feature
        if ea > sa:
            push_vertex(ea, arc.log(ea), is_arc=True, arc=arc)

    # certified knot sample of the interpolant
    ks, kl = [], []
    for j in range(len(lat) - 1):
        frac = np.arange(refine) / refine
        xs = lat[j] + frac * h
        Is = qt[j] + (qt[j + 1] - qt[j]) * frac
        keep = Is > 0
        ks.append(xs[keep])
        with np.errstate(divide="ignore"):
            kl.append(np.log(Is[keep]))
    knot_x = np.concatenate(ks)
    knot_logq = np.concatenate(kl)

    maj = TailMajorant(
        kind="linlc", knot_x=knot_x, knot_logq=knot_logq,
        hull_x=np.asarray(hull_x), hull_logq=np.asarray(hull_y),
        seg_is_arc=np.asarray(seg_arc, dtype=bool),
        seg_q=np.asarray(seg_q), seg_beta=np.asarray(seg_beta),
        seg_x0=np.asarray(seg_x0),
        support_min=float(lat[0]), zero_from=float(lat[-1]),
        step=h, origin=float(d.max_value))

    lv = np.atleast_1d(maj.log_value(knot_x))
    slack = lv - knot_logq
    if np.min(slack) < -1e-9:
        raise MajorantError(f"hull fails to majorize its knots (deficit {np.min(slack):g})")
    return maj
