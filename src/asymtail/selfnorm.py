"""Self-normalized sums and the reciprocating pairing.

A zero-mean finite law splits into a mixture of zero-mean two-point
laws: slice the positive and negative parts at equal cumulative-harvest
levels and pair what sits at the same depth.  The pairing function r
realizes the split pathwise, which makes the denominators

    W_i = |X_i - r(X_i, U_i)|        (slice width a + b)
    Y_i = |X_i * r(X_i, U_i)|        (slice variance a b)

observable from a single draw.  Statistics normalized by these compare
with explicit carriers: the W form against a constant times the normal
tail, the Y form against the asymmetric two-point carrier, and the
symmetrized forms against the three-point carrier.  Everything here is
either exact (decomposition, recombination, variance identity) or a
Monte Carlo check with a one-sided Clopper-Pearson guard.

The Monte Carlo checks work on atom indices rather than values.  A draw
is the index j of an atom (inverse CDF, as `dist.sample` does), and the
pairing is a table lookup: the harvest level h0[j] + u span[j] falls in
one slice between consecutive harvest levels, and a (side, slice) table
holds the partner atom.  `ReciprocatingMap.reciprocate` and
`selfnorm_stat` are thin wrappers over the same private helpers.  The
blocks run on `verifier.tail_counts`, so they share the supermartingale
check's thread pool and per-block streams, and the counts are the same
at any ASYMTAIL_THREADS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import normal_tail
# `sample` stays importable here: perfbench/tracer.py wraps selfnorm.sample
from .dist import (FiniteDist, _atom_index, bs, from_pairs,  # noqa: F401
                   iid_sum, sample, scale, st)
from .majorant import lc_majorant
from .thresholds import SQRT2_MINUS_1, c_const, m_star
from .verifier import McConfig, beta_dist, tail_counts


class SelfNormError(ValueError):
    pass


def _zero_tol(d: FiniteDist) -> float:
    """Atoms of d within this of 0 count as the atom at zero."""
    return 1e-12 * max(1.0, abs(d.min_value), abs(d.max_value))


# ---------------------------------------------------------------------------
# reciprocating map
# ---------------------------------------------------------------------------

class ReciprocatingMap:
    """Equal-harvest pairing of the positive and negative parts.

    The harvest depth of a positive atom x with mass w is the interval
    (G(x-), G(x)] of length x*w, where G accumulates v*mass over atoms
    in (0, x]; negative atoms accumulate |v|*mass outward from zero.
    Zero mean makes both sides end at the same total depth, so every
    level h in (0, g_total] meets exactly one atom on each side.
    """

    def __init__(self, d: FiniteDist):
        ztol = _zero_tol(d)
        if abs(d.mean()) > ztol:
            raise SelfNormError("reciprocating map needs a zero-mean law")
        self.dist = d
        v, w = d.values, d.masses
        pos = v > ztol
        neg = v < -ztol
        self.zero_mass = float(np.sum(w[~pos & ~neg]))
        pos_x = v[pos]
        pos_span = pos_x * w[pos]
        pos_h = np.cumsum(pos_span)
        order = np.argsort(-v[neg])  # closest to zero first
        neg_x = v[neg][order]
        neg_span = -neg_x * w[neg][order]
        neg_h = np.cumsum(neg_span)
        gp = float(pos_h[-1]) if pos_h.size else 0.0
        gn = float(neg_h[-1]) if neg_h.size else 0.0
        if abs(gp - gn) > 1e-12 * max(1.0, gp, gn):
            raise SelfNormError("harvest totals disagree; law is not zero-mean")
        self.g_total = 0.5 * (gp + gn)
        self._ztol = ztol

        # Per atom (in value order): start and width of its harvest
        # interval.  Negative atoms come first and zero atoms keep width 0.
        k = v.size
        n_neg = int(np.count_nonzero(neg))
        first_pos = k - pos_x.size
        self._h0 = np.zeros(k)
        self._span = np.zeros(k)
        self._h0[first_pos:] = pos_h - pos_span
        self._span[first_pos:] = pos_span
        self._h0[:n_neg] = (neg_h - neg_span)[::-1]
        self._span[:n_neg] = neg_span[::-1]
        # Slice s holds the levels in (levels[s-1], levels[s]], with
        # levels[-1] = -inf and levels[S] = +inf.  The partner table has
        # one row of S + 1 slices per side of the drawn atom: row 0 for
        # negative atoms holds x_plus, row 1 for zero atoms holds 0, and
        # row 2 for positive atoms holds x_minus.
        self.levels = np.unique(np.concatenate((pos_h, neg_h)))
        self._partners = np.stack((
            self._slice_atoms(pos_h, pos_x),
            np.zeros(self.levels.size + 1),
            self._slice_atoms(neg_h, neg_x)))
        stride = self.levels.size + 1
        self._row_start = np.full(k, stride, dtype=np.int64)
        self._row_start[:n_neg] = 0
        self._row_start[first_pos:] = 2 * stride

    def _slice_atoms(self, side_h, side_x) -> np.ndarray:
        """The atom of one side met by each slice: side_x at the number of
        side_h levels below the slice, clipped to the last atom."""
        if side_x.size == 0:
            return np.zeros(self.levels.size + 1)
        below = np.searchsorted(side_h, self.levels, side="right")
        return side_x[np.minimum(np.concatenate(([0], below)), side_x.size - 1)]

    def _slice_index(self, j: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Flat index into the partner table for atoms j at uniforms u.

        The level h0[j] + u span[j], clipped to [0, g_total], picks the
        slice; the side of atom j picks the row.  u must be a C-contiguous
        float64 array of j's shape, and is overwritten.
        """
        u *= self._span.take(j)
        u += self._h0.take(j)
        np.clip(u, 0.0, self.g_total, out=u)
        idx = np.searchsorted(self.levels, u, side="left")
        # The levels are spent, so u's buffer takes the row offsets and
        # the block holds no fourth array; j is in range, and mode "clip"
        # writes straight to `out` where "raise" would buffer it.
        rows = u.view(np.int64)
        np.take(self._row_start, j, out=rows, mode="clip")
        idx += rows
        return idx

    def _at_level(self, h, row: int):
        ha = np.asarray(h, dtype=float)
        out = self._partners[row, np.searchsorted(self.levels, ha, side="left")]
        if np.isscalar(h) or ha.ndim == 0:
            return float(out)
        return out

    def x_plus(self, h):
        """Positive atom whose harvest interval contains level h."""
        return self._at_level(h, 0)

    def x_minus(self, h):
        """Negative atom whose harvest interval contains level h."""
        return self._at_level(h, 2)

    def reciprocate(self, x, u):
        """r(x, u): the opposite-side partner at the harvest level picked
        uniformly (by u in [0,1)) inside x's own interval; r(0, u) = 0."""
        xa, ua = np.broadcast_arrays(np.asarray(x, dtype=float),
                                     np.asarray(u, dtype=float))
        # a positive x belongs to the first atom at or above it, a
        # negative x to the last atom at or below it
        v = self.dist.values
        xf = xa.ravel()
        zero = np.abs(xf) <= self._ztol
        j = np.where(xf < 0.0, np.searchsorted(v, xf, side="right") - 1,
                     np.searchsorted(v, xf, side="left"))
        j[zero] = 0
        if np.any((j < 0) | (j >= v.size)):
            raise SelfNormError("x lies outside the law's support")
        idx = self._slice_index(j, np.array(ua.ravel(), dtype=float))
        out = np.where(zero, 0.0, self._partners.take(idx)).reshape(xa.shape)
        if np.isscalar(x) and np.isscalar(u):
            return float(out)
        return out


@dataclass(frozen=True)
class TwoPointComponent:
    a: float        # magnitude of the negative atom
    b: float        # positive atom
    weight: float

    @property
    def asymmetry(self) -> float:
        return self.b / self.a


@dataclass(frozen=True)
class TwoPointDecomposition:
    components: tuple
    zero_mass: float

    @property
    def max_asymmetry(self) -> float:
        return max((c.asymmetry for c in self.components), default=0.0)


def two_point_decomposition(d: FiniteDist) -> TwoPointDecomposition:
    """Split a zero-mean law into zero-mean two-point components.

    Harvest slice (h0, h1] pairing the atoms (-a, b) contributes the law
    {-a: b/(a+b), b: a/(a+b)} with weight (h1-h0)(a+b)/(ab).  Together
    with the retained atom at zero the weights add to one exactly, and
    mixing the components back reproduces d.
    """
    rm = ReciprocatingMap(d)
    if rm.g_total <= 0.0:
        return TwoPointDecomposition(components=(), zero_mass=rm.zero_mass)
    # slice s of the map is (levels[s-1], levels[s]]; thinner ones are dropped
    dh = np.diff(rm.levels[rm.levels <= rm.g_total * (1.0 + 1e-15)], prepend=0.0)
    slices = np.flatnonzero(dh > 1e-15 * rm.g_total)
    # each slice's own top level lies in that slice
    b = rm.x_plus(rm.levels[slices])
    a = -rm.x_minus(rm.levels[slices])
    weight = dh[slices] * (a + b) / (a * b)
    comps = tuple(TwoPointComponent(a=float(ai), b=float(bi), weight=float(wi))
                  for ai, bi, wi in zip(a, b, weight))
    return TwoPointDecomposition(components=comps, zero_mass=rm.zero_mass)


def recombine(decomp: TwoPointDecomposition) -> FiniteDist:
    """Mix the components back into a single law (exact inverse of the
    decomposition up to float roundoff)."""
    pairs = []
    if decomp.zero_mass > 0.0:
        pairs.append((0.0, decomp.zero_mass))
    for c in decomp.components:
        s = c.a + c.b
        pairs.append((-c.a, c.weight * c.b / s))
        pairs.append((c.b, c.weight * c.a / s))
    return from_pairs(pairs)


# ---------------------------------------------------------------------------
# the conditioned law and the variance identity
# ---------------------------------------------------------------------------

def hat_dist(d: FiniteDist) -> FiniteDist:
    """The law of X given X != 0."""
    keep = np.abs(d.values) > _zero_tol(d)
    if not np.any(keep):
        raise SelfNormError("law is concentrated at zero")
    w = d.masses[keep]
    return from_pairs(zip(d.values[keep], w / np.sum(w)))


def var_identity_check(d: FiniteDist, g: Callable[[np.ndarray], np.ndarray]) -> dict:
    """Var g(X^) - Var g(X) against its closed form.

    For g vanishing at zero and p = P(X != 0), conditioning on X != 0
    changes the variance by exactly (q/p) (Var g(X) - (E g(X))^2 / p).
    Returns both sides and their difference.
    """
    gv = np.asarray(g(d.values), dtype=float)
    zero = np.abs(d.values) <= _zero_tol(d)
    if np.any(zero) and np.max(np.abs(gv[zero])) > 1e-12:
        raise SelfNormError("the identity needs g(0) = 0")
    p = 1.0 - float(np.sum(d.masses[zero]))
    if p <= 0.0:
        raise SelfNormError("law is concentrated at zero")
    eg = float(np.sum(gv * d.masses))
    eg2 = float(np.sum(gv * gv * d.masses))
    var_x = eg2 - eg * eg
    hat = hat_dist(d)
    gh = np.asarray(g(hat.values), dtype=float)
    egh = float(np.sum(gh * hat.masses))
    var_hat = float(np.sum(gh * gh * hat.masses)) - egh * egh
    lhs = var_hat - var_x
    rhs = (1.0 - p) / p * (var_x - eg * eg / p)
    return {"p": p, "lhs": lhs, "rhs": rhs, "err": abs(lhs - rhs)}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


# One helper per kind.  They leave their arguments untouched and hold at
# most one temporary of the sample's size, because the Monte Carlo blocks
# call them on two threads at once.

def _vw(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    w = x - r
    np.abs(w, out=w)
    w *= w
    return _safe_ratio(x.sum(axis=1), 0.5 * np.sqrt(w.sum(axis=1)))


def _vym(x: np.ndarray, r: np.ndarray, m: float) -> np.ndarray:
    y = x * r
    np.abs(y, out=y)
    y **= m
    return _safe_ratio(x.sum(axis=1), y.sum(axis=1) ** (1.0 / (2.0 * m)))


def _vsymm(x: np.ndarray, multipliers: np.ndarray, m: float) -> np.ndarray:
    t = multipliers * x
    num = t.sum(axis=1)
    np.abs(x, out=t)
    t **= 2.0 * m
    return _safe_ratio(num, t.sum(axis=1) ** (1.0 / (2.0 * m)))


def _vhatsymm(x: np.ndarray, hat_abs: np.ndarray, m: float, p: float) -> np.ndarray:
    # raises hat_abs to 2m in place: callers pass an array they own
    hat_abs **= 2.0 * m
    return _safe_ratio(x.sum(axis=1),
                       math.sqrt(p) * hat_abs.sum(axis=1) ** (1.0 / (2.0 * m)))


def selfnorm_stat(kind: str, x: np.ndarray, *, r: np.ndarray | None = None,
                  multipliers: np.ndarray | None = None,
                  hat_abs: np.ndarray | None = None,
                  m: float = 1.0, p: float | None = None) -> np.ndarray:
    """Evaluate a self-normalized statistic on sample rows.

    kinds: "v"         sum X / sqrt(sum X^2)
           "vw"        sum X / (half the 2-norm of the slice widths)
           "vym"       sum X / (2m-th root of sum of slice variances^m)
           "vsymm"     sum M X / (2m-norm of X), M the symmetric multipliers
           "vhatsymm"  sum X / (sqrt(p) * 2m-norm of the conditioned row)
    Rows whose denominator vanishes give 0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise SelfNormError("sample must be (paths, n)")
    if kind == "v":
        return _safe_ratio(x.sum(axis=1), np.sqrt((x * x).sum(axis=1)))
    if kind in ("vw", "vym"):
        if r is None:
            raise SelfNormError(f"{kind} needs the reciprocated values r")
        r = np.asarray(r, dtype=float)
        return _vw(x, r) if kind == "vw" else _vym(x, r, m)
    if kind == "vsymm":
        if multipliers is None:
            raise SelfNormError("vsymm needs the symmetric multipliers")
        return _vsymm(x, np.asarray(multipliers, dtype=float), m)
    if kind == "vhatsymm":
        if hat_abs is None or p is None:
            raise SelfNormError("vhatsymm needs hat_abs and p")
        return _vhatsymm(x, np.array(hat_abs, dtype=float), m, p)
    raise SelfNormError(f"unknown statistic kind {kind!r}")


# ---------------------------------------------------------------------------
# Monte Carlo bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfNormConfig:
    base: FiniteDist
    n: int
    kind: str = "vw"
    m: float = 1.0
    p: float | None = None
    x_grid: tuple | None = None


@dataclass(frozen=True)
class SelfNormRow:
    x: float
    count: int
    empirical: float
    cp_lower: float
    bound: float
    margin: float        # bound - cp_lower: the check passes while it is >= 0
    ok: bool


@dataclass(frozen=True)
class SelfNormReport:
    config: SelfNormConfig
    mc: McConfig
    n_paths: int
    rows: list
    seed: int
    blocks: int
    workers: int

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


def _bound_curve(cfg: SelfNormConfig) -> Callable[[float], float]:
    if cfg.kind == "vw":
        c50 = c_const(5, 0)
        return lambda x: min(1.0, c50 * normal_tail(x))
    if cfg.kind == "vym":
        if cfg.p is None:
            raise SelfNormError("vym needs the asymmetry parameter p")
        dec = two_point_decomposition(cfg.base)
        q = 1.0 - cfg.p
        if dec.max_asymmetry > (q / cfg.p) * (1.0 + 1e-9):
            raise SelfNormError("a component exceeds the asymmetry q/p")
        if cfg.m < m_star(cfg.p) - 1e-12:
            raise SelfNormError("m is below the threshold for this p")
        carrier = scale(iid_sum(bs(cfg.p), cfg.n), cfg.n ** (-1.0 / (2.0 * cfg.m)))
        maj = lc_majorant(carrier)
        c30 = c_const(3, 0)
        return lambda x: min(1.0, c30 * maj.value(x))
    if cfg.kind in ("vsymm", "vhatsymm"):
        if cfg.p is None:
            raise SelfNormError(f"{cfg.kind} needs the multiplier mass p")
        if cfg.m != 1.0:
            raise SelfNormError("symmetric checks are pinned at m = 1")
        if cfg.p < SQRT2_MINUS_1 - 1e-12:
            raise SelfNormError("symmetric comparison needs p >= sqrt(2) - 1")
        carrier = scale(iid_sum(st(cfg.p), cfg.n), cfg.n ** -0.5)
        maj = lc_majorant(carrier)
        c30 = c_const(3, 0)
        return lambda x: min(1.0, c30 * maj.value(x))
    raise SelfNormError(f"no bound family for kind {cfg.kind!r}")


def _block_simulator(cfg: SelfNormConfig, rm: ReciprocatingMap | None,
                     hat: FiniteDist | None):
    """`simulate(rng, size)` for `tail_counts`: the statistic on `size` paths.

    It draws what `sample` would draw, in the same order, so the counts
    match a value-level simulation bit for bit.  It runs on pool threads,
    so it calls only private helpers, and it drops each (size, n) array
    as soon as it is used: two blocks are in flight at once.
    """
    values, cum = cfg.base.values, np.cumsum(cfg.base.masses)

    if rm is not None:
        stat = _vw if cfg.kind == "vw" else (lambda x, r: _vym(x, r, cfg.m))

        def simulate(rng, size):
            u = rng.random((size, cfg.n))
            j = _atom_index(cum, u)
            rng.random(out=u)
            idx = rm._slice_index(j, u)
            del u
            x = values.take(j)
            del j
            r = rm._partners.take(idx)
            del idx
            return stat(x, r), None
    elif cfg.kind == "vsymm":
        mult_law = st(cfg.p)
        mult_values, mult_cum = mult_law.values, np.cumsum(mult_law.masses)

        def simulate(rng, size):
            u = rng.random((size, cfg.n))
            x = values.take(_atom_index(cum, u))
            rng.random(out=u)
            j = _atom_index(mult_cum, u)
            del u
            mult = mult_values.take(j)
            del j
            return _vsymm(x, mult, cfg.m), None
    else:
        hat_values, hat_cum = hat.values, np.cumsum(hat.masses)

        def simulate(rng, size):
            x = values.take(_atom_index(cum, rng.random((size, cfg.n))))
            habs = np.abs(x)
            zeros = habs <= _zero_tol(cfg.base)
            if np.any(zeros):
                u = rng.random(int(np.sum(zeros)))
                habs[zeros] = np.abs(hat_values.take(_atom_index(hat_cum, u)))
            return _vhatsymm(x, habs, cfg.m, cfg.p), None
    return simulate


def selfnorm_bound_check(cfg: SelfNormConfig, mc: McConfig) -> SelfNormReport:
    """Simulate the statistic and compare its tail with the bound curve
    at Clopper-Pearson confidence.  The paths are counted by
    `tail_counts`, so the counts do not depend on the worker count."""
    if cfg.kind not in ("vw", "vym", "vsymm", "vhatsymm"):
        raise SelfNormError(f"unknown check kind {cfg.kind!r}")
    rm = None
    hat = None
    nonzero_p = None
    if cfg.kind in ("vw", "vym"):
        rm = ReciprocatingMap(cfg.base)
    if cfg.kind == "vhatsymm":
        if not cfg.base.is_symmetric():
            raise SelfNormError("vhatsymm needs a symmetric base law")
        hat = hat_dist(cfg.base)
        zero = np.abs(cfg.base.values) <= _zero_tol(cfg.base)
        nonzero_p = 1.0 - float(np.sum(cfg.base.masses[zero]))
        if cfg.p is None or cfg.p < max(nonzero_p, SQRT2_MINUS_1) - 1e-12:
            raise SelfNormError("vhatsymm needs p >= max(P(X != 0), sqrt(2)-1)")

    curve = _bound_curve(cfg)
    if cfg.x_grid is not None:
        xs = np.asarray(cfg.x_grid, dtype=float)
    else:
        xs = np.linspace(0.5, 3.0, 6)
    bounds = np.array([curve(float(x)) for x in xs])

    tc = tail_counts(_block_simulator(cfg, rm, hat), xs, mc)
    rows = []
    for x, k, b in zip(xs, tc.counts, bounds):
        k = int(k)
        lo = float(beta_dist.ppf(1.0 - mc.confidence, k, tc.n_paths - k + 1)) if k else 0.0
        rows.append(SelfNormRow(x=float(x), count=k, empirical=k / tc.n_paths,
                                cp_lower=lo, bound=float(b), margin=float(b) - lo,
                                ok=lo <= b))
    return SelfNormReport(config=cfg, mc=mc, n_paths=tc.n_paths, rows=rows,
                          seed=mc.seed, blocks=tc.blocks, workers=tc.workers)
