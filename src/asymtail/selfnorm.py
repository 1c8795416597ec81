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
is the index j of an atom, read from the law's inverse-CDF guide table
as `dist.sample` reads it (`dist._GuideTable`: one table read per draw,
and a binary search only for the few uniforms whose bucket holds a
cumulative mass).  The pairing is a table lookup too.  A draw's partner
depends only on its atom and its harvest slice: the level
h0[j] + u span[j] falls in one slice between consecutive harvest levels,
which a guide table over [0, g_total] finds the same way, and one table
of (atom, slice) pairs holds the partner of each pair a draw can meet.
An atom meets only the slices its harvest interval covers, so the table
grows with the atoms plus the slices, not with their product.  A check
builds its guide tables once, and the pool threads share them
read-only.  `ReciprocatingMap.reciprocate` and `selfnorm_stat` are thin
wrappers over the same private helpers.  A block of paths runs in tiles
of at most 2^15 coordinates, in four buffers of one tile that its thread
lends it from block to block: a tile reads its atom draws from the
block's generator, and its second draws from a copy of that generator
advanced past the block's atom draws (`dist._advanced`), so every path
draws what an untiled block would.  For vw and vym a coordinate's
denominator term, (x - r)^2 or |x r|^m, depends only on its pair, so a
check tabulates the term of every pair with the same ufuncs, and a tile
takes its terms from that table instead of computing them per
coordinate.  The blocks run on `verifier.tail_counts`, so they share the
supermartingale check's thread pool and per-block streams, and the
counts are the same at any ASYMTAIL_THREADS.  The rows and the report
come from `verifier` too: `verifier.mc_rows` adds the Clopper-Pearson
limits, and a check returns a `verifier.McReport` whose rows name their
bound curve: "normal" for vw, and "b_opt" for the kinds compared with a
carrier, whose bound is `bounds.b_opt` of that carrier over the x grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import b_opt, carrier_sum, normal_tail
# `sample` stays importable here: perfbench/tracer.py wraps selfnorm.sample
from .dist import (FiniteDist, _advanced, _GuideTable, _inverse_cdf,  # noqa: F401
                   from_pairs, iid_sum, sample, scale, st)
# `lc_majorant` stays importable here: perfbench/tracer.py wraps selfnorm.lc_majorant
from .majorant import lc_majorant  # noqa: F401
from .thresholds import SQRT2_MINUS_1, below_m_star, c_const, m_star
# `beta_dist` stays importable here: perfbench/tracer.py patches selfnorm.beta_dist
from .verifier import beta_dist  # noqa: F401
from .verifier import McConfig, McReport, _block_buffers, mc_rows, tail_counts


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
        # levels[-1] = -inf and levels[S] = +inf; a slice meets one atom
        # on each side, _plus[s] and _minus[s].
        self.levels = np.unique(np.concatenate((pos_h, neg_h)))
        self._plus = self._slice_atoms(pos_h, pos_x)
        self._minus = self._slice_atoms(neg_h, neg_x)
        self._slices = _GuideTable(self.levels, self.g_total, "left")

        # The pair table.  Atom j's level h0[j] + u span[j] for u in
        # [0, 1), computed as `_slice_index` computes it, lies between
        # its values at u = 0 and u = 1, since each step rounds
        # monotonically, so its slices run from lo[j] to hi[j].  Entry
        # _start[j] + s holds the pair of atom j and slice s: its atom
        # and its partner, which is 0 for a zero atom.  A side's harvest
        # intervals follow one another, so the runs hold about
        # atoms + 2 (levels.size + 1) pairs, where every pair would be
        # atoms (levels.size + 1).
        ends = np.clip(np.multiply.outer((0.0, 1.0), self._span) + self._h0, 0.0, self.g_total)
        lo, hi = np.searchsorted(self.levels, ends, side="left")
        runs = hi - lo + 1
        self._start = (np.cumsum(runs) - runs - lo).astype(np.int64)
        self._pair_atom = np.repeat(np.arange(k), runs)
        slices = np.arange(self._pair_atom.size) - self._start.take(self._pair_atom)
        self._pair_partner = np.select(
            (self._pair_atom < n_neg, self._pair_atom >= first_pos),
            (self._plus.take(slices), self._minus.take(slices)))

    def _slice_atoms(self, side_h, side_x) -> np.ndarray:
        """The atom of one side met by each slice: side_x at the number of
        side_h levels below the slice, clipped to the last atom."""
        if side_x.size == 0:
            return np.zeros(self.levels.size + 1)
        below = np.searchsorted(side_h, self.levels, side="right")
        return side_x[np.minimum(np.concatenate(([0], below)), side_x.size - 1)]

    def _slice_index(self, j: np.ndarray, u: np.ndarray, work: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
        """Index into the pair table for atoms j at uniforms u, written
        into out (intp) and returned.

        The level h0[j] + u span[j], clipped to [0, g_total], picks the
        slice s, and the index is _start[j] + s.  u and work must be
        C-contiguous float64 arrays of j's shape, and both are
        overwritten.
        """
        # j is in range, and mode "clip" writes straight to `out` where
        # "raise" would buffer it
        u *= self._span.take(j, out=work, mode="clip")
        u += self._h0.take(j, out=work, mode="clip")
        np.clip(u, 0.0, self.g_total, out=u)
        self._slices(u, out=out)
        # the levels are spent, so u's buffer takes the run starts
        starts = u.view(np.int64)
        np.take(self._start, j, out=starts, mode="clip")
        out += starts
        return out

    def _at_level(self, h, side: np.ndarray):
        ha = np.asarray(h, dtype=float)
        out = side[np.searchsorted(self.levels, ha, side="left")]
        if np.isscalar(h) or ha.ndim == 0:
            return float(out)
        return out

    def x_plus(self, h):
        """Positive atom whose harvest interval contains level h."""
        return self._at_level(h, self._plus)

    def x_minus(self, h):
        """Negative atom whose harvest interval contains level h."""
        return self._at_level(h, self._minus)

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
        uf = np.array(ua.ravel(), dtype=float)
        idx = self._slice_index(j, uf, np.empty_like(uf), np.empty_like(j))
        out = np.where(zero, 0.0, self._pair_partner.take(idx)).reshape(xa.shape)
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


# One helper per kind.  Each overwrites its second argument and leaves
# the first alone, so the Monte Carlo blocks run them in buffers they own;
# a row's statistic depends on that row alone.  vw and vym split in two:
# the denominator term of each coordinate, which depends only on the
# coordinate and its partner, and the row's ratio.  `_PAIRED` holds the
# two for each kind; the blocks tabulate the terms once per law.

def _vw_terms(x: np.ndarray, r: np.ndarray, m: float) -> np.ndarray:
    w = np.subtract(x, r, out=r)
    w *= w
    return w


def _vw(x: np.ndarray, w: np.ndarray, m: float) -> np.ndarray:
    return _safe_ratio(x.sum(axis=1), 0.5 * np.sqrt(w.sum(axis=1)))


def _vym_terms(x: np.ndarray, r: np.ndarray, m: float) -> np.ndarray:
    y = np.multiply(x, r, out=r)
    np.abs(y, out=y)
    y **= m
    return y


def _vym(x: np.ndarray, y: np.ndarray, m: float) -> np.ndarray:
    return _safe_ratio(x.sum(axis=1), y.sum(axis=1) ** (1.0 / (2.0 * m)))


# (terms, ratio) of each kind that pairs a coordinate with its partner
_PAIRED = {"vw": (_vw_terms, _vw), "vym": (_vym_terms, _vym)}


def _vsymm(x: np.ndarray, multipliers: np.ndarray, m: float) -> np.ndarray:
    t = np.multiply(multipliers, x, out=multipliers)
    num = t.sum(axis=1)
    np.abs(x, out=t)
    t **= 2.0 * m
    return _safe_ratio(num, t.sum(axis=1) ** (1.0 / (2.0 * m)))


def _vhatsymm(x: np.ndarray, hat_abs: np.ndarray, m: float, p: float) -> np.ndarray:
    hat_abs **= 2.0 * m
    return _safe_ratio(x.sum(axis=1),
                       math.sqrt(p) * hat_abs.sum(axis=1) ** (1.0 / (2.0 * m)))


def _own(a, shape) -> np.ndarray:
    """A float copy of a, broadcast to shape, for a helper to overwrite."""
    return np.array(np.broadcast_to(np.asarray(a, dtype=float), shape))


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
    if kind in _PAIRED:
        if r is None:
            raise SelfNormError(f"{kind} needs the reciprocated values r")
        terms, ratio = _PAIRED[kind]
        return ratio(x, terms(x, _own(r, x.shape), m), m)
    if kind == "vsymm":
        if multipliers is None:
            raise SelfNormError("vsymm needs the symmetric multipliers")
        return _vsymm(x, _own(multipliers, x.shape), m)
    if kind == "vhatsymm":
        if hat_abs is None or p is None:
            raise SelfNormError("vhatsymm needs hat_abs and p")
        return _vhatsymm(x, _own(hat_abs, x.shape), m, p)
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


# The bound curve of each kind, by its name in the bound family:
# c_{5,0} times the normal tail, or b_opt of the kind's carrier.
_CURVE_NAMES = {"vw": "normal", "vym": "b_opt", "vsymm": "b_opt", "vhatsymm": "b_opt"}


def _bound_curve(cfg: SelfNormConfig, xs: np.ndarray) -> np.ndarray:
    """The kind's bound at each x of xs.  Every kind but vw is at most
    its carrier eta in the cube ordering, E (V - t)_+^3 <= E (eta - t)_+^3
    for every t, so Markov's inequality bounds P(V >= x) by b_opt(eta, x),
    which is never above c_{3,0} times eta's point hull (Pinelis 1998)."""
    if cfg.kind != "vym" and cfg.m != 1.0:
        raise SelfNormError(f"{cfg.kind} is pinned at m = 1")
    if cfg.kind == "vw":
        if cfg.p is not None:
            raise SelfNormError("vw takes no p")
        return np.minimum(1.0, c_const(5, 0) * normal_tail(xs))
    if cfg.kind == "vym":
        if cfg.p is None:
            raise SelfNormError("vym needs the asymmetry parameter p")
        if not 0.0 < cfg.p < 1.0:
            raise SelfNormError(f"vym needs p in (0, 1), got {cfg.p!r}")
        dec = two_point_decomposition(cfg.base)
        q = 1.0 - cfg.p
        if dec.max_asymmetry > (q / cfg.p) * (1.0 + 1e-9):
            raise SelfNormError("a component exceeds the asymmetry q/p")
        if below_m_star(cfg.m, cfg.p):
            raise SelfNormError(f"m = {cfg.m!r} is below m_star(p) = {m_star(cfg.p)!r}")
        return b_opt(carrier_sum(cfg.p, cfg.n, cfg.n ** (-1.0 / (2.0 * cfg.m))), xs).value
    # vsymm and vhatsymm
    if cfg.p is None:
        raise SelfNormError(f"{cfg.kind} needs the multiplier mass p")
    if cfg.p < SQRT2_MINUS_1 - 1e-12:
        raise SelfNormError("symmetric comparison needs p >= sqrt(2) - 1")
    return b_opt(scale(iid_sum(st(cfg.p), cfg.n), cfg.n ** -0.5), xs).value


# Uniforms per tile of a Monte Carlo block: each of a tile's arrays stays
# at 256 KiB, and smaller tiles pay more per-tile dispatch (on 2 vCPUs the
# self-normalized checks of mc_check took 2.5 times as long at 2^12; 2^15
# and 2^16 tied).
_TILE = 1 << 15


def _block_simulator(cfg: SelfNormConfig, rm: ReciprocatingMap | None,
                     hat: FiniteDist | None):
    """`simulate(rng, size)` for `tail_counts`: the statistic on `size` paths.

    It draws what `sample` would draw, in the same order, so the counts
    match a value-level simulation bit for bit: first the atoms of all
    size x n coordinates, then a second draw per coordinate (the harvest
    uniform, the multiplier, or for vhatsymm the conditioned draw of each
    zero coordinate in row-major order).  The paths go in tiles of
    max(1, _TILE // n) rows.  A tile reads its atoms from rng and its
    second draws from `dist._advanced(rng, size * n)`, a copy of rng
    that starts after the first phase, and writes its statistic into the
    block's (size,) array.  Its four arrays are borrowed for the block
    from the thread's last block (`verifier._block_buffers`), so a
    thread holds one tile's arrays from block to block.

    For vw and vym a coordinate's term depends only on its (atom, slice)
    pair, so the simulator tabulates it once per check, with the kind's
    `_PAIRED` ufuncs, for each pair of the map's table.  A tile then takes
    its terms from the table in one `take` and applies the kind's ratio,
    and every term is the one the ufuncs give on the tile, bit for bit.
    It runs on pool threads, so it calls only private helpers.
    """
    n = cfg.n
    rows = max(1, _TILE // n)
    values, atoms = cfg.base.values, _inverse_cdf(np.cumsum(cfg.base.masses))

    # A tile gets u, its first-phase uniforms (t, n), and three buffers of
    # that shape: f (float), k and j (intp; j takes the atom indices).  It
    # overwrites all four.  The takes run in mode "clip", which writes
    # straight to `out`: every index is in range.
    if rm is not None:
        terms, ratio = _PAIRED[cfg.kind]
        table = terms(values.take(rm._pair_atom), rm._pair_partner.copy(), cfg.m)

        def tile(u, second, f, k, j):
            atoms(u, out=j)
            second.random(out=u)
            idx = rm._slice_index(j, u, f, k)
            x = values.take(j, out=u, mode="clip")
            return ratio(x, table.take(idx, out=f, mode="clip"), cfg.m)
    elif cfg.kind == "vsymm":
        mult_law = st(cfg.p)
        mult_values, mults = mult_law.values, _inverse_cdf(np.cumsum(mult_law.masses))

        def tile(u, second, f, k, j):
            x = values.take(atoms(u, out=j), out=f, mode="clip")
            second.random(out=u)
            return _vsymm(x, mult_values.take(mults(u, out=j), out=u, mode="clip"), cfg.m)
    else:
        hat_values, hat_atoms = hat.values, _inverse_cdf(np.cumsum(hat.masses))
        ztol = _zero_tol(cfg.base)

        def tile(u, second, f, k, j):
            x = values.take(atoms(u, out=j), out=f, mode="clip")
            habs = np.abs(x, out=u)
            zeros = habs <= ztol
            if np.any(zeros):
                habs[zeros] = np.abs(hat_values.take(hat_atoms(
                    second.random(int(np.count_nonzero(zeros))))))
            return _vhatsymm(x, habs, cfg.m, cfg.p)

    def simulate(rng, size):
        second = _advanced(rng, size * n)
        out = np.empty(size)
        shape = (min(rows, size), n)
        with _block_buffers((shape, float), (shape, float), (shape, np.intp),
                            (shape, np.intp)) as (u, f, k, j):
            for start in range(0, size, rows):
                t = min(rows, size - start)
                rng.random(out=u[:t])
                out[start:start + t] = tile(u[:t], second, f[:t], k[:t], j[:t])
        return out, None
    return simulate


def selfnorm_bound_check(cfg: SelfNormConfig, mc: McConfig) -> McReport:
    """Simulate the statistic and compare its tail with the bound curve
    at 99% Clopper-Pearson confidence.  The paths are counted by
    `tail_counts` and the rows built by `mc_rows`, so the counts do not
    depend on the worker count."""
    if cfg.kind not in _CURVE_NAMES:
        raise SelfNormError(f"unknown check kind {cfg.kind!r}")
    if not math.isfinite(cfg.m):
        raise SelfNormError(f"m must be finite, got {cfg.m!r}")
    if not cfg.n >= 1:
        raise SelfNormError(f"n must be >= 1, got {cfg.n!r}")
    if cfg.x_grid is not None:
        xs = np.asarray(cfg.x_grid, dtype=float)
        if not np.isfinite(xs).all():
            raise SelfNormError("x_grid must be finite")
    else:
        xs = np.linspace(0.5, 3.0, 6)
    rm = None
    hat = None
    nonzero_p = None
    if cfg.kind in _PAIRED:
        rm = ReciprocatingMap(cfg.base)
    if cfg.kind == "vhatsymm":
        if not cfg.base.is_symmetric():
            raise SelfNormError("vhatsymm needs a symmetric base law")
        hat = hat_dist(cfg.base)
        zero = np.abs(cfg.base.values) <= _zero_tol(cfg.base)
        nonzero_p = 1.0 - float(np.sum(cfg.base.masses[zero]))
        if cfg.p is None or cfg.p < max(nonzero_p, SQRT2_MINUS_1) - 1e-12:
            raise SelfNormError("vhatsymm needs p >= max(P(X != 0), sqrt(2)-1)")

    bounds = _bound_curve(cfg, xs)
    tc = tail_counts(_block_simulator(cfg, rm, hat), xs, mc)
    rows = mc_rows(xs, tc, bounds, [_CURVE_NAMES[cfg.kind]] * len(xs))
    return McReport(config=cfg, mc=mc, n_paths=tc.n_paths, rows=rows,
                    seed=mc.seed, blocks=tc.blocks, workers=tc.workers,
                    paths_per_s=tc.paths_per_s)
