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
is read by a guide table (`dist._GuideTable`) from the PCG64 output
that `Generator.random` makes its uniform of: an atom from the law's
table (`dist._atom_guide`), and a harvest uniform's (atom, slice) pair
from the reciprocating map's table, on its atom's row.  A draw's
partner depends only on its atom and its harvest slice, and an atom
meets only the slices its harvest interval covers, so the map's one
table of pairs grows with the atoms plus the slices, not with their
product.  `ReciprocatingMap.reciprocate` finds every pair by binary
search among the harvest levels (`_slice_index`), and the guide only
its few draws whose bucket a level splits.  `_block_simulator` runs a
block in tiles, and its draws, values and row sums are those of a
value-level simulation (`sample`, `reciprocate`, `selfnorm_stat`) bit
for bit.  A check builds its tables once, and the pool threads share
them read-only.  The blocks run on `verifier.tail_counts`, so they
share the supermartingale check's thread pool and per-block streams,
and the counts are the same at any ASYMTAIL_THREADS.  The grid, rows
and report come from `verifier` too: `verifier._x_grid` reads a given
x grid, `verifier.mc_rows` adds the Clopper-Pearson limits, and a check
returns a `verifier.McReport` whose rows name their bound curve:
"normal" for vw, and "b_opt" for the kinds compared with a carrier,
whose bound is `bounds.b_opt` of that carrier over the x grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bounds import b_opt, carrier_sum, normal_tail
# `sample` stays importable here: perfbench/tracer.py wraps selfnorm.sample
from .dist import (FiniteDist, _advanced, _atom_guide, _GuideTable,  # noqa: F401
                   from_pairs, iid_sum, sample, scale, st)
# `lc_majorant` stays importable here: perfbench/tracer.py wraps selfnorm.lc_majorant
from .majorant import lc_majorant  # noqa: F401
from .optimize import _count
from .thresholds import SQRT2_MINUS_1, below_m_star, c_const, m_star
# `beta_dist` stays importable here: perfbench/tracer.py patches selfnorm.beta_dist
from .verifier import beta_dist  # noqa: F401
from .verifier import McConfig, McReport, _block_buffers, _x_grid, mc_rows, tail_counts


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
        # The pair index by atom and uniform: a guide table with a row
        # per atom, so it grows with the pairs.
        self._pairs = _GuideTable(self._slice_index, self._pair_atom.size, rows=k)

    def _slice_atoms(self, side_h, side_x) -> np.ndarray:
        """The atom of one side met by each slice: side_x at the number of
        side_h levels below the slice, clipped to the last atom."""
        if side_x.size == 0:
            return np.zeros(self.levels.size + 1)
        below = np.searchsorted(side_h, self.levels, side="right")
        return side_x[np.minimum(np.concatenate(([0], below)), side_x.size - 1)]

    def _slice_index(self, j: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Index into the pair table for atoms j at uniforms u.

        The level h0[j] + u span[j], clipped to [0, g_total], picks the
        slice s by one binary search over the levels, and the index is
        _start[j] + s.  `reciprocate` looks every pair up here, and the
        pair guide (`_pairs`) only its few misses.
        """
        level = u * self._span.take(j)
        level += self._h0.take(j)
        np.clip(level, 0.0, self.g_total, out=level)
        return self._start.take(j) + np.searchsorted(self.levels, level, side="left")

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
        uniformly (by u in [0,1)) inside x's own interval; r(0, u) = 0.
        An x outside the law's support or a u outside [0, 1) raises.  Each
        pair is found by `_slice_index`, which `_pairs` reads by table."""
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
        if not ((uf >= 0.0) & (uf < 1.0)).all():
            raise SelfNormError("u must lie in [0, 1)")
        partner = self._pair_partner.take(self._slice_index(j, uf))
        out = np.where(zero, 0.0, partner).reshape(xa.shape)
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
    return _decomposition(ReciprocatingMap(d))


def _decomposition(rm: ReciprocatingMap) -> TwoPointDecomposition:
    """two_point_decomposition of the law of the map rm."""
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


def _part_sums(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.add.reduce(part, axis=1)` of z.real and of z.imag, bit for bit,
    as two C-contiguous arrays, for a C-contiguous 2-d complex128 array z.

    numpy reduces each row on its own, pairwise: fewer than 8 entries in
    sequence, and from 8 on in eight accumulators, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the rest is
    added in sequence; the row's sum is then added to the identity 0,
    which turns a -0.0 sum into +0.0.  Up to 15 columns that is at most
    one block of eight, and the same sums go here as whole-column adds,
    one ufunc call per add, where the reduction pays a call of its inner
    loop per row (on (32768 // n, n) tiles, 22 against 69 us at n = 10,
    33 against 195 us at n = 4).  A complex add adds the two parts on
    their own, so one column add of z does the adds of both parts.  The
    reduction is the faster of the two from about 16 columns on, or below
    about 32 rows per column, so those arrays go to it, each part on its
    own: numpy's complex reduction pairs the entries in another order.
    Where two NaNs meet, which one comes out follows the operand order
    numpy's compiler chose, so only a NaN sum may differ from numpy's in
    its bits, and then it is a NaN too.
    """
    if _reduces(z):
        return np.add.reduce(z.real, axis=1), np.add.reduce(z.imag, axis=1)
    sums = _column_sums(z)
    return sums.real.copy(), sums.imag.copy()


def _reduces(a: np.ndarray) -> bool:
    """Whether `_part_sums` leaves a to numpy's reduction."""
    n = a.shape[1]
    return n >= 16 or a.shape[0] < 32 * n


def _column_sums(a: np.ndarray) -> np.ndarray:
    """numpy's row sums of a (fewer than 16 columns) as column adds."""
    n = a.shape[1]
    if n < 8:
        # the identity first: 0 + a0 + ... + a(n-1) in sequence gives the
        # same bits as numpy's 0 + (a0 + ... + a(n-1))
        out = np.add(a[:, 0], 0.0)
        for i in range(1, n):
            out += a[:, i]
        return out
    out = np.add(a[:, 0], a[:, 1])
    out += np.add(a[:, 2], a[:, 3])
    right = np.add(a[:, 4], a[:, 5])
    right += np.add(a[:, 6], a[:, 7])
    out += right
    for i in range(8, n):
        out += a[:, i]
    out += 0.0
    return out


# Each kind's statistic is a ratio of two row sums: of the coordinates
# (for vsymm, of the coordinates times their multipliers) and of the
# coordinates' denominator terms.  A term depends on its coordinate
# alone, or for vw and vym on the coordinate and its partner, so the
# Monte Carlo blocks tabulate the terms once per law with the same
# ufuncs that `selfnorm_stat` runs on its sample, and sum the two rows
# at once (`_part_sums`).  The term helpers overwrite their second
# argument and leave the first alone.  `_PAIRED` holds the (terms, ratio)
# of the kinds that pair a coordinate with its partner.

def _vw_terms(x: np.ndarray, r: np.ndarray, m: float) -> np.ndarray:
    w = np.subtract(x, r, out=r)
    w *= w
    return w


def _vw(sum_x: np.ndarray, sum_w: np.ndarray, m: float) -> np.ndarray:
    return _safe_ratio(sum_x, 0.5 * np.sqrt(sum_w))


def _vym_terms(x: np.ndarray, r: np.ndarray, m: float) -> np.ndarray:
    y = np.multiply(x, r, out=r)
    np.abs(y, out=y)
    y **= m
    return y


def _norm_ratio(sum_x: np.ndarray, sum_t: np.ndarray, m: float) -> np.ndarray:
    """The ratio of vym and vsymm: sum_x over the 2m-th root of sum_t."""
    return _safe_ratio(sum_x, sum_t ** (1.0 / (2.0 * m)))


_PAIRED = {"vw": (_vw_terms, _vw), "vym": (_vym_terms, _norm_ratio)}


def _abs_power(x: np.ndarray, e: float) -> np.ndarray:
    """|x|^e, the term of vsymm and vhatsymm."""
    t = np.abs(x)
    t **= e
    return t


def _vhatsymm(sum_x: np.ndarray, sum_t: np.ndarray, m: float, p: float) -> np.ndarray:
    return _safe_ratio(sum_x, math.sqrt(p) * sum_t ** (1.0 / (2.0 * m)))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + 1j im, each part the given doubles."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


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
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2:
        raise SelfNormError("sample must be (paths, n)")
    # every array summed is C-contiguous, so its rows sum pairwise
    if kind == "v":
        return _safe_ratio(np.add.reduce(x, axis=1), np.sqrt(np.add.reduce(x * x, axis=1)))
    if kind in _PAIRED:
        if r is None:
            raise SelfNormError(f"{kind} needs the reciprocated values r")
        terms, ratio = _PAIRED[kind]
        return ratio(np.add.reduce(x, axis=1),
                     np.add.reduce(terms(x, _own(r, x.shape), m), axis=1), m)
    if kind == "vsymm":
        if multipliers is None:
            raise SelfNormError("vsymm needs the symmetric multipliers")
        mx = _own(multipliers, x.shape)
        mx *= x
        return _norm_ratio(np.add.reduce(mx, axis=1),
                           np.add.reduce(_abs_power(x, 2.0 * m), axis=1), m)
    if kind == "vhatsymm":
        if hat_abs is None or p is None:
            raise SelfNormError("vhatsymm needs hat_abs and p")
        t = _own(hat_abs, x.shape)
        t **= 2.0 * m
        return _vhatsymm(np.add.reduce(x, axis=1), np.add.reduce(t, axis=1), m, p)
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


def _bound_curve(cfg: SelfNormConfig, xs: np.ndarray, rm: ReciprocatingMap | None) -> np.ndarray:
    """The kind's bound at each x of xs.  Every kind but vw is at most
    its carrier eta in the cube ordering, E (V - t)_+^3 <= E (eta - t)_+^3
    for every t, so Markov's inequality bounds P(V >= x) by b_opt(eta, x),
    which is never above c_{3,0} times eta's point hull (Pinelis 1998).
    vym decomposes rm, the check's map of the base law."""
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
        dec = _decomposition(rm)
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


def _pair_table(rm: ReciprocatingMap, kind: str, m: float) -> np.ndarray:
    """x + 1j term for each pair of rm's table, for vw or vym: x its atom
    and term the kind's denominator term of x and its partner."""
    x = rm.dist.values.take(rm._pair_atom)
    return _complex(x, _PAIRED[kind][0](x, rm._pair_partner.copy(), m))


# Uniforms per tile of a Monte Carlo block.  A tile's index and complex
# arrays and the PCG64 outputs of the phase it draws take 32 bytes a
# coordinate, 1 MiB at 2^15, so two blocks in flight stay under 4 MiB, and
# smaller tiles pay more per-tile dispatch.  Timed interleaved in one
# process on 2 vCPUs at ASYMTAIL_THREADS=2 with the four float and index
# arrays tiles had before (mc_check blocks 0-1, seeds 1-3, the least of 5
# runs per check), 2^14 took 1.16-1.23 times as long as 2^15 and 2^16
# 0.89-0.91 times (2^15 against itself: 0.99-1.00), but with 2^16 two vw
# blocks in flight peaked at 5.0 MiB.
_TILE = 1 << 15


def _block_simulator(cfg: SelfNormConfig, rm: ReciprocatingMap | None,
                     hat: FiniteDist | None):
    """`simulate(rng, size)` for `tail_counts`: the statistic on `size` paths.

    It draws what `sample` would draw, in the same order, so the counts
    match a value-level simulation bit for bit: first the atoms of all
    size x n coordinates, then a second draw per coordinate (the harvest
    uniform, the multiplier, or for vhatsymm the conditioned draw of each
    zero coordinate in row-major order).  Every draw is read as the PCG64
    output that its uniform is made of, by a guide table
    (`dist._GuideTable`): the atoms, the multipliers and the conditioned
    draws by the law's (`dist._atom_guide`), and the harvest uniforms by
    the map's pair guide, on the rows of their atoms.  The paths go in
    tiles of max(1, _TILE // n) rows.  A tile reads its atoms from rng
    and its second draws from `dist._advanced(rng, size * n)`, a copy of
    rng that starts after the first phase, and writes its statistic into
    the block's (size,) array.  Its two arrays, the atom indices and one
    complex128 array, are borrowed for the block from the thread's last
    block (`verifier._block_buffers`), so a thread holds one tile's
    arrays from block to block; it draws each phase's PCG64 outputs
    afresh, one phase at a time.

    A coordinate's value and its denominator term depend only on its
    atom, or for vw and vym on its (atom, slice) pair, so the simulator
    tabulates each (value, term) once per check as one complex number,
    with the ufuncs `selfnorm_stat` runs on a sample, and a tile reads
    them with one `take` into its complex array, by atom or, for vw and
    vym, by pair (`_pair_table`).  vsymm then multiplies the real parts by
    the multipliers, and vhatsymm finds its zero coordinates by the -1j
    that marks them and writes their conditioned draws' terms there.  The
    tile sums both parts' rows at once with `_part_sums`, numpy's
    pairwise order as whole-column adds, and no reduction per row, so
    every value, term and sum is the one a value-level simulation gives,
    bit for bit.
    It runs on pool threads, so it calls only private helpers.
    """
    n = cfg.n
    rows = max(1, _TILE // n)
    values, atoms = cfg.base.values, _atom_guide(cfg.base)

    # A tile gets the block's generator and the second-phase copy, and j
    # (intp) and z (complex128) of its (t, n) shape, which it overwrites.
    # The takes run in mode "clip", which writes straight to `out`: every
    # index is in range.
    def bits(gen, j):
        return gen.bit_generator.random_raw(j.size).reshape(j.shape)

    if rm is not None:
        ratio = _PAIRED[cfg.kind][1]
        by_pair = _pair_table(rm, cfg.kind, cfg.m)

        def tile(rng, second, j, z):
            # the atoms go to z's first half, the rows of the pair read,
            # which shifts them in place and is spent before the last take
            atom = z.reshape(-1).view(np.intp)[:j.size].reshape(j.shape)
            atoms.from_bits(bits(rng, j), out=atom)
            by_pair.take(rm._pairs.from_bits(bits(second, j), out=j, rows=atom), out=z,
                         mode="clip")
            return ratio(*_part_sums(z), cfg.m)
    elif cfg.kind == "vsymm":
        mult_law = st(cfg.p)
        mult_values, mults = mult_law.values, _atom_guide(mult_law)
        by_atom = _complex(values, _abs_power(values, 2.0 * cfg.m))

        def tile(rng, second, j, z):
            by_atom.take(atoms.from_bits(bits(rng, j), out=j), out=z, mode="clip")
            raw = bits(second, j)
            # the outputs are spent once read, so their buffer takes the multipliers
            z.real *= mult_values.take(mults.from_bits(raw, out=j), out=raw.view(float),
                                       mode="clip")
            return _norm_ratio(*_part_sums(z), cfg.m)
    else:
        hat_terms = _abs_power(hat.values, 2.0 * cfg.m)
        hat_atoms = _atom_guide(hat)
        zero = np.abs(values) <= _zero_tol(cfg.base)
        by_atom = _complex(values, np.where(zero, -1.0, _abs_power(values, 2.0 * cfg.m)))

        def tile(rng, second, j, z):
            flat = by_atom.take(atoms.from_bits(bits(rng, j), out=j), out=z,
                                mode="clip").reshape(-1)
            # the zero coordinates in row-major order, one draw each
            zeros = np.signbit(flat.imag).nonzero()[0]
            if zeros.size:
                # the atom indices are spent once read, so j takes the hat draws
                raw = second.bit_generator.random_raw(zeros.size)
                flat.imag[zeros] = hat_terms.take(
                    hat_atoms.from_bits(raw, out=j.reshape(-1)[:zeros.size]))
            return _vhatsymm(*_part_sums(z), cfg.m, cfg.p)

    def simulate(rng, size):
        second = _advanced(rng, size * n)
        out = np.empty(size)
        shape = (min(rows, size), n)
        with _block_buffers((shape, np.intp), (shape, complex)) as (j, z):
            for start in range(0, size, rows):
                t = min(rows, size - start)
                out[start:start + t] = tile(rng, second, j[:t], z[:t])
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
    # a numpy integer runs as the int it holds: PCG64.advance takes no numpy integer
    cfg = replace(cfg, n=_count(cfg.n, "n", SelfNormError))
    xs = np.linspace(0.5, 3.0, 6) if cfg.x_grid is None else _x_grid(cfg.x_grid, SelfNormError)
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

    bounds = _bound_curve(cfg, xs, rm)
    tc = tail_counts(_block_simulator(cfg, rm, hat), xs, mc)
    rows = mc_rows(xs, tc, bounds, [_CURVE_NAMES[cfg.kind]] * len(xs))
    return McReport(config=cfg, mc=mc, n_paths=tc.n_paths, rows=rows,
                    seed=mc.seed, blocks=tc.blocks, workers=tc.workers,
                    paths_per_s=tc.paths_per_s)
