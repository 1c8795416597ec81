"""Exact calculus for finite discrete distributions.

A FiniteDist is a list of atoms (value, mass) with strictly increasing
values, normal (>= 2.2e-308) masses, and total mass 1 up to 1e-12.  On
construction:

- atoms closer than 1e-12 * max(1, |value|) to their neighbour merge
  into one atom at the group's first (smallest) value, with the summed
  mass, so the support stays well separated and tail evaluation is
  unambiguous; an atom that collides with nothing keeps its value bit
  for bit, so a lattice law stays on its lattice;
- atoms whose mass is below the smallest normal float are dropped, as
  zero masses are: a sub-normal mass has too few bits for the hull
  arithmetic downstream, so tails below about 2.2e-308 read as 0.

iid_sum of a two-atom law {a: q, b: p} is the binomial lattice
n a + k (b - a) in closed form, built only where its masses do not
underflow: about 37.6 standard deviations each side of the mode, so its
cost is that window, not O(n) (see _binomial_lattice); laws with more
atoms are convolved by binary powering.

A law knows its lattice when it is built on one.  `bs`,
`_binomial_lattice` (so iid_sum of a two-atom law) and `scale` of such a
law by c > 0 pass `on_lattice=True`: the atoms are increasing and one
lattice step apart.  Where the smallest gap clears the merge tolerance
of the largest |atom|, the constructor skips the sort and merge, which
would do nothing, and sets `FiniteDist.lattice` to (top atom, smallest
gap), the (origin, step) that `majorant.lattice_params` would infer;
where it does not, the law is built the general way, with no lattice.
Every other law has `lattice` None.  Either way the atoms and masses
pass the same checks.

Conventions used throughout the package:

- tail(d, x) = P(D >= x), the left-continuous step function; an atom
  within merge tolerance of x counts as >= x.
- sampling is inverse-CDF driven by a named (seed, stream) pair, so any
  consumer can reproduce a draw bit for bit.  The inverse CDF is read
  from a guide table (`_GuideTable`) that cuts [0, 1] into at least
  max(4096, 16 atoms) buckets: a bucket that holds no cumulative mass
  stores its atom, and only a uniform in one of the few buckets that do
  is placed by binary search, so the atom drawn is exactly the one
  `np.searchsorted` on the cumulative masses picks.  A consumer that
  reads a stream in two phases (the Monte Carlo blocks: the atoms of
  every path, then a second draw per coordinate) may read the second
  phase from `_advanced`, a copy of the generator moved past the first
  phase's draws, and so interleave the two phases tile by tile with the
  same draws.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

MERGE_RTOL = 1e-12
MASS_ATOL = 1e-12
# smallest normal float: a mass below it has too few bits for hull arithmetic
MIN_MASS = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)

# Hard cap for weighted_bs_sum: 2^24 outcomes is the largest enumeration
# this module is willing to do exactly.
MAX_BS_TERMS = 24


class DistError(ValueError):
    """Invalid distribution construction or operation."""


@dataclass(frozen=True)
class RngSpec:
    """Deterministic RNG identity: a seed plus a stream index.

    Two RngSpecs with the same (seed, stream) always yield identical
    draws; distinct streams under one seed are independent for all
    practical purposes (SeedSequence spawn keys).  Both must be
    nonnegative integers, as SeedSequence requires; anything else is a
    DistError.
    """
    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise DistError(f"{name} must be a nonnegative integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, stream: int) -> "RngSpec":
        return RngSpec(self.seed, stream)


def _canonicalize(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values, kind="stable")
    v = values[order]
    m = masses[order]
    if len(v) > 1:
        gaps = np.diff(v)
        tol = MERGE_RTOL * np.maximum(1.0, np.maximum(np.abs(v[:-1]), np.abs(v[1:])))
        firsts = np.flatnonzero(np.concatenate(([True], gaps > tol)))
        v, m = v[firsts], np.add.reduceat(m, firsts)
    keep = m >= MIN_MASS
    return np.ascontiguousarray(v[keep]), np.ascontiguousarray(m[keep])


@dataclass(frozen=True)
class FiniteDist:
    """Finite discrete distribution over the reals.

    `on_lattice` claims that `values` are increasing and that consecutive
    ones are consecutive points of an affine lattice; `lattice` is then
    (origin, step) = (top atom, smallest gap), unless the claim fails or
    a gap is within merge tolerance (see the module docstring).  Without
    the claim `lattice` is None.
    """
    values: np.ndarray
    masses: np.ndarray
    on_lattice: InitVar[bool] = False
    lattice: tuple[float, float] | None = field(default=None, init=False, repr=False,
                                                compare=False)

    def __post_init__(self, on_lattice: bool):
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if v.ndim != 1 or m.ndim != 1 or len(v) != len(m):
            raise DistError("values and masses must be 1-d arrays of equal length")
        if len(v) == 0:
            raise DistError("a distribution needs at least one atom")
        # ufunc reductions cost half the ndarray methods on small laws; min
        # and max propagate NaN, so the extremes are finite only if every
        # mass is
        lightest = float(np.minimum.reduce(m))
        heaviest = float(np.maximum.reduce(m))
        if not (math.isfinite(lightest) and math.isfinite(heaviest) and np.isfinite(v).all()):
            raise DistError("atoms must be finite")
        if lightest < 0.0:
            raise DistError("negative mass")
        if heaviest > 1.0 + MASS_ATOL:
            # decides the verdict before np.sum can overflow (and warn)
            total = float((m / heaviest).sum()) * heaviest
            raise DistError(f"total mass {total!r} is not 1 within {MASS_ATOL:g}")
        # on a claimed lattice whose smallest gap clears the merge tolerance
        # of the largest |v| (v sorted: at an end) every gap does, and sort
        # and merge would leave the atoms as they are
        step = float(np.minimum.reduce(v[1:] - v[:-1])) if on_lattice and len(v) > 1 else 0.0
        if step > MERGE_RTOL * max(1.0, -v[0], v[-1]):
            if lightest >= MIN_MASS:
                v, m = v.copy(), m.copy()  # frozen below; the caller's stay writable
            else:
                keep = m >= MIN_MASS
                v, m = v[keep], m[keep]
                step = float(np.minimum.reduce(v[1:] - v[:-1])) if len(v) > 1 else 0.0
        else:
            step = 0.0
            v, m = _canonicalize(v, m)
        if len(v) == 0:
            raise DistError("all atoms had zero mass")
        # np.add.reduce of the contiguous masses (>= 0) is numpy's blocked
        # pairwise sum: a run of fewer than 8 terms is summed in sequence;
        # a run of up to 128 goes to 8 accumulators of at most 16 terms
        # each, which add as a 3-level tree before the last (n % 8) terms
        # join in sequence, so each term passes at most 15 + 3 + 7 = 25
        # additions; a longer run splits in two (at a multiple of 8) and
        # adds the halves' sums, and after s splits a run has at most
        # n / 2^s + 15 terms, so s <= n.bit_length() splits reach 128.  No
        # term passes more than k = min(n - 1, 25 + n.bit_length())
        # additions (any order passes at most n - 1), and the total is within
        # k eps / 2 of the exact sum, which fsum rounds correctly.  A total
        # within 1e-12 of the limit is below 2, so only a total within
        # (k + 2) eps of the limit needs fsum to give fsum's verdict (fed
        # the masses largest first, so that it keeps few partials).
        total = float(np.add.reduce(m))
        depth = min(len(m) - 1, 25 + len(m).bit_length())
        if abs(abs(total - 1.0) - MASS_ATOL) <= (depth + 2) * _EPS:
            total = math.fsum(np.sort(m)[::-1].tolist())
        if abs(total - 1.0) > MASS_ATOL:
            raise DistError(f"total mass {total!r} is not 1 within {MASS_ATOL:g}")
        v.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "masses", m)
        if step:
            object.__setattr__(self, "lattice", (float(v[-1]), step))

    # -- basic descriptors -------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return len(self.values)

    @property
    def min_value(self) -> float:
        return float(self.values[0])

    @property
    def max_value(self) -> float:
        return float(self.values[-1])

    @cached_property
    def upper_tails(self) -> np.ndarray:
        """P(D >= v_k) at each atom v_k: the suffix sums of the masses.

        One cumsum per law, shared by every reader; unclipped, so cumsum
        roundoff can leave the first entry a few ulps off 1."""
        out = np.add.accumulate(self.masses[::-1])[::-1]
        out.setflags(write=False)
        return out

    def mean(self) -> float:
        return math.fsum(self.values * self.masses)

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        v, m = self.values, self.masses
        scale = max(1.0, -v[0], v[-1])
        return bool((np.abs(-v[::-1] - v) <= rtol * scale).all()
                    and (np.abs(m[::-1] - m) <= rtol).all())

    # -- serialization -----------------------------------------------------
    @staticmethod
    def from_obj(obj: dict) -> "FiniteDist":
        try:
            atoms = obj["atoms"]
            vals = [a["v"] for a in atoms]
            mass = [a["p"] for a in atoms]
        except (KeyError, TypeError) as exc:
            raise DistError(f"malformed distribution object: {exc}") from exc
        return FiniteDist(np.asarray(vals, dtype=float), np.asarray(mass, dtype=float))

    @staticmethod
    def from_json(text: str) -> "FiniteDist":
        return FiniteDist.from_obj(json.loads(text))


def from_pairs(pairs: Iterable[tuple[float, float]]) -> FiniteDist:
    vs, ms = zip(*pairs)
    return FiniteDist(np.asarray(vs, dtype=float), np.asarray(ms, dtype=float))


def delta(x: float) -> FiniteDist:
    """Point mass at x."""
    return FiniteDist(np.array([float(x)]), np.array([1.0]))


# -- canonical laws ---------------------------------------------------------

def bs(p: float) -> FiniteDist:
    """Standardized Bernoulli: -sqrt(p/q) w.p. q, +sqrt(q/p) w.p. p.

    Zero mean, unit variance; the asymmetry knob is p (small p means a
    long right arm).  Domain p in (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise DistError("bs requires p in (0, 1)")
    q = 1.0 - p
    return FiniteDist(np.array([-math.sqrt(p / q), math.sqrt(q / p)]), np.array([q, p]),
                      on_lattice=True)


def st(p: float) -> FiniteDist:
    """Symmetric three-point law: +-1/sqrt(p) w.p. p/2 each, 0 w.p. 1-p.

    Zero mean, unit variance, fourth moment 1/p.  p = 1 degenerates to
    the Rademacher law (the zero atom has no mass and is dropped).
    """
    if not 0.0 < p <= 1.0:
        raise DistError("st requires p in (0, 1]")
    r = 1.0 / math.sqrt(p)
    return FiniteDist(np.array([-r, 0.0, r]), np.array([p / 2, 1.0 - p, p / 2]))


# -- operations --------------------------------------------------------------

def scale(d: FiniteDist, c: float) -> FiniteDist:
    """Law of c * D.  c = 0 collapses to the point mass at 0.

    A law on a known lattice scaled by c > 0 keeps it, unless its gaps
    shrink into the merge tolerance.
    """
    if not math.isfinite(c):
        raise DistError("scale factor must be finite")
    if c == 0.0:
        return delta(0.0)
    return FiniteDist(d.values * c, d.masses, on_lattice=c > 0.0 and d.lattice is not None)


def convolve(d1: FiniteDist, d2: FiniteDist) -> FiniteDist:
    """Law of the sum of independent draws from d1 and d2."""
    v = np.add.outer(d1.values, d2.values).ravel()
    m = np.multiply.outer(d1.masses, d2.masses).ravel()
    return FiniteDist(v, m)


# The ratio products come in chunks: the first of this many, each later
# one twice the one before, up to _MAX_CHUNK, so n up to a few thousand
# takes one chunk and a window of w atoms O(log w) chunks.
_FIRST_CHUNK = 4096
_MAX_CHUNK = 1 << 20


def _falling_products(ratio, start: int, stop: int, step: int) -> Iterator[np.ndarray]:
    """The running products of ratio(j) for j = start, start + step, ...
    short of stop, in chunks, up to the first product that is 0.

    Every ratio is <= 1, so once a product underflows to 0 every later one
    is 0.  Each chunk's first ratio is multiplied by the product before it,
    so the chunks are one np.cumprod run bit for bit."""
    j, last, size = start, 1.0, _FIRST_CHUNK
    while j != stop:
        end = min(j + size, stop) if step > 0 else max(j - size, stop)
        prod = ratio(np.arange(j, end, step))
        prod[0] *= last
        np.multiply.accumulate(prod, out=prod)
        if prod[-1] == 0.0:
            nonzero = np.count_nonzero(prod)
            if nonzero:
                yield prod[:nonzero]
            return
        yield prod
        j, last, size = end, prod[-1], min(2 * size, _MAX_CHUNK)


def _normal_run(chunks: Iterator[np.ndarray]) -> tuple[np.ndarray, np.ndarray, Iterator]:
    """The falling products that are >= MIN_MASS, those below it in the
    same chunk, and the chunks after it, not yet computed."""
    normal = []
    low = np.empty(0)
    for prod in chunks:
        # the products fall, so those >= MIN_MASS lead the chunk
        cut = len(prod) if prod[-1] >= MIN_MASS else np.count_nonzero(prod >= MIN_MASS)
        normal.append(prod[:cut])
        if cut < len(prod):
            low = prod[cut:]
            break
    if len(normal) == 1:
        return normal[0], low, chunks
    return (np.concatenate(normal) if normal else np.empty(0)), low, chunks


def _exact_total(terms: list[float], more: Iterator[np.ndarray], bound: float) -> float:
    """math.fsum of the terms and of every entry of the arrays in more,
    given that those entries are >= 0 and sum to less than bound.

    Rounding is monotone, so where adding bound to the terms leaves their
    correctly rounded sum as it is, adding the entries of more does too,
    and only their first array is computed; otherwise all are summed."""
    first = next(more, None)
    total = math.fsum(terms)
    if first is None or math.fsum(terms + [bound]) == total:
        return total
    return math.fsum(itertools.chain(terms, first.tolist(), *(c.tolist() for c in more)))


def _binomial_lattice(d: FiniteDist, n: int) -> FiniteDist:
    """Sum of n iid draws from the two-atom law {a: q, b: p}, in closed form.

    Atoms n a + k (b - a) with binomial masses from the ratio recurrence
    P(k+1) / P(k) = (n - k) p / ((k + 1) q), run outward from 1 at the
    mode and then normalized.  Every ratio taken is <= 1, and the total
    is >= 1, so a product leaves the normal range only where the
    normalized mass is below it too and the atom is dropped anyway.
    (lgamma differences would lose about ten times more accuracy.)  So
    atoms are built only for the window of products >= MIN_MASS, about
    37.6 standard deviations each side of the mode, and the cost is that
    window, not n.  The normalization is math.fsum of every product, as
    if all n + 1 were built.  The products computed so far are summed;
    those not yet computed are fewer than n, each below MIN_MASS, and
    are computed (in chunks, up to the first 0) only where n MIN_MASS
    could move the rounded total (see _exact_total).  The masses fall
    away from the mode, so the atoms kept are consecutive and the law
    carries its lattice.
    """
    (a, b), (q, p) = d.values, d.masses
    mode = min(int((n + 1) * p), n)
    up, up_low, up_more = _normal_run(
        _falling_products(lambda j: (n - j) * p / ((j + 1) * q), mode, n, 1))
    down, down_low, down_more = _normal_run(
        _falling_products(lambda j: j * q / ((n - j + 1) * p), mode, 0, -1))
    products = np.concatenate((down_low[::-1], down[::-1], [1.0], up, up_low))
    # fsum keeps few partials, and is fast, when the terms fall in size;
    # in the order of the atoms it is 20 times slower at n = 600
    total = _exact_total(np.sort(products)[::-1].tolist(),
                         itertools.chain(down_more, up_more), n * MIN_MASS)
    mass = products[len(down_low):len(products) - len(up_low)]
    k = np.arange(mode - len(down), mode + len(up) + 1)
    return FiniteDist(n * a + k * (b - a), mass / total, on_lattice=True)


def iid_sum(d: FiniteDist, n: int) -> FiniteDist:
    """Law of the sum of n iid draws from d.

    A two-atom law gives the binomial lattice in closed form; laws with
    more atoms go through binary-powering convolution.
    """
    if n < 1:
        raise DistError("n must be >= 1")
    if d.n_atoms == 2:
        return _binomial_lattice(d, n)
    result = None
    power = d
    k = n
    while k:
        if k & 1:
            result = power if result is None else convolve(result, power)
        k >>= 1
        if k:
            power = convolve(power, power)
    return result


def weighted_bs_sum(p: float, coeffs: Sequence[float]) -> FiniteDist:
    """Exact law of sum_i c_i * BS_i with BS_i iid bs(p).

    Guarded at 24 terms: the construction enumerates up to 2^n sign
    patterns through repeated convolution.  Each term is scale(bs(p),
    c_i); the fold adds them on raw arrays with one `_canonicalize` (sort
    and merge) per outer sum, the same sorts and merges as folding
    `convolve(out, term)`, so the law is bit for bit that fold's; only
    the final law is built and validated as a FiniteDist.  Merging keeps
    the atom count at n + 1 for equal coefficients.
    """
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) == 0:
        raise DistError("need at least one coefficient")
    if len(coeffs) > MAX_BS_TERMS:
        raise DistError(f"refusing {len(coeffs)} terms (enumeration guard is {MAX_BS_TERMS})")
    if any(c < 0 for c in coeffs):
        raise DistError("coefficients must be >= 0")
    base = bs(p)
    first = scale(base, coeffs[0])
    v, m = first.values, first.masses
    for i, c in enumerate(coeffs[1:]):
        if i:
            v, m = _canonicalize(v, m)
        term = scale(base, c)
        # both are sorted, so the extreme sums are the sums of the extremes
        if not (math.isfinite(float(v[0]) + float(term.values[0]))
                and math.isfinite(float(v[-1]) + float(term.values[-1]))):
            raise DistError("atoms must be finite")
        v, m = np.add.outer(v, term.values).ravel(), np.multiply.outer(m, term.masses).ravel()
    return FiniteDist(v, m)


def tail(d: FiniteDist, x) -> float | np.ndarray:
    """P(D >= x); scalar in, scalar out; array in, array out.

    An atom within 1e-12 * max(1, |x|) of x counts as >= x, matching the
    merge tolerance, so lattice arithmetic built from convolutions never
    drops a boundary atom to roundoff.
    """
    suffix = np.concatenate((d.upper_tails, [0.0]))
    np.clip(suffix, 0.0, 1.0, out=suffix)  # guard cumsum roundoff
    xa = np.asarray(x, dtype=float)
    tol = MERGE_RTOL * np.maximum(1.0, np.abs(xa))
    idx = np.searchsorted(d.values, xa - tol, side="left")
    out = suffix[idx]
    if np.isscalar(x) or xa.ndim == 0:
        return float(out)
    return out


def _shifted_suffix_moments(d: FiniteDist) -> np.ndarray:
    """P[j, k] = sum over i >= k of m_i (v_i - v_k)^j for j = 0..3.

    One backward pass: shifting the origin from v_{k+1} down to v_k is a
    binomial expansion in the nonnegative gap h = v_{k+1} - v_k,

        P0(k) = P0(k+1) + m_k
        P1(k) = P1(k+1) + h P0(k+1)
        P2(k) = P2(k+1) + h (2 P1(k+1) + h P0(k+1))
        P3(k) = P3(k+1) + h (3 P2(k+1) + h (3 P1(k+1) + h P0(k+1)))

    so every term added is nonnegative and nothing cancels.  A row's
    increments need only the rows below it, so each row is one running
    sum from the top atom down, written into the row back to front;
    np.add.accumulate adds in sequence, in the order of a loop over k."""
    v = d.values
    h = v[1:] - v[:-1]
    out = np.empty((4, len(v)))
    p0, p1, p2, p3 = out
    p0[:] = d.upper_tails
    out[1:, -1] = 0.0
    hp0 = h * p0[1:]
    np.add.accumulate(hp0[::-1], out=p1[-2::-1])
    np.add.accumulate((h * (2.0 * p1[1:] + hp0))[::-1], out=p2[-2::-1])
    np.add.accumulate((h * (3.0 * p2[1:] + h * (3.0 * p1[1:] + hp0)))[::-1], out=p3[-2::-1])
    return out


def _cube_plus(d: FiniteDist, t) -> np.ndarray:
    """E (D - t)_+^3 at each t of a 1-d array, in O(atoms + thresholds).

    With k the first atom >= t and u = v_k - t >= 0 the moment is
    P3 + 3u P2 + 3u^2 P1 + u^3 P0 in the shifted suffix moments at k,
    a sum of nonnegative terms.  Above the top atom k is the top atom
    and u is clipped to 0, so the value there is P3 = 0 exactly.
    """
    t = np.asarray(t, dtype=float)
    v = d.values
    p0, p1, p2, p3 = _shifted_suffix_moments(d)
    k = np.minimum(np.searchsorted(v, t, side="left"), len(v) - 1)
    u = np.maximum(v[k] - t, 0.0)
    return p3[k] + u * (3.0 * p2[k] + u * (3.0 * p1[k] + u * p0[k]))


class _GuideTable:
    """`np.searchsorted(edges, u, side)` for keys u in [0, top], by table.

    A guide table for inverse-CDF sampling (Chen & Asau, 1974), made
    exact.  Bucket b holds the keys whose product u 2^s lies in
    [b, b + 1), with s the smallest power that spreads [0, top] over at
    least max(4096, 16 edges) buckets (and at most twice that).  A
    bucket that no scaled edge falls in has one answer for every key in
    it, the number of edges scaled below b: the product is monotone in
    u, so an edge below or above the bucket is below or above every key
    in it.  The table stores that answer; a bucket that an edge falls in
    stores -1, and so does the sentinel past the last bucket, onto which
    `take(..., mode="clip")` maps every larger product.  Only keys that
    read -1 go to `np.searchsorted`, with the original keys and edges,
    so the answer is exact for any spacing of the edges, and at most
    one bucket in 16 holds an edge.

    A call writes the indices into `out` (a C-contiguous intp array of
    u's shape), or a new array, and leaves u as it is; it allocates a
    mask of the keys that read -1.  The table is built once per law and
    only read after that, so threads may share it.
    """

    def __init__(self, edges: np.ndarray, top: float, side: str):
        self.edges = np.asarray(edges, dtype=float)
        self.side = side
        least = max(4096, 16 * len(self.edges))
        # top 2^s lands in [least, 2 least), unless 2^s would overflow
        s = math.frexp(least)[1] - math.frexp(top)[1]
        if math.ldexp(top, s) < least:
            s += 1
        self._factor = math.ldexp(1.0, min(s, 1023))
        nb = math.floor(top * self._factor) + 1
        bucket = np.floor(self.edges * self._factor)
        inside = bucket[(bucket >= 0.0) & (bucket < nb)].astype(np.intp)
        # table[b] = edges scaled below b: those below 0, then a running
        # count of the buckets below b
        counts = np.bincount(inside + 1, minlength=nb + 1)
        counts[0] = np.count_nonzero(bucket < 0.0)
        table = np.cumsum(counts)
        table[inside] = -1
        table[nb] = -1
        table.setflags(write=False)
        self._table = table

    def __call__(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        idx = np.empty(u.shape, dtype=np.intp) if out is None else out
        np.multiply(u, self._factor, out=idx, casting="unsafe")
        # in place: each index is read before its own slot is written
        self._table.take(idx, out=idx, mode="clip")
        flat = idx.reshape(-1)
        miss = np.flatnonzero(flat < 0)
        flat[miss] = np.searchsorted(self.edges, u.take(miss), side=self.side)
        return idx


def _inverse_cdf(cum: np.ndarray) -> _GuideTable:
    """Inverse-CDF atom lookup for uniforms, with cum = cumsum(masses).

    It maps u to the first atom whose cumulative mass exceeds u; a u at
    or above the rounded total lands on the last atom.
    """
    return _GuideTable(cum[:-1], 1.0, "right")


def _atom_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF atom indices of uniforms u: `_inverse_cdf(cum)(u)`."""
    return _inverse_cdf(cum)(u)


def sample(d: FiniteDist, rng: RngSpec | np.random.Generator, size: int) -> np.ndarray:
    """size iid draws via inverse CDF; deterministic per RngSpec."""
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    return d.values[_atom_index(np.cumsum(d.masses), gen.random(size))]


def _advanced(gen: np.random.Generator, k: int) -> np.random.Generator:
    """A copy of gen that starts k doubles on: it draws what gen draws
    after k doubles are drawn and discarded.  gen is left as it is.

    `Generator.random` takes one 64-bit output per double, and
    `PCG64.advance` skips outputs in O(log k) steps, so nothing is drawn.
    gen must run on PCG64; the copy is a fresh PCG64 given gen's `state`,
    which costs a third of a `copy.deepcopy`.
    """
    bits = np.random.PCG64(0)
    bits.state = gen.bit_generator.state
    bits.advance(k)
    return np.random.Generator(bits)
