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

The atoms are sorted once; the merge runs only where some gap is within
tolerance, and the drop only where some mass is below MIN_MASS
(`_canonicalize`).

iid_sum of a two-atom law {a: q, b: p} is the binomial lattice
n a + k (b - a) in closed form, built and normalized only where its
masses do not underflow: about 37.6 standard deviations each side of the
mode, so its cost is that window, not O(n) (see _binomial_atoms).  A
law with more atoms must carry its lattice: its mass vector is raised to
the n-th convolution power on that lattice (see _lattice_power).  The
comparison carrier c (BS_1 + ... + BS_n) of `bounds.carrier_sum` and the
enumeration check is scale(iid_sum(bs(p), n), c) built in one
construction from the same window (`_bs_sum`), with no law built for
bs(p) or the unscaled sum.

A law knows its lattice when it is built on one.  `bs`, `st`, iid_sum,
`scale` of such a law by c > 0 and `_bs_sum` by c > 0 pass
`on_lattice=True`: the atoms are
increasing and one lattice step apart.  Where the smallest gap clears
the merge tolerance of the largest |atom|, the constructor skips the
sort and merge, which would do nothing, and sets `FiniteDist.lattice` to
(top atom, smallest gap), the (origin, step) that
`majorant.lattice_params` would infer; where it does not, the law is
built the general way, with no lattice.  A sub-normal mass is dropped
either way; where one is dropped between kept atoms, those are no longer
consecutive lattice points, and `lattice` is None.  Every other law
(`weighted_bs_sum`, laws read from JSON) has `lattice` None.  Either way
the atoms and masses pass the same checks.

Conventions used throughout the package:

- tail(d, x) = P(D >= x), the left-continuous step function, where x
  within an atom's band counts as that atom (`atom_band`, the one rule
  every tail and bound reader uses).
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

import json
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

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
    """The atoms sorted (stably), merged and stripped of sub-normal masses,
    in new arrays; the caller's are left as they are.

    Merging and dropping are tested once each, and skipped where no gap
    is within the merge tolerance or no mass is below MIN_MASS: the
    sorted arrays, fresh and contiguous, are then the result as they are.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    m = masses[order]
    if len(v) > 1:
        gaps = v[1:] - v[:-1]
        size = np.abs(v)
        tol = np.maximum(size[:-1], size[1:])
        np.maximum(tol, 1.0, out=tol)
        tol *= MERGE_RTOL
        apart = gaps > tol
        if not apart.all():
            firsts = np.flatnonzero(np.concatenate(([True], apart)))
            v, m = v[firsts], np.add.reduceat(m, firsts)
    if np.minimum.reduce(m) < MIN_MASS:
        keep = m >= MIN_MASS
        v, m = v[keep], m[keep]
    return v, m


@dataclass(frozen=True)
class FiniteDist:
    """Finite discrete distribution over the reals.

    `on_lattice` claims that `values` are consecutive points of an affine
    lattice; `lattice` is then (top atom, smallest gap), or None where the
    claim does not hold (see the module docstring).
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
                kept = np.flatnonzero(m >= MIN_MASS)
                v, m = v[kept], m[kept]
                # the atoms left are consecutive lattice points only where
                # the drop took atoms at the ends and none between
                step = (float(np.minimum.reduce(v[1:] - v[:-1]))
                        if len(kept) > 1 and kept[-1] - kept[0] == len(kept) - 1 else 0.0)
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

    def is_symmetric(self) -> bool:
        """Whether -D has D's law: the atoms mirror each other to 1e-12
        max(1, largest |atom|), and the masses to 1e-12."""
        v, m = self.values, self.masses
        scale = max(1.0, -v[0], v[-1])
        return bool((np.abs(-v[::-1] - v) <= 1e-12 * scale).all()
                    and (np.abs(m[::-1] - m) <= 1e-12).all())

    # -- serialization -----------------------------------------------------
    @staticmethod
    def from_obj(obj: dict) -> "FiniteDist":
        try:
            atoms = obj["atoms"]
            vals = np.asarray([a["v"] for a in atoms], dtype=float)
            mass = np.asarray([a["p"] for a in atoms], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise DistError(f"malformed distribution object: {exc}") from exc
        return FiniteDist(vals, mass)

    @staticmethod
    def from_json(text: str) -> "FiniteDist":
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise DistError(f"malformed distribution JSON: {exc}") from exc
        return FiniteDist.from_obj(obj)


def from_pairs(pairs: Iterable[tuple[float, float]]) -> FiniteDist:
    vs, ms = zip(*pairs)
    return FiniteDist(np.asarray(vs, dtype=float), np.asarray(ms, dtype=float))


def delta(x: float) -> FiniteDist:
    """Point mass at x."""
    return FiniteDist(np.array([float(x)]), np.array([1.0]))


# -- canonical laws ---------------------------------------------------------

def atom_band(v):
    """v + MERGE_RTOL max(1, |v|), the top of atom v's band; v a scalar, or
    an array taken elementwise with the same bits.  The one rule for when
    x has reached or passed an atom: x counts as atom v while x <=
    atom_band(v), and is then evaluated at v.  `tail` counts atoms by it;
    b_opt, hoeffding_bound and TailMajorant evaluate x in the top atom's
    band at the atom and read 0 past it."""
    if isinstance(v, np.ndarray):
        return v + MERGE_RTOL * np.maximum(1.0, np.abs(v))
    return v + MERGE_RTOL * max(1.0, abs(v))


def _bs_atoms(p: float) -> tuple[float, float]:
    q = 1.0 - p
    return -math.sqrt(p / q), math.sqrt(q / p)


def _sum_atom(a: float, b: float, n: int, k):
    """Atom k (an int or an int array) of the n-fold sum of {a, b}."""
    return n * a + k * (b - a)


def bs(p: float) -> FiniteDist:
    """Standardized Bernoulli: -sqrt(p/q) w.p. q, +sqrt(q/p) w.p. p.

    Zero mean, unit variance; the asymmetry knob is p (small p means a
    long right arm).  Domain p in (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise DistError("bs requires p in (0, 1)")
    return FiniteDist(np.array(_bs_atoms(p)), np.array([1.0 - p, p]), on_lattice=True)


def _bs_law(p: float) -> tuple[np.ndarray, np.ndarray]:
    """The atoms and masses of bs(p), with its errors, and no law built
    where p is in [MIN_MASS, 1): there both masses are normal and bs keeps
    them as they are.  Below that, bs drops the sub-normal p with its atom
    or rejects that atom as infinite."""
    if not MIN_MASS <= p < 1.0:
        d = bs(p)
        return d.values, d.masses
    return np.array(_bs_atoms(p)), np.array([1.0 - p, p])


def st(p: float) -> FiniteDist:
    """Symmetric three-point law: +-1/sqrt(p) w.p. p/2 each, 0 w.p. 1-p.

    Zero mean, unit variance, fourth moment 1/p.  The atoms are one
    lattice step r = 1/sqrt(p) apart; p = 1 degenerates to the Rademacher
    law, whose two atoms are one step 2r apart.
    """
    if not 0.0 < p <= 1.0:
        raise DistError("st requires p in (0, 1]")
    r = 1.0 / math.sqrt(p)
    if p == 1.0:
        return FiniteDist(np.array([-r, r]), np.array([0.5, 0.5]), on_lattice=True)
    return FiniteDist(np.array([-r, 0.0, r]), np.array([p / 2, 1.0 - p, p / 2]),
                      on_lattice=True)


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


# The ratio products come in chunks: the first of this many, each later
# one twice the one before, up to _MAX_CHUNK, so n up to a few thousand
# takes one chunk and a window of w atoms O(log w) chunks.
_FIRST_CHUNK = 4096
_MAX_CHUNK = 1 << 20


def _normal_products(ratio, start: int, stop: int, step: int) -> np.ndarray:
    """The running products of ratio(j) for j = start, start + step, ...
    short of stop that are >= MIN_MASS.

    Every ratio is <= 1, so the products fall and those >= MIN_MASS lead;
    they are computed in chunks, up to the first chunk that ends below
    MIN_MASS.  Each chunk's first ratio is multiplied by the product
    before it, so the chunks are one np.cumprod run bit for bit."""
    chunks = [np.empty(0)]
    j, last, size = start, 1.0, _FIRST_CHUNK
    while j != stop:
        end = min(j + size, stop) if step > 0 else max(j - size, stop)
        prod = ratio(np.arange(j, end, step))
        prod[0] *= last
        np.multiply.accumulate(prod, out=prod)
        if prod[-1] < MIN_MASS:
            chunks.append(prod[:np.count_nonzero(prod >= MIN_MASS)])
            break
        chunks.append(prod)
        j, last, size = end, prod[-1], min(2 * size, _MAX_CHUNK)
    return np.concatenate(chunks)


def _binomial_atoms(atoms, masses, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The atoms and masses of the sum of n iid draws from the two-atom
    law {a: q, b: p}, in closed form, on raw arrays.

    Atoms n a + k (b - a) with binomial masses from the ratio recurrence
    P(k+1) / P(k) = (n - k) p / ((k + 1) q), run outward from 1 at the
    mode and then normalized.  Every ratio taken is <= 1, and the total
    is >= 1, so a product leaves the normal range only where the
    normalized mass is below it too and the atom is dropped anyway.
    (lgamma differences would lose about ten times more accuracy.)  So
    atoms are built only for the window of products >= MIN_MASS, about
    37.6 standard deviations each side of the mode, and the cost is that
    window, not n.  The normalization is math.fsum of the window: the
    products left out are fewer than n, each below MIN_MASS, so they add
    less than n MIN_MASS (< 1e-290) to a total >= 1, which moves its
    rounding only where the window's exact sum lies that close below a
    rounding boundary, and then by one ulp.  The masses fall away from
    the mode, so those the constructor keeps (>= MIN_MASS once
    normalized) are consecutive and the law carries its lattice.
    """
    (a, b), (q, p) = atoms, masses
    mode = min(int((n + 1) * p), n)
    up = _normal_products(lambda j: (n - j) * p / ((j + 1) * q), mode, n, 1)
    down = _normal_products(lambda j: j * q / ((n - j + 1) * p), mode, 0, -1)
    mass = np.concatenate((down[::-1], [1.0], up))
    # fsum keeps few partials, and is fast, when the terms fall in size;
    # in the order of the atoms it is 20 times slower at n = 600
    total = math.fsum(np.sort(mass)[::-1].tolist())
    k = np.arange(mode - len(down), mode + len(up) + 1)
    return _sum_atom(a, b, n, k), mass / total


def _trimmed(mass: np.ndarray, lo: int) -> tuple[np.ndarray, int]:
    """mass with the entries below MIN_MASS at either end cut off, and
    the lattice index of its first entry, which was lo."""
    big = np.flatnonzero(mass >= MIN_MASS)
    return mass[big[0]:big[-1] + 1], lo + int(big[0])


def _lattice_power(d: FiniteDist, n: int) -> FiniteDist:
    """Sum of n iid draws from a law that carries its lattice.

    Atom k of d sits at lattice index k, so the masses of the sum are
    the n-th convolution power of d's mass vector, taken by binary
    powering with np.convolve.  Each product is a sum of nonnegative
    terms, so nothing cancels, and its ends below MIN_MASS are cut off,
    as the constructor would drop them: the powers stay as short as the
    window of masses that can be kept, and a mass cut off moves no later
    mass by more than MIN_MASS times the masses it meets, which sum to
    at most 1 per product.  Sub-normal masses between kept ones stay, and
    the constructor drops them.  The masses are normalized once, by
    math.fsum, and the atoms are n v_0 + k h, with h d's step, at the
    lattice indices k kept."""
    result, lo = None, 0
    power, power_lo = d.masses, 0
    bits = n
    while True:
        if bits & 1:
            if result is None:
                result, lo = power, power_lo
            else:
                result, lo = _trimmed(np.convolve(result, power), lo + power_lo)
        bits >>= 1
        if not bits:
            break
        power, power_lo = _trimmed(np.convolve(power, power), 2 * power_lo)
    total = math.fsum(np.sort(result)[::-1].tolist())
    k = np.arange(lo, lo + len(result))
    return FiniteDist(n * d.min_value + k * d.lattice[1], result / total, on_lattice=True)


def iid_sum(d: FiniteDist, n: int) -> FiniteDist:
    """Law of the sum of n iid draws from d.

    A one-atom law gives the point mass at n v; a two-atom law the
    binomial lattice in closed form (`_binomial_atoms`); a law that
    carries its lattice the convolution power of its masses on that
    lattice (`_lattice_power`).  Any other law is a DistError.
    """
    if n < 1:
        raise DistError("n must be >= 1")
    if d.n_atoms == 1:
        return delta(n * d.min_value)
    if d.n_atoms == 2:
        return FiniteDist(*_binomial_atoms(d.values, d.masses, n), on_lattice=True)
    if d.lattice is None:
        raise DistError("iid_sum needs a law with at most two atoms or one on a known lattice")
    return _lattice_power(d, n)


def _bs_sum(p: float, n: int, c: float) -> tuple[FiniteDist, int]:
    """scale(iid_sum(bs(p), n), c) in one construction, and the atom count
    of iid_sum(bs(p), n); the law has fewer atoms only where c merged some.

    The same errors as that chain, in its order: p, then n, then c.  The
    sum is iid_sum's binomial window (`_binomial_atoms`) with the ends
    whose masses the constructor drops cut off, so the atoms scaled are
    the sum's as built and the law is scale's bit for bit: on the lattice
    for c > 0, through sort and merge otherwise, and the point mass at 0
    for c = 0.  That holds wherever the sum carries its lattice, that is
    wherever its float atoms stay apart: they are b - a >= max(|a|, b)
    apart, and only the rounding of n a + k (b - a) at n near 1e16, with
    p within about 1e-15 of 1, brings neighbours within the merge
    tolerance.  There iid_sum merges them into the sum it builds; here
    they merge in the one construction and the count is of the atoms
    before the merge.
    """
    values, masses = _bs_law(p)
    if n < 1:
        raise DistError("n must be >= 1")
    if not math.isfinite(c):
        raise DistError("scale factor must be finite")
    if len(values) == 1:
        values, masses = np.array([n * float(values[0])]), np.array([1.0])
    else:
        values, masses = _binomial_atoms(values, masses, n)
        kept = np.flatnonzero(masses >= MIN_MASS)
        lo, hi = kept[0], kept[-1] + 1
        values, masses = values[lo:hi], masses[lo:hi]
    atoms = len(values)
    if c == 0.0:
        return delta(0.0), atoms
    return FiniteDist(values * c, masses, on_lattice=c > 0.0 and atoms > 1), atoms


def _scaled_atoms(values: np.ndarray, masses: np.ndarray,
                  c: float) -> tuple[np.ndarray, np.ndarray]:
    """The atoms and masses of c times the law of bs(p)'s atoms and
    masses (`_bs_law`), c >= 0, on raw arrays.

    The same errors and the same arrays as scale(bs(p), c): c = 0 gives
    the atom 0 with mass 1; two atoms within merge tolerance merge
    through `_canonicalize`, as the constructor merges them.  bs(p)'s
    masses are normal, and where it has two atoms they clear the merge
    tolerance and the law carries its lattice."""
    if not math.isfinite(c):
        raise DistError("scale factor must be finite")
    if c == 0.0:
        return np.array([0.0]), np.array([1.0])
    v = values * c
    # c > 0: the atoms stay sorted, and each is finite or infinite
    if not (math.isfinite(v[0]) and math.isfinite(v[-1])):
        raise DistError("atoms must be finite")
    if len(v) == 2 and v[1] - v[0] > MERGE_RTOL * max(1.0, -v[0], v[1]):
        return v, masses
    return _canonicalize(v, masses)


def weighted_bs_sum(p: float, coeffs: Sequence[float]) -> FiniteDist:
    """Exact law of sum_i c_i * BS_i with BS_i iid bs(p).

    Guarded at 24 terms: the construction enumerates up to 2^n sign
    patterns.  Each term's atoms are bs(p)'s times c_i, checked and
    merged as scale(bs(p), c_i) would be (`_scaled_atoms`), with no law
    built per term; the fold adds them on raw arrays, an outer sum per
    term with one `_canonicalize` (sort and merge) before the next, so
    the law is bit for bit the fold of FiniteDist(outer sums, outer
    products) over the scaled laws; only the final law is built and
    validated as a FiniteDist.  Merging keeps the atom count at n + 1
    for equal coefficients.  The coefficients are arbitrary, so the law
    carries no lattice.
    """
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) == 0:
        raise DistError("need at least one coefficient")
    if len(coeffs) > MAX_BS_TERMS:
        raise DistError(f"refusing {len(coeffs)} terms (enumeration guard is {MAX_BS_TERMS})")
    if any(c < 0 for c in coeffs):
        raise DistError("coefficients must be >= 0")
    base = _bs_law(p)
    v, m = _scaled_atoms(*base, coeffs[0])
    for i, c in enumerate(coeffs[1:]):
        if i:
            v, m = _canonicalize(v, m)
        tv, tm = _scaled_atoms(*base, c)
        # both are sorted, so the extreme sums are the sums of the extremes
        if not (math.isfinite(float(v[0]) + float(tv[0]))
                and math.isfinite(float(v[-1]) + float(tv[-1]))):
            raise DistError("atoms must be finite")
        v, m = np.add.outer(v, tv).ravel(), np.multiply.outer(m, tm).ravel()
    return FiniteDist(v, m)


def tail(d: FiniteDist, x) -> float | np.ndarray:
    """P(D >= x); scalar in, scalar out; array in, array out.

    An atom counts as >= x while x is within its band (`atom_band`).
    """
    suffix = np.concatenate((d.upper_tails, [0.0]))
    np.clip(suffix, 0.0, 1.0, out=suffix)  # guard cumsum roundoff
    xa = np.asarray(x, dtype=float)
    idx = np.searchsorted(atom_band(d.values), xa, side="left")
    return float(suffix[idx]) if xa.ndim == 0 else suffix[idx]


def _shifted_suffix_moments(d: FiniteDist, left: bool = False) -> np.ndarray:
    """P[j, k] = sum over i >= k of m_i (v_i - v_k)^j for j = 0..3; for
    left, the same of -D, whose atoms are d's negated in reverse order,
    with d's prefix sums of the masses, reversed, as their upper tails.

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
    if left:
        v, tails = -d.values[::-1], np.add.accumulate(d.masses)[::-1]
    else:
        v, tails = d.values, d.upper_tails
    h = v[1:] - v[:-1]
    out = np.empty((4, len(v)))
    p0, p1, p2, p3 = out
    p0[:] = tails
    out[1:, -1] = 0.0
    hp0 = h * p0[1:]
    np.add.accumulate(hp0[::-1], out=p1[-2::-1])
    np.add.accumulate((h * (2.0 * p1[1:] + hp0))[::-1], out=p2[-2::-1])
    np.add.accumulate((h * (3.0 * p2[1:] + h * (3.0 * p1[1:] + hp0)))[::-1], out=p3[-2::-1])
    return out


def _suffix_moments_at(d: FiniteDist, x, left: bool = False) -> np.ndarray:
    """P[j, i] = sum over v >= x_i of m (v - x_i)^j for j = 0..3, at each
    point of a 1-d array, in O(atoms + points); for left, sum over
    v <= x_i of m (x_i - v)^j, read as the moments of -D at -x_i.

    With k the first atom >= x and u = v_k - x >= 0 these are the
    shifted suffix moments at k moved down by u,

        P0 = P0(k),  P1 = P1(k) + u P0(k),  P2 = P2(k) + u (2 P1(k) + u P0(k)),
        P3 = P3(k) + u (3 P2(k) + u (3 P1(k) + u P0(k))),

    each a sum of nonnegative terms.  Above the top atom every moment is
    0 exactly.  P3 is E (D - x)_+^3.
    """
    x = np.asarray(x, dtype=float)
    v = d.values
    if left:
        x, v = -x, -v[::-1]
    # column len(v), past the top atom, holds the moments 0 and the gap 0
    moments = np.zeros((4, len(v) + 1))
    moments[:, :-1] = _shifted_suffix_moments(d, left)
    k = np.searchsorted(v, x, side="left")
    p0, p1, p2, p3 = moments.take(k, axis=1)
    u = np.maximum(np.append(v, -math.inf).take(k) - x, 0.0)
    up0 = u * p0
    out = np.empty((4, len(x)))
    out[0] = p0
    out[1] = p1 + up0
    out[2] = p2 + u * (2.0 * p1 + up0)
    out[3] = p3 + u * (3.0 * p2 + u * (3.0 * p1 + up0))
    return out


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


def sample(d: FiniteDist, rng: RngSpec | np.random.Generator, size: int) -> np.ndarray:
    """size iid draws via inverse CDF; deterministic per RngSpec."""
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    return d.values[_inverse_cdf(np.cumsum(d.masses))(gen.random(size))]


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
