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

Every lattice sum's masses are normalized by their math.fsum, cut at
both ends below MIN_MASS and given their atoms n v0 + k h by one helper
(`_mass_window`), whose record (`_Window`) bounds the mass cut at each
end.  iid_sum builds a two-atom law's binomial lattice in closed form,
where its masses stay normal, at the window's cost (`_binomial_atoms`),
and raises the masses of a law on a lattice to the n-th convolution
power (`_lattice_power`).  The comparison carrier c (BS_1 + ... + BS_n)
is scale(iid_sum(bs(p), n), c) built in one construction with the
window's record (`_bs_sum`), which no bound reads yet.  `scale`, that
carrier and each term of `weighted_bs_sum` scale atoms by c by one rule
(`_scaled`).

A law knows its lattice when it is built on one.  `bs`, `st`, iid_sum,
`scale` of such a law by c > 0 and `_bs_sum` by c > 0 pass
`on_lattice=True`: the atoms are
increasing and one lattice step apart.  Where every gap is within the
atoms' rounding (1e-7 relative) of the smallest, and that clears the
merge tolerance of the largest |atom|, the constructor skips the sort
and merge, which would do nothing, and sets `FiniteDist.lattice` to
(top atom, smallest gap), the (origin, step) that
`majorant.lattice_params` would infer; where it does not (a gap past
the float range is no step), the law is built the general way, with no
lattice.  A sub-normal mass is dropped either way; where one is dropped
between kept atoms, those are no longer consecutive lattice points, and
`lattice` is None.  Every other law
(`weighted_bs_sum`, laws read from JSON) has `lattice` None.  Either way
the atoms and masses pass the same checks.

Conventions used throughout the package:

- tail(d, x) = P(D >= x), the left-continuous step function, where x
  within an atom's band counts as that atom (`atom_band`, the one rule
  every tail and bound reader uses).
- sampling is inverse-CDF driven by a named (seed, stream) pair, so any
  consumer can reproduce a draw bit for bit.  `sample` maps each uniform
  to its atom by `np.searchsorted` on the cumulative masses.  The Monte
  Carlo blocks draw the PCG64 outputs that the uniforms are made of
  (`_uniforms`) and read the same atom by the outputs' top bits from a
  guide table (`_atom_guide`), the one kind of table (`_GuideTable`)
  that also reads the reciprocating map's pairs.  A consumer that reads
  a stream in two phases (the blocks: the atoms of every path, then a
  second draw per coordinate) may read the second phase from
  `_advanced`, a copy of the generator moved past the first phase's
  draws, and so interleave the two phases tile by tile with the same
  draws.
"""
from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .optimize import _count, _maximum, _quiet

MERGE_RTOL = 1e-12
MASS_ATOL = 1e-12
# smallest normal float: a mass below it has too few bits for hull arithmetic
MIN_MASS = float(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)
# A claimed lattice holds where every gap is within this of the smallest,
# relative: the rounding of n a + k (b - a) moves a gap of the n-fold sum
# by up to about 1.5 n eps steps, 3.6e-8 at n = 2e8
_GAP_RTOL = 1e-7

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


def _gaps(v: np.ndarray) -> np.ndarray:
    """v[1:] - v[:-1] for ascending v, inf where a gap passes the float
    range, with no numpy warning: the errstate is set only where the span
    passes it, since no gap does where the span does not."""
    if math.isfinite(float(v[-1]) - float(v[0])):
        return v[1:] - v[:-1]
    with np.errstate(over="ignore"):
        return v[1:] - v[:-1]


def _canonicalize(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The atoms sorted (stably), merged and stripped of sub-normal masses,
    in new arrays; the caller's are left as they are.

    numpy's stable argsort of floats is a timsort, which finds the
    ascending runs of its input and merges them, so atoms given as a few
    sorted runs (`weighted_bs_sum`'s) are sorted in linear time.  Merging
    and dropping are tested once each, and skipped where no gap is within
    the merge tolerance or no mass is below MIN_MASS: the sorted arrays,
    fresh and contiguous, are then the result as they are.  Each gap is
    held to its own tolerance only where the smallest gap is within the
    largest atom's.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    m = masses[order]
    if len(v) > 1:
        gaps = _gaps(v)
        # every gap's tolerance is at most the largest |atom|'s (v sorted:
        # at an end), so where the smallest gap clears that, all clear theirs
        if not float(np.minimum.reduce(gaps)) > MERGE_RTOL * max(1.0, -float(v[0]),
                                                                 float(v[-1])):
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
        # a claimed lattice holds where every gap is one step; where that
        # step clears the merge tolerance of the largest |v| (v sorted: at
        # an end) every gap does, and sort and merge would leave the atoms
        # as they are
        step = 0.0
        if on_lattice and len(v) > 1:
            gaps = _gaps(v)
            step = float(np.minimum.reduce(gaps))
            # an inf gap (past the float range) makes max - step inf or NaN: no step
            if not float(np.maximum.reduce(gaps)) - step <= _GAP_RTOL * step:
                step = 0.0
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
    band at the atom and read 0 past it.  An atom within 1e-12 of the
    float range's end has its band reach inf."""
    with _quiet(v):
        return v + MERGE_RTOL * _maximum(1.0, abs(v))


def _bs_atoms(p: float) -> tuple[float, float]:
    q = 1.0 - p
    return -math.sqrt(p / q), math.sqrt(q / p)


def _carrier_top(p: float, n: int, s_m: float) -> float:
    """The top atom of s_m (BS_1 + ... + BS_n) in _bs_sum's arithmetic."""
    a, b = _bs_atoms(p)
    return (n * a + n * (b - a)) * s_m


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

def _scaled(values: np.ndarray, masses: np.ndarray,
            c: float) -> tuple[np.ndarray, np.ndarray]:
    """The atoms and masses of c times the law of ascending atoms values
    with masses, on raw arrays: the one rule for scaling a law by c.

    A c that is not finite raises "scale factor must be finite"; c = 0
    gives the atom 0 with mass 1.  The end atoms' products, taken on
    Python floats before numpy multiplies, bound every other atom's, so
    where either is not finite the atoms are not, and that is a DistError
    raised with no numpy warning before it."""
    if not math.isfinite(c):
        raise DistError("scale factor must be finite")
    if c == 0.0:
        return np.array([0.0]), np.array([1.0])
    c = float(c)
    if not (math.isfinite(float(values[0]) * c) and math.isfinite(float(values[-1]) * c)):
        raise DistError("atoms must be finite")
    return values * c, masses


def scale(d: FiniteDist, c: float) -> FiniteDist:
    """Law of c * D, with `_scaled`'s errors: c = 0 collapses to the point
    mass at 0.

    A law on a known lattice scaled by c > 0 keeps it, unless its gaps
    shrink into the merge tolerance or pass the float range.
    """
    return FiniteDist(*_scaled(d.values, d.masses, c),
                      on_lattice=c > 0.0 and d.lattice is not None)


# The ratio products come in chunks: the first of this many, each later
# one twice the one before, up to _MAX_CHUNK, so n up to a few thousand
# takes one chunk and a window of w atoms O(log w) chunks.
_FIRST_CHUNK = 4096
_MAX_CHUNK = 1 << 20


def _normal_products(ratio, start: int, stop: int, step: int) -> np.ndarray:
    """The running products of ratio(j) for j = start, start + step, ...
    short of stop that are >= MIN_MASS: where products stop, not a cut.

    Every ratio is <= 1, so the products fall and those >= MIN_MASS lead;
    they are computed in chunks, up to the first chunk that ends below
    MIN_MASS.  Each chunk's first ratio is multiplied by the product
    before it, so the chunks are one np.cumprod run bit for bit; a lone
    chunk is returned as it is, with no copy."""
    chunks = []
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
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.empty(0)


class _Window(NamedTuple):
    """A lattice sum's indices kept, and bounds on the mass cut each side."""
    lo: int
    length: int
    cut_below: float
    cut_above: float

    def atoms(self, n: int, v0: float, h: float) -> np.ndarray:
        """The atoms n v0 + k h of the n-fold sum at the indices k kept.

        They rise with k, so where both end atoms are finite, taken on
        Python floats, every atom is, and elsewhere "atoms must be finite"
        is raised before numpy could warn."""
        for k in (self.lo, self.lo + self.length - 1):
            if not math.isfinite(n * v0 + k * h):
                raise DistError("atoms must be finite")
        return n * v0 + np.arange(self.lo, self.lo + self.length) * h


def _mass_window(mass: np.ndarray, lo: int, past=(0.0, 0.0),
                 total: float | None = None) -> tuple[np.ndarray, _Window]:
    """mass, at lattice indices lo, lo + 1, ..., over total with its ends
    below MIN_MASS cut off, and its window: the one cut at a lattice sum's
    ends, each end's cut the fsum of what it cut plus past (bounds on the
    mass beyond mass's ends) over total.

    total is mass's fsum, which the caller passes where it has it (fsum
    rounds the exact sum, so any order of the terms gives it); by default
    it is taken here.  Where both end masses are normal nothing is cut,
    and the search for the cut is skipped."""
    if total is None:
        # fsum keeps few partials, and is fast, when the terms fall in size;
        # in the order of the atoms it is 20 times slower at n = 600
        total = math.fsum(np.sort(mass)[::-1].tolist())
    mass = mass / total
    if mass[0] >= MIN_MASS and mass[-1] >= MIN_MASS:
        first, last = 0, len(mass)
    else:
        keep = mass >= MIN_MASS
        first, last = int(keep.argmax()), len(mass) - int(keep[::-1].argmax())
    below = math.fsum(mass[:first].tolist()) + past[0] / total
    above = math.fsum(mass[last:].tolist()) + past[1] / total
    return mass[first:last], _Window(lo + first, last - first, below, above)


# The most atoms a binomial window may keep: 8.7 times the 484 523 of
# n = 2e8 at p = 0.3, and 34 MB per array of them
MAX_WINDOW_ATOMS = 1 << 22
# The window spans about this many standard deviations: the products
# stop where exp(-k^2 / 2 sigma^2) falls below MIN_MASS, 37.6 each side
_WINDOW_SDS = 2.0 * math.sqrt(-2.0 * math.log(MIN_MASS))


def _binomial_atoms(atoms, masses, n: int) -> tuple[np.ndarray, np.ndarray, _Window]:
    """The atoms, masses and window of the sum of n iid draws from the
    two-atom law {a: q, b: p}, in closed form, on raw arrays.

    P(k+1) / P(k) = (n - k) p / ((k + 1) q) runs outward from 1 at the
    mode (lgamma differences would lose ten times more accuracy) while
    the products are >= MIN_MASS.  The ratios taken are <= 1 and the
    total >= 1, so a product left out would be cut once normalized, and
    the cost is the window, about 37.6 standard deviations each side of
    the mode: a window of more than MAX_WINDOW_ATOMS by that count is a
    DistError, raised before any product is taken.  The products left
    out add less than n MIN_MASS (< 1e-290) to the total, which moves
    its rounding by one ulp at most.  Each run of products falls from
    the mode, so the fsum of 1 and the two runs, in that order, is the
    total `_mass_window` divides by.  The ratios fall outward, so the
    masses kept are consecutive, and past products stopped at g, with r
    the first ratio not taken (0 at the lattice's end), lies at most
    g r / (1 - r): the window adds that to its cut at that end."""
    (a, b), (q, p) = atoms.tolist(), masses.tolist()
    width = _WINDOW_SDS * math.sqrt(n * p * q)
    if width > MAX_WINDOW_ATOMS:
        raise DistError(f"the sum of n={n} draws at p={p!r} keeps about {width:.3g} atoms, "
                        f"more than {MAX_WINDOW_ATOMS}")
    mode = min(int((n + 1) * p), n)
    up = lambda j: (n - j) * p / ((j + 1) * q)  # noqa: E731
    down = lambda j: j * q / ((n - j + 1) * p)  # noqa: E731
    above = _normal_products(up, mode, n, 1)
    below = _normal_products(down, mode, 0, -1)
    total = math.fsum([1.0, *above.tolist(), *below.tolist()])
    mass = np.concatenate((below[::-1], [1.0], above))
    lo, hi = mode - len(below), mode + len(above)
    past = [g * r / (1.0 - r) for g, r in ((float(mass[0]), down(lo)), (float(mass[-1]), up(hi)))]
    mass, window = _mass_window(mass, lo, past, total)
    return window.atoms(n, a, b - a), mass, window


def _lattice_power(d: FiniteDist, n: int) -> FiniteDist:
    """Sum of n iid draws from a law that carries its lattice.

    Atom k of d sits at lattice index k, so the sum's masses are the n-th
    convolution power of d's, by binary powering with np.convolve.  Each
    product is a sum of nonnegative terms, so nothing cancels, and
    `_mass_window` cuts its ends below MIN_MASS as they are (total 1): a
    mass cut moves no later mass by more than MIN_MASS times the masses
    it meets, which sum to at most 1 per product.  `_mass_window`
    normalizes and cuts the last product and gives its atoms; its window
    is not kept, since the products' cuts took mass inside it too."""
    result, lo = None, 0
    power, power_lo = d.masses, 0
    bits = n
    while True:
        if bits & 1:
            if result is None:
                result, lo = power, power_lo
            else:
                result, (lo, *_) = _mass_window(np.convolve(result, power), lo + power_lo,
                                                total=1.0)
        bits >>= 1
        if not bits:
            break
        power, (power_lo, *_) = _mass_window(np.convolve(power, power), 2 * power_lo, total=1.0)
    masses, window = _mass_window(result, lo)
    return FiniteDist(window.atoms(n, d.min_value, d.lattice[1]), masses, on_lattice=True)


def iid_sum(d: FiniteDist, n: int) -> FiniteDist:
    """Law of the sum of n iid draws from d; n an integer >= 1 (`_count`).

    A one-atom law gives the point mass at n v; a two-atom law the
    binomial lattice (`_binomial_atoms`); a law that carries its lattice
    the convolution power of its masses (`_lattice_power`).  Any other
    law is a DistError."""
    n = _count(n, "n", DistError)
    if d.n_atoms == 1:
        return delta(n * d.min_value)
    if d.n_atoms == 2:
        values, masses, _ = _binomial_atoms(d.values, d.masses, n)
        return FiniteDist(values, masses, on_lattice=True)
    if d.lattice is None:
        raise DistError("iid_sum needs a law with at most two atoms or one on a known lattice")
    return _lattice_power(d, n)


def _bs_sum(p: float, n: int, c: float) -> tuple[FiniteDist, _Window]:
    """scale(iid_sum(bs(p), n), c) in one construction, with that chain's
    errors in its order (p, then n and the window, then c: `_scaled`), and
    the window of iid_sum(bs(p), n) (`_binomial_atoms`).  The atoms scaled
    are the sum's as built, so the law is scale's bit for bit, and it has
    fewer atoms than the window only where c merged some (at c near
    1e-12, or at n near 1e16 with p within 1e-15 of 1).  Where p <
    MIN_MASS, bs(p) drops p with its atom, and the window records the
    1 - (1 - p)^n <= n p cut above the atom left."""
    values, masses = _bs_law(p)
    n = _count(n, "n", DistError)
    if len(values) == 1:
        values, masses = np.array([n * float(values[0])]), np.array([1.0])
        window = _Window(0, 1, 0.0, min(1.0, n * p))
    else:
        values, masses, window = _binomial_atoms(values, masses, n)
    return FiniteDist(*_scaled(values, masses, c),
                      on_lattice=c > 0.0 and window.length > 1), window


def _scaled_atoms(values: np.ndarray, masses: np.ndarray,
                  c: float) -> tuple[np.ndarray, np.ndarray]:
    """The atoms and masses of c times the law of bs(p)'s atoms and
    masses (`_bs_law`), c >= 0, on raw arrays.

    The same errors and the same arrays as scale(bs(p), c) (`_scaled`);
    two atoms within merge tolerance merge through `_canonicalize`, as the
    constructor merges them, and the test is taken on Python floats, so a
    gap past the float range reads as apart with no numpy warning.
    bs(p)'s masses are normal, and where it has two atoms they clear the
    merge tolerance and the law carries its lattice."""
    v, m = _scaled(values, masses, c)
    a, b = float(v[0]), float(v[-1])  # one atom: a = b, and _canonicalize keeps it
    if b - a > MERGE_RTOL * max(1.0, -a, b):
        return v, m
    return _canonicalize(v, m)


def _float_vector(values, name: str, error) -> np.ndarray:
    """values as a nonempty 1-d float array, else error (ragged ones too)."""
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.ndim != 1 or len(a) == 0:
        raise error(f"{name} must be a 1-d sequence of one or more numbers, got {values!r}")
    return a


def _coefficient_vector(coeffs, error=DistError) -> np.ndarray:
    """The one reader of a coefficient vector: `_float_vector`, none < 0."""
    c = _float_vector(coeffs, "coefficients", error)
    if (c < 0).any():
        raise error("coefficients must be >= 0")
    return c


def _power_sum(c: np.ndarray, r: float) -> tuple[float, np.float64]:
    """(top, sum (c / top)^r): top is 1, keeping the sum's bits, where the
    mean of c^r is a normal float, else max(c) if positive and finite."""
    with np.errstate(over="ignore", under="ignore"):
        total = np.add.reduce(c ** r)
        if not MIN_MASS <= total / len(c) < math.inf:
            top = float(np.maximum.reduce(c))
            if 0.0 < top < math.inf:
                return top, np.add.reduce((c / top) ** r)
    return 1.0, total


def weighted_bs_sum(p: float, coeffs: Sequence[float]) -> FiniteDist:
    """Exact law of sum_i c_i * BS_i with BS_i iid bs(p).

    Guarded at 24 terms: the construction enumerates up to 2^n sign
    patterns.  Each term's atoms are bs(p)'s times c_i, checked and
    merged as scale(bs(p), c_i) would be (`_scaled_atoms`), with no law
    built per term; the fold adds them on raw arrays, an outer sum per
    term with one `_canonicalize` (sort and merge) before the next, so
    the law is bit for bit the fold of FiniteDist(outer sums, outer
    products) over the scaled laws; only the final law is built and
    validated as a FiniteDist.  The outer sums are written term by term
    (`_term_runs`), so the sort merges two ascending runs.  Merging keeps
    the atom count at n + 1 for equal coefficients.  The coefficients are
    arbitrary, so the law carries no lattice.
    """
    coeffs = _coefficient_vector(coeffs).tolist()
    if len(coeffs) > MAX_BS_TERMS:
        raise DistError(f"refusing {len(coeffs)} terms (enumeration guard is {MAX_BS_TERMS})")
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
        v, m = _term_runs(v, m, tv, tm)
    return FiniteDist(v, m)


def _term_runs(v: np.ndarray, m: np.ndarray, tv: np.ndarray,
               tm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outer sums v + tv and products m tm, flat, in an order whose
    stable sort is that of np.add.outer(v, tv).ravel(), the atom-major
    order; v and tv ascending, tv of one or two atoms t0 < t1.

    Written term by term, the larger term first: t1 + v, then t0 + v, two
    ascending runs (adding t is monotone), the same sums and products.
    A stable sort orders equal sums by position.  Where t0 + v_i equals
    t1 + v_k, k < i, unless t0 + v_i = t1 + v_i: atom-major puts (k, t1)
    first, and so does t1's run.  t0 + v_i = t1 + v_i puts t1 - t0 within
    an ulp of the sum, at most 2^-52 (|v| + |t|) or the sub-normal step
    2^-1074; where t1 - t0 is that small, the sums are written
    atom-major."""
    if len(tv) == 2:
        t0, t1 = tv.tolist()
        if t1 - t0 <= 2.0 ** -50 * max(-float(v[0]), float(v[-1]), -t0, t1) + 2.0 ** -1070:
            return np.add.outer(v, tv).ravel(), np.multiply.outer(m, tm).ravel()
    return np.add.outer(tv[::-1], v).ravel(), np.multiply.outer(tm[::-1], m).ravel()


def tail(d: FiniteDist, x) -> float | np.ndarray:
    """P(D >= x); scalar in, scalar out; array in, array out.

    An atom counts as >= x while x is within its band (`atom_band`).
    """
    suffix = np.concatenate((d.upper_tails, [0.0]))
    np.clip(suffix, 0.0, 1.0, out=suffix)  # guard cumsum roundoff
    xa = np.asarray(x, dtype=float)
    idx = np.searchsorted(atom_band(d.values), xa, side="left")
    return float(suffix[idx]) if xa.ndim == 0 else suffix[idx]


def _suffix_sums(x: np.ndarray, out: np.ndarray) -> None:
    """out[k] = x[k] + x[k+1] + ... along axis 0, each running sum one
    addition in sequence from the last entry down (np.add.accumulate of
    x reversed, written back to front).  Two columns are summed as one
    complex column, whose real and imaginary parts add as the columns
    would, in one pass in place of two."""
    if x.ndim == 2:
        x, out = x.view(complex)[:, 0], out.view(complex)[:, 0]
    np.add.accumulate(x[::-1], out=out[::-1])


def _shifted_suffix_moments(d: FiniteDist | np.ndarray,
                            masses: np.ndarray | None = None) -> np.ndarray:
    """P[j, k] = sum over i >= k of m_i (v_i - v_k)^j for j = 0..3 over
    the atoms v_i and masses m_i of the law d; or, given masses (points,
    2), over an ascending support d with two laws' masses on it as
    columns (zero where a law has no atom), as P[j, k, law].

    One backward pass: shifting the origin from v_{k+1} down to v_k is a
    binomial expansion in the nonnegative gap h = v_{k+1} - v_k,

        P0(k) = P0(k+1) + m_k
        P1(k) = P1(k+1) + h P0(k+1)
        P2(k) = P2(k+1) + h (2 P1(k+1) + h P0(k+1))
        P3(k) = P3(k+1) + h (3 P2(k+1) + h (3 P1(k+1) + h P0(k+1)))

    so every term added is nonnegative and nothing cancels.  A row's
    increments need only the rows below it, so each row is one running
    sum from the top atom down (`_suffix_sums`), in the order of a loop
    over k.  P3 at v_k is E (D - v_k)_+^3.

    On a support, each point steps from its law's next atom above it (h
    is that atom's distance), and only the steps of the law's atoms are
    summed: a zero mass and a zero step add 0 exactly, so at its atoms a
    column holds its law's own moments bit for bit, and a point between
    them holds the moments of the atom above moved down to it by the
    same step (0 past the top atom)."""
    if masses is None:
        v = d.values
        out = np.empty((4, len(v)))
        out[0] = d.upper_tails
        h = v[1:] - v[:-1]
        on = None  # every point is an atom
    else:
        # the support once per column: numpy runs two equal columns as one
        # array, where a broadcast one would run in pairs
        v = np.column_stack((d, d))
        out = np.empty((4,) + masses.shape)
        _suffix_sums(masses, out[0])
        has = masses > 0.0
        on = has[:-1].astype(float)  # 1 where a point is its law's atom
        # each law's next atom above each point; past the top atom the
        # tails are 0, so the step to d[-1] adds 0
        h = np.where(has[1:], v[1:], d[-1])
        np.fmin.accumulate(h[::-1], out=h[::-1])
        h -= v[:-1]
    p0, p1, p2, p3 = out
    out[1:, -1] = 0.0
    hp0 = h * p0[1:]
    _suffix_sums(hp0 if on is None else hp0 * on, p1[:-1])
    # h (2 P1 + h P0) and h (3 P2 + h (3 P1 + h P0)) in place, with the
    # same roundings (float sums and products commute)
    step2 = 2.0 * p1[1:]
    step2 += hp0
    step2 *= h
    _suffix_sums(step2 if on is None else step2 * on, p2[:-1])
    step3 = 3.0 * p1[1:]
    step3 += hp0
    step3 *= h
    step3 += 3.0 * p2[1:]
    step3 *= h
    _suffix_sums(step3 if on is None else step3 * on, p3[:-1])
    if on is not None:
        # a point that is not its law's atom takes its own step on top
        off = 1.0 - on
        for p, step in zip(out[1:], (hp0, step2, step3)):
            step *= off
            p[:-1] += step
    return out


class _GuideTable:
    """index(rows, `_uniforms(raw)`) for PCG64 outputs raw, by table.

    A guide table for inverse-CDF sampling (Chen & Asau, 1974), made
    exact.  index(r, u) takes row indices r (intp) and uniforms u of one
    shape, and must be exact and nondecreasing in u on each row.  Each row
    gets 2^s buckets, for the least s with rows 2^s >= max(4096,
    8 entries); bucket b holds the uniforms m 2^-53 in [b 2^-s,
    (b + 1) 2^-s), whose outputs have top s bits b.  Where index at the
    bucket's first uniform and at its last agree, the bucket stores that
    index, which holds at every uniform between; where they differ it
    stores -1 - r, and only outputs that read a negative entry make their
    uniforms, for index on that row.  The table is built once and only
    read after that, so threads may share it.
    """

    # buckets built at a time, which bounds the build's arrays
    _CHUNK = 8192

    def __init__(self, index, entries: int, rows: int = 1):
        self.index = index
        self._bits = (-(-max(4096, 8 * entries) // rows) - 1).bit_length()
        width = 1 << self._bits
        step = 1.0 / width
        table = np.empty(rows * width, dtype=np.intp)
        for start in range(0, table.size, self._CHUNK):
            key = np.arange(start, min(start + self._CHUNK, table.size))
            r = key >> self._bits
            first = (key & (width - 1)) * step
            lo = index(r, first)
            hi = index(r, first + (step - 2.0 ** -53))
            table[start:start + key.size] = np.where(lo == hi, lo, -1 - r)
        table.setflags(write=False)
        self._table = table

    def from_bits(self, raw: np.ndarray, out: np.ndarray,
                  rows: np.ndarray | None = None) -> np.ndarray:
        """The indices for raw (uint64) on rows, written into out and
        returned; out and rows are C-contiguous intp arrays of raw's
        shape, and rows None reads row 0.  One `take` by the key
        (row << s) + the output's top s bits, which is formed in out and
        in rows: rows is overwritten, raw is left as it is."""
        np.right_shift(raw, 64 - self._bits, out=out.view(np.uint64))
        if rows is not None:
            rows <<= self._bits
            out += rows
        # in place, and mode "clip" writes straight to out: every key is
        # in range, and each is read before its own slot is written
        self._table.take(out, out=out, mode="clip")
        flat = out.reshape(-1)
        miss = np.flatnonzero(flat < 0)
        flat[miss] = self.index(-1 - flat.take(miss), _uniforms(raw.reshape(-1).take(miss)))
        return out


def _atom_guide(d: FiniteDist) -> _GuideTable:
    """The guide table of the atom index that `sample` draws from each
    uniform: the first atom whose cumulative mass exceeds it, and the
    last atom for a uniform at or above the rounded total."""
    edges = np.cumsum(d.masses)[:-1]
    return _GuideTable(lambda r, u: np.searchsorted(edges, u, "right"), d.n_atoms)


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The doubles `Generator.random` makes of the PCG64 outputs raw
    (uint64): each output's top 53 bits times 2^-53, one output per
    double.  So a generator's `bit_generator.random_raw(k)` holds the
    k doubles that its `random(k)` would draw, and moves it as far."""
    return (raw >> np.uint64(11)) * 2.0 ** -53


def sample(d: FiniteDist, rng: RngSpec | np.random.Generator, size: int) -> np.ndarray:
    """size iid draws (size an int >= 0, or a shape) by inverse CDF; deterministic per RngSpec.

    A uniform u draws the first atom whose cumulative mass exceeds u, and
    a u at or above the rounded total the last atom: the index that
    `_atom_guide` reads from the uniform's PCG64 output."""
    for k in size if isinstance(size, tuple) else (size,):
        _count(k, "size", DistError, 0)
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    return d.values[np.searchsorted(np.cumsum(d.masses)[:-1], gen.random(size), "right")]


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
