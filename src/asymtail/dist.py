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
n a + k (b - a), k = 0..n, in closed form (O(n)); laws with more atoms
are convolved by binary powering.

Conventions used throughout the package:

- tail(d, x) = P(D >= x), the left-continuous step function; an atom
  within merge tolerance of x counts as >= x.
- expect(d, f) sums mass * f(value) with math.fsum; overflowing
  exponential moments come back as +inf rather than raising.
- sampling is inverse-CDF driven by a named (seed, stream) pair, so any
  consumer can reproduce a draw bit for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

MERGE_RTOL = 1e-12
MASS_ATOL = 1e-12
# smallest normal float: a mass below it has too few bits for hull arithmetic
MIN_MASS = float(np.finfo(float).tiny)

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
    practical purposes (SeedSequence spawn keys).
    """
    seed: int
    stream: int = 0

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
    """Finite discrete distribution over the reals."""
    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if v.ndim != 1 or m.ndim != 1 or len(v) != len(m):
            raise DistError("values and masses must be 1-d arrays of equal length")
        if len(v) == 0:
            raise DistError("a distribution needs at least one atom")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(m))):
            raise DistError("atoms must be finite")
        if np.any(m < 0):
            raise DistError("negative mass")
        v, m = _canonicalize(v, m)
        if len(v) == 0:
            raise DistError("all atoms had zero mass")
        total = math.fsum(m)
        if abs(total - 1.0) > MASS_ATOL:
            raise DistError(f"total mass {total!r} is not 1 within {MASS_ATOL:g}")
        v.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "masses", m)

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

    def mean(self) -> float:
        return math.fsum(self.values * self.masses)

    def var(self) -> float:
        mu = self.mean()
        return math.fsum(self.masses * (self.values - mu) ** 2)

    def moment(self, k: int) -> float:
        return math.fsum(self.masses * self.values ** k)

    def atoms(self) -> list[tuple[float, float]]:
        return [(float(v), float(m)) for v, m in zip(self.values, self.masses)]

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        v, m = self.values, self.masses
        w, u = _canonicalize(-v, m)
        if len(w) != len(v):
            return False
        scale = max(1.0, float(np.max(np.abs(v))))
        return bool(np.all(np.abs(w - v) <= rtol * scale) and np.all(np.abs(u - m) <= rtol))

    # -- serialization -----------------------------------------------------
    def to_obj(self) -> dict:
        return {"atoms": [{"v": float(v), "p": float(m)} for v, m in zip(self.values, self.masses)]}

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

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
    return FiniteDist(np.array([-math.sqrt(p / q), math.sqrt(q / p)]), np.array([q, p]))


def st(p: float) -> FiniteDist:
    """Symmetric three-point law: +-1/sqrt(p) w.p. p/2 each, 0 w.p. 1-p.

    Zero mean, unit variance, fourth moment 1/p.  p = 1 degenerates to
    the Rademacher law (the zero atom has no mass and is dropped).
    """
    if not 0.0 < p <= 1.0:
        raise DistError("st requires p in (0, 1]")
    r = 1.0 / math.sqrt(p)
    return FiniteDist(np.array([-r, 0.0, r]), np.array([p / 2, 1.0 - p, p / 2]))


def bc(p: float) -> FiniteDist:
    """Centered Bernoulli: -p w.p. q, 1-p w.p. p.

    Zero mean, variance pq; bs(p) = scale(bc(p), 1/sqrt(pq)).
    """
    if not 0.0 < p < 1.0:
        raise DistError("bc requires p in (0, 1)")
    return FiniteDist(np.array([-p, 1.0 - p]), np.array([1.0 - p, p]))


# -- operations --------------------------------------------------------------

def scale(d: FiniteDist, c: float) -> FiniteDist:
    """Law of c * D.  c = 0 collapses to the point mass at 0."""
    if not math.isfinite(c):
        raise DistError("scale factor must be finite")
    if c == 0.0:
        return delta(0.0)
    return FiniteDist(d.values * c, d.masses)


def shift(d: FiniteDist, a: float) -> FiniteDist:
    """Law of D + a."""
    return FiniteDist(d.values + a, d.masses)


def convolve(d1: FiniteDist, d2: FiniteDist) -> FiniteDist:
    """Law of the sum of independent draws from d1 and d2."""
    v = np.add.outer(d1.values, d2.values).ravel()
    m = np.multiply.outer(d1.masses, d2.masses).ravel()
    return FiniteDist(v, m)


def _binomial_lattice(d: FiniteDist, n: int) -> FiniteDist:
    """Sum of n iid draws from the two-atom law {a: q, b: p}, in closed form.

    Atoms n a + k (b - a), k = 0..n, with binomial masses from the ratio
    recurrence P(k+1) / P(k) = (n - k) p / ((k + 1) q), run outward from
    1 at the mode and then normalized.  Every ratio taken is <= 1, and
    the total is >= 1, so a product leaves the normal range only where
    the normalized mass is below it too and the atom is dropped anyway.
    (lgamma differences would lose about ten times more accuracy.)
    """
    (a, b), (q, p) = d.values, d.masses
    k = np.arange(n + 1)
    mode = min(int((n + 1) * p), n)
    up = (n - k[mode:n]) * p / ((k[mode:n] + 1) * q)
    down = k[mode:0:-1] * q / ((n - k[mode:0:-1] + 1) * p)
    mass = np.concatenate((np.cumprod(down)[::-1], [1.0], np.cumprod(up)))
    return FiniteDist(n * a + k * (b - a), mass / math.fsum(mass))


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
    patterns through repeated convolution.
    """
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) == 0:
        raise DistError("need at least one coefficient")
    if len(coeffs) > MAX_BS_TERMS:
        raise DistError(f"refusing {len(coeffs)} terms (enumeration guard is {MAX_BS_TERMS})")
    if any(c < 0 for c in coeffs):
        raise DistError("coefficients must be >= 0")
    base = bs(p)
    out = scale(base, coeffs[0])
    for c in coeffs[1:]:
        out = convolve(out, scale(base, c))
    return out


def tail(d: FiniteDist, x) -> float | np.ndarray:
    """P(D >= x); scalar in, scalar out; array in, array out.

    An atom within 1e-12 * max(1, |x|) of x counts as >= x, matching the
    merge tolerance, so lattice arithmetic built from convolutions never
    drops a boundary atom to roundoff.
    """
    suffix = np.concatenate((np.cumsum(d.masses[::-1])[::-1], [0.0]))
    np.clip(suffix, 0.0, 1.0, out=suffix)  # guard cumsum roundoff
    xa = np.asarray(x, dtype=float)
    tol = MERGE_RTOL * np.maximum(1.0, np.abs(xa))
    idx = np.searchsorted(d.values, xa - tol, side="left")
    out = suffix[idx]
    if np.isscalar(x) or xa.ndim == 0:
        return float(out)
    return out


def expect(d: FiniteDist, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E f(D), exact up to summation roundoff (fsum).  Overflow -> +inf."""
    fx = np.asarray(f(d.values), dtype=float)
    if np.any(np.isnan(fx)):
        raise DistError("moment function returned NaN on the support")
    if np.any(np.isinf(fx)):
        if np.any(fx[d.masses > 0] == -np.inf):
            return -math.inf
        return math.inf
    return math.fsum(fx * d.masses)


def _atom_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF atom indices of uniforms u, with cum = cumsum(masses).

    The first atom whose cumulative mass exceeds u; a u at or above the
    rounded total lands on the last atom.
    """
    return np.searchsorted(cum[:-1], u, side="right")


def sample(d: FiniteDist, rng: RngSpec | np.random.Generator, size: int) -> np.ndarray:
    """size iid draws via inverse CDF; deterministic per RngSpec."""
    gen = rng.generator() if isinstance(rng, RngSpec) else rng
    return d.values[_atom_index(np.cumsum(d.masses), gen.random(size))]
