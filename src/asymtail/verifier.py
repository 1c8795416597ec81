"""Empirical verification of the comparison theorems.

Everything here checks a claimed inequality against exact enumeration
on finite discrete laws or against Monte Carlo with a one-sided
confidence guard:

- the quadratic certificate polynomials delta_1..delta_4 and their
  piecewise identity with the four-term positive-part expression;
- moment comparison between a weighted sum of asymmetric two-point
  laws and its equalized carrier, certified over every threshold t: for
  the paper's class of test functions it is the order of the cubes
  E (D - t)_+^3, whose difference is one cubic in t between consecutive
  atoms, from both laws' suffix moments in one pass of b_opt's
  recurrence over their merged atoms, so each piece's maximum lies at
  its ends or at the root of its derivative, taken by b_opt's root
  kernel (O(atoms) per law); two-sided adds E |D - t|^3
  the same way and E cosh(lam D) at 20 rates by log-sum-exp, so that
  none overflows;
- Schur-direction sweeps along the constant-(2m)-norm coefficient path,
  including the two-coefficient witness that the moment threshold is
  sharp (below it the direction reverses), found by exact maximization:
  the window splits at the <= 4 angles where a term of the pair moment
  switches on, and each piece's maximum lies at its ends or at a root
  of the derivative;
- supermartingale increment rules simulated at scale and compared with
  the bound family through a one-sided 99% Clopper-Pearson limit.

The one-sided 99% Clopper-Pearson lower limit (`beta_dist.ppf`) comes from
`clopper_pearson`, with numpy and `math` alone: Halley steps on the
binomial tail, summed over a window of terms from Loader's saddle-point
pmf, and rounded down by the sum's error bound, so the limit never lies
above the exact one.

`tail_counts` and `mc_rows` are the one Monte Carlo path.
`tail_counts` splits the paths into blocks, gives block i child stream
i of the seed, spreads the blocks over at most ASYMTAIL_THREADS threads
and counts the tail per block.  The threads are the process's one pool
(`_BlockPool`): built on first use (which imports concurrent.futures),
kept from check to check, rebuilt when ASYMTAIL_THREADS changes and
forgotten in a forked child.  A thread lends each block it runs the
same scratch buffer (`_block_buffers`), so a check's blocks take turns
with one working set per thread.  `mc_rows` turns the counts into one `McRow` per x: the
99% Clopper-Pearson lower limit, the bound, its name and the margin between
them.  The supermartingale check here and the self-normalized checks in
`selfnorm` both run on them and report an `McReport`, with the paths
per second of the `tail_counts` call, so their counts are the same at
any thread count.
"""
from __future__ import annotations

import functools
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .bounds import combined_bound_grid, resolve_s_m
from .dist import (DistError, FiniteDist, RngSpec, _bs_law, _bs_sum, _carrier_top,
                   _coefficient_vector, _float_vector, _power_sum, _shifted_suffix_moments,
                   weighted_bs_sum)
# iid_sum is not called here; perfbench/tracer.py wraps it under this name
from .dist import iid_sum  # noqa: F401
from .optimize import _count, _falling_root, brent_root
from .thresholds import below_m_star, m_star


class _BetaQuantile:
    """Quantile function of the Beta(a, b) law for integer a, b >= 1: the
    Clopper-Pearson lower limit for a successes in a + b - 1 trials.

    `beta_dist.ppf(q, a, b)`, 0 < q <= 1/2, returns an x at which the
    tail P(Bin(a + b - 1, x) >= a) is certified <= q after allowing for
    its rounding error, so it never lies above the exact quantile, and
    is within about 1e-13 relative of it (`clopper_pearson.cp_lower`,
    imported on the first call).  `mc_rows` makes every Monte Carlo
    check's call, at q = 1 - 0.99.
    """

    @staticmethod
    def ppf(q, a, b) -> float:
        if not (math.isfinite(a) and math.isfinite(b) and a == int(a) >= 1 and b == int(b) >= 1):
            raise VerifyError(f"Beta quantile needs integer shapes >= 1, got a={a!r}, b={b!r}")
        if not 0.0 < q <= 0.5:
            raise VerifyError(f"Beta quantile needs q in (0, 1/2], got {q!r}")
        from .clopper_pearson import cp_lower
        a, b = int(a), int(b)
        return cp_lower(a, a + b - 1, float(q))


beta_dist = _BetaQuantile()

DEFAULT_TOL = 1e-12
_ENUM_LAMS = np.geomspace(0.1, 5.0, 20)   # cosh rates lambda
_ENUM_LAMS.setflags(write=False)
_SCHUR_THETAS = 64       # angles on (0, pi/4] per Schur sweep
_WITNESS_WINDOW = 0.2    # the witness maximizes over theta in [pi/4 - 0.2, pi/4]
_WITNESS_PIECE = 32      # derivative samples per piece of that window
_WITNESS_EDGE = 1e-9     # the derivative is sampled up to pi/4 minus this


class VerifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# certificate polynomials
# ---------------------------------------------------------------------------

def _powers(c, m: float) -> tuple:
    """The powers of c the certificate polynomials read: c^(2m-1) (C),
    c^(2m-2), c^(2m-3), c^(2m) and c^(2m+1)."""
    return (c ** (2.0 * m - 1.0), c ** (2.0 * m - 2.0), c ** (2.0 * m - 3.0),
            c ** (2.0 * m), c ** (2.0 * m + 1.0))


def delta(i: int, u, c, p: float, m: float):
    """Certificate polynomial delta_i(u; c, p, m), numpy-broadcastable.

    With C = c^(2m-1):
      delta_1 linear in u (region u >= 0),
      delta_2 = delta_1 + (1-p)(1-C) u^2        (region -c <= u < 0),
      delta_3 quadratic with leading -C         (region -1 <= u < -c),
      delta_4 = (1-C) p (1+c+u)^2               (region -1-c <= u < -1).
    """
    if i not in (1, 2, 3, 4):
        raise VerifyError("delta index must be 1..4")
    c = np.asarray(c, dtype=float)
    return _delta(i, np.asarray(u, dtype=float), _coefficients(c, p, _powers(c, m)))


def _coefficients(c, p: float, pw: tuple) -> tuple:
    """The coefficients of the four certificate polynomials in c, each
    formed once from the powers of c (_powers), as _delta's expressions
    group them: delta_1 = (a1 u + b1) + d1, delta_2 = e2 u u + delta_1,
    delta_3 = (a3 u u - b3 u) + d3 and delta_4 = a4 (c1 + u)^2."""
    C, c2m2, c2m3, c2m, c2m1 = pw
    one_c = 1.0 - C
    return (2.0 * c * (1.0 - c2m2), 2.0 * p * c * one_c, c * c * (1.0 - c2m3),
            (1.0 - p) * one_c,
            -C, 2.0 * (C - c * p + c2m * p), (2.0 * c + c * c - 2.0 * c2m - c2m1) * p - C,
            one_c * p, 1.0 + c)


def _delta(i: int, u, k: tuple):
    """delta_i with its coefficients taken once (_coefficients)."""
    a1, b1, d1, e2, a3, b3, d3, a4, c1 = k
    if i == 1:
        return a1 * u + b1 + d1
    if i == 2:
        return e2 * u * u + (a1 * u + b1 + d1)
    if i == 3:
        return a3 * u * u - b3 * u + d3
    return a4 * (c1 + u) ** 2


def delta_piecewise(u, c, p, m):
    """The region-dispatched certificate value (0 below u = -1-c)."""
    u, c, p, m = np.broadcast_arrays(
        np.asarray(u, dtype=float), np.asarray(c, dtype=float),
        np.asarray(p, dtype=float), np.asarray(m, dtype=float))
    out = np.zeros(u.shape)
    r1 = u >= 0
    r2 = (u < 0) & (u >= -c)
    r3 = (u < -c) & (u >= -1)
    r4 = (u < -1) & (u >= -1 - c)
    for idx, reg in ((1, r1), (2, r2), (3, r3), (4, r4)):
        if np.any(reg):
            out[reg] = delta(idx, u[reg], c[reg], p[reg], m[reg])
    return out


def delta_positive_part_form(u, c, p: float, m: float):
    """The four-term (.)_+^2 expression the certificates tabulate."""
    u, c = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(c, dtype=float))
    return _positive_part_form(u, c, p, _powers(c, m)[0])


def _positive_part_form(u, c, p: float, C):
    """delta_positive_part_form with C = c^(2m-1) given."""
    q = 1.0 - p

    def pos2(x):
        return np.maximum(x, 0.0) ** 2

    return (-(1.0 - C) * q * pos2(u)
            - (C * q + p) * pos2(1.0 + u)
            + (q + C * p) * pos2(c + u)
            + (1.0 - C) * p * pos2(1.0 + c + u))


@dataclass(frozen=True)
class DeltaGridResult:
    p: float
    m: float
    resolution: int
    min_value: float
    argmin_region: int
    argmin_c: float
    argmin_u: float
    identity_max_err: float

    @property
    def nonnegative(self) -> bool:
        return self.min_value >= -DEFAULT_TOL


# delta_grid_check's u-columns, region by region, in a (resolution, 9) array:
# region 1 at u = 0, 3; region 2 at -c, 0, u*; region 3 at -1, -c; region 4
# at -1 - c, -1
_REGION_COLUMNS = {1: slice(0, 2), 2: slice(2, 5), 3: slice(5, 7), 4: slice(7, 9)}
_VERTEX_COLUMN = 4


@functools.lru_cache(maxsize=1)
def _u_grid(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The c-grid of delta_grid_check, a (resolution, 1) column, and its
    u-columns (`_REGION_COLUMNS`) with the vertex column 0, both
    read-only: built once, and shared by the calls at one resolution."""
    cs = np.linspace(0.0, 1.0, resolution + 2)[1:-1][:, None]
    ug = np.zeros((resolution, 9))
    ug[:, 1] = 3.0
    ug[:, 2:3] = -cs
    ug[:, 5] = -1.0
    ug[:, 6:7] = -cs
    ug[:, 7:8] = -1.0 - cs
    ug[:, 8] = -1.0
    cs.setflags(write=False)
    ug.setflags(write=False)
    return cs, ug


def delta_grid_check(p: float, m: float, resolution: int = 200) -> DeltaGridResult:
    """Exact minimum of the certificates over u, on `resolution` values of c.

    c runs over the `resolution` interior points of an even grid on
    (0, 1).  For each c the minimum over u of every region lies at points
    known in closed form, and only those are evaluated:

      region 1, linear on the scanned range [0, 3]:  u in {0, 3};
      region 2, a convex parabola on [-c, 0]:        u in {-c, 0, u*},
                with u* its vertex clipped into the range;
      region 3, concave on [-1, -c]:                 u in {-1, -c};
      region 4, the square (1-C) p (1+c+u)^2:        u in {-1-c, -1}.

    The nine u-columns sit in one (resolution, 9) array, copied from a
    read-only grid built once per resolution (`_u_grid`) with only the
    vertex column written per call, the polynomials' coefficient columns
    are formed once per call (_coefficients), and each region's values are
    written into the same columns of a second one.  identity_max_err compares the
    piecewise table with the positive-part form region by region: each
    polynomial is checked on its own closed region, at the points and on
    the values the minimum used, so delta is evaluated once per region.
    m must be finite (any m, below 1 included) and resolution an integer
    >= 1.
    """
    if not 0.0 < p < 1.0:
        raise VerifyError("p must be in (0, 1)")
    if not math.isfinite(m):
        raise VerifyError(f"m must be finite, got {m!r}")
    resolution = _count(resolution, "resolution", VerifyError)
    cs, ug = _u_grid(resolution)
    pw = _powers(cs, m)
    # vertex of the region-2 parabola
    denom = (1.0 - pw[0]) * (1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_star = -cs * (1.0 - pw[1]) / denom
    ug = ug.copy()
    ug[:, _VERTEX_COLUMN:_VERTEX_COLUMN + 1] = np.clip(
        np.where(np.isfinite(u_star), u_star, 0.0), -cs, 0.0)

    best = (math.inf, 0, math.nan, math.nan)
    vals = np.empty_like(ug)
    k = _coefficients(cs, p, pw)
    for region, cols in _REGION_COLUMNS.items():
        vals[:, cols] = _delta(region, ug[:, cols], k)
        region_vals = vals[:, cols]
        ci, ui = divmod(int(region_vals.argmin()), region_vals.shape[1])
        if region_vals[ci, ui] < best[0]:
            best = (float(region_vals[ci, ui]), region, float(cs[ci, 0]),
                    float(ug[ci, cols][ui]))
    # the identity residual over all regions' points in one pass
    resid = vals - _positive_part_form(ug, cs, p, pw[0])
    ident_err = float(np.max(np.abs(resid)))
    return DeltaGridResult(p=p, m=m, resolution=resolution,
                           min_value=best[0], argmin_region=best[1],
                           argmin_c=best[2], argmin_u=best[3],
                           identity_max_err=ident_err)


# ---------------------------------------------------------------------------
# enumeration of the moment comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumCheck:
    p: float
    m: float
    coeffs: tuple
    n: int
    max_violation: float
    worst_family: str
    worst_param: float
    t_count: int
    lam_count: int
    mode: str

    @property
    def passed(self) -> bool:
        return self.max_violation <= DEFAULT_TOL


def _log_mgf(d: FiniteDist, lam: np.ndarray) -> np.ndarray:
    """log E exp(lam D) at each lam, by log-sum-exp over lam v + log m.

    The largest exponent is shifted to 0, so no term overflows and the
    log is finite wherever lam and the law are."""
    a = lam[:, None] * d.values
    a += np.log(d.masses)
    top = a.max(axis=1)
    a -= top[:, None]
    np.exp(a, out=a)
    return top + np.log(a.sum(axis=1))


def _piece_peaks(b: np.ndarray, dp: np.ndarray, dq: np.ndarray | None = None):
    """The candidates for the maximum of d on each piece [b_i, b_{i+1}]
    of the breakpoints b, and their t: (values, t), each (3, pieces).

    dp holds the differences dP_j of the two laws' suffix moments at
    every b_i, the two columns of one `dist._shifted_suffix_moments` pass
    over b; with u = b_{i+1} - t in [0, h], h = b_{i+1} - b_i, the right
    cubes differ on the piece by R(u) = dP3 + 3u dP2 + 3u^2 dP1 + u^3 dP0
    at b_{i+1}.  dq, the differences of the two laws' prefix moments at
    every b_i (the columns of the pass over the reversed, negated b),
    adds the left cubes, L(w) = dQ3 + 3w dQ2 + 3w^2 dQ1 + w^3 dQ0 at b_i, in
    w = h - u.  d = R(u) + L(h - u) peaks at an end, where it is dP3
    (+ dQ3) at that breakpoint, or at the root of a third of its
    derivative, A u^2 + 2B u + C, where A u + B < 0: optimize's
    _falling_root, in the form that does not cancel, its discriminant
    clamped at 0.  A root off the piece, or none, falls back to u = 0.
    """
    h = b[1:] - b[:-1]
    p0, p1, p2, p3 = dp[:, 1:]
    ends = dp[3] if dq is None else dp[3] + dq[3]
    if dq is None:
        qa, qb, qc = p0, p1, p2
    else:
        q0, q1, q2, q3 = dq[:, :-1]
        qa, qb, qc = p0 - q0, p1 + q1 + h * q0, p2 - q2 - h * (2.0 * q1 + h * q0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u, _ = _falling_root(qa, qb, qc)
    u[~((u > 0.0) & (u < h))] = 0.0
    vals, ts = np.empty((2, 3, len(h)))
    vals[0], vals[1], ts[0], ts[1] = ends[:-1], ends[1:], b[:-1], b[1:]
    peak = vals[2]
    np.add(p3, u * (3.0 * p2 + u * (3.0 * p1 + u * p0)), out=peak)
    if dq is not None:
        w = h - u
        peak += q3 + w * (3.0 * q2 + w * (3.0 * q1 + w * q0))
    np.subtract(b[1:], u, out=ts[2])
    return vals, ts


def _merged_support(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of two ascending arrays of distinct atoms, np.union1d(a,
    b), and where each array's atoms lie in it: union[ia] = a, union[ib]
    = b.

    A stable argsort of a's atoms then b's merges the two ascending runs
    in linear time (numpy's timsort).  Each union point is the first of
    its run of equal atoms in the merge, so an atom's place in the union
    is the count of run starts up to it, less one."""
    both = np.concatenate((a, b))
    order = np.argsort(both, kind="stable")
    merged = both.take(order)
    first = np.empty(len(merged), dtype=bool)
    first[0] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    at = np.empty(len(both), dtype=np.intp)
    at[order] = np.add.accumulate(first) - 1
    return merged[first], at[:len(a)], at[len(a):]


def enumeration_check(p: float, m: float, coeffs, *, two_sided: bool = False) -> EnumCheck:
    """The moment comparison of sum c_i X_i with its carrier, certified
    over every threshold t.

    A function f with f and f'' nondecreasing and convex is, on any
    half-line, an affine term plus a nonnegative quadratic plus a mixture
    of (x - t)_+^3.  Both sides have mean 0 and, for m >= 1, E S^2 <=
    E eta^2, so the comparison holds for every such f exactly when
    d(t) = E (S - t)_+^3 - E (eta - t)_+^3 <= 0 at every t.  Between
    consecutive atoms of the two laws d is one cubic, from the suffix
    moments at the piece's ends, and peaks at an end or at a root of d'
    (`_piece_peaks`).  The pieces' ends, the union of the two supports,
    come from one merge of the two laws' sorted atoms, which also places
    each law's atoms in it (`_merged_support`).  Both laws' masses go
    onto the union as two columns, 0 where a law has no atom, and one
    pass of b_opt's recurrence over it (`dist._shifted_suffix_moments`)
    gives both laws' suffix moments at every end, each law's own moments
    at its atoms bit for bit; two-sided, a second pass over the
    reversed, negated union gives the prefix moments.  Moments that
    overflow (atoms some 5e102 apart) raise one VerifyError.  Above both
    supports d is 0; below them it is affine with slope
    -3 (E S^2 - E eta^2) >= 0, so the lowest atom holds its maximum
    there.

    The families, in tie-break order: cube_plus, and for two_sided
    abs_cube (E |D - t|^3, the left cubes E (t - D)_+^3 added from each
    law's prefix moments, the reversed pass's, with no reflected law
    built, and certified the same way) and
    cosh (E cosh(lam D) at 20 rates in [0.1, 5], sampled by log-sum-exp
    so that none overflows; the violation is expm1 of the log ratio).
    A cube family's violation on a piece is its peak over a lower bound
    of max(1, E f(carrier)) there: E (eta - t)_+^3 at the piece's right
    end, plus E (t - eta)_+^3 at its left end for abs_cube.  So
    max_violation, the largest violation or 0, bounds the normalized
    violation at every t, and is 0 where d <= 0 everywhere; the exact
    maximum of the ratio would need a quartic root per piece.
    worst_param is the t (or lam) of the winning peak, t_count the number
    of pieces, lam_count the rates sampled (0 one-sided).  m must be
    finite and >= 1; a NaN comparison raises VerifyError.
    """
    if not 1.0 <= m < math.inf:
        raise VerifyError(f"m must be finite and >= 1, got {m!r}")
    c = _coefficient_vector(coeffs)
    lhs = weighted_bs_sum(p, c)
    n = len(c)
    _, s_m, _ = resolve_s_m(m, coeffs=c)
    rhs, _ = _bs_sum(p, n, s_m)
    b, il, ir = _merged_support(lhs.values, rhs.values)
    if len(b) < 2:
        raise VerifyError("the coefficients are too small: both laws are one point")
    masses = np.zeros((len(b), 2))
    masses[il, 0] = lhs.masses
    masses[ir, 1] = rhs.masses
    # the right moments, and the left ones as the right moments of -S and
    # -eta, read back in b's order.  Each law's cube is largest at the
    # pass's first point, and a moment that overflows anywhere makes it
    # inf or NaN, so that point is checked alone
    with np.errstate(over="ignore", invalid="ignore"):
        P = _shifted_suffix_moments(b, masses)
        Q = _shifted_suffix_moments(-b[::-1], masses[::-1])[:, ::-1] if two_sided else P
    if not (np.isfinite(P[3, 0]).all() and np.isfinite(Q[3, -1]).all()):
        raise VerifyError(f"the cube moments overflow on atoms up to {max(-b[0], b[-1]):g} "
                          "in size, so the comparison is NaN")
    right = P[..., 1]
    dp = P[..., 0] - right
    vals, ts = _piece_peaks(b, dp)
    families = [("cube_plus", vals / np.maximum(1.0, right[3, 1:]), ts)]
    lam_count = 0
    if two_sided:
        left = Q[..., 1]
        vals, ts = _piece_peaks(b, dp, Q[..., 0] - left)
        families.append(("abs_cube", vals / np.maximum(1.0, right[3, 1:] + left[3, :-1]), ts))
        # E cosh(lam D) = (E e^{lam D} + E e^{-lam D}) / 2; the halving
        # cancels in the log ratio
        lams = np.concatenate((_ENUM_LAMS, -_ENUM_LAMS))
        gl, gr = _log_mgf(lhs, lams), _log_mgf(rhs, lams)
        k = lam_count = len(_ENUM_LAMS)
        viol = np.expm1(np.logaddexp(gl[:k], gl[k:]) - np.logaddexp(gr[:k], gr[k:]))
        families.append(("cosh", viol, _ENUM_LAMS))
    worst = (-math.inf, "", math.nan)
    for fam, viol, params in families:
        if np.any(np.isnan(viol)):
            raise VerifyError(f"the {fam} comparison is NaN")
        i = int(np.argmax(viol))
        if viol.flat[i] > worst[0]:
            worst = (float(viol.flat[i]), fam, float(params.flat[i]))
    return EnumCheck(p=p, m=m, coeffs=tuple(float(x) for x in c), n=n,
                     max_violation=max(0.0, worst[0]), worst_family=worst[1],
                     worst_param=worst[2], t_count=len(b) - 1, lam_count=lam_count,
                     mode="two_sided" if two_sided else "right_tail")


# ---------------------------------------------------------------------------
# Schur-direction sweep and the sharpness witness
# ---------------------------------------------------------------------------

def _pair_terms(p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four terms of the pair moment: (v_i, v_j, w_i w_j) over i, j."""
    v, w = _bs_law(p)
    return np.repeat(v, 2), np.tile(v, 2), np.outer(w, w).ravel()


def _pair_moment(terms, m: float, thetas, t: float) -> np.ndarray:
    """E (a BS_1 + b BS_2 - t)_+^3 along a = cos^(1/m), b = sin^(1/m),
    with terms = _pair_terms(p)."""
    vi, vj, w = terms
    th = np.asarray(thetas, dtype=float)
    a = np.cos(th) ** (1.0 / m)
    b = np.sin(th) ** (1.0 / m)
    return np.sum(np.clip(a[:, None] * vi + b[:, None] * vj - t, 0.0, None) ** 3 * w,
                  axis=1)


@dataclass(frozen=True)
class SchurSweep:
    p: float
    m: float
    t: float
    thetas: np.ndarray
    values: np.ndarray
    min_forward_diff: float

    @property
    def monotone(self) -> bool:
        return self.min_forward_diff >= -DEFAULT_TOL


def schur_sweep(p: float, m: float, t: float) -> SchurSweep:
    """g(theta) along the equalizing path; monotone iff the comparison
    respects majorization at this (p, m, t).  m must be finite and > 0,
    and t finite."""
    if not 0.0 < m < math.inf:
        raise VerifyError(f"m must be finite and > 0, got {m!r}")
    if not math.isfinite(t):
        raise VerifyError(f"t must be finite, got {t!r}")
    th = np.linspace(1e-9, math.pi / 4.0, _SCHUR_THETAS)
    g = _pair_moment(_pair_terms(p), m, th, t)
    fd = np.diff(g)
    return SchurSweep(p=p, m=m, t=t, thetas=th, values=g,
                      min_forward_diff=float(np.min(fd)))


@dataclass(frozen=True)
class ViolationWitness:
    p: float
    m: float
    t: float
    theta_star: float
    g_star: float
    g_equal: float
    gap: float


def _pair_slope(terms, m: float, t: float, thetas: np.ndarray) -> np.ndarray:
    """d/dtheta of E (a BS_1 + b BS_2 - t)_+^3, divided by 3, at each angle.

    a = cos^(1/m), so a' = -a tan / m, and b' = b cot / m."""
    vi, vj, w = terms
    e = 1.0 / m
    c, s = np.cos(thetas), np.sin(thetas)
    a, b = c ** e, s ** e
    da, db = -e * a * s / c, e * b * c / s
    y = np.clip(a[:, None] * vi + b[:, None] * vj - t, 0.0, None)
    return np.sum(w * y * y * (da[:, None] * vi + db[:, None] * vj), axis=1)


def exactness_witness(p: float, m: float) -> ViolationWitness | None:
    """The two-coefficient violation near the equal point, if there is one.

    At the witness threshold t the equalized pair is strictly worse than
    a nearby unequal pair whenever m < m_star(p); the returned gap
    g(pi/4) - sup g(theta) over [pi/4 - 0.2, pi/4) is then negative.
    Returns None when the gap is not below -1e-12, as happens for
    m >= m_star(p).

    The supremum is found exactly, not sampled.  For m >= 1 each of the
    four arguments a v_i + b v_j is monotone on the window (a + b rises
    towards pi/4, a falls and b rises), so each term of g switches on at
    most once; brent_root finds those <= 4 breakpoints.  Between them g
    is smooth: its derivative is sampled 32 times per piece, every
    + to - sign change is polished by brent_root, and g is evaluated at
    those roots and the piece ends.  The derivative vanishes at pi/4 by
    symmetry, so it is sampled only up to pi/4 - 1e-9, and the limit at
    pi/4 is g(pi/4) itself: the gap is never positive.
    """
    if not 0.0 < p < 0.5:
        raise VerifyError("witness construction needs p in (0, 1/2)")
    if not 1.0 < m < math.inf:
        raise VerifyError(f"witness construction needs a finite m > 1, got {m!r}")
    q = 1.0 - p
    pow2 = 2.0 ** (1.0 - 1.0 / (2.0 * m))
    u_p = -pow2 * (m - 1.0) / ((2.0 * m - 1.0) * q)
    t_p = -u_p - pow2 * p
    t = t_p / math.sqrt(p * q)
    terms = _pair_terms(p)
    e = 1.0 / m
    lo, top = math.pi / 4.0 - _WITNESS_WINDOW, math.pi / 4.0 - _WITNESS_EDGE
    ends = {lo, top}
    for vi, vj in zip(terms[0].tolist(), terms[1].tolist()):
        def arg(th, vi=vi, vj=vj):
            return math.cos(th) ** e * vi + math.sin(th) ** e * vj - t
        if (arg(lo) < 0.0) != (arg(top) < 0.0):
            ends.add(brent_root(arg, lo, top))
    ends = sorted(ends)
    grid = np.concatenate([np.linspace(x0, x1, _WITNESS_PIECE + 1)[:-1]
                           for x0, x1 in zip(ends[:-1], ends[1:])] + [[top]])

    def slope(th):
        return float(_pair_slope(terms, m, t, np.array([th]))[0])

    cands = list(ends)
    d = _pair_slope(terms, m, t, grid)
    for k in np.flatnonzero((d[:-1] > 0.0) & (d[1:] <= 0.0)).tolist():
        x0, x1 = float(grid[k]), float(grid[k + 1])
        if slope(x1) <= 0.0 < slope(x0):
            cands.append(brent_root(slope, x0, x1))
        else:
            # a derivative within roundoff of 0 changed sign on re-evaluation
            cands += [x0, x1]
    th = np.array(cands + [math.pi / 4.0])
    g = _pair_moment(terms, m, th, t)
    g_eq = float(g[-1])
    j = int(np.argmax(g))
    gap = g_eq - float(g[j])
    if gap < -DEFAULT_TOL:
        return ViolationWitness(p=p, m=m, t=t, theta_star=float(th[j]),
                                g_star=float(g[j]), g_equal=g_eq, gap=gap)
    return None


# ---------------------------------------------------------------------------
# supermartingale Monte Carlo
# ---------------------------------------------------------------------------

# every Monte Carlo limit's confidence; q = 1 - 0.99 is not the double 0.01
_MC_CONFIDENCE = 0.99


@dataclass(frozen=True)
class McConfig:
    seed: int = 0
    n_paths: int = 200_000
    block: int = 65_536

    def __post_init__(self):
        try:
            RngSpec(self.seed)
        except DistError as exc:
            raise VerifyError(str(exc)) from None
        for name in ("n_paths", "block"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise VerifyError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class TailCounts:
    counts: np.ndarray   # paths with stat >= x, one entry per x
    n_paths: int
    blocks: int
    workers: int         # threads that ran the blocks: 1 for one block or a nested call
    extras: list         # simulate's per-block extra, in block order
    paths_per_s: float   # n_paths over the wall time of the tail_counts call


class _BlockPool:
    """The process's one pool of Monte Carlo worker threads.

    It is built on first use with `size` threads (ASYMTAIL_THREADS) and
    kept for the next check; a call with another size shuts the old pool
    down, once its queued blocks have run, and builds a new one.  The
    threads mark themselves, so a block that calls `tail_counts` runs
    that call's blocks inline instead of waiting on its own pool.  A
    forked child inherits the pool's object but none of its threads, so
    it forgets the pool and builds its own.
    """

    def __init__(self):
        self._forget()
        if hasattr(os, "register_at_fork"):   # POSIX only; elsewhere nothing forks
            os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self._lock = threading.Lock()
        self._executor = None   # a ThreadPoolExecutor, imported on first use
        self._size = 0
        self._marks = threading.local()

    def in_worker(self) -> bool:
        return getattr(self._marks, "worker", False)

    def _mark(self) -> None:
        self._marks.worker = True

    def map(self, fn, n: int, size: int) -> list:
        """[fn(0), ..., fn(n - 1)] run on the pool, once every call is done;
        the first call that raised raises here."""
        # imported here, so that a process that runs no Monte Carlo check
        # in parallel does not load concurrent.futures
        from concurrent.futures import ThreadPoolExecutor, wait
        with self._lock:
            if self._size != size:
                if self._executor is not None:
                    self._executor.shutdown(wait=False)
                self._executor = ThreadPoolExecutor(
                    max_workers=size, thread_name_prefix="asymtail-mc", initializer=self._mark)
                self._size = size
            futures = [self._executor.submit(fn, i) for i in range(n)]
        wait(futures)
        return [f.result() for f in futures]


_pool = _BlockPool()


class _Spares(threading.local):
    def __init__(self):
        self.buffers: list[np.ndarray] = []


_spares = _Spares()
# A thread keeps a block's buffer for its next block up to this size; a
# larger one is freed: a supermartingale block's of over 127 000 paths (33
# bytes each), or a self-normalized tile's of over 174 000 coordinates (24
# bytes each, in one path of that many).
_KEEP_BYTES = 1 << 22


@contextmanager
def _block_buffers(*specs):
    """Arrays of the given (shape, dtype) specs, uninitialized, carved
    from one buffer that the calling thread keeps for its next block.

    A thread's blocks run one after another, so they take turns with one
    working set, and the heap is not grown and trimmed again for each
    block; a nested call (a block that runs `tail_counts`) finds the
    thread's buffer taken and makes another.  The arrays are valid only
    inside the `with` body.
    """
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in specs]
    starts = np.cumsum([0] + [-(-b // 64) * 64 for b in sizes])   # 64-byte aligned
    spare = _spares.buffers
    buf = spare.pop() if spare else None
    if buf is None or buf.nbytes < starts[-1]:
        buf = np.empty(int(starts[-1]), dtype=np.uint8)
    try:
        yield [buf[a:a + b].view(dtype).reshape(shape)
               for a, b, (shape, dtype) in zip(starts.tolist(), sizes, specs)]
    finally:
        if buf.nbytes <= _KEEP_BYTES:
            spare.append(buf)


def _x_grid(x_grid, error) -> np.ndarray:
    """A Monte Carlo check's x_grid as a nonempty 1-d finite array, else error."""
    xs = _float_vector(x_grid, "x_grid", error)
    if not np.isfinite(xs).all():
        raise error("x_grid must be finite")
    return xs


def tail_counts(simulate, xs, mc: McConfig) -> TailCounts:
    """Count stat >= x over mc.n_paths simulated paths, block by block.

    `simulate(rng, size)` returns `(stat, extra)`: one statistic per
    path, and any per-block value the caller wants back.  Block i draws
    from child stream i of mc.seed, so the counts do not depend on how
    the blocks are spread over threads.  ASYMTAIL_THREADS caps the
    thread count; it is read here and nowhere else.  With one block, or
    a cap of 1, the blocks run on the calling thread; otherwise they run
    on the process's one pool of ASYMTAIL_THREADS worker threads, which
    persists from check to check (a call made from inside a block runs
    its blocks inline and reports one worker).  A simulation runs on a
    pool thread, so it must call only what may run concurrently.  Up to
    ASYMTAIL_THREADS blocks are in flight at once, each with its own
    working set: the statistic of its paths, and the arrays it reuses
    from step to step or tile to tile, which `_block_buffers` lends it
    from its thread's last block.  A supermartingale block reuses five
    arrays of the block's size and holds its tree of states, no more
    than its paths.  A self-normalized block reuses an index array and
    a complex array of one tile, at most 2^15 entries each up to
    n = 2^15 coordinates per path and one path of n entries beyond, and
    holds the draws of one phase of its tile as it makes them.
    """
    start = time.perf_counter()
    xs = np.asarray(xs, dtype=float)
    n_blocks = (mc.n_paths + mc.block - 1) // mc.block
    sizes = [min(mc.block, mc.n_paths - i * mc.block) for i in range(n_blocks)]
    spec = RngSpec(mc.seed)

    def run_block(i: int) -> tuple[np.ndarray, object]:
        stat, extra = simulate(spec.substream(i).generator(), sizes[i])
        return np.array([np.count_nonzero(stat >= x) for x in xs]), extra

    threads = os.environ.get("ASYMTAIL_THREADS", "") or "1"
    try:
        cap = int(threads)
    except ValueError:
        cap = 0
    if cap < 1:
        raise VerifyError(f"ASYMTAIL_THREADS must be a positive integer, got {threads!r}")
    # a call from a pool thread runs its blocks there, on one thread
    workers = 1 if _pool.in_worker() else min(n_blocks, cap)
    if workers > 1:
        blocks = _pool.map(run_block, n_blocks, cap)
    else:
        blocks = [run_block(i) for i in range(n_blocks)]
    return TailCounts(counts=sum(c for c, _ in blocks), n_paths=mc.n_paths,
                      blocks=n_blocks, workers=workers, extras=[e for _, e in blocks],
                      paths_per_s=mc.n_paths / (time.perf_counter() - start))


@dataclass(frozen=True)
class SupermartingaleConfig:
    n: int
    p: float
    coeffs: tuple
    rule: str = "constant"
    m: float = 1.0
    x_grid: tuple | None = None


_RULES = ("constant", "history_scaled", "random_modulated")


def _increments(rule: str, ratio: float, sref: float, ci, S: np.ndarray,
                rng: np.random.Generator, U, A, B, work) -> tuple:
    """A, B and up = A / (A + B) of one step at the sums S.

    Under the constant rule they are scalars; otherwise they are arrays
    of S's shape, written into A, B and work (and random_modulated first
    draws its U into U).  The same body steps a block's states and its
    paths, so the two give the same bits.
    """
    if rule == "constant":
        return ci, ci, ci / (ci + ci)
    if rule == "history_scaled":
        # sigma = 1 / (1 + (S / sref)^2)
        sigma = np.divide(S, sref, out=work)
        np.square(sigma, out=sigma)
        sigma += 1.0
        np.divide(1.0, sigma, out=sigma)
        np.multiply(sigma, ci * math.sqrt(ratio), out=B)
        np.multiply(sigma, ci / math.sqrt(ratio), out=A)
    else:  # random_modulated: B = c_i ratio^(U/2), A = c_i ratio^(-U/2)
        rng.random(out=U)
        # the base as a whole array, not a broadcast scalar: numpy's power
        # takes about half the time on it, and gives the same bits
        B.fill(ratio)
        np.power(B, np.multiply(U, 0.5, out=work), out=B)
        B *= ci
        A.fill(ratio)
        np.power(A, np.multiply(U, -0.5, out=work), out=A)
        A *= ci
    return A, B, np.divide(A, np.add(A, B, out=work), out=work)


def _guard(excess: float, ci, top_ab, top_ba, ratio: float) -> float:
    """excess raised to the step's sqrt(A B) / c_i - 1, given the step's
    largest A B and B / A; a step that breaks either rule raises."""
    # sqrt is monotone and correctly rounded: the root of the largest
    # product is the largest root
    excess = max(excess, float(np.sqrt(top_ab)) / ci - 1.0)
    if excess > 1e-12:
        raise VerifyError("rule breaks sqrt(A B) <= c_i")
    if top_ba > ratio * (1.0 + 1e-12):
        raise VerifyError("rule breaks B/A <= q/p")
    return excess


def _simulate_block(cfg: SupermartingaleConfig, rng: np.random.Generator,
                    size: int) -> tuple[np.ndarray, float]:
    """Final sums of `size` paths, and the largest sqrt(A B) / c_i - 1 seen.

    Under the constant and history_scaled rules a path's sum after i
    steps depends only on its i up/down choices, so the block steps the
    tree of those states as long as a step leaves no more states than
    paths: state 2s is state s after a step down (X - A) and 2s + 1
    after a step up (X + B), and each path keeps the index of its state.
    A step runs the rule on the states and takes each path's
    up-probability by its index.  The first step that would leave more
    states than paths starts from each path's sum, and the block ends
    path by path; random_modulated, whose U is continuous, runs that way
    throughout.  Both run the rule's one body (`_increments`), and a
    path's sum S + B - 0.0 or S + 0.0 - A (a sum is never -0.0) is the
    state's X + B or X - A, so the sums are the same bits either way.
    The guards take their maxima over the states some path reached, so
    their verdicts and the excess are those of the paths.

    The block's working set is the sums S, which it returns, the states,
    and five arrays of `size` entries that it borrows from its thread's
    last block (`_block_buffers`): the uniforms, A, B, one work array
    and the take-up mask; on the tree the paths' state indices take B's
    place.  A path step writes into them with `out=` ufuncs, and adds B
    or takes away A by multiplying with the mask (exact: the other term
    is 0.0), which is the step S + where(take_up, B, -A) bit for bit.
    """
    p, q = cfg.p, 1.0 - cfg.p
    ratio = q / p
    c = _coefficient_vector(cfg.coeffs, VerifyError)
    top, total = _power_sum(c, 2.0)
    sref = top * math.sqrt(total)  # ||c||_2
    excess = -math.inf
    i = 0
    with _block_buffers(*[((size,), float)] * 4, ((size,), bool)) as (U, A, B, work, take_up):
        if cfg.rule == "random_modulated":
            S = np.zeros(size)
        else:
            X = np.zeros(1)
            idx = B.view(np.intp)
            idx[:] = 0
            pending = []   # history_scaled's guards: (c_i, A B, B / A) per state
            while i < cfg.n and 2 * X.size <= size:
                ci = c[i]
                a, b, up = _increments(cfg.rule, ratio, sref, ci, X, rng, None,
                                       *np.empty((3, X.size)))
                if np.ndim(a):
                    pending.append((ci, a * b, b / a))
                else:
                    excess = _guard(excess, ci, a * b, b / a, ratio)
                rng.random(out=U)
                np.less(U, up.take(idx, out=work, mode="clip") if np.ndim(up) else up,
                        out=take_up)
                child = np.empty((X.size, 2))
                np.subtract(X, a, out=child[:, 0])
                np.add(X, b, out=child[:, 1])
                X = child.reshape(-1)
                idx <<= 1
                idx += take_up
                i += 1
            if pending:
                # a state was reached if one of its children is
                r, reached = np.bincount(idx, minlength=X.size) > 0, []
                for _ in pending:
                    r = r.reshape(-1, 2).any(axis=1)
                    reached.append(r)
                for (ci, ab, ba), r in zip(pending, reversed(reached)):
                    excess = _guard(excess, ci, np.max(ab[r]), np.max(ba[r]), ratio)
            S = X.take(idx)
        for ci in c[i:]:
            a, b, up = _increments(cfg.rule, ratio, sref, ci, S, rng, U, A, B, work)
            if np.ndim(a):
                excess = _guard(excess, ci, np.max(np.multiply(a, b, out=U)),
                                np.max(np.divide(b, a, out=U)), ratio)
            else:
                excess = _guard(excess, ci, a * b, b / a, ratio)
            rng.random(out=U)
            np.less(U, up, out=take_up)
            S += np.multiply(take_up, b, out=work)
            S -= np.multiply(np.logical_not(take_up, out=take_up), a, out=work)
    return S, excess


@dataclass(frozen=True)
class McRow:
    x: float
    count: int
    empirical: float
    cp_lower: float
    bound: float
    margin: float        # bound - cp_lower: the check passes while it is >= 0
    bound_name: str
    ok: bool


@dataclass(frozen=True)
class McReport:
    config: object
    mc: McConfig
    n_paths: int
    rows: list
    seed: int
    blocks: int
    workers: int
    paths_per_s: float   # measured: it varies from run to run

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


@dataclass(frozen=True)
class SupermartingaleReport(McReport):
    max_sqrtab_excess: float


def mc_rows(xs, tc: TailCounts, bounds, names) -> list[McRow]:
    """One row per x: the tail count, its one-sided Clopper-Pearson lower
    limit at 99%, and the bound it is checked against."""
    rows = []
    for x, k, b, name in zip(xs, tc.counts, bounds, names):
        k, b = int(k), float(b)
        lo = float(beta_dist.ppf(1.0 - _MC_CONFIDENCE, k, tc.n_paths - k + 1)) if k else 0.0
        rows.append(McRow(x=float(x), count=k, empirical=k / tc.n_paths, cp_lower=lo,
                          bound=b, margin=b - lo, bound_name=name, ok=lo <= b))
    return rows


def supermartingale_mc(cfg: SupermartingaleConfig, mc: McConfig) -> SupermartingaleReport:
    """Simulate the increment rule and compare tails with the bounds.

    The empirical tail at each grid point gets a one-sided lower
    confidence limit (Clopper-Pearson at 99%); the check
    passes while that limit stays at or below the hybrid bound.  The
    paths are counted by `tail_counts`, so the result does not depend on
    the worker count.
    """
    if cfg.rule not in _RULES:
        raise VerifyError(f"rule must be one of {_RULES}")
    if not 0.0 < cfg.p < 1.0:
        raise VerifyError(f"p must lie in (0, 1), got {cfg.p!r}")
    c = _coefficient_vector(cfg.coeffs, VerifyError)
    if len(c) != _count(cfg.n, "n", VerifyError):
        raise VerifyError("coeffs length must equal n")
    if cfg.rule in ("constant", "random_modulated") and cfg.p > 0.5:
        raise VerifyError(f"rule {cfg.rule!r} requires p <= 1/2")
    if not ((0.0 < c) & (c < math.inf)).all():
        raise VerifyError(f"coefficients must be finite and positive, got {cfg.coeffs!r}")
    # the carrier's top atom at the m that combined_bound_grid builds it
    # at; an m out of range is its BoundError
    if 1.0 <= cfg.m < math.inf:
        m = m_star(cfg.p) if below_m_star(cfg.m, cfg.p) else cfg.m
        if not math.isfinite(_carrier_top(cfg.p, cfg.n, resolve_s_m(m, coeffs=c)[1])):
            raise VerifyError(f"coefficients {cfg.coeffs!r} overflow the carrier's top atom")

    if cfg.x_grid is not None:
        xs = _x_grid(cfg.x_grid, VerifyError)
    else:
        top, total = _power_sum(c, 2.0)
        sig = top * math.sqrt(total)  # ||c||_2
        _, s_m, _ = resolve_s_m(cfg.m, coeffs=c)
        xs = np.linspace(0.5 * sig, min(3.5 * sig, 0.98 * _carrier_top(cfg.p, cfg.n, s_m)), 8)

    reports = combined_bound_grid(cfg.p, cfg.m, xs, coeffs=c)
    tc = tail_counts(lambda rng, size: _simulate_block(cfg, rng, size), xs, mc)
    rows = mc_rows(xs, tc, [r.minimum for r in reports], [r.argmin for r in reports])
    return SupermartingaleReport(config=cfg, mc=mc, n_paths=tc.n_paths, rows=rows,
                                 seed=mc.seed, blocks=tc.blocks, workers=tc.workers,
                                 paths_per_s=tc.paths_per_s, max_sqrtab_excess=max(tc.extras))


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    metric: float
    threshold: float
    details: dict = field(default_factory=dict)


def run_delta_suite() -> list[CheckResult]:
    """The delta certificate at m_star(p) for five p, on 80 values of c."""
    out = []
    for p in (0.05, 0.2, 0.35, 0.5, 0.8):
        m = m_star(p)
        res = delta_grid_check(p, m, 80)
        out.append(CheckResult(
            name=f"delta_grid_p{p:g}_at_threshold", passed=res.nonnegative,
            metric=res.min_value, threshold=-DEFAULT_TOL,
            details={"m": m, "identity_max_err": res.identity_max_err,
                     "argmin_region": res.argmin_region}))
        out.append(CheckResult(
            name=f"delta_identity_p{p:g}", passed=res.identity_max_err <= 1e-12,
            metric=res.identity_max_err, threshold=1e-12, details={}))
    return out


def run_enumeration_suite(seed: int = 0) -> list[CheckResult]:
    """Each row's details say where the certificate peaked (worst_param)
    and over how many pieces (t_count)."""
    rng = RngSpec(seed, stream=101).generator()
    out = []
    cases = []
    for p in (0.1, 0.3, 0.5, 0.7):
        for n in (2, 3, 5):
            coeffs = np.round(rng.uniform(0.2, 2.0, size=n), 3)
            cases.append((p, m_star(p), coeffs))

    def row(name, chk, **details):
        return CheckResult(name=name, passed=chk.passed, metric=chk.max_violation,
                           threshold=DEFAULT_TOL,
                           details={**details, "worst_param": chk.worst_param,
                                    "t_count": chk.t_count})

    for p, m, coeffs in cases:
        chk = enumeration_check(p, m, coeffs)
        out.append(row(f"enum_p{p:g}_n{len(coeffs)}", chk, m=m, coeffs=list(chk.coeffs),
                       worst_family=chk.worst_family))
    chk = enumeration_check(0.3, m_star(0.3), [1.0, 0.7, 1.4], two_sided=True)
    out.append(row("enum_two_sided_p0.3", chk, mode=chk.mode))
    # the left tail at p = 0.7 is the right tail at 1 - p, since -bs(p) is bs(1 - p)
    chk = enumeration_check(0.3, m_star(0.3), [1.0, 0.7, 1.4])
    out.append(row("enum_left_tail_p0.7", chk, mode="left_tail"))
    return out


def run_schur_suite() -> list[CheckResult]:
    out = []
    for p in (0.1, 0.25, 0.4):
        m = m_star(p)
        for t in (0.5, 1.0, 2.0):
            sw = schur_sweep(p, m, t)
            out.append(CheckResult(
                name=f"schur_p{p:g}_t{t:g}", passed=sw.monotone,
                metric=sw.min_forward_diff, threshold=-DEFAULT_TOL,
                details={"m": m}))
    return out


def run_exactness_suite() -> list[CheckResult]:
    out = []
    for p in (0.05, 0.15, 0.25, 0.32):
        m_hi = m_star(p)
        wit = exactness_witness(p, 0.9 * m_hi)
        out.append(CheckResult(
            name=f"witness_below_threshold_p{p:g}", passed=wit is not None,
            metric=(wit.gap if wit else 0.0), threshold=-DEFAULT_TOL,
            details={"m": 0.9 * m_hi,
                     "theta_star": (wit.theta_star if wit else None)}))
    return out


def run_supermartingale_suite(seed: int = 0) -> list[CheckResult]:
    out = []
    mc = McConfig(seed=seed)
    cases = [
        SupermartingaleConfig(n=6, p=0.3, coeffs=(1.0,) * 6, rule="constant", m=m_star(0.3)),
        SupermartingaleConfig(n=5, p=0.25, coeffs=(1.0, 1.2, 0.8, 1.1, 0.9),
                              rule="history_scaled", m=m_star(0.25)),
        SupermartingaleConfig(n=4, p=0.4, coeffs=(1.0, 0.5, 1.5, 1.0),
                              rule="random_modulated", m=m_star(0.4)),
    ]
    for cfg in cases:
        rep = supermartingale_mc(cfg, mc)
        worst = min((r.margin for r in rep.rows), default=0.0)
        out.append(CheckResult(
            name=f"supermartingale_{cfg.rule}_p{cfg.p:g}", passed=rep.all_ok,
            metric=worst, threshold=0.0,
            details={"n_paths": rep.n_paths, "seed": rep.seed, "blocks": rep.blocks,
                     "workers": rep.workers, "paths_per_s": rep.paths_per_s,
                     "rows": [{"x": r.x, "emp": r.empirical, "bound": r.bound,
                               "cp_lower": r.cp_lower, "margin": r.margin,
                               "bound_name": r.bound_name}
                              for r in rep.rows]}))
    return out


_SUITES = {
    "delta": run_delta_suite,
    "enumeration": run_enumeration_suite,
    "schur": run_schur_suite,
    "exactness": run_exactness_suite,
    "supermartingale": run_supermartingale_suite,
}
# the suites that draw from the seed ("all" runs them); the others take none
SEEDED_SUITES = ("enumeration", "supermartingale", "all")


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """The checks of one suite, or of every suite for "all".

    The seed must be a nonnegative integer, as RngSpec requires, for
    every suite: those that draw nothing reject a bad one too."""
    if name != "all" and name not in _SUITES:
        raise VerifyError(f"unknown suite {name!r}; choose from "
                          f"{tuple(_SUITES)} or 'all'")
    RngSpec(seed)
    if name == "all":
        return [r for key in _SUITES for r in run_suite(key, seed)]
    return _SUITES[name](seed) if name in SEEDED_SUITES else _SUITES[name]()
