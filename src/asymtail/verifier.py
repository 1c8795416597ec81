"""Empirical verification of the comparison theorems.

Everything here checks a claimed inequality against exact enumeration
on finite discrete laws or against Monte Carlo with a one-sided
confidence guard:

- the quadratic certificate polynomials delta_1..delta_4 and their
  piecewise identity with the four-term positive-part expression;
- moment comparison between a weighted sum of asymmetric two-point
  laws and its equalized carrier, over a grid of test functions: the
  cubes E (D - t)_+^3 in closed form from the shifted suffix moments
  that b_opt also uses (O(atoms + thresholds) per law), the
  exponential moments by log-sum-exp so that none overflows;
- Schur-direction sweeps along the constant-(2m)-norm coefficient path,
  including the two-coefficient witness that the moment threshold is
  sharp (below it the direction reverses), found by exact maximization:
  the window splits at the <= 4 angles where a term of the pair moment
  switches on, and each piece's maximum lies at its ends or at a root
  of the derivative;
- supermartingale increment rules simulated at scale and compared with
  the bound family at Clopper-Pearson confidence.

`tail_counts` is the one Monte Carlo harness: it splits the paths into
blocks, gives block i child stream i of the seed, spreads the blocks
over at most ASYMTAIL_THREADS threads and counts the tail per block.
The supermartingale check here and the self-normalized checks in
`selfnorm` both run on it, so their counts are the same at any thread
count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import combined_bound_grid, resolve_s_m
from .dist import FiniteDist, RngSpec, _cube_plus, bs, iid_sum, scale, weighted_bs_sum
from .optimize import brent_root
from .thresholds import m_star


class _BetaQuantile:
    """Quantile function of the Beta(a, b) law, for Clopper-Pearson limits.

    `beta_dist.ppf(q, a, b)` gives the same numbers as
    `scipy.stats.beta.ppf` without loading `scipy.stats`; `scipy.special`
    is imported on the first call.  `selfnorm` shares this object.
    """

    @staticmethod
    def ppf(q, a, b):
        from scipy.special import betaincinv
        return betaincinv(a, b, q)


beta_dist = _BetaQuantile()

DEFAULT_TOL = 1e-12
_ENUM_T_COUNT = 401      # cube_plus / abs_cube thresholds t
_ENUM_LAM_COUNT = 20     # exp / cosh rates lambda in [0.1, 5]
_SCHUR_THETAS = 64       # angles on (0, pi/4] per Schur sweep
_WITNESS_WINDOW = 0.2    # the witness maximizes over theta in [pi/4 - 0.2, pi/4]
_WITNESS_PIECE = 32      # derivative samples per piece of that window
_WITNESS_EDGE = 1e-9     # the derivative is sampled up to pi/4 minus this


class VerifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# certificate polynomials
# ---------------------------------------------------------------------------

def delta(i: int, u, c, p: float, m: float):
    """Certificate polynomial delta_i(u; c, p, m), numpy-broadcastable.

    With C = c^(2m-1):
      delta_1 linear in u (region u >= 0),
      delta_2 = delta_1 + (1-p)(1-C) u^2        (region -c <= u < 0),
      delta_3 quadratic with leading -C         (region -1 <= u < -c),
      delta_4 = (1-C) p (1+c+u)^2               (region -1-c <= u < -1).
    """
    u = np.asarray(u, dtype=float)
    c = np.asarray(c, dtype=float)
    C = c ** (2.0 * m - 1.0)
    if i == 1:
        return (2.0 * c * (1.0 - c ** (2.0 * m - 2.0)) * u
                + 2.0 * p * c * (1.0 - C) + c * c * (1.0 - c ** (2.0 * m - 3.0)))
    if i == 2:
        return (1.0 - p) * (1.0 - C) * u * u + delta(1, u, c, p, m)
    if i == 3:
        return (-C * u * u
                - 2.0 * (C - c * p + c ** (2.0 * m) * p) * u
                + ((2.0 * c + c * c - 2.0 * c ** (2.0 * m) - c ** (2.0 * m + 1.0)) * p - C))
    if i == 4:
        return (1.0 - C) * p * (1.0 + c + u) ** 2
    raise VerifyError("delta index must be 1..4")


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
    u = np.asarray(u, dtype=float)
    c = np.asarray(c, dtype=float)
    u, c = np.broadcast_arrays(u, c)
    q = 1.0 - p
    C = c ** (2.0 * m - 1.0)

    def pos2(x):
        return np.clip(x, 0.0, None) ** 2

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

    identity_max_err compares the piecewise table with the
    positive-part form region by region: each polynomial is checked on
    its own closed region, at the points and on the values the minimum
    used, so delta is evaluated once per region.
    """
    if not 0.0 < p < 1.0:
        raise VerifyError("p must be in (0, 1)")
    cs = np.linspace(0.0, 1.0, resolution + 2)[1:-1][:, None]
    # vertex of the region-2 parabola
    C = cs ** (2.0 * m - 1.0)
    denom = (1.0 - C) * (1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_star = -cs * (1.0 - cs ** (2.0 * m - 2.0)) / denom
    u_star = np.clip(np.where(np.isfinite(u_star), u_star, 0.0), -cs, 0.0)
    zero = np.zeros_like(cs)
    grids = {
        1: np.hstack([zero, zero + 3.0]),
        2: np.hstack([-cs, zero, u_star]),
        3: np.hstack([zero - 1.0, -cs]),
        4: np.hstack([-1.0 - cs, zero - 1.0]),
    }

    best = (math.inf, 0, math.nan, math.nan)
    region_vals = []
    for region, ug in grids.items():
        vals = delta(region, ug, cs, p, m)
        region_vals.append(vals)
        flat = int(np.argmin(vals))
        ci, ui = divmod(flat, vals.shape[1])
        if vals[ci, ui] < best[0]:
            best = (float(vals[ci, ui]), region, float(cs[ci, 0]), float(ug[ci, ui]))
    # the identity residual over all regions' points in one pass
    ug = np.hstack(list(grids.values()))
    resid = np.hstack(region_vals) - delta_positive_part_form(ug, cs, p, m)
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


def enumeration_check(p: float, m: float, coeffs, *, two_sided: bool = False,
                      left_tail: bool = False) -> EnumCheck:
    """Exact-enumeration comparison of E f(sum c_i X_i) vs the carrier.

    The families, in tie-break order: cube_plus (t -> E (D - t)_+^3 at
    401 thresholds t spanning both supports), exp (lambda -> E e^{lambda D}
    at 20 rates in [0.1, 5]), and for two_sided also abs_cube
    (E |D - t|^3) and cosh.  The cubes come in closed form from the
    shifted suffix moments (`dist._cube_plus`), O(atoms + thresholds)
    per side; |D - t|^3 adds the same moment of -D at -t.

    Violations are normalized by max(1, E f(carrier)) so that the
    exponential families, whose raw moments span many orders, report on
    the same scale as the cubes.  Both laws have mean 0, so their
    exponential moments are >= 1 and the normalized violation is
    expm1(log E f(sum) - log E f(carrier)), with the logs taken by
    log-sum-exp: no moment overflows.  The worst point is the first
    maximum in family order; a NaN comparison raises VerifyError.

    For left_tail the sum is reflected, which swaps the roles of p and
    q; the caller is responsible for choosing m against m_star(q) in
    that case.
    """
    c = np.asarray(coeffs, dtype=float)
    n = len(c)
    p_eff = p
    if left_tail:
        p_eff = 1.0 - p
    lhs = weighted_bs_sum(p_eff, c)
    _, s_m, _ = resolve_s_m(m, coeffs=c)
    if s_m <= 0:
        raise VerifyError("coefficients are all zero")
    rhs = scale(iid_sum(bs(p_eff), n), s_m)
    lo = min(lhs.min_value, rhs.min_value) - 1.0
    hi = max(lhs.max_value, rhs.max_value) + 1.0
    t_grid = np.linspace(lo, hi, _ENUM_T_COUNT)
    lam_grid = np.geomspace(0.1, 5.0, _ENUM_LAM_COUNT)
    # E cosh(lam D) = (E e^{lam D} + E e^{-lam D}) / 2, so two_sided also
    # takes the negative rates; the halving cancels in the log ratio
    lams = np.concatenate((lam_grid, -lam_grid)) if two_sided else lam_grid
    gl, gr = _log_mgf(lhs, lams), _log_mgf(rhs, lams)
    k = _ENUM_LAM_COUNT
    el, er = _cube_plus(lhs, t_grid), _cube_plus(rhs, t_grid)
    families = [("cube_plus", t_grid, (el - er) / np.maximum(1.0, er)),
                ("exp", lam_grid, np.expm1(gl[:k] - gr[:k]))]
    if two_sided:
        al = el + _cube_plus(scale(lhs, -1.0), -t_grid)
        ar = er + _cube_plus(scale(rhs, -1.0), -t_grid)
        families += [("abs_cube", t_grid, (al - ar) / np.maximum(1.0, ar)),
                     ("cosh", lam_grid, np.expm1(np.logaddexp(gl[:k], gl[k:])
                                                 - np.logaddexp(gr[:k], gr[k:])))]
    worst = (-math.inf, "", math.nan)
    for fam, params, viol in families:
        if np.any(np.isnan(viol)):
            raise VerifyError(f"the {fam} comparison is NaN")
        i = int(np.argmax(viol))
        if viol[i] > worst[0]:
            worst = (float(viol[i]), fam, float(params[i]))
    mode = "two_sided" if two_sided else ("left_tail" if left_tail else "right_tail")
    return EnumCheck(p=p, m=m, coeffs=tuple(float(x) for x in c), n=n,
                     max_violation=worst[0], worst_family=worst[1],
                     worst_param=worst[2], t_count=_ENUM_T_COUNT,
                     lam_count=_ENUM_LAM_COUNT, mode=mode)


# ---------------------------------------------------------------------------
# Schur-direction sweep and the sharpness witness
# ---------------------------------------------------------------------------

def _pair_terms(p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four terms of the pair moment: (v_i, v_j, w_i w_j) over i, j."""
    base = bs(p)
    v, w = base.values, base.masses
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
    respects majorization at this (p, m, t)."""
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
    if m <= 1.0:
        raise VerifyError("witness construction needs m > 1")
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

@dataclass(frozen=True)
class McConfig:
    seed: int = 0
    n_paths: int = 200_000
    block: int = 65_536
    confidence: float = 0.99

    def __post_init__(self):
        if not self.n_paths >= 1:
            raise VerifyError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if not self.block >= 1:
            raise VerifyError(f"block must be >= 1, got {self.block!r}")
        if not 0.0 < self.confidence < 1.0:
            raise VerifyError(f"confidence must lie in (0, 1), got {self.confidence!r}")


@dataclass(frozen=True)
class TailCounts:
    counts: np.ndarray   # paths with stat >= x, one entry per x
    n_paths: int
    blocks: int
    workers: int         # threads actually used: 1 when there is one block
    extras: list         # simulate's per-block extra, in block order


def tail_counts(simulate, xs, mc: McConfig) -> TailCounts:
    """Count stat >= x over mc.n_paths simulated paths, block by block.

    `simulate(rng, size)` returns `(stat, extra)`: one statistic per
    path, and any per-block value the caller wants back.  Block i draws
    from child stream i of mc.seed, so the counts do not depend on how
    the blocks are spread over threads.  ASYMTAIL_THREADS caps the
    thread count; it is read here and nowhere else.  A simulation runs
    on a pool thread, so it must call only what may run concurrently.
    """
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
    workers = min(n_blocks, cap)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            blocks = list(ex.map(run_block, range(n_blocks)))
    else:
        blocks = [run_block(i) for i in range(n_blocks)]
    return TailCounts(counts=sum(c for c, _ in blocks), n_paths=mc.n_paths,
                      blocks=n_blocks, workers=workers, extras=[e for _, e in blocks])


@dataclass(frozen=True)
class SupermartingaleConfig:
    n: int
    p: float
    coeffs: tuple
    rule: str = "constant"
    m: float = 1.0
    x_grid: tuple | None = None


_RULES = ("constant", "history_scaled", "random_modulated")


def _simulate_block(cfg: SupermartingaleConfig, rng: np.random.Generator,
                    size: int) -> tuple[np.ndarray, float]:
    """Final sums of `size` paths, and the largest sqrt(A B) / c_i - 1 seen."""
    p, q = cfg.p, 1.0 - cfg.p
    ratio = q / p
    c = np.asarray(cfg.coeffs, dtype=float)
    sref = math.sqrt(float(np.sum(c * c)))
    S = np.zeros(size)
    sqrtab_excess = -math.inf
    for i in range(cfg.n):
        ci = c[i]
        if cfg.rule == "constant":
            A = np.full(size, ci)
            B = A
        elif cfg.rule == "history_scaled":
            sigma = 1.0 / (1.0 + (S / sref) ** 2)
            B = ci * math.sqrt(ratio) * sigma
            A = ci / math.sqrt(ratio) * sigma
        elif cfg.rule == "random_modulated":
            U = rng.random(size)
            B = ci * ratio ** (0.5 * U)
            A = ci * ratio ** (-0.5 * U)
        else:
            raise VerifyError(f"unknown rule {cfg.rule!r}")
        sqrtab_excess = max(sqrtab_excess, float(np.max(np.sqrt(A * B))) / ci - 1.0)
        if sqrtab_excess > 1e-12:
            raise VerifyError("rule breaks sqrt(A B) <= c_i")
        if np.max(B / A) > ratio * (1.0 + 1e-12):
            raise VerifyError("rule breaks B/A <= q/p")
        take_up = rng.random(size) < A / (A + B)
        S = S + np.where(take_up, B, -A)
    return S, sqrtab_excess


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
class SupermartingaleReport:
    config: SupermartingaleConfig
    mc: McConfig
    n_paths: int
    rows: list
    max_sqrtab_excess: float
    seed: int
    blocks: int
    workers: int

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


def supermartingale_mc(cfg: SupermartingaleConfig, mc: McConfig) -> SupermartingaleReport:
    """Simulate the increment rule and compare tails with the bounds.

    The empirical tail at each grid point gets a one-sided lower
    confidence limit (Clopper-Pearson at mc.confidence); the check
    passes while that limit stays at or below the hybrid bound.  The
    paths are counted by `tail_counts`, so the result does not depend on
    the worker count.
    """
    if cfg.rule not in _RULES:
        raise VerifyError(f"rule must be one of {_RULES}")
    if len(cfg.coeffs) != cfg.n:
        raise VerifyError("coeffs length must equal n")
    if cfg.rule in ("constant", "random_modulated") and cfg.p > 0.5:
        raise VerifyError(f"rule {cfg.rule!r} requires p <= 1/2")
    c = np.asarray(cfg.coeffs, dtype=float)
    if np.any(c <= 0):
        raise VerifyError("coefficients must be positive")

    if cfg.x_grid is not None:
        xs = np.asarray(cfg.x_grid, dtype=float)
    else:
        sig = math.sqrt(float(np.sum(c * c)))
        _, s_m, _ = resolve_s_m(cfg.m, coeffs=c)
        top = cfg.n * s_m * math.sqrt((1 - cfg.p) / cfg.p)
        xs = np.linspace(0.5 * sig, min(3.5 * sig, 0.98 * top), 8)

    reports = combined_bound_grid(cfg.p, cfg.m, xs, coeffs=c)
    tc = tail_counts(lambda rng, size: _simulate_block(cfg, rng, size), xs, mc)
    rows = []
    for x, k, rep in zip(xs, tc.counts, reports):
        k = int(k)
        if k > 0:
            lo = float(beta_dist.ppf(1.0 - mc.confidence, k, tc.n_paths - k + 1))
        else:
            lo = 0.0
        rows.append(McRow(x=float(x), count=k, empirical=k / tc.n_paths,
                          cp_lower=lo, bound=rep.minimum, margin=rep.minimum - lo,
                          bound_name=rep.argmin, ok=lo <= rep.minimum))
    return SupermartingaleReport(config=cfg, mc=mc, n_paths=tc.n_paths, rows=rows,
                                 max_sqrtab_excess=max(tc.extras), seed=mc.seed,
                                 blocks=tc.blocks, workers=tc.workers)


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


def run_delta_suite(resolution: int = 80) -> list[CheckResult]:
    out = []
    for p in (0.05, 0.2, 0.35, 0.5, 0.8):
        m = m_star(p)
        res = delta_grid_check(p, m, resolution)
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
    rng = RngSpec(seed, stream=101).generator()
    out = []
    cases = []
    for p in (0.1, 0.3, 0.5, 0.7):
        for n in (2, 3, 5):
            coeffs = np.round(rng.uniform(0.2, 2.0, size=n), 3)
            cases.append((p, m_star(p), coeffs))
    for p, m, coeffs in cases:
        chk = enumeration_check(p, m, coeffs)
        out.append(CheckResult(
            name=f"enum_p{p:g}_n{len(coeffs)}", passed=chk.passed,
            metric=chk.max_violation, threshold=DEFAULT_TOL,
            details={"m": m, "coeffs": list(chk.coeffs),
                     "worst_family": chk.worst_family}))
    chk = enumeration_check(0.3, m_star(0.3), [1.0, 0.7, 1.4], two_sided=True)
    out.append(CheckResult(name="enum_two_sided_p0.3", passed=chk.passed,
                           metric=chk.max_violation, threshold=DEFAULT_TOL,
                           details={"mode": chk.mode}))
    chk = enumeration_check(0.7, m_star(0.3), [1.0, 0.7, 1.4], left_tail=True)
    out.append(CheckResult(name="enum_left_tail_p0.7", passed=chk.passed,
                           metric=chk.max_violation, threshold=DEFAULT_TOL,
                           details={"mode": chk.mode}))
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


def run_supermartingale_suite(seed: int = 0, n_paths: int = 200_000) -> list[CheckResult]:
    out = []
    mc = McConfig(seed=seed, n_paths=n_paths)
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
                     "workers": rep.workers,
                     "rows": [{"x": r.x, "emp": r.empirical, "bound": r.bound,
                               "cp_lower": r.cp_lower, "margin": r.margin}
                              for r in rep.rows]}))
    return out


_SUITES = {
    "delta": lambda seed: run_delta_suite(),
    "enumeration": run_enumeration_suite,
    "schur": lambda seed: run_schur_suite(),
    "exactness": lambda seed: run_exactness_suite(),
    "supermartingale": run_supermartingale_suite,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "all":
        out = []
        for key in _SUITES:
            out.extend(run_suite(key, seed))
        return out
    if name not in _SUITES:
        raise VerifyError(f"unknown suite {name!r}; choose from "
                          f"{tuple(_SUITES)} or 'all'")
    return _SUITES[name](seed)
