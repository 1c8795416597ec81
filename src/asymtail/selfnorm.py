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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import normal_tail
from .dist import FiniteDist, RngSpec, bs, from_pairs, iid_sum, sample, scale, st
from .majorant import lc_majorant
from .thresholds import SQRT2_MINUS_1, c_const, m_star
from .verifier import McConfig, beta_dist


class SelfNormError(ValueError):
    pass


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
        scale_v = max(1.0, abs(d.min_value), abs(d.max_value))
        if abs(d.mean()) > 1e-12 * scale_v:
            raise SelfNormError("reciprocating map needs a zero-mean law")
        self.dist = d
        ztol = 1e-12 * scale_v
        v, w = d.values, d.masses
        pos = v > ztol
        neg = v < -ztol
        self.zero_mass = float(np.sum(w[~pos & ~neg]))
        self.pos_x = v[pos]
        self.pos_w = w[pos]
        self.pos_span = self.pos_x * self.pos_w
        self.pos_h = np.cumsum(self.pos_span)
        order = np.argsort(-v[neg])  # closest to zero first
        self.neg_x = v[neg][order]
        self.neg_w = w[neg][order]
        self.neg_span = -self.neg_x * self.neg_w
        self.neg_h = np.cumsum(self.neg_span)
        gp = float(self.pos_h[-1]) if self.pos_h.size else 0.0
        gn = float(self.neg_h[-1]) if self.neg_h.size else 0.0
        if abs(gp - gn) > 1e-12 * max(1.0, gp, gn):
            raise SelfNormError("harvest totals disagree; law is not zero-mean")
        self.g_total = 0.5 * (gp + gn)
        self._ztol = ztol

    def G(self, x):
        """Harvest depth reached at x: positive side for x > 0, negative
        side (accumulated outward from zero) for x < 0, zero at zero."""
        xa = np.asarray(x, dtype=float)
        out = np.zeros(xa.shape)
        pos = xa > self._ztol
        neg = xa < -self._ztol
        if np.any(pos):
            cum = np.concatenate(([0.0], self.pos_h))
            out[pos] = cum[np.searchsorted(self.pos_x, xa[pos], side="right")]
        if np.any(neg):
            cum = np.concatenate(([0.0], self.neg_h))
            out[neg] = cum[np.searchsorted(-self.neg_x, -xa[neg], side="right")]
        if np.isscalar(x) or xa.ndim == 0:
            return float(out)
        return out

    def x_plus(self, h):
        """Positive atom whose harvest interval contains level h."""
        ha = np.asarray(h, dtype=float)
        idx = np.minimum(np.searchsorted(self.pos_h, ha, side="left"),
                         self.pos_h.size - 1)
        out = self.pos_x[idx]
        if np.isscalar(h) or ha.ndim == 0:
            return float(out)
        return out

    def x_minus(self, h):
        """Negative atom whose harvest interval contains level h."""
        ha = np.asarray(h, dtype=float)
        idx = np.minimum(np.searchsorted(self.neg_h, ha, side="left"),
                         self.neg_h.size - 1)
        out = self.neg_x[idx]
        if np.isscalar(h) or ha.ndim == 0:
            return float(out)
        return out

    def reciprocate(self, x, u):
        """r(x, u): the opposite-side partner at the harvest level picked
        uniformly (by u in [0,1)) inside x's own interval; r(0, u) = 0."""
        xa = np.asarray(x, dtype=float)
        ua = np.asarray(u, dtype=float)
        xa, ua = np.broadcast_arrays(xa, ua)
        out = np.zeros(xa.shape)
        pos = xa > self._ztol
        neg = xa < -self._ztol
        if np.any(pos):
            idx = np.searchsorted(self.pos_x, xa[pos], side="left")
            h0 = self.pos_h[idx] - self.pos_span[idx]
            h = h0 + ua[pos] * self.pos_span[idx]
            out[pos] = self.x_minus(np.clip(h, 0.0, self.g_total))
        if np.any(neg):
            idx = np.searchsorted(-self.neg_x, -xa[neg], side="left")
            h0 = self.neg_h[idx] - self.neg_span[idx]
            h = h0 + ua[neg] * self.neg_span[idx]
            out[neg] = self.x_plus(np.clip(h, 0.0, self.g_total))
        if np.isscalar(x) and np.isscalar(u):
            return float(out)
        return out


@dataclass(frozen=True)
class TwoPointComponent:
    a: float        # magnitude of the negative atom
    b: float        # positive atom
    weight: float

    def dist(self) -> FiniteDist:
        s = self.a + self.b
        return from_pairs([(-self.a, self.b / s), (self.b, self.a / s)])

    @property
    def asymmetry(self) -> float:
        return self.b / self.a


@dataclass(frozen=True)
class TwoPointDecomposition:
    components: tuple
    zero_mass: float

    @property
    def total_weight(self) -> float:
        return self.zero_mass + sum(c.weight for c in self.components)

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
    levels = np.unique(np.concatenate((rm.pos_h, rm.neg_h)))
    levels = levels[levels <= rm.g_total * (1.0 + 1e-15)]
    comps = []
    h0 = 0.0
    for h1 in levels:
        dh = h1 - h0
        if dh <= 1e-15 * rm.g_total:
            h0 = h1
            continue
        mid = 0.5 * (h0 + h1)
        b = rm.x_plus(mid)
        a = -rm.x_minus(mid)
        comps.append(TwoPointComponent(a=a, b=b, weight=dh * (a + b) / (a * b)))
        h0 = h1
    return TwoPointDecomposition(components=tuple(comps), zero_mass=rm.zero_mass)


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
    scale_v = max(1.0, abs(d.min_value), abs(d.max_value))
    keep = np.abs(d.values) > 1e-12 * scale_v
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
    scale_v = max(1.0, abs(d.min_value), abs(d.max_value))
    zero = np.abs(d.values) <= 1e-12 * scale_v
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
    out = np.zeros(num.shape)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    return out


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
    if kind == "vw":
        if r is None:
            raise SelfNormError("vw needs the reciprocated values r")
        w = np.abs(x - r)
        return _safe_ratio(x.sum(axis=1), 0.5 * np.sqrt((w * w).sum(axis=1)))
    if kind == "vym":
        if r is None:
            raise SelfNormError("vym needs the reciprocated values r")
        y = np.abs(x * r)
        return _safe_ratio(x.sum(axis=1),
                           (y ** m).sum(axis=1) ** (1.0 / (2.0 * m)))
    if kind == "vsymm":
        if multipliers is None:
            raise SelfNormError("vsymm needs the symmetric multipliers")
        den = (np.abs(x) ** (2.0 * m)).sum(axis=1) ** (1.0 / (2.0 * m))
        return _safe_ratio((multipliers * x).sum(axis=1), den)
    if kind == "vhatsymm":
        if hat_abs is None or p is None:
            raise SelfNormError("vhatsymm needs hat_abs and p")
        den = math.sqrt(p) * (hat_abs ** (2.0 * m)).sum(axis=1) ** (1.0 / (2.0 * m))
        return _safe_ratio(x.sum(axis=1), den)
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
    ok: bool


@dataclass(frozen=True)
class SelfNormReport:
    config: SelfNormConfig
    mc: McConfig
    n_paths: int
    rows: list

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


def selfnorm_bound_check(cfg: SelfNormConfig, mc: McConfig) -> SelfNormReport:
    """Simulate the statistic and compare its tail with the bound curve
    at Clopper-Pearson confidence, blockwise and reproducibly."""
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
        scale_v = max(1.0, abs(cfg.base.min_value), abs(cfg.base.max_value))
        zero = np.abs(cfg.base.values) <= 1e-12 * scale_v
        nonzero_p = 1.0 - float(np.sum(cfg.base.masses[zero]))
        if cfg.p is None or cfg.p < max(nonzero_p, SQRT2_MINUS_1) - 1e-12:
            raise SelfNormError("vhatsymm needs p >= max(P(X != 0), sqrt(2)-1)")

    curve = _bound_curve(cfg)
    if cfg.x_grid is not None:
        xs = np.asarray(cfg.x_grid, dtype=float)
    else:
        xs = np.linspace(0.5, 3.0, 6)
    bounds = np.array([curve(float(x)) for x in xs])

    n_blocks = (mc.n_paths + mc.block - 1) // mc.block
    sizes = [min(mc.block, mc.n_paths - i * mc.block) for i in range(n_blocks)]
    spec = RngSpec(mc.seed)
    mult_dist = st(cfg.p) if cfg.kind == "vsymm" else None

    def run_block(i: int) -> np.ndarray:
        rng = spec.substream(i).generator()
        size = sizes[i]
        x = sample(cfg.base, rng, (size, cfg.n))
        if cfg.kind in ("vw", "vym"):
            u = rng.random((size, cfg.n))
            r = rm.reciprocate(x, u)
            v = selfnorm_stat(cfg.kind, x, r=r, m=cfg.m)
        elif cfg.kind == "vsymm":
            mult = sample(mult_dist, rng, (size, cfg.n))
            v = selfnorm_stat("vsymm", x, multipliers=mult, m=cfg.m)
        else:
            habs = np.abs(x)
            zeros = habs <= 1e-12
            if np.any(zeros):
                habs[zeros] = np.abs(sample(hat, rng, int(np.sum(zeros))))
            v = selfnorm_stat("vhatsymm", x, hat_abs=habs, m=cfg.m, p=cfg.p)
        return np.array([np.count_nonzero(v >= xx) for xx in xs])

    counts = sum(run_block(i) for i in range(n_blocks))
    total = sum(sizes)
    rows = []
    for x, k, b in zip(xs, counts, bounds):
        k = int(k)
        lo = float(beta_dist.ppf(1.0 - mc.confidence, k, total - k + 1)) if k else 0.0
        rows.append(SelfNormRow(x=float(x), count=k, empirical=k / total,
                                cp_lower=lo, bound=float(b), ok=lo <= b))
    return SelfNormReport(config=cfg, mc=mc, n_paths=total, rows=rows)
