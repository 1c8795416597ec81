"""The four benchmark workloads: seeded inputs, one operation, its check.

Inputs come in blocks.  Block b of a workload is drawn from its own
generator, seeded by (seed, workload, b), so a run that stops after any
number of blocks has seen exactly the inputs of every other run at the
same seed.  Every operation calls asymtail through its module attributes
(`bounds.combined_bound_grid`, ...), which is where the tracer installs
its wrappers.

Every block of a workload runs the same design (the same lattice
points, or the same fixed cycle of check kinds) with fresh seeded
inputs, so a run of a fixed number of blocks has the same mix of
operations at every seed.

Bound queries take (p, n) from a fixed rank-1 lattice over p in
[0.02, 0.98] and log n in [log 4, log 600]: each coordinate alone is the
midpoint rule for p uniform and n log-uniform, and the points spread
evenly over the plane.  The query cost over (p, n) is rugged (5 ms to
1.3 s, with cliffs where the atom count crosses b_opt's 64-atom cutoff);
drawing (p, n) at random moved the p90 latency of a 112-query run by 30%
between seeds.  The seed draws everything else: the order, s_m, which
quarter of the queries pass explicit coefficients and their values, and
the x points.  bound_point uses 112 lattice points per block (about 2 s
on a 2-vCPU VM); five of them, at small or large p and n > 280, raise
LatticeError, IndexError or MemoryError today.  A bound_grid query costs
15 times more, so its block is a 14-point lattice (about 3 s); one of its
points, p = 0.81 and n = 502, raises LatticeError today.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from asymtail import bounds, dist, selfnorm, thresholds, verifier

from oracle import Carrier, check_report, s_m_of

P_RANGE = (0.02, 0.98)
N_RANGE = (4, 600)
Z_RANGE = (0.25, 5.0)
S_M_RANGE = (0.5, 2.0)
COEFF_RANGE = (0.2, 2.0)
GRID_POINTS = 32
SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0


@dataclass
class Outcome:
    """What one operation produced: useful work units, or why it is wrong."""
    units: int
    wrong: str | None = None
    fingerprint: str = ""


def _stratified(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """k draws from [lo, hi], one in each of k equal strata, shuffled."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def _fmt(values) -> str:
    return ",".join(repr(float(v)) if v is not None else "None" for v in values)


# ---------------------------------------------------------------------------
# bound workloads
# ---------------------------------------------------------------------------

@dataclass
class BoundQuery:
    p: float
    n: int
    m: float
    s_m: float
    coeffs: np.ndarray | None
    xs: np.ndarray
    brute: np.ndarray  # indices into xs checked against the brute-force b_opt


def _lattice(size: int, generator: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, n) at the rank-1 lattice ((i + 1/2) / size, (i g mod size + 1/2) / size)."""
    i = np.arange(size)
    u, v = (i + 0.5) / size, ((i * generator) % size + 0.5) / size
    p = P_RANGE[0] + (P_RANGE[1] - P_RANGE[0]) * u
    n = np.rint(np.exp(np.log(N_RANGE[0]) + np.log(N_RANGE[1] / N_RANGE[0]) * v))
    return p, n.astype(int)


class _BoundWorkload:
    points: tuple[np.ndarray, np.ndarray]
    unit = "x"
    may_raise = True   # known carrier failures at some lattice points (see above)

    def __init__(self, seed: int):
        self.seed = seed
        self.block_size = len(self.points[0])

    def _queries(self, rng: np.random.Generator, zs_per_query: int) -> list[BoundQuery]:
        k = self.block_size
        order = rng.permutation(k)
        ps, ns = self.points[0][order], self.points[1][order]
        with_coeffs = np.zeros(k, dtype=bool)
        with_coeffs[rng.permutation(k)[:k // 4]] = True
        checked = rng.permutation(k)[:k // 4]
        zs = (_stratified(rng, k, *Z_RANGE)[:, None] if zs_per_query == 1
              else np.stack([_stratified(rng, zs_per_query, *Z_RANGE) for _ in range(k)]))
        out = []
        for i in range(k):
            p, n = float(ps[i]), int(ns[i])
            m = thresholds.m_star(p)
            if with_coeffs[i]:
                coeffs = rng.uniform(*COEFF_RANGE, size=n)
                s_m = s_m_of(coeffs, m)
            else:
                coeffs = None
                s_m = float(math.exp(rng.uniform(math.log(S_M_RANGE[0]), math.log(S_M_RANGE[1]))))
            xs = np.sort(zs[i]) * math.sqrt(n) * s_m
            brute = (rng.permutation(len(xs))[:3] if i in checked
                     else np.zeros(0, dtype=int))
            out.append(BoundQuery(p, n, m, s_m, coeffs, xs, brute))
        return out

    def warmup(self) -> list[BoundQuery]:
        """A fixed mid-sized query, the same at every seed."""
        return [BoundQuery(0.3, 40, thresholds.m_star(0.3), 1.0, None,
                           np.linspace(1.0, 25.0, 4), np.zeros(0, dtype=int))]

    def check(self, q: BoundQuery, reports) -> Outcome:
        """Counts the x whose whole report passes; names the first that fails."""
        if len(reports) != len(q.xs):
            return Outcome(0, "report_count")
        carrier = Carrier(q.p, q.n, q.s_m)
        good, wrong, parts = 0, None, []
        for j, (x, rep) in enumerate(zip(q.xs, reports)):
            if rep.n != q.n or abs(rep.s_m - q.s_m) > 1e-12 * q.s_m or rep.x != x:
                why = "report_inputs_mismatch"
            else:
                why = check_report(carrier, rep, float(x), j in q.brute)
            good += why is None
            wrong = wrong or why
            parts.append(_fmt((rep.b_opt, rep.lc, rep.lin_lc, rep.hoeffding,
                               rep.normal_dom)) + rep.argmin)
        return Outcome(good, wrong, ";".join(parts))


class BoundGrid(_BoundWorkload):
    """One combined_bound_grid query over a grid of x."""
    name = "bound_grid"
    points = _lattice(14, 5)

    def block(self, b: int) -> list[BoundQuery]:
        rng = np.random.default_rng([self.seed, 1, b])
        return self._queries(rng, GRID_POINTS)

    def run(self, q: BoundQuery):
        if q.coeffs is not None:
            return bounds.combined_bound_grid(q.p, q.m, q.xs, coeffs=q.coeffs)
        return bounds.combined_bound_grid(q.p, q.m, q.xs, n=q.n, s_m=q.s_m)


class BoundPoint(_BoundWorkload):
    """One combined_bound call at a single x; nothing shared between calls."""
    name = "bound_point"
    points = _lattice(112, 69)

    def block(self, b: int) -> list[BoundQuery]:
        rng = np.random.default_rng([self.seed, 2, b])
        return self._queries(rng, 1)

    def run(self, q: BoundQuery):
        x = float(q.xs[0])
        if q.coeffs is not None:
            return [bounds.combined_bound(q.p, q.m, x, coeffs=q.coeffs)]
        return [bounds.combined_bound(q.p, q.m, x, n=q.n, s_m=q.s_m)]


# ---------------------------------------------------------------------------
# certificate checks
# ---------------------------------------------------------------------------

@dataclass
class Check:
    kind: str
    args: tuple


class Certify:
    """Verifier checks in a fixed cycle, each with the verdict theory predicts."""
    name = "certify"
    unit = "checks"
    may_raise = False  # every input meets the theory's preconditions
    kinds = ("delta", "enumeration", "witness", "schur", "threshold_row")
    sizes = range(2, 13)            # enumeration terms; the cost grows as 2^terms
    block_size = len(kinds) * len(sizes)

    def __init__(self, seed: int):
        self.seed = seed

    def _draw(self, rng: np.random.Generator, kind: str, terms: int) -> Check:
        if kind == "delta":
            p = rng.uniform(*P_RANGE)
            return Check(kind, (p, thresholds.m_star(p) * (1.0 + 0.5 * rng.random())))
        if kind == "enumeration":
            p = rng.uniform(*P_RANGE)
            coeffs = rng.uniform(*COEFF_RANGE, size=terms)
            return Check(kind, (p, thresholds.m_star(p), coeffs))
        if kind == "witness":
            # 0.9 m_star(p) must stay above 1, which holds for p <= 0.33
            p = rng.uniform(0.02, 0.33)
            return Check(kind, (p, 0.9 * thresholds.m_star(p)))
        if kind == "schur":
            p = rng.uniform(*P_RANGE)
            return Check(kind, (p, thresholds.m_star(p), rng.uniform(0.25, 3.0)))
        return Check(kind, (rng.uniform(0.02, 0.48),))

    def block(self, b: int) -> list[Check]:
        """One cycle of the kinds per enumeration size."""
        rng = np.random.default_rng([self.seed, 3, b])
        return [self._draw(rng, kind, terms) for terms in self.sizes for kind in self.kinds]

    def warmup(self) -> list[Check]:
        """One check of each kind, the same at every seed."""
        rng = np.random.default_rng([0, 3, 0])
        return [self._draw(rng, kind, 3) for kind in self.kinds]

    def run(self, c: Check):
        if c.kind == "delta":
            return verifier.delta_grid_check(*c.args, 200)
        if c.kind == "enumeration":
            return verifier.enumeration_check(*c.args)
        if c.kind == "witness":
            return verifier.exactness_witness(*c.args)
        if c.kind == "schur":
            return verifier.schur_sweep(*c.args)
        return thresholds.threshold_row(*c.args)

    def check(self, c: Check, res) -> Outcome:
        if c.kind == "delta":
            ok, fp = res.min_value >= -1e-12, _fmt((res.min_value, res.identity_max_err))
        elif c.kind == "enumeration":
            ok, fp = res.max_violation <= 1e-10, _fmt((res.max_violation,))
        elif c.kind == "witness":
            ok = res is not None and res.gap < -1e-12
            fp = _fmt((res.gap, res.theta_star)) if res is not None else "None"
        elif c.kind == "schur":
            ok, fp = res.min_forward_diff >= -1e-12, _fmt((res.min_forward_diff,))
        else:
            p = c.args[0]
            vals = [v for v in res.values() if v is not None]
            ok = (abs(res["p_star_inverse"] - p) <= 1e-10
                  and all(math.isfinite(v) for v in vals))
            fp = _fmt(vals)
        return Outcome(1, None if ok else f"{c.kind}_verdict", c.kind + ":" + fp)


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------

@dataclass
class McCheck:
    kind: str
    cfg: object
    mc: verifier.McConfig


def _zero_mean_law(rng: np.random.Generator) -> dist.FiniteDist:
    """Two negative and two positive atoms, masses rescaled to mean 0."""
    neg = -rng.uniform(0.5, 2.0, size=2)
    pos = rng.uniform(0.5, 3.0, size=2)
    wn = rng.uniform(0.2, 1.0, size=2)
    wp = rng.uniform(0.2, 1.0, size=2)
    wp *= float(np.dot(wn, -neg)) / float(np.dot(wp, pos))
    total = wn.sum() + wp.sum()
    return dist.from_pairs(zip(np.concatenate((neg, pos)), np.concatenate((wn, wp)) / total))


def _symmetric_law(rng: np.random.Generator, zero_mass: float) -> dist.FiniteDist:
    mags = np.sort(rng.uniform(0.5, 2.5, size=2))
    w = rng.uniform(0.2, 1.0, size=2)
    w *= (1.0 - zero_mass) / (2.0 * w.sum())
    pairs = [(-mags[1], w[1]), (-mags[0], w[0]), (mags[0], w[0]), (mags[1], w[1])]
    if zero_mass > 0:
        pairs.append((0.0, zero_mass))
    return dist.from_pairs(pairs)


class McCheckWorkload:
    """One Monte Carlo check per operation, cycling through all seven kinds."""
    name = "mc_check"
    unit = "paths"
    may_raise = False  # every input meets the theory's preconditions
    kinds = ("constant", "history_scaled", "random_modulated", "vym", "vw", "vsymm", "vhatsymm")
    steps = 3                      # sum lengths per kind and block
    block_size = steps * len(kinds)
    # enough paths that simulation, not the once-per-check bound, carries
    # the load; four blocks per check, so the thread pool has work
    paths = 131072
    mc_block = 32768

    def __init__(self, seed: int):
        self.seed = seed

    def _mc(self, rng: np.random.Generator) -> verifier.McConfig:
        return verifier.McConfig(seed=int(rng.integers(2 ** 31)), n_paths=self.paths,
                                 block=self.mc_block)

    def _draw(self, rng: np.random.Generator, kind: str, step: int) -> McCheck:
        if kind in ("constant", "history_scaled", "random_modulated"):
            n = (3, 5, 8)[step]
            p = rng.uniform(0.1, 0.9 if kind == "history_scaled" else 0.5)
            cfg = verifier.SupermartingaleConfig(
                n=n, p=p, coeffs=tuple(rng.uniform(0.5, 1.5, size=n)), rule=kind,
                m=thresholds.m_star(p))
            return McCheck(kind, cfg, self._mc(rng))
        if kind in ("vym", "vw"):
            base = _zero_mean_law(rng)
            n = (4, 7, 10)[step]
            if kind == "vw":
                return McCheck(kind, selfnorm.SelfNormConfig(base=base, n=n, kind="vw"),
                               self._mc(rng))
            # every two-point component pairs some -a with some b, so its
            # asymmetry b/a is at most max(b)/min(a); p <= 1/(1 + that) is enough
            bound = base.max_value / float(np.min(-base.values[base.values < 0]))
            p = rng.uniform(0.5, 1.0) / (1.0 + bound)
            cfg = selfnorm.SelfNormConfig(base=base, n=n, kind="vym", m=thresholds.m_star(p), p=p)
            return McCheck(kind, cfg, self._mc(rng))
        zero = rng.uniform(0.2, 0.5) if kind == "vhatsymm" else 0.0
        base = _symmetric_law(rng, zero)
        p = rng.uniform(max(1.0 - zero, SQRT2_MINUS_1), 1.0)
        cfg = selfnorm.SelfNormConfig(base=base, n=(4, 7, 10)[step], kind=kind, p=p)
        return McCheck(kind, cfg, self._mc(rng))

    def block(self, b: int) -> list[McCheck]:
        """One cycle of the kinds at each of three sum lengths."""
        rng = np.random.default_rng([self.seed, 4, b])
        return [self._draw(rng, kind, step) for step in range(self.steps) for kind in self.kinds]

    def warmup(self) -> list[McCheck]:
        """One check of each kind, the same at every seed."""
        rng = np.random.default_rng([0, 4, 0])
        return [self._draw(rng, kind, 0) for kind in self.kinds]

    def run(self, c: McCheck):
        if c.kind in ("constant", "history_scaled", "random_modulated"):
            return verifier.supermartingale_mc(c.cfg, c.mc)
        return selfnorm.selfnorm_bound_check(c.cfg, c.mc)

    def check(self, c: McCheck, rep) -> Outcome:
        fp = c.kind + ":" + ",".join(f"{r.count}/{r.bound!r}" for r in rep.rows)
        if rep.n_paths != c.mc.n_paths:
            return Outcome(0, "path_count", fp)
        if not rep.all_ok:
            return Outcome(0, "mc_verdict", fp)
        return Outcome(rep.n_paths, None, fp)


WORKLOADS = {w.name: w for w in (BoundGrid, BoundPoint, Certify, McCheckWorkload)}
