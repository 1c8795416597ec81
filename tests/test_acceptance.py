"""Acceptance suite.

Ten independent criteria, each a single test that prints one
"ACCEPTANCE k: PASS/FAIL" line with its headline metric and wall time.
Tolerances and time limits are part of the criteria and are asserted.
"""
import math
import time

import numpy as np
import pytest

from asymtail.bounds import (
    b_opt,
    carrier_sum,
    combined_bound_grid,
    hoeffding_bound,
)
from asymtail.dist import FiniteDist, from_pairs, sample, tail
from asymtail.majorant import lattice_params, lc_majorant, lin_lc_majorant
from asymtail.selfnorm import (
    SelfNormConfig,
    hat_dist,
    recombine,
    selfnorm_bound_check,
    selfnorm_stat,
    two_point_decomposition,
    var_identity_check,
)
from asymtail.thresholds import c_const, m_exp, m_star, p_star
from asymtail.verifier import (
    McConfig,
    SupermartingaleConfig,
    delta_grid_check,
    delta_piecewise,
    delta_positive_part_form,
    enumeration_check,
    exactness_witness,
    supermartingale_mc,
)

ASYM_LAWS = (
    from_pairs([(-1.0, 2 / 3), (1.0, 1 / 6), (3.0, 1 / 6)]),
    from_pairs([(-1.0, 2 / 3), (2.0, 1 / 3)]),
    from_pairs([(-1.5, 0.2), (-0.5, 1 / 3), (1.0, 7 / 15)]),
)


def report(capsys, num, ok, detail, elapsed, limit):
    line = (f"ACCEPTANCE {num}: {'PASS' if ok and elapsed < limit else 'FAIL'}"
            f" {detail} [{elapsed:.3f} s / limit {limit:g} s]")
    with capsys.disabled():
        print(flush=True)
        print(line, flush=True)
    assert ok, line
    assert elapsed < limit, line


def test_acceptance_01_threshold_table(capsys):
    t0 = time.perf_counter()
    ps = (1e-1, 1e-2, 1e-3, 1e-4)
    star_ref = (1.75, 5.066262434217448, 15.834148927133372, 50.00740141778043)
    exp_ref = (1.2187371425849922, 1.8658881054282312,
               2.722419187672345, 3.6824386945999814)
    star_prefix = (1.75, 5.06, 15.83, 50.00)
    exp_prefix = (1.21, 1.86, 2.72, 3.68)
    err = 0.0
    ok = True
    for p, sr, er, sp, ep in zip(ps, star_ref, exp_ref, star_prefix,
                                 exp_prefix):
        ms, me = m_star(p), m_exp(p)
        err = max(err, abs(ms - sr), abs(me - er))
        ok &= abs(ms - sr) <= 5e-3 and abs(me - er) <= 5e-3
        # and the printed two-decimal prefixes agree with the table
        ok &= math.floor(ms * 100) / 100 == sp
        ok &= math.floor(me * 100) / 100 == ep
    elapsed = time.perf_counter() - t0
    report(capsys, 1, ok, f"max table error {err:.2e} (tol 5e-3)",
           elapsed, 1.0)


def test_acceptance_02_constants(capsys):
    t0 = time.perf_counter()
    vals = (c_const(3, 0), c_const(5, 0), c_const(2, 0))
    refs = (4.4634, 5.699, 3.694)
    err = max(abs(v - r) for v, r in zip(vals, refs))
    elapsed = time.perf_counter() - t0
    report(capsys, 2, err <= 1e-3,
           f"c30={vals[0]:.6f} c50={vals[1]:.6f} c20={vals[2]:.6f} "
           f"max error {err:.2e} (tol 1e-3)", elapsed, 0.1)


def test_acceptance_03_threshold_round_trip(capsys):
    t0 = time.perf_counter()
    ms = np.linspace(1.0, 50.0, 200)
    err = max(abs(m_star(p_star(float(m))) - float(m)) for m in ms)
    elapsed = time.perf_counter() - t0
    report(capsys, 3, err <= 1e-10,
           f"max |m_star(p_star(m)) - m| = {err:.2e} (tol 1e-10)",
           elapsed, 0.1)


def test_acceptance_04_delta_grid(capsys):
    t0 = time.perf_counter()
    ps = np.linspace(0.02, 0.98, 40)
    ms = np.linspace(1.0, 50.0, 40)
    worst = math.inf
    pairs = 0
    for m in ms:
        p_min = p_star(float(m))
        for p in ps:
            if p < p_min:
                continue
            res = delta_grid_check(float(p), float(m), resolution=200)
            worst = min(worst, res.min_value)
            pairs += 1
    # identity residual on random points
    rng = np.random.default_rng(4)
    cs = rng.uniform(1e-3, 1.0 - 1e-3, 10_000)
    us = rng.uniform(-1.0 - cs - 0.5, 3.0)
    pr = rng.uniform(1e-3, 1.0 - 1e-3, 10_000)
    mr = rng.uniform(1.0, 10.0, 10_000)
    resid = float(np.max(np.abs(
        delta_piecewise(us, cs, pr, mr)
        - delta_positive_part_form(us, cs, pr, mr))))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and resid <= 1e-12
    report(capsys, 4, ok,
           f"{pairs} (p,m) pairs, grid min {worst:.2e} (floor -1e-12), "
           f"identity residual {resid:.2e} (tol 1e-12)", elapsed, 30.0)


def test_acceptance_05_enumeration(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    checks = 0
    for n in (2, 3, 4, 6):
        vecs = rng.uniform(0.2, 2.0, size=(25, n))
        for coeffs in vecs:
            for p in (0.1, 0.3, 0.5, 0.7):
                res = enumeration_check(p, m_star(p), list(coeffs))
                worst = max(worst, res.max_violation)
                checks += 1
    elapsed = time.perf_counter() - t0
    report(capsys, 5, worst <= 1e-10,
           f"{checks} enumerations, max violation {worst:.2e} (tol 1e-10)",
           elapsed, 120.0)


def test_acceptance_06_exactness(capsys):
    t0 = time.perf_counter()
    ps = np.linspace(0.02, 0.34, 20)
    worst_gap = -math.inf
    found = 0
    for p in ps:
        w = exactness_witness(float(p), 0.9 * m_star(float(p)))
        if w is not None and w.gap < -1e-12:
            found += 1
            worst_gap = max(worst_gap, w.gap)
    elapsed = time.perf_counter() - t0
    report(capsys, 6, found == len(ps),
           f"{found}/{len(ps)} witnesses, weakest gap {worst_gap:.2e} "
           f"(must be < -1e-12)", elapsed, 60.0)


def test_acceptance_07_majorant(capsys):
    t0 = time.perf_counter()
    configs = ((0.1, 5), (0.3, 7), (0.5, 6), (0.7, 4))
    eq_err = 0.0
    major_def = 0.0
    concavity = -math.inf
    stability = 0.0
    for p, n in configs:
        d = carrier_sum(p, n, 1.0)
        origin, h = lattice_params(d)
        maj = lc_majorant(d)
        # equality at every lattice point
        k_lo = int(round((d.min_value - origin) / h))
        lat = origin + h * np.arange(k_lo, 1)
        for x in lat:
            tv = tail(d, float(x))
            eq_err = max(eq_err, abs(maj.value(float(x)) - tv) / tv)
        # majorizes everywhere on a dense grid
        xs = np.linspace(d.min_value - 0.5, d.max_value + 0.5, 2001)
        vals = np.array([maj.value(float(x)) for x in xs])
        tails = np.array([tail(d, float(x)) for x in xs])
        major_def = max(major_def, float(np.max(tails - vals)))
        # log-concavity of the hull along the lattice
        logs = np.log(np.array([maj.value(float(x)) for x in lat]))
        if logs.size >= 3:
            concavity = max(concavity, float(np.max(np.diff(logs, 2))))
        # interpolated hull stable under refinement doubling
        m64 = lin_lc_majorant(d, refine=64)
        m128 = lin_lc_majorant(d, refine=128)
        grid = np.linspace(d.min_value, d.max_value + h, 4001)
        diff = np.array([abs(m64.value(float(x)) - m128.value(float(x)))
                         for x in grid])
        stability = max(stability, float(np.max(diff)))
    elapsed = time.perf_counter() - t0
    ok = (eq_err <= 1e-12 and major_def <= 1e-12
          and concavity <= 1e-12 and stability <= 1e-9)
    report(capsys, 7, ok,
           f"lattice equality {eq_err:.2e}, majorization deficit "
           f"{major_def:.2e}, log-concavity 2nd diff {concavity:.2e}, "
           f"refinement drift {stability:.2e}", elapsed, 10.0)


def test_acceptance_08_bound_chain(capsys):
    t0 = time.perf_counter()
    configs = ((0.05, 4), (0.1, 6), (0.2, 5), (0.3, 8), (0.4, 6),
               (0.5, 4), (0.5, 10), (0.6, 7), (0.7, 5), (0.8, 6))
    chain_excess = -math.inf
    top_err = 0.0
    for p, n in configs:
        m = m_star(p)
        top = n * math.sqrt((1.0 - p) / p)
        xs = np.linspace(0.1, 0.97 * top, 12)
        reports = combined_bound_grid(p, m, xs, n=n, s_m=1.0)
        for r in reports:
            chain_excess = max(chain_excess,
                               r.raw["b_opt"] - r.raw["lc"],
                               r.raw["b_opt"] - r.raw["hoeffding"])
        # at the top lattice point the exponential bound is the exact tail
        d = carrier_sum(p, n, 1.0)
        hb = hoeffding_bound(p, n, 1.0, top)
        for other in (p ** n, tail(d, top)):
            top_err = max(top_err, abs(hb - other))
    elapsed = time.perf_counter() - t0
    ok = chain_excess <= 1e-12 and top_err <= 1e-12
    report(capsys, 8, ok,
           f"worst chain excess {chain_excess:.2e} (tol 1e-12), top-point "
           f"identity error {top_err:.2e} (tol 1e-12)", elapsed, 10.0)


def test_acceptance_09_supermartingale_mc(capsys):
    t0 = time.perf_counter()
    coeffs = (1.0, 1.3, 0.7, 1.1, 0.9, 1.2)
    results = []
    for i, rule in enumerate(("constant", "history_scaled",
                              "random_modulated")):
        cfg = SupermartingaleConfig(n=6, p=0.3, coeffs=coeffs, rule=rule,
                                    m=m_star(0.3))
        rep = supermartingale_mc(cfg, McConfig(seed=90 + i,
                                               n_paths=1_000_000))
        results.append(rep)
    elapsed = time.perf_counter() - t0
    ok = all(r.all_ok for r in results)
    margin = min(min(row.bound - row.cp_lower for row in r.rows)
                 for r in results)
    report(capsys, 9, ok,
           f"3 rules x 1e6 paths, min (bound - CP lower) = {margin:.2e}",
           elapsed, 300.0)


def test_acceptance_10_selfnorm(capsys):
    t0 = time.perf_counter()
    recomb_err = 0.0
    var_err = 0.0
    extra = (from_pairs([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]),
             from_pairs([(-2.0, 0.1), (0.0, 0.7), (1.0, 0.2)]))
    for d in ASYM_LAWS + extra:
        back = recombine(two_point_decomposition(d))
        assert back.n_atoms == d.n_atoms
        recomb_err = max(recomb_err,
                         float(np.max(np.abs(back.values - d.values))),
                         float(np.max(np.abs(back.masses - d.masses))))
        for g in (lambda x: x * x, lambda x: np.abs(x) ** 3):
            res = var_identity_check(d, g)
            var_err = max(var_err, res["err"])
    # essential sup of the conditioned symmetric statistic
    sym = from_pairs([(-1.0, 0.3), (-0.5, 0.1), (0.0, 0.2),
                      (0.5, 0.1), (1.0, 0.3)])
    n, p_sym = 7, 0.8
    rng = np.random.default_rng(10)
    x = sample(sym, rng, size=(200_000, n))
    habs = np.abs(x)
    zeros = habs <= 1e-12
    hat_abs_law = hat_dist(sym)
    fresh = np.abs(sample(hat_abs_law, rng, size=(int(zeros.sum()),)))
    habs[zeros] = fresh
    stat = selfnorm_stat("vhatsymm", x, hat_abs=habs, p=p_sym, m=1.0)
    sup_stat = float(np.max(np.abs(stat)))
    sup_limit = math.sqrt(n / p_sym)
    # MC tails of the asymmetric self-normalized sum against b_opt of its carrier
    p, m = 0.25, m_star(0.25)
    mc_ok = True
    for i, law in enumerate(ASYM_LAWS):
        cfg = SelfNormConfig(base=law, n=8, kind="vym", m=m, p=p)
        rep = selfnorm_bound_check(cfg, McConfig(seed=100 + i,
                                                 n_paths=1_000_000))
        mc_ok &= rep.all_ok
    elapsed = time.perf_counter() - t0
    ok = (recomb_err <= 1e-12 and var_err <= 1e-12
          and sup_stat <= sup_limit * (1.0 + 1e-12) and mc_ok)
    report(capsys, 10, ok,
           f"recombination error {recomb_err:.2e}, var-identity residual "
           f"{var_err:.2e}, sup stat {sup_stat:.4f} <= {sup_limit:.4f}, "
           f"3 laws x 1e6 paths within bound: {mc_ok}", elapsed, 300.0)
