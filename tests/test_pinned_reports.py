"""Bound reports and interpolated hulls, frozen to 1e-15 relative.

`combined_bound_grid` rows (every member, `b_opt_t`, `minimum` and
`argmin`) on ten carriers, with and without coefficients, p on both
sides of 1/2 and n from 4 to 600, and the `lin_lc_majorant` hull arrays
of those carriers and of three general lattice laws read as `--dist-file`
reads them (`FiniteDist.from_json`).  Any change to the arithmetic of
the bound path shows here.

A hull array is frozen by its length, up to 41 evenly spaced entries
(both ends included) and the correctly rounded sums (math.fsum) of its
finite entries and of its finite entries weighted by position, so a
hull of 1200 vertices takes a few hundred numbers.

    PYTHONPATH=src python tests/test_pinned_reports.py --write

rewrites tests/pinned_reports.json from the code as it stands; only do
that for a change that is meant to move these numbers.
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from asymtail.bounds import carrier_sum, combined_bound_grid, resolve_s_m
from asymtail.dist import FiniteDist
from asymtail.majorant import lin_lc_majorant
from asymtail.thresholds import m_star

PINNED = Path(__file__).with_name("pinned_reports.json")
RTOL = 1e-15
SAMPLES = 41

# (name, p, m, n, s_m, coefficient seed): a seed draws n coefficients
# uniform on [0.2, 2] in place of s_m
CARRIERS = [
    ("p0.3_n4", 0.3, None, 4, 1.0, None),
    ("p0.7_n7_coeffs", 0.7, None, 7, None, 1),
    ("p0.1_n12", 0.1, None, 12, 0.8, None),
    ("p0.5_n25_coeffs", 0.5, None, 25, None, 2),
    ("p0.85_n40", 0.85, 1.0, 40, 1.3, None),
    ("p0.02_n80", 0.02, None, 80, 1.7, None),
    ("p0.45_n150_coeffs", 0.45, 2.0, 150, None, 3),
    ("p0.62_n300", 0.62, 1.0, 300, 0.6, None),
    ("p0.2_n450_coeffs", 0.2, None, 450, None, 4),
    ("p0.95_n600", 0.95, None, 600, 1.1, None),
]

# general lattice laws, as a --dist-file holds them: holes, a step the
# smallest gap is a multiple of, and masses over many decades
LAWS = {
    "holey": '{"atoms": [{"v": -3.0, "p": 0.125}, {"v": -2.3, "p": 0.25}, '
             '{"v": -0.2, "p": 0.0625}, {"v": 0.5, "p": 0.3125}, {"v": 2.6, "p": 0.25}]}',
    "third_step": '{"atoms": [{"v": 0.0, "p": 0.4}, {"v": 1.5, "p": 0.3}, '
                  '{"v": 2.0, "p": 0.2}, {"v": 3.5, "p": 0.1}]}',
    "decades": json.dumps({"atoms": [{"v": 0.25 * k, "p": w} for k, w in zip(
        (0, 1, 2, 3, 5, 6, 8, 9, 12, 13, 14, 17, 20),
        (3e-9, 2e-5, 1e-3, 0.05, 0.2, 0.3, 0.2, 0.15, 0.06, 0.03, 0.008, 9.79897e-4, 1e-7))]}),
}


def carrier_inputs(p, m, n, s_m, seed):
    """(m, keyword arguments, carrier, xs) of one CARRIERS entry."""
    m = m_star(p) if m is None else m
    if seed is None:
        kw = {"n": n, "s_m": s_m}
    else:
        kw = {"coeffs": np.random.default_rng(seed).uniform(0.2, 2.0, n)}
    nn, sm, _ = resolve_s_m(m, s_m=kw.get("s_m"), n=kw.get("n"), coeffs=kw.get("coeffs"))
    d = carrier_sum(p, nn, sm)
    # below the mean, four points of the bulk and the far tail, the top
    # atom, and past it
    scale = math.sqrt(nn) * sm
    xs = [-0.5 * scale] + [z * scale for z in (0.3, 1.0, 2.0, 3.5, 5.0)]
    xs += [d.max_value, d.max_value + 0.5 * scale]
    return m, kw, d, xs


def _float(v):
    return None if v is None else float(v)


def summarize(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=float)
    idx = np.unique(np.linspace(0, len(a) - 1, SAMPLES).round().astype(int)) if len(a) else []
    fin = np.isfinite(a)
    return {"len": len(a), "values": [float(a[i]) for i in idx],
            "sum": math.fsum(a[fin]),
            "weighted_sum": math.fsum((a * np.arange(1, len(a) + 1))[fin])}


def hull_snapshot(d: FiniteDist) -> dict:
    maj = lin_lc_majorant(d)
    out = {f: summarize(getattr(maj, f))
           for f in ("hull_x", "hull_logq", "seg_q", "seg_beta", "seg_x0")}
    out["seg_is_arc"] = "".join("a" if s else "b" for s in maj.seg_is_arc)
    return out


def snapshot() -> dict:
    carriers = {}
    for name, p, m, n, s_m, seed in CARRIERS:
        m, kw, d, xs = carrier_inputs(p, m, n, s_m, seed)
        rows = [{"x": r.x, "b_opt": r.b_opt, "b_opt_t": r.b_opt_t, "lc": r.lc,
                 "lin_lc": r.lin_lc, "hoeffding": r.hoeffding,
                 "normal_dom": _float(r.normal_dom), "minimum": r.minimum,
                 "argmin": r.argmin, "raw": {k: float(v) for k, v in r.raw.items()}}
                for r in combined_bound_grid(p, m, xs, **kw)]
        carriers[name] = {"rows": rows, "hull": hull_snapshot(d)}
    laws = {name: hull_snapshot(FiniteDist.from_json(text)) for name, text in LAWS.items()}
    return {"carriers": carriers, "laws": laws}


def close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    if not (math.isfinite(want) and math.isfinite(got)):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= RTOL * abs(want)


def assert_matches(got, want, where=""):
    if isinstance(want, dict):
        assert set(got) == set(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert close(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def current():
    return snapshot()


@pytest.mark.parametrize("name", [c[0] for c in CARRIERS])
def test_bound_rows_are_pinned(name, pinned, current):
    assert_matches(current["carriers"][name]["rows"], pinned["carriers"][name]["rows"], name)


@pytest.mark.parametrize("name", [c[0] for c in CARRIERS])
def test_carrier_hull_is_pinned(name, pinned, current):
    assert_matches(current["carriers"][name]["hull"], pinned["carriers"][name]["hull"], name)


@pytest.mark.parametrize("name", list(LAWS))
def test_general_law_hull_is_pinned(name, pinned, current):
    assert_matches(current["laws"][name], pinned["laws"][name], name)


def test_pinned_file_covers_what_the_cases_claim(pinned):
    ps = [c[1] for c in CARRIERS]
    ns = [c[3] for c in CARRIERS]
    assert min(ps) < 0.5 < max(ps) and min(ns) == 4 and max(ns) == 600
    assert any(c[5] is None for c in CARRIERS) and any(c[5] is not None for c in CARRIERS)
    # the rows reach every member, and the hulls both segment kinds
    rows = [r for c in pinned["carriers"].values() for r in c["rows"]]
    assert any(r["normal_dom"] is not None for r in rows)
    assert {r["b_opt"] for r in rows} >= {0.0, 1.0}
    hulls = [c["hull"] for c in pinned["carriers"].values()] + list(pinned["laws"].values())
    assert all("a" in h["seg_is_arc"] and "b" in h["seg_is_arc"] for h in hulls)
    assert max(h["hull_x"]["len"] for h in hulls) > 2 * SAMPLES


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_pinned_reports.py --write")
    PINNED.write_text(json.dumps(snapshot(), indent=1) + "\n")
