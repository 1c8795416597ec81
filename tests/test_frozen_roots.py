"""The results that rest on the quadratic root, frozen bit for bit.

Every value here is the repr of a float (or of a result dataclass, whose
repr holds its floats' reprs), so a match is a match of bits:

- `b_opt` (value, t_opt, raw) on 20 random carriers at 16 x each, one x
  at a time (the float path) and all 16 at once (the array path): below
  the support, at the mean, in the bulk, at and between atoms, at the
  top atom and in and past its band;
- `enumeration_check` on 30 draws in each mode, as the certify workload
  draws them (p in [0.02, 0.98], 2-12 coefficients uniform on [0.2, 2],
  m = m_star(p));
- `delta_grid_check` on 20 (p, m) pairs, m from 0.9 to 1.5 m_star(p).

The file was written by the code before `optimize._falling_root` was
shared by `b_opt` and the cube certificate, and every entry matches it
exactly.  Two-sided checks can move where a piece's quadratic has a
negative discriminant: its clamped root is now a candidate where the old
code fell back to the piece's end, whose value the reflected cube's
polynomial can overstate by roundoff.  About 4 in 1000 such draws moved,
down by at most 1e-13 relative; none of the 30 here does.

    PYTHONPATH=src python tests/test_frozen_roots.py --write

rewrites tests/frozen_roots.json from the code as it stands; only do
that for a change that is meant to move these numbers.
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from asymtail.bounds import b_opt, carrier_sum
from asymtail.thresholds import m_star
from asymtail.verifier import delta_grid_check, enumeration_check

FROZEN = Path(__file__).with_name("frozen_roots.json")


def carrier_cases() -> list[tuple]:
    """(p, n, s_m, xs) for 20 carriers: p in [0.02, 0.98], n in 1..60,
    s_m log-uniform on [0.01, 100], and 16 x each."""
    rng = np.random.default_rng(1)
    out = []
    for _ in range(20):
        p = float(rng.uniform(0.02, 0.98))
        n = int(rng.integers(1, 61))
        s_m = float(10.0 ** rng.uniform(-2.0, 2.0))
        d = carrier_sum(p, n, s_m)
        v, top = d.values, d.max_value
        mean = d.mean()
        atoms = v[rng.integers(0, len(v), 3)]
        k = int(rng.integers(0, max(len(v) - 1, 1)))
        mid = 0.5 * (v[k] + v[min(k + 1, len(v) - 1)])
        band = top + 1e-12 * max(1.0, abs(top))
        xs = ([d.min_value - 1.0, mean] + rng.uniform(mean, top, 6).tolist()
              + atoms.tolist() + [mid, top * (1.0 - 1e-13), top, band, top + 2.0 * (band - top)])
        out.append((p, n, s_m, [float(x) for x in xs]))
    return out


def enum_cases() -> list[tuple]:
    """(p, m, coeffs) for 30 certify-like draws, 2 to 12 coefficients."""
    rng = np.random.default_rng(2)
    out = []
    for i in range(30):
        p = float(rng.uniform(0.02, 0.98))
        out.append((p, m_star(p), rng.uniform(0.2, 2.0, size=2 + i % 11)))
    return out


def delta_cases() -> list[tuple]:
    """(p, m) for 20 delta checks, m from 0.9 to 1.5 m_star(p)."""
    rng = np.random.default_rng(3)
    return [(p, m_star(p) * f) for p, f in zip(rng.uniform(0.02, 0.98, 20).tolist(),
                                              rng.uniform(0.9, 1.5, 20).tolist())]


def _b_opt_entry(p, n, s_m, xs) -> dict:
    d = carrier_sum(p, n, s_m)
    one = [repr((r.value, r.t_opt, r.raw)) for r in (b_opt(d, x) for x in xs)]
    grid = b_opt(d, np.array(xs))
    return {"float": one, "array": [repr(row) for row in zip(
        grid.value.tolist(), grid.t_opt.tolist(), grid.raw.tolist())]}


def snapshot() -> dict:
    enum = enum_cases()
    return {
        "b_opt": [_b_opt_entry(*case) for case in carrier_cases()],
        "right_tail": [repr(enumeration_check(*case)) for case in enum],
        "two_sided": [repr(enumeration_check(*case, two_sided=True)) for case in enum],
        "delta": [repr(delta_grid_check(p, m)) for p, m in delta_cases()],
    }


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


@pytest.mark.parametrize("i", range(20))
def test_b_opt_is_frozen_on_both_paths(frozen, i):
    got = _b_opt_entry(*carrier_cases()[i])
    want = frozen["b_opt"][i]
    assert got["float"] == want["float"]
    assert got["array"] == want["array"]
    # the float path is the array path bit for bit
    assert got["float"] == got["array"]


def test_one_sided_checks_are_frozen(frozen):
    got = [repr(enumeration_check(*case)) for case in enum_cases()]
    assert got == frozen["right_tail"]


def test_two_sided_checks_are_frozen(frozen):
    got = [repr(enumeration_check(*case, two_sided=True)) for case in enum_cases()]
    assert got == frozen["two_sided"]


def test_delta_checks_are_frozen(frozen):
    assert [repr(delta_grid_check(p, m)) for p, m in delta_cases()] == frozen["delta"]


def test_frozen_cases_cover_what_they_claim(frozen):
    # some b_opt entries are 1 (x at or below the mean) and some 0 (past the
    # top band), and the rest lie strictly between
    values = [float(e.split(",")[0][1:]) for c in frozen["b_opt"] for e in c["float"]]
    assert {0.0, 1.0} <= set(values) and any(0.0 < v < 1.0 for v in values)
    assert all(math.isfinite(v) for v in values)
    assert len(frozen["right_tail"]) == len(frozen["two_sided"]) == 30


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_frozen_roots.py --write")
    FROZEN.write_text(json.dumps(snapshot(), indent=1) + "\n")
