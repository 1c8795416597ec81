"""Carrier laws, frozen bit for bit.

Every entry holds the sha256 of the bytes of `values` and of `masses`,
with `n_atoms` and `lattice`, of one lattice sum:

- `bounds.carrier_sum(p, n, 1.3)` at the 126 (p, n) points of the
  bound_grid (14) and bound_point (112) rank-1 lattices of perfbench;
- `carrier_sum(p, n, 1.3)` and `iid_sum(bs(p), n)` where the binomial
  window cuts: p in {0.01, 0.05, 0.5, 0.99}, n in {287, 3000, 10^5};
- `carrier_sum(p, 2 10^8, 1.3)` at p = 0.3 and 0.9, windows of about
  10^5 atoms taken over several product chunks;
- `iid_sum(st(p), n)` at p in {0.5, 0.99, 1 - 1e-6} and n in {10, 1000,
  3000}.  Near p = 1 these sums drop sub-normal masses between kept
  atoms, and carry no lattice.

The file was written by the code before every lattice sum's mass window
was cut by one helper (`dist._mass_window`), when the binomial window,
`_bs_sum` and `_lattice_power` each cut their own; every entry matches
it exactly.

    PYTHONPATH=src python tests/test_frozen_carriers.py --write

rewrites tests/frozen_carriers.json from the code as it stands; only do
that for a change that is meant to move these laws.
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from asymtail.bounds import carrier_sum
from asymtail.dist import FiniteDist, bs, iid_sum, st

FROZEN = Path(__file__).with_name("frozen_carriers.json")
S_M = 1.3


def rank1_lattice(size: int, generator: int) -> list[tuple[float, int]]:
    """The (p, n) points of perfbench's bound lattices: p in [0.02, 0.98]
    and n in [4, 600], log-spaced, at ((i + 1/2) / size, (i g mod size +
    1/2) / size)."""
    i = np.arange(size)
    u, v = (i + 0.5) / size, ((i * generator) % size + 0.5) / size
    p = 0.02 + (0.98 - 0.02) * u
    n = np.rint(np.exp(np.log(4) + np.log(600 / 4) * v)).astype(int)
    return list(zip(p.tolist(), n.tolist()))


def _cases() -> dict:
    cases = {}
    for group, size, gen in (("grid", 14, 5), ("point", 112, 69)):
        for i, (p, n) in enumerate(rank1_lattice(size, gen)):
            cases[f"{group}-{i}"] = lambda p=p, n=n: carrier_sum(p, n, S_M)
    for p in (0.01, 0.05, 0.5, 0.99):
        for n in (287, 3000, 100_000):
            cases[f"cut-carrier-{p}-{n}"] = lambda p=p, n=n: carrier_sum(p, n, S_M)
            cases[f"cut-bs-{p}-{n}"] = lambda p=p, n=n: iid_sum(bs(p), n)
    for p in (0.3, 0.9):
        cases[f"huge-{p}"] = lambda p=p: carrier_sum(p, 200_000_000, S_M)
    for p in (0.5, 0.99, 1.0 - 1e-6):
        for n in (10, 1000, 3000):
            cases[f"st-{p!r}-{n}"] = lambda p=p, n=n: iid_sum(st(p), n)
    return cases


CASES = _cases()


def _entry(d: FiniteDist) -> dict:
    return {"values": hashlib.sha256(d.values.tobytes()).hexdigest(),
            "masses": hashlib.sha256(d.masses.tobytes()).hexdigest(),
            "n_atoms": d.n_atoms,
            "lattice": None if d.lattice is None else list(d.lattice)}


def snapshot() -> dict:
    return {name: _entry(build()) for name, build in CASES.items()}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


def test_every_case_is_frozen(frozen):
    assert set(frozen) == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_carrier_is_frozen(frozen, name):
    assert _entry(CASES[name]()) == frozen[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_frozen_carriers.py --write")
    FROZEN.write_text(json.dumps(snapshot(), indent=1) + "\n")
