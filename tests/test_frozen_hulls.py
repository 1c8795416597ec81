"""Both tail hulls on laws that take many elimination rounds, frozen bit
for bit.

Every entry is the repr of a list of floats, so a match is a match of
bits: `hull_x` and `hull_logq` of `lc_majorant` and `lin_lc_majorant` on
laws on the integer lattice 0, 1, 2, ... (their lattice is inferred):

- heavy top: the masses of iid_sum(bs(0.3), n) with the top mass set to
  1e-3, renormalized.  The binomial tail's log is concave and falls
  under the chord to the top atom, so the point hull sheds about one
  corner a round from that end;
- zigzag: masses exp(-((j - k/2) / (k/10))^2) + 1e-3 (j mod 2),
  normalized.  Every other cell is lighter, and both hulls drop those
  cells over tens of rounds;
- flat with a far heavy top: k equal masses and a heavy atom `gap`
  steps past them; the uniform tail's log is concave and lies under the
  bridge to the top atom.

The rounds that each law takes, at the sizes used here, are checked
below, so that the frozen values keep covering long runs of rounds.

The file was written by the code before both hulls shared one
elimination-round routine (`majorant._hull_rounds`), when the point hull
finished with a monotone chain after 32 rounds and the interpolated hull
bridged back over dropped stretches; every entry matches it exactly.

    PYTHONPATH=src python tests/test_frozen_hulls.py --write

rewrites tests/frozen_hulls.json from the code as it stands; only do
that for a change that is meant to move these hulls.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from asymtail import majorant
from asymtail.dist import FiniteDist, bs, iid_sum
from asymtail.majorant import lc_majorant, lin_lc_majorant

FROZEN = Path(__file__).with_name("frozen_hulls.json")


def heavy_top(n: int) -> FiniteDist:
    m = iid_sum(bs(0.3), n).masses.copy()
    m[-1] = 1e-3
    m /= m.sum()
    return FiniteDist(np.arange(float(len(m))), m)


def zigzag(k: int) -> FiniteDist:
    j = np.arange(k)
    m = np.exp(-((j - k / 2) / (k / 10)) ** 2) + 1e-3 * (j % 2)
    return FiniteDist(j.astype(float), m / m.sum())


def flat_far_top(k: int, gap: int, top: float) -> FiniteDist:
    v = np.append(np.arange(float(k)), k - 1.0 + gap)
    return FiniteDist(v, np.append(np.full(k, (1.0 - top) / k), top))


LAWS = {
    "heavy_top_300": lambda: heavy_top(300),
    "heavy_top_3000": lambda: heavy_top(3000),
    "zigzag_200": lambda: zigzag(200),
    "zigzag_600": lambda: zigzag(600),
    "flat_far_top_300": lambda: flat_far_top(300, 30, 0.2),
    "flat_far_top_400": lambda: flat_far_top(400, 400, 0.5),
}


def _hulls(d: FiniteDist) -> dict:
    out = {}
    for kind, build in (("lc", lc_majorant), ("linlc", lin_lc_majorant)):
        maj = build(d)
        out[kind] = {"hull_x": repr(maj.hull_x.tolist()),
                     "hull_logq": repr(maj.hull_logq.tolist())}
    return out


def snapshot() -> dict:
    return {name: _hulls(law()) for name, law in LAWS.items()}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


@pytest.mark.parametrize("name", LAWS)
def test_hulls_are_frozen(frozen, name):
    assert _hulls(LAWS[name]()) == frozen[name]


@pytest.mark.parametrize("name,lc_least,linlc_least", [
    ("heavy_top_3000", 90, 90),
    ("zigzag_600", 60, 70),
    ("flat_far_top_300", 70, 70),
    ("flat_far_top_400", 390, 390),
])
def test_laws_take_many_rounds(monkeypatch, name, lc_least, linlc_least):
    rounds = []
    count = majorant._hull_rounds

    def counted(n, off, cols=(), bridge=None):
        calls = []
        step = lambda *a: calls.append(1) or off(*a)  # noqa: E731
        out = count(n, step, cols, bridge)
        rounds.append(len(calls) - 1)  # the last call drops nothing
        return out

    monkeypatch.setattr(majorant, "_hull_rounds", counted)
    d = LAWS[name]()
    lc_majorant(d)
    lin_lc_majorant(d)
    assert rounds[0] >= lc_least and rounds[1] >= linlc_least, rounds


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_frozen_hulls.py --write")
    FROZEN.write_text(json.dumps(snapshot(), indent=1) + "\n")
