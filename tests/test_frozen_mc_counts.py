"""Monte Carlo tail counts, frozen exactly.

Every entry is the list of row counts of one check at seed 3:

- `selfnorm_bound_check` for the four kinds at n = 4 and 10, on the
  CLI's asym3 and symm5 presets (vw, vym and vsymm on both, vhatsymm on
  symm5, the symmetric one) and, for vw, on a zero-mean law of 2000
  atoms and about as many harvest slices;
- `supermartingale_mc` for its three increment rules, the configurations
  of `verify --suite supermartingale`, and for the `constant` and
  `history_scaled` rules at n = 16, where every block outgrows the state
  tree of `verifier._simulate_block` and finishes path by path.

The checks run three blocks, one of them short, and the counts are
checked at ASYMTAIL_THREADS 1 and 2.  The file was written by the code
before the self-normalized tiles summed their rows as column adds
(`selfnorm._part_sums`), when every tile called `x.sum(axis=1)`; every
count matches it.  The two n = 16 entries were written later, by the
code before the supermartingale blocks stepped on the state tree, when
every step ran over all of a block's paths.

    PYTHONPATH=src python tests/test_frozen_mc_counts.py --write

rewrites tests/frozen_mc_counts.json from the code as it stands; only do
that for a change that is meant to move these counts.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from asymtail.dist import from_pairs
from asymtail.selfnorm import SelfNormConfig, selfnorm_bound_check
from asymtail.thresholds import m_star
from asymtail.verifier import McConfig, SupermartingaleConfig, supermartingale_mc

FROZEN = Path(__file__).with_name("frozen_mc_counts.json")
MC = McConfig(seed=3, n_paths=20_000, block=8_192)

ASYM3 = from_pairs([(-1.0, 2 / 3), (1.0, 1 / 6), (3.0, 1 / 6)])
SYMM5 = from_pairs([(-2.0, 0.1), (-1.0, 0.15), (0.0, 0.5), (1.0, 0.15), (2.0, 0.1)])


def _many_atoms(k: int, seed: int = 0):
    """Zero-mean, k atoms with |x| in [0.5, 2], half on each side."""
    rng = np.random.default_rng(seed)
    neg = -np.sort(rng.uniform(0.5, 2.0, k // 2))
    pos = np.sort(rng.uniform(0.5, 2.0, k - k // 2))
    wn, wp = rng.uniform(1.0, 2.0, neg.size), rng.uniform(1.0, 2.0, pos.size)
    wp *= (wn @ -neg) / (wp @ pos)
    total = wn.sum() + wp.sum()
    return from_pairs(zip(np.r_[neg, pos], np.r_[wn, wp] / total))


LAWS = {"asym3": ASYM3, "symm5": SYMM5, "many_atoms": _many_atoms(2000)}
# (kind, law, p, m) of each self-normalized check
SELFNORM = [
    ("vw", "asym3", None, 1.0),
    ("vw", "symm5", None, 1.0),
    ("vw", "many_atoms", None, 1.0),
    ("vym", "asym3", 0.25, m_star(0.25)),
    ("vym", "symm5", 0.4, m_star(0.4)),
    ("vsymm", "asym3", 0.5, 1.0),
    ("vsymm", "symm5", 0.6, 1.0),
    ("vhatsymm", "symm5", 0.5, 1.0),
]
SELFNORM_CASES = {f"{kind}_{law}_n{n}": SelfNormConfig(base=LAWS[law], n=n, kind=kind, p=p, m=m)
                  for kind, law, p, m in SELFNORM for n in (4, 10)}
COEFFS_16 = tuple(0.6 + 0.05 * i for i in range(16))
SUPERMARTINGALE_CASES = {
    "constant": SupermartingaleConfig(n=6, p=0.3, coeffs=(1.0,) * 6, rule="constant",
                                      m=m_star(0.3)),
    "history_scaled": SupermartingaleConfig(n=5, p=0.25, coeffs=(1.0, 1.2, 0.8, 1.1, 0.9),
                                            rule="history_scaled", m=m_star(0.25)),
    "random_modulated": SupermartingaleConfig(n=4, p=0.4, coeffs=(1.0, 0.5, 1.5, 1.0),
                                              rule="random_modulated", m=m_star(0.4)),
    # 2^16 up/down histories: every block, the short one too, leaves the
    # state tree for its paths part way through
    "constant_n16": SupermartingaleConfig(n=16, p=0.3, coeffs=COEFFS_16, rule="constant",
                                          m=m_star(0.3)),
    "history_scaled_n16": SupermartingaleConfig(n=16, p=0.6, coeffs=COEFFS_16,
                                                rule="history_scaled", m=m_star(0.6)),
}


def _counts(name: str) -> list:
    if name in SELFNORM_CASES:
        rep = selfnorm_bound_check(SELFNORM_CASES[name], MC)
    else:
        rep = supermartingale_mc(SUPERMARTINGALE_CASES[name], MC)
    return [r.count for r in rep.rows]


def snapshot() -> dict:
    return {name: _counts(name) for name in (*SELFNORM_CASES, *SUPERMARTINGALE_CASES)}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_counts_are_frozen(frozen, threads, monkeypatch):
    monkeypatch.setenv("ASYMTAIL_THREADS", threads)
    assert snapshot() == frozen


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_frozen_mc_counts.py --write")
    rows = [f" {json.dumps(name)}: {json.dumps(counts)}" for name, counts in snapshot().items()]
    FROZEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
