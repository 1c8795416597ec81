"""Session set-up shared by the test modules.

`pythonpath` in pyproject.toml lets the tests import the package from a
bare `python -m pytest`; the CLI and import-probe subprocesses that some
tests start read PYTHONPATH instead, so this checkout's `src` goes first
on it for the whole session.

`guide_reads_index` is the one property of `dist._GuideTable`, checked
on atom tables in test_dist and on the reciprocating map's pair tables
in test_selfnorm.
"""
import os
from pathlib import Path

import numpy as np
import pytest

from asymtail.dist import _uniforms

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def _guide_reads_index(table, rows: int, entries: int, raw: np.ndarray) -> None:
    """table, a guide table of `rows` rows built for `entries` entries,
    has the least 2^s buckets a row with rows 2^s >= max(4096, 8 entries);
    a bucket stores table.index at its first and last output's uniform
    where the two agree, and -1 - row where they differ; and on every row,
    the first and last output of every bucket and the outputs raw read
    exactly table.index at their uniforms, with their low 11 bits (no part
    of a uniform) as they are, set or cleared, flat or as a 2-d block, with
    rows given or (one row) not.  A read fills the out it is given and
    leaves the outputs as they are."""
    s = table._bits
    least = max(4096, 8 * entries)
    assert table._table.size == rows << s and least <= table._table.size < 2 * least
    first = np.arange(1 << s, dtype=np.uint64) << np.uint64(64 - s)
    last = first | np.uint64(2 ** (64 - s) - 1)
    row = np.arange(rows).repeat(1 << s)
    lo = table.index(row, _uniforms(np.tile(first, rows)))
    hi = table.index(row, _uniforms(np.tile(last, rows)))
    assert np.array_equal(table._table, np.where(lo == hi, lo, -1 - row))

    outputs = np.tile(np.concatenate((first, last, np.asarray(raw, dtype=np.uint64))), rows)
    row = np.arange(rows).repeat(outputs.size // rows)
    want = table.index(row, _uniforms(outputs))
    low = np.uint64(2 ** 11 - 1)
    for bits in (outputs, outputs | low, outputs & ~low):
        for shape in (bits.shape, (rows, -1)):
            block = bits.reshape(shape)
            kept = block.copy()
            out = np.empty(block.shape, dtype=np.intp)
            assert table.from_bits(block, out, row.reshape(block.shape).copy()) is out
            assert np.array_equal(out.reshape(-1), want)
            assert np.array_equal(block, kept)
            if rows == 1:
                assert np.array_equal(table.from_bits(block, np.empty_like(out)).reshape(-1),
                                      want)


@pytest.fixture(scope="session")
def guide_reads_index():
    return _guide_reads_index
