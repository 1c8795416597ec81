"""Tests for scripts/bench_record.py: the claim rule it records per
workload and metric."""
import pathlib
import runpy

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def bench_record():
    return runpy.run_path(str(SCRIPTS / "bench_record.py"))


BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]  # q3 - q1 = 1.75


@pytest.mark.parametrize("head,better,met", [
    # better in every pair by 5, far past the spread
    ([b + 5.0 for b in BASE], "higher", True),
    # the same runs, for a metric where lower is better
    ([b + 5.0 for b in BASE], "lower", False),
    ([b - 5.0 for b in BASE], "lower", True),
    # better in 9 of 10 pairs (one tie) and past the spread
    ([b + 5.0 for b in BASE[:9]] + [BASE[9]], "higher", True),
    # better in 8 of 10 pairs: too few, however large the gain
    ([b + 50.0 for b in BASE[:8]] + BASE[8:], "higher", False),
    # better in every pair, but the medians differ by 1.5 < q3 - q1
    ([b + 1.5 for b in BASE], "higher", False),
])
def test_claim_rule(bench_record, head, better, met):
    assert bench_record["claim_rule_met"](BASE, head, better) is met
