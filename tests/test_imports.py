"""Import hygiene: the package, bound queries, thresholds, the verifier
certificates and the CLI commands that run them load no scipy module.

scipy is imported inside the one function that uses it (the
Clopper-Pearson quantile of the Monte Carlo checks), so a process that
only imports asymtail, evaluates bounds, builds hulls, tabulates
thresholds or runs the certificate checks pays for numpy alone, and a
Monte Carlo check loads `scipy.special` but not `scipy.integrate`.
Roots come from `optimize.brent_root`, not `scipy.optimize`.  The checks
run in a fresh interpreter, since this test process has scipy loaded
already.
"""
import json
import subprocess
import sys

import pytest

PROBE = """
import contextlib, io, json, sys
import asymtail, asymtail.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import": scipy_modules()}
from asymtail.bounds import combined_bound_grid
for p in (0.3, 0.7):
    reports = combined_bound_grid(p, 1.0 if p >= 0.5 else asymtail.m_star(p),
                                  [0.5, 2.0, 6.0], n=40, s_m=1.0)
    seen[f"normal_dom at p={p}"] = reports[0].normal_dom is not None
    seen[f"bound at p={p}"] = scipy_modules()
# 0.1, 0.4 and 0.7 reach m_conj's m_one, m_zero and exact branches
for p in (0.1, 0.4, 0.7):
    asymtail.threshold_row(p)
    seen[f"threshold_row at p={p}"] = scipy_modules()
from asymtail import verifier
p = 0.3
m = asymtail.m_star(p)
verifier.delta_grid_check(p, m, 200)
verifier.enumeration_check(p, m, [1.0, 0.7, 0.4])
verifier.exactness_witness(0.2, 0.9 * asymtail.m_star(0.2))
verifier.schur_sweep(p, m, 1.5)
seen["certificates"] = scipy_modules()

def cli(name, *argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen[f"cli {name} exit"] = asymtail.cli.main([name, *argv])
    seen[f"cli {name}"] = scipy_modules()

cli("thresholds", "--p", "0.3")
cli("bound", "--p", "0.3", "--n", "10", "--s-m", "1", "--x", "2")
cli("majorant", "--p", "0.3", "--n", "10", "--kind", "linlc", "--eval", "1,2")
cli("verify", "--suite", "delta")
cli("selfnorm", "--kind", "vw", "--preset", "asym3", "--n", "4", "--paths", "1000")
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def probe():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_scipy(probe):
    assert probe["import"] == []


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_bound_query_loads_no_scipy(probe, p):
    assert probe[f"bound at p={p}"] == []


def test_probe_reaches_the_normal_dom_branch(probe):
    assert probe["normal_dom at p=0.3"] is False
    assert probe["normal_dom at p=0.7"] is True


@pytest.mark.parametrize("p", [0.1, 0.4, 0.7])
def test_threshold_row_loads_no_scipy(probe, p):
    assert probe[f"threshold_row at p={p}"] == []


def test_certificates_load_no_scipy(probe):
    assert probe["certificates"] == []


def test_cli_thresholds_loads_no_scipy(probe):
    assert probe["cli thresholds exit"] == 0
    assert probe["cli thresholds"] == []


@pytest.mark.parametrize("command", ["bound", "majorant", "verify"])
def test_cli_command_loads_no_scipy(probe, command):
    assert probe[f"cli {command} exit"] == 0
    assert probe[f"cli {command}"] == []


def test_monte_carlo_loads_scipy_special_only(probe):
    assert probe["cli selfnorm exit"] == 0
    loaded = probe["cli selfnorm"]
    assert "scipy.special" in loaded
    assert not any(m == "scipy.integrate" or m.startswith("scipy.integrate.")
                   for m in loaded)
