"""Import hygiene: the package and the bound path load no scipy module.

scipy is imported inside the functions that use it (root finding,
quadrature, the Clopper-Pearson quantile), so a process that only
imports asymtail, or only evaluates bounds, pays for numpy alone.  Each
check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""
import json
import subprocess
import sys

import pytest

PROBE = """
import json, sys
import asymtail, asymtail.cli
seen = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
from asymtail.bounds import combined_bound_grid
for p in (0.3, 0.7):
    reports = combined_bound_grid(p, 1.0 if p >= 0.5 else asymtail.m_star(p),
                                  [0.5, 2.0, 6.0], n=40, s_m=1.0)
    seen[f"normal_dom at p={p}"] = reports[0].normal_dom is not None
    seen[f"bound at p={p}"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
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
