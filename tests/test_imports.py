"""Import hygiene: no asymtail code path loads a scipy module.

numpy is the only runtime dependency.  The package import, bound
queries, thresholds, the verifier certificates and every CLI command,
the Monte Carlo ones (`verify --suite supermartingale`, `selfnorm`)
included, pay for numpy alone: roots come from `optimize.brent_root`,
not `scipy.optimize`, and the Clopper-Pearson limit from
`clopper_pearson`'s binomial tail sum, not `scipy.special`; only a
Monte Carlo check imports that module.  The thread pool's module,
`concurrent.futures`, is loaded only when a Monte Carlo check first
spreads its blocks over threads.  The checks run in a fresh
interpreter, since this test process has scipy loaded already.
"""
import json
import subprocess
import sys

import pytest

PROBE = """
import contextlib, io, json, os, sys
import asymtail, asymtail.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {"import": scipy_modules(), "pool module after import": "concurrent.futures" in sys.modules}
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

def cli(*argv, key=None):
    key = key or argv[0]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        seen[f"cli {key} exit"] = asymtail.cli.main(list(argv))
    seen[f"cli {key}"] = scipy_modules()
    seen[f"pool module after {key}"] = "concurrent.futures" in sys.modules

cli("thresholds", "--p", "0.3")
cli("bound", "--p", "0.3", "--m", repr(m), "--n", "10", "--s-m", "1", "--x", "2")
cli("majorant", "--p", "0.3", "--n", "10", "--kind", "linlc", "--eval", "1,2")
cli("verify", "--suite", "delta")
seen["cp module before Monte Carlo"] = "asymtail.clopper_pearson" in sys.modules
# its four blocks of paths run on two threads
os.environ["ASYMTAIL_THREADS"] = "2"
cli("verify", "--suite", "supermartingale", key="verify --suite supermartingale")
seen["cp module after Monte Carlo"] = "asymtail.clopper_pearson" in sys.modules
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


@pytest.mark.parametrize("command", ["verify --suite supermartingale", "selfnorm"])
def test_monte_carlo_loads_no_scipy(probe, command):
    assert probe[f"cli {command} exit"] == 0
    assert probe[f"cli {command}"] == []


@pytest.mark.parametrize("step", ["import", "thresholds", "bound", "majorant", "verify"])
def test_no_thread_pool_module_before_a_parallel_check(probe, step):
    assert probe[f"pool module after {step}"] is False


def test_a_parallel_check_loads_the_thread_pool_module(probe):
    assert probe["pool module after verify --suite supermartingale"] is True


def test_only_monte_carlo_loads_the_cp_module(probe):
    assert probe["cp module before Monte Carlo"] is False
    assert probe["cp module after Monte Carlo"] is True
