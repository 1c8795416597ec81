"""Every name the benchmark tracer patches still exists.

`perfbench/tracer.py` replaces asymtail functions in the module
namespaces their callers read them from.  A cleanup that drops or
renames one of those names would only surface as a crash of
`perfbench/run.py --trace 1`; these tests catch it in the suite.
"""
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _function_sites():
    for name, _, sites in tracer.SPANS:
        for path, attr in sites:
            yield name, path, attr
    for key, sites in tracer.COUNTED:
        for path, attr in sites:
            yield key, path, attr
    yield "carrier_sum", "asymtail.bounds", "carrier_sum"


@pytest.mark.parametrize("name,path,attr", list(_function_sites()))
def test_patched_function_resolves(name, path, attr):
    assert callable(getattr(tracer._resolve(path), attr, None)), f"{name}: {path}.{attr}"


@pytest.mark.parametrize("name,path", [(name, path) for name, _, path in tracer.CP_SPANS])
def test_patched_beta_ppf_resolves(name, path):
    assert callable(tracer._resolve(path).beta_dist.ppf), name


def test_install_then_remove_restores_every_site():
    sites = [(path, attr) for _, path, attr in _function_sites()]
    sites += [(path, "beta_dist") for _, _, path in tracer.CP_SPANS]
    before = [getattr(tracer._resolve(path), attr) for path, attr in sites]
    t = tracer.Tracer()
    try:
        t.install()
        assert all(getattr(tracer._resolve(path), attr) is not orig
                   for (path, attr), orig in zip(sites, before))
    finally:
        t.remove()
    assert all(getattr(tracer._resolve(path), attr) is orig
               for (path, attr), orig in zip(sites, before))
