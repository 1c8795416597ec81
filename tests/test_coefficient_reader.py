"""One reader for a coefficient vector c.

`dist._coefficient_vector` is the only code that turns a caller's c
into an array: a nonempty 1-d float array with no negative entry, or
the calling module's own error.  Each entry that takes c keeps only its
own extra rules on top.  An AST scan of `src/asymtail` guards the rule:
no module converts a `coeffs` argument or a `.coeffs` attribute with a
numpy array constructor outside the reader.
"""
import ast
import pathlib
import textwrap

import numpy as np
import pytest

from asymtail.bounds import BoundError, combined_bound, combined_bound_grid, resolve_s_m
from asymtail.dist import DistError, weighted_bs_sum
from asymtail.verifier import (McConfig, SupermartingaleConfig, VerifyError, enumeration_check,
                               supermartingale_mc)

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "asymtail"
READER = "_coefficient_vector"
CONVERTERS = {"asarray", "array", "asanyarray", "ascontiguousarray", "atleast_1d"}


def _conversions(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every numpy array constructor called
    on a name `coeffs` or an attribute `.coeffs` in source."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in CONVERTERS
                and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
                and node.args):
            arg = node.args[0]
            if ((isinstance(arg, ast.Name) and arg.id == "coeffs")
                    or (isinstance(arg, ast.Attribute) and arg.attr == "coeffs")):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_no_module_converts_coefficients_outside_the_reader():
    outside = [(path.name, func, line)
               for path in sorted(PACKAGE.glob("*.py"))
               for func, line in _conversions(path.read_text())
               if func != READER]
    assert outside == []


def test_the_scan_sees_every_form_of_conversion():
    source = textwrap.dedent("""
        import numpy as np

        def f(coeffs, cfg):
            a = np.asarray(coeffs, dtype=float)
            b = np.array(cfg.coeffs)
            c = np.atleast_1d(coeffs)
            d = np.asarray(values)
            return a, b, c, d

        def _coefficient_vector(coeffs, error):
            return np.asarray(coeffs, dtype=float)
    """)
    assert _conversions(source) == [("f", 5), ("f", 6), ("f", 7), (READER, 12)]


ENTRIES = {
    "weighted_bs_sum": (DistError, lambda c: weighted_bs_sum(0.3, c)),
    "enumeration_check": (DistError, lambda c: enumeration_check(0.3, 1.2, c)),
    "resolve_s_m": (BoundError, lambda c: resolve_s_m(2.0, coeffs=c)),
    "combined_bound": (BoundError, lambda c: combined_bound(0.3, 1.2, 1.0, coeffs=c)),
    "combined_bound_grid": (BoundError, lambda c: combined_bound_grid(0.3, 1.2, [1.0], coeffs=c)),
    "supermartingale_mc": (VerifyError, lambda c: supermartingale_mc(
        SupermartingaleConfig(n=2, p=0.3, coeffs=c, rule="constant"), McConfig(n_paths=1000))),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("coeffs,match", [
    ([[1.0], [1.0, 2.0]], "coefficients must be a 1-d sequence"),
    (["a"], "coefficients must be a 1-d sequence"),
    (np.ones((2, 2)), "coefficients must be a 1-d sequence"),
    ([], "coefficients must be a 1-d sequence"),
    ([1.0, -1.0], "coefficients must be >= 0"),
], ids=["ragged", "text", "square", "empty", "negative"])
def test_every_entry_raises_its_own_error(entry, coeffs, match):
    error, call = ENTRIES[entry]
    with pytest.raises(error, match=match):
        call(coeffs)
