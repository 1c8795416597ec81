"""Every public name in the package has a caller.

An AST scan of `src/asymtail` lists the public module-level functions
and classes, and the public methods of those classes.  Each must be
referenced somewhere in the library (outside its own definition and
outside `__init__.py`, which re-exports everything), in `scripts/` or
in `perfbench/`.  A reference is a name, an attribute, or a part of a
dotted-identifier string constant such as "asymtail.bounds" or "b_opt":
the benchmark tracer names the functions it wraps as strings.  Prose
(docstrings, messages) does not count, and neither do tests, so a name
that only tests call fails here unless the allowlist below says why it
stays.
"""
import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asymtail"
CALLER_DIRS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

# name -> why it stays without a caller in the library, scripts or benchmark
ALLOWED = {
    "delta_piecewise": "ACCEPTANCE 4 checks the region-dispatched table against "
                       "the positive-part form on random points",
    "recombine": "ACCEPTANCE 10 mixes the two-point decomposition back into the law",
    "var_identity_check": "ACCEPTANCE 10 checks the conditioned-law variance identity",
    "p_tilde": "the reference that tests invert k_tilde against",
    "p_star_upper": "the other root of p_star's quadratic, for the Vieta check on p_star",
}


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants of a module and its defs."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(word, line) for every name, attribute and dotted-identifier string."""
    docs = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs and _DOTTED.fullmatch(node.value)):
            out += [(w, node.lineno) for w in node.value.split(".")]
    return out


def _public_definitions():
    """(module, qualified name, name, first line, last line) per public def."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield path.name, node.name, node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield (path.name, f"{node.name}.{item.name}", item.name,
                               item.lineno, item.end_lineno)


def _caller_files():
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            if path != PACKAGE / "__init__.py":
                yield path


@pytest.fixture(scope="module")
def references():
    """path -> list of (word, line), over the caller trees."""
    return {path: _references(ast.parse(path.read_text(), filename=str(path)))
            for path in _caller_files()}


def _uncalled(references):
    """Qualified public names with no reference outside their own definition."""
    sites = {}
    for path, refs in references.items():
        for word, line in refs:
            sites.setdefault(word, []).append((path, line))
    return [qual for module, qual, name, first, last in _public_definitions()
            if all(path == PACKAGE / module and first <= line <= last
                   for path, line in sites.get(name, ()))]


def test_every_public_name_has_a_caller(references):
    uncalled = [q for q in _uncalled(references) if q.rpartition(".")[2] not in ALLOWED]
    assert uncalled == [], (
        "public names that only tests call; delete them, or add each to "
        "ALLOWED with the reason it stays")


def test_allowlist_names_exist_and_lack_a_caller(references):
    # an entry whose name gained a caller, or was deleted, is stale
    uncalled = {q.rpartition(".")[2] for q in _uncalled(references)}
    assert sorted(set(ALLOWED) - uncalled) == []


def test_scan_sees_definitions_and_string_references(references):
    defined = {qual for _, qual, *_ in _public_definitions()}
    assert {"b_opt", "FiniteDist", "FiniteDist.from_json",
            "ReciprocatingMap.reciprocate"} <= defined
    # perfbench/tracer.py names the functions it wraps only as strings
    tracer = {word for word, _ in references[ROOT / "perfbench" / "tracer.py"]}
    assert {"reciprocate", "selfnorm_stat", "golden_section"} <= tracer
