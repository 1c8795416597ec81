"""Every public name in the package has a caller, and every private
name a reference.

An AST scan of `src/asymtail` lists the public module-level functions
and classes, the public methods of those classes, and the module-level
UPPER_CASE constants (a single name assigned at module level).  Each must be
referenced somewhere in the library (outside its own definition and
outside `__init__.py`, which re-exports everything), in `scripts/` or
in `perfbench/`.  Prose (docstrings, messages) does not count, and
neither do tests, so a name that only tests call fails here unless the
allowlist below says why it stays.  A reference from inside a
definition that itself has no caller does not count either, so dead
code cannot keep other dead code alive.

The private (single-underscore) module-level functions and classes, and
the private methods of every module-level class, need a reference in
the same places by the same rule; a private method counts as referenced
by an attribute of its name on any receiver.  So a refactor that stops
calling a helper fails here until the helper is deleted.

A module-level name is referenced by a name, an attribute, or a part of
a dotted-identifier string constant such as "asymtail.bounds" or
"b_opt": the benchmark tracer names the functions it wraps as strings.

A method is referenced by an attribute whose receiver is its class.
Receivers are typed from what the source states: `self` and `cls` in a
method, the class itself (`FiniteDist.from_json`), annotated parameters,
and names bound to a class call, to a call of a function or method
whose return annotation names a class, or to another typed name.  A
receiver that the scan cannot type (say, a loop variable) counts only
for a method name that a single package class defines.  The tracer's
("module.Class", "method") string pairs count for that class.
"""
import ast
import pathlib
import re
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "asymtail"
CALLER_DIRS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

# name -> why it stays without a caller in the library, scripts or benchmark
ALLOWED = {
    "delta_piecewise": "ACCEPTANCE 4 checks the region-dispatched table against "
                       "the positive-part form on random points",
    "delta_positive_part_form": "ACCEPTANCE 4's reference for the region-dispatched table; "
                                "delta_grid_check takes its powers of c once instead",
    "recombine": "ACCEPTANCE 10 mixes the two-point decomposition back into the law",
    "two_point_decomposition": "ACCEPTANCE 10 decomposes a law to recombine it; the vym "
                               "check decomposes the map it already built instead",
    "var_identity_check": "ACCEPTANCE 10 checks the conditioned-law variance identity",
    "p_tilde": "the reference that tests invert k_tilde against",
    "p_star_upper": "the other root of p_star's quadratic, for the Vieta check on p_star",
}


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")

# receiver types: a frozenset of package class names, plus UNTYPED where the
# scan cannot tell; OTHER (empty) is typed, but as no package class
UNTYPED = "?"
OTHER = frozenset()
UNKNOWN = frozenset({UNTYPED})


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


class PackageIndex:
    """The package's classes, their public methods and the return types
    that functions and methods declare."""

    def __init__(self, trees):
        self.methods: dict[str, set[str]] = {}
        self.returns: dict[str, ast.AST | None] = {}
        self.method_returns: dict[tuple[str, str], ast.AST | None] = {}
        for tree in trees.values():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.methods[node.name] = set()
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            if not item.name.startswith("_"):
                                self.methods[node.name].add(item.name)
                            self.method_returns[node.name, item.name] = item.returns
                elif isinstance(node, ast.FunctionDef):
                    self.returns[node.name] = node.returns

    def owners(self, method: str) -> list[str]:
        return [c for c, names in self.methods.items() if method in names]

    def annotation(self, node) -> frozenset:
        """The package classes an annotation names at its top level
        (C, "C", C | None, module.C); OTHER where it names none."""
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return OTHER
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return (self.annotation(node.left) | self.annotation(node.right)) - UNKNOWN
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return frozenset({name}) if name in self.methods else OTHER


class MethodReferences(ast.NodeVisitor):
    """(receiver type, attribute, line) of every attribute in one file,
    and of every ("module.Class", "method") string pair."""

    def __init__(self, index: PackageIndex, tree: ast.Module):
        self.index = index
        self.local_classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
        self.owner: dict[int, str] = {}
        self.out: list[tuple[frozenset, str, int]] = []
        env: dict[str, frozenset] = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    env[(alias.asname or alias.name).partition(".")[0]] = OTHER
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name not in index.methods and alias.name not in index.returns:
                        env[alias.asname or alias.name] = OTHER
        self.envs: list[dict] = []
        self.envs.append(self._bind(tree.body, env))
        self.visit(tree)

    # -- typing ------------------------------------------------------------
    def type_of(self, node) -> frozenset:
        env = self.envs[-1]
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.index.methods:
                return frozenset({node.id})
            if node.id in self.index.returns or node.id in self.local_classes:
                return OTHER
            return UNKNOWN
        if isinstance(node, ast.Attribute) and node.attr in self.index.methods:
            return frozenset({node.attr})    # module.Class
        if isinstance(node, ast.IfExp):
            return self.type_of(node.body) | self.type_of(node.orelse)
        if isinstance(node, ast.Call):
            return self._returned(node.func)
        if isinstance(node, (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Dict,
                             ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
                             ast.BinOp, ast.Compare, ast.BoolOp)):
            return OTHER
        return UNKNOWN

    def _returned(self, func) -> frozenset:
        """The type a call of func returns."""
        index = self.index
        if isinstance(func, ast.Name):
            if func.id in self.envs[-1]:
                return UNKNOWN
            if func.id in index.methods:
                return frozenset({func.id})
            if func.id in index.returns:
                return index.annotation(index.returns[func.id])
            return OTHER if func.id in self.local_classes else UNKNOWN
        if isinstance(func, ast.Attribute):
            receiver = self.type_of(func.value)
            if func.attr in index.methods:
                return frozenset({func.attr})    # module.Class(...)
            found = [index.annotation(index.method_returns[c, func.attr])
                     for c in receiver - UNKNOWN if (c, func.attr) in index.method_returns]
            if found:
                return frozenset().union(*found)
            if receiver == OTHER and func.attr in index.returns:
                return index.annotation(index.returns[func.attr])   # module.function(...)
        return UNKNOWN

    def _bind(self, body, env: dict) -> dict:
        """env updated with the names that body binds, not entering nested
        definitions; a name bound twice takes both types."""
        env = dict(env)
        typed: dict[str, list] = {}     # name -> its values and annotations
        untyped: set[str] = set()       # loop, with, unpacking and walrus targets
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                typed.setdefault(node.targets[0].id, []).append(node.value)
                stack.append(node.value)
                continue
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                typed.setdefault(node.target.id, []).append(node)
                if node.value is not None:
                    stack.append(node.value)
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                untyped.add(node.id)
            stack.extend(ast.iter_child_nodes(node))
        for name in untyped:
            env[name] = UNKNOWN
        self.envs.append(env)
        for _ in range(2):   # a binding may read another one
            for name, values in typed.items():
                types = [self.index.annotation(v.annotation) if isinstance(v, ast.AnnAssign)
                         else self.type_of(v) for v in values]
                env[name] = frozenset().union(*types, UNKNOWN if name in untyped else OTHER)
        self.envs.pop()
        return env

    # -- visiting ------------------------------------------------------------
    def visit_ClassDef(self, node):
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.owner[id(item)] = node.name
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        for dec in node.decorator_list:
            self.visit(dec)
        env = dict(self.envs[-1])
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        owner = self.owner.get(id(node))
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        for i, arg in enumerate(args):
            if i == 0 and owner and not static:
                env[arg.arg] = frozenset({owner}) if owner in self.index.methods else OTHER
            else:
                env[arg.arg] = self.index.annotation(arg.annotation)
        for arg in (node.args.vararg, node.args.kwarg):
            if arg is not None:
                env[arg.arg] = UNKNOWN
        self.envs.append(self._bind(node.body, env))
        for stmt in node.body:
            self.visit(stmt)
        self.envs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        env = dict(self.envs[-1])
        for arg in node.args.args:
            env[arg.arg] = UNKNOWN
        self.envs.append(env)
        self.visit(node.body)
        self.envs.pop()

    def visit_Attribute(self, node):
        self.out.append((self.type_of(node.value), node.attr, node.lineno))
        self.generic_visit(node)

    def visit_Tuple(self, node):
        elts = node.elts
        if (len(elts) == 2 and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                                   for e in elts)
                and _DOTTED.fullmatch(elts[0].value)):
            cls = elts[0].value.rpartition(".")[2]
            if cls in self.index.methods:
                self.out.append((frozenset({cls}), elts[1].value, node.lineno))
        self.generic_visit(node)


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _package_trees() -> dict[str, ast.Module]:
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _constant_name(node) -> str | None:
    """The name a module-level statement binds as an UPPER_CASE constant."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        target = node.target
    else:
        return None
    if isinstance(target, ast.Name) and _CONSTANT.fullmatch(target.id):
        return target.id
    return None


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(trees):
    """(module, qualified name, name, owner class, first line, last line)
    of the public and private definitions; a private method has no owner
    class, so that any attribute of its name counts."""
    for module, tree in trees.items():
        for node in tree.body:
            constant = _constant_name(node)
            if constant is not None:
                yield module, constant, constant, None, node.lineno, node.end_lineno
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or _is_private(node.name):
                yield module, node.name, node.name, None, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    qual = f"{node.name}.{item.name}"
                    if _is_private(item.name):
                        yield module, qual, item.name, None, item.lineno, item.end_lineno
                    elif not item.name.startswith("_") and not node.name.startswith("_"):
                        yield module, qual, item.name, node.name, item.lineno, item.end_lineno


def _caller_files():
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            if path != PACKAGE / "__init__.py":
                yield path


def scan(trees, callers, allowed=ALLOWED):
    """Qualified names of the package trees with no reference in
    the caller trees ({key: module tree}) outside their own definition
    and outside the definitions found uncalled; a package module's key is
    its stem, so its references fall in its definitions' spans."""
    index = PackageIndex(trees)
    words, methods = [], []
    for key, tree in callers.items():
        words += [(key, w, line) for w, line in _references(tree)]
        methods += [(key, t, attr, line) for t, attr, line in MethodReferences(index, tree).out]
    defs = list(_definitions(trees))
    spans = {qual: (module, first, last) for module, qual, _, _, first, last in defs}

    def counts(types: frozenset, attr: str, owner: str) -> bool:
        return owner in types or (UNTYPED in types and index.owners(attr) == [owner])

    uncalled: set[str] = set()
    while True:
        dead = [spans[q] for q in uncalled if q.rpartition(".")[2] not in allowed]

        def live(key, line, own):
            return not any(key == m and a <= line <= b for m, a, b in dead + [own])

        now = set()
        for module, qual, name, owner, first, last in defs:
            own = (module, first, last)
            if owner is None:
                hit = any(w == name and live(k, line, own) for k, w, line in words)
            else:
                hit = any(a == name and counts(t, a, owner) and live(k, line, own)
                          for k, t, a, line in methods)
            if not hit:
                now.add(qual)
        if now == uncalled:
            return sorted(uncalled)
        uncalled = now


@pytest.fixture(scope="module")
def uncalled():
    trees = _package_trees()
    callers = {(path.stem if path.parent == PACKAGE else str(path)): _parse(path)
               for path in _caller_files()}
    return scan(trees, callers)


def test_every_public_name_has_a_caller(uncalled):
    public = [q for q in uncalled if not _is_private(q.rpartition(".")[2])]
    assert [q for q in public if q.rpartition(".")[2] not in ALLOWED] == [], (
        "public names that only tests call; delete them, or add each to "
        "ALLOWED with the reason it stays")


def test_every_private_name_has_a_reference(uncalled):
    assert [q for q in uncalled if _is_private(q.rpartition(".")[2])] == [], (
        "private names that nothing outside the tests references; delete them")


def test_allowlist_names_exist_and_lack_a_caller(uncalled):
    # an entry whose name gained a caller, or was deleted, is stale
    assert sorted(set(ALLOWED) - {q.rpartition(".")[2] for q in uncalled}) == []


def test_scan_sees_definitions_and_string_references():
    trees = _package_trees()
    defined = {qual for _, qual, *_ in _definitions(trees)}
    assert {"b_opt", "FiniteDist", "FiniteDist.from_json",
            "ReciprocatingMap.reciprocate", "DEFAULT_TOL", "SQRT2_MINUS_1",
            "_block_simulator", "_GuideTable", "ReciprocatingMap._slice_index"} <= defined
    assert not {"_RULES", "_ENUM_T_COUNT", "ReciprocatingMap.__init__"} & defined
    # perfbench/tracer.py names the functions it wraps only as strings
    tracer = _parse(ROOT / "perfbench" / "tracer.py")
    assert {"reciprocate", "selfnorm_stat", "golden_section"} <= {w for w, _ in
                                                                   _references(tracer)}
    pairs = MethodReferences(PackageIndex(trees), tracer).out
    assert (frozenset({"ReciprocatingMap"}), "reciprocate") in {(t, a) for t, a, _ in pairs}


def _scan_source(package: str, caller: str) -> list[str]:
    trees = {"mod": ast.parse(textwrap.dedent(package))}
    return scan(trees, {"mod": trees["mod"], "caller": ast.parse(textwrap.dedent(caller))},
                allowed={})


PACKAGE_SOURCE = """
    class Law:
        def to_obj(self) -> dict:
            return {"atoms": self.atoms()}

        def atoms(self):
            return []

        def mean(self) -> float:
            return 0.0

        @staticmethod
        def parse(text) -> "Law":
            return Law()


    class Hull:
        def to_obj(self) -> dict:
            return {}

        def value(self, x):
            return x


    class Part:
        def dist(self) -> Law:
            return Law()


    def build() -> Hull:
        return Hull()


    def dead_helper(law: Law):
        return law.mean()
"""


def test_method_names_shared_with_other_receivers_do_not_count():
    # Hull.to_obj is called; Law.to_obj and Law.atoms only share names
    # with it, with a string and with an attribute of another class
    caller = """
        import mod

        class Map:
            def __init__(self, d):
                self.dist = d
                self.atoms = ["atoms"]

        def main(text):
            h = mod.build() if text else mod.Hull()
            law = mod.Law.parse(text)
            return h.to_obj(), h.value(1.0), obj["atoms"], law
    """
    assert _scan_source(PACKAGE_SOURCE, caller) == [
        "Law.atoms", "Law.mean", "Law.to_obj", "Part", "Part.dist", "dead_helper"]


def test_typed_and_untyped_receivers():
    caller = """
        from mod import Law, Part, build

        def main(law: Law, parts):
            for part in parts:
                part.dist()            # untyped, but only Part defines dist
            out = law
            return out.to_obj(), build().value(2.0), Law.parse("").mean(), Part
    """
    # law.to_obj() calls Law.atoms through self; dead_helper stays uncalled
    assert _scan_source(PACKAGE_SOURCE, caller) == ["Hull.to_obj", "dead_helper"]


def test_module_constants_need_a_reader():
    package = """
        LIMIT = 3
        COLUMNS: tuple = ("a", "b")
        ORPHAN_COLUMNS = ("a", "b")
        DEAD_LIMIT = 4
        _PRIVATE = 1
        lowercase = 2

        def limit():
            return LIMIT

        def dead():
            return DEAD_LIMIT
    """
    caller = """
        import mod

        def main():
            return mod.limit(), mod.COLUMNS
    """
    # a constant that only an uncalled function reads is dead with it
    assert _scan_source(package, caller) == ["DEAD_LIMIT", "ORPHAN_COLUMNS", "dead"]


def test_private_names_need_a_reference():
    package = """
        def _used():
            return 1

        def _left_behind():
            return _used()

        class Map:
            def _pairs(self):
                return self._start()

            def _start(self):
                return 0

        class _Table:
            def __call__(self):
                return 0

        def build():
            return _used(), _Table()
    """
    caller = """
        import mod

        def main():
            return mod.build(), mod.Map()
    """
    # _start's only reference is in the unreferenced _pairs
    assert _scan_source(package, caller) == ["Map._pairs", "Map._start", "_left_behind"]
