"""Every import in the package, its tests and the benchmark is used.

Names are matched by an AST scan: an import binds a name, and the module must
read that name somewhere (a dotted access `np.x` reads `np`). `__init__.py`
files are skipped because their imports are re-exports, and `__future__`
imports bind nothing, and an import whose line says `# noqa: F401` is kept on
purpose (the benchmark imports `msam.cli` only to time it). The package's
re-exports are checked against `msam.__all__` instead. A second scan checks
that every private module-level function, class or constant of the package
is read somewhere in the package, so a refactor leaves no unused helper. A
third checks the same of every private method of a class and every
`self.<attr>` the package stores, so no state is kept that nothing reads. A
fourth checks that every public method and annotated class field of the
package is read in the package or the benchmark, so no return form or result
field is kept that only tests read. A fifth checks the same of every public
module-level function, class and constant. A sixth checks that every
parameter with a default is passed by some call in the package or the
benchmark, so no option is kept that only tests set.
"""

import ast
from pathlib import Path

import pytest

import msam

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in (ROOT / "src" / "msam", ROOT / "tests", ROOT / "bench")
               for p in d.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    lines = source.splitlines()
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read and "# noqa: F401" not in lines[line - 1]]


def test_scan_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import a.b\nfrom x import y, z as w\nnp.zeros(a.b.c + w)\n"
              "import kept  # noqa: F401  (imported for its side effect)\n")
    assert unused_imports(source) == ["line 2: os", "line 5: y"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_lists_exactly_the_reexports():
    tree = ast.parse((ROOT / "src" / "msam" / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(msam.__all__) == sorted(names + ["__version__"])


def definitions(tree: ast.Module) -> set[str]:
    """The names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def private_definitions(tree: ast.Module) -> set[str]:
    """The `_name`s a module defines at its top level (dunders are not private)."""
    return {name for name in definitions(tree)
            if name.startswith("_") and not name.startswith("__")}


def public_definitions(tree: ast.Module) -> set[str]:
    """The names without a leading underscore a module defines at its top level."""
    return {name for name in definitions(tree) if not name.startswith("_")}


def names_read(tree: ast.Module) -> set[str]:
    """Every name a module loads, bare (`_x`) or as an attribute (`harness._x`)."""
    nodes = list(ast.walk(tree))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_private_scan_flags_only_unread_definitions():
    tree = ast.parse("_A = 1\n_B: int = 2\n__all__ = []\nC = 3\n"
                     "def _f():\n    return _A + m._g()\nclass _K:\n    pass\n"
                     "def _g():\n    _B = 3\n")
    assert private_definitions(tree) == {"_A", "_B", "_f", "_K", "_g"}
    assert private_definitions(tree) - names_read(tree) == {"_B", "_f", "_K"}


def test_public_scan_flags_only_unread_definitions():
    tree = ast.parse("A = 1\nB: int = 2\n_C = 3\n__all__ = ['D']\n"
                     "def d():\n    return A + m.e()\nclass K:\n    pass\ndef e():\n    pass\n")
    assert public_definitions(tree) == {"A", "B", "d", "K", "e"}
    assert public_definitions(tree) - names_read(tree) == {"B", "d", "K"}


# Public definitions that only tests read, with which tests do.
DEFINED_FOR_TESTS = {
    "shapley_exact": "tests/test_acceptance.py",
    "relative_gain": "tests/test_acceptance.py",
    "load_dataset": "tests/test_data.py and tests/test_fuzz.py",
}


def test_every_public_definition_is_read():
    # `__init__.py` only re-exports, and its `__all__` strings are no reads
    package = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "msam").glob("*.py"))
               if p.name != "__init__.py"]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    defined = set().union(*map(public_definitions, package))
    assert len(defined) > 50  # the scan sees the package
    read = set().union(*map(names_read, package + bench))
    assert sorted(defined - read) == sorted(DEFINED_FOR_TESTS)


def test_every_private_definition_is_read():
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "msam").glob("*.py"))]
    defined = set().union(*map(private_definitions, trees))
    assert len(defined) > 50  # the scan sees the package
    assert sorted(defined - set().union(*map(names_read, trees))) == []


def class_members(tree: ast.Module) -> set[str]:
    """The private methods of a module's classes and the `self.<attr>`s it stores."""
    nodes = list(ast.walk(tree))
    methods = {f.name for c in nodes if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, ast.FunctionDef) and f.name.startswith("_")
               and not f.name.startswith("__")}
    stored = {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
              and isinstance(n.value, ast.Name) and n.value.id == "self"}
    return methods | stored


def attributes_loaded(tree: ast.Module) -> set[str]:
    """Every attribute a module reads; a store (`self.x = 1`) is no read."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_member_scan_flags_only_unread_members():
    tree = ast.parse("class K:\n    def __init__(self):\n        self.a, self.b = 1, 2\n"
                     "        other.c = 3\n    def _f(self):\n        return self.a\n"
                     "    def _g(self):\n        return self._f()\n    def h(self):\n        pass\n")
    assert class_members(tree) == {"a", "b", "_f", "_g"}
    assert class_members(tree) - attributes_loaded(tree) == {"b", "_g"}


def test_every_private_method_and_stored_attribute_is_read():
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "msam").glob("*.py"))]
    members = set().union(*map(class_members, trees))
    assert len(members) > 20  # the scan sees the package
    assert sorted(members - set().union(*map(attributes_loaded, trees))) == []


def public_members(tree: ast.Module) -> set[str]:
    """`Class.name` for each public method of a module's classes and each
    field they annotate in their body. A NamedTuple's fields are left out:
    unpacking reads them by position, which no name in the source shows."""
    members = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            named_tuple = any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                      and not named_tuple):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members.add(f"{cls.name}.{name}")
    return members


def members_read(tree: ast.Module) -> set[str]:
    """Every attribute a module loads and every string it holds, such as an
    `__all__` entry or the name of a patched method."""
    return attributes_loaded(tree) | {n.value for n in ast.walk(tree)
                                      if isinstance(n, ast.Constant) and isinstance(n.value, str)}


# Public members that only the frozen guarantee suite reads, with where it does.
READ_ONLY_BY_TESTS = {
    "RunRecord.final_params": "tests/test_acceptance.py:149",
    "RunRecord.datasets": "tests/test_acceptance.py:184 and :213",
}


def test_public_member_scan_flags_only_unread_members():
    tree = ast.parse("class K:\n    a: int\n    b: int = 0\n    c = 1\n"
                     "    def f(self):\n        return self.a\n    def g(self):\n        pass\n"
                     "    def _h(self):\n        pass\n    def __len__(self):\n        return 0\n"
                     "patch(K, 'g')\nclass T(NamedTuple):\n    x: int\n")
    assert public_members(tree) == {"K.a", "K.b", "K.f", "K.g"}
    assert {m for m in public_members(tree)
            if m.partition(".")[2] not in members_read(tree)} == {"K.b", "K.f"}


def test_every_public_member_is_read():
    package = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "msam").glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    members = set().union(*map(public_members, package))
    assert len(members) > 100  # the scan sees the package
    read = set().union(*map(members_read, package + bench))
    unread = sorted(m for m in members if m.partition(".")[2] not in read)
    assert unread == sorted(READ_ONLY_BY_TESTS)


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None, set[str]]]:
    """(function, parameter, position, named parameters) for each parameter
    with a default of every function a module defines, nested ones included:
    positional ones with their position in a call, keyword-only ones with
    None, and `**kwargs` as `**name`. A method's `self` takes no position,
    and `__init__` is named by its class, which is what a call names."""
    found = []

    def visit(node: ast.AST, cls: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, cls)
                continue
            args = child.args
            method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
            positional = (args.posonlyargs + args.args)[1 if method else 0:]
            name = cls.name if method and child.name == "__init__" else child.name
            named = {a.arg for a in positional + args.kwonlyargs}
            first = len(positional) - len(args.defaults)
            found.extend((name, a.arg, first + i, named) for i, a in enumerate(positional[first:]))
            found.extend((name, a.arg, None, named)
                         for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            if args.kwarg:
                found.append((name, f"**{args.kwarg.arg}", None, named))
            visit(child, None)

    visit(tree, None)
    return found


def calls_by_name(trees: list[ast.Module]) -> dict[str, list[ast.Call]]:
    """Every call in the modules, by the name it calls: `f(...)` and `x.f(...)` both name f."""
    calls: dict[str, list[ast.Call]] = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, param: str, position: int | None, named: set[str]) -> bool:
    """Whether `call` may pass `param`: by keyword, by position, through a
    `*args` or `**kwargs` splat, or, for `**name`, by a keyword that names no
    parameter."""
    keywords = {k.arg for k in call.keywords}
    if None in keywords:
        return True
    if param.startswith("**"):
        return bool(keywords - named)
    if param in keywords:
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def unpassed(package: list[ast.Module], callers: list[ast.Module]) -> list[str]:
    """`function.parameter` for each defaulted parameter no call in `callers` passes."""
    calls = calls_by_name(callers)
    return sorted(f"{name}.{param}" for tree in package
                  for name, param, position, named in defaulted_parameters(tree)
                  if not any(passes(c, param, position, named) for c in calls.get(name, [])))


def test_parameter_scan_flags_only_unpassed_defaults():
    tree = ast.parse("def f(a, b=1, *, c=2, d, **kw):\n    pass\n"
                     "def g(x=0, y=0):\n    def h(z=0):\n        pass\n"
                     "class K:\n    def __init__(self, w=0):\n        pass\n"
                     "    def m(self, v=0, u=0):\n        pass\n"
                     "f(0, 1, d=3)\nf(0, d=3, e=4)\ng(*xs)\nK(w=1)\nk.m(1)\n")
    assert [p[:3] for p in defaulted_parameters(tree)] == [
        ("f", "b", 1), ("f", "c", None), ("f", "**kw", None), ("g", "x", 0), ("g", "y", 1),
        ("h", "z", 0), ("K", "w", 0), ("m", "v", 0), ("m", "u", 1)]
    assert unpassed([tree], [tree]) == ["f.c", "h.z", "m.u"]


# Parameters with a default that only tests pass, with the tests that do.
PASSED_ONLY_BY_TESTS = {
    "main.argv": "tests/test_cli.py, test_fuzz.py, test_golden.py and test_acceptance.py",
    "preset.**overrides": "tests/conftest.py, test_golden.py and test_harness.py",
    "shapley_exact.variant": "tests/test_shapley.py",
}


def test_every_defaulted_parameter_is_passed():
    package = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "msam").glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    assert sum(map(len, map(defaulted_parameters, package))) > 15  # the scan sees the package
    assert unpassed(package, package + bench) == sorted(PASSED_ONLY_BY_TESTS)
