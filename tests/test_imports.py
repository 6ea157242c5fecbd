"""Every import in the package, its tests and the benchmark is used.

Names are matched by an AST scan: an import binds a name, and the module must
read that name somewhere (a dotted access `np.x` reads `np`). `__init__.py`
files are skipped because their imports are re-exports, and `__future__`
imports bind nothing, and an import whose line says `# noqa: F401` is kept on
purpose (the benchmark imports `msam.cli` only to time it). The package's
re-exports are checked against `msam.__all__` instead. A second scan checks
that every private module-level function, class or constant of the package
is read somewhere in the package, so a refactor leaves no unused helper.
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


def private_definitions(tree: ast.Module) -> set[str]:
    """The `_name`s a module defines at its top level (dunders are not private)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


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


def test_every_private_definition_is_read():
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "msam").glob("*.py"))]
    defined = set().union(*map(private_definitions, trees))
    assert len(defined) > 50  # the scan sees the package
    assert sorted(defined - set().union(*map(names_read, trees))) == []
