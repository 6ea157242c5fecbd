"""Every import in the package, its tests and the benchmark is used.

Names are matched by an AST scan: an import binds a name, and the module must
read that name somewhere (a dotted access `np.x` reads `np`). `__init__.py`
files are skipped because their imports are re-exports, and `__future__`
imports bind nothing, and an import whose line says `# noqa: F401` is kept on
purpose (the benchmark imports `msam.cli` only to time it). The package's
re-exports are checked against `msam.__all__` instead.
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
