"""No module of the package imports a name that it does not use.

This is a linter's unused-import rule on the standard library's `ast`. An import
whose lines say `noqa` is exempt, and so is the package `__init__`, whose imports
are the public surface.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "embednoise"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py")


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each name the source imports and never reads."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "noqa" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_a_leftover_import():
    source = ("from __future__ import annotations\n\nimport json\nimport os.path\n"
              "from math import erfc, sqrt  # noqa: F401\n\n\ndef f():\n    return os.path.sep\n")
    assert unused_imports(source) == ["line 3: json"]
