"""Every module of the package uses every name it imports, and none uses
a bare ``assert``.

``__init__.py`` is left out of the import check: it imports names to
re-export them.  A name counts as used when it is read anywhere in the
module, annotations included, or named in a string annotation.  An
invariant check raises ``AssertionError`` explicitly, so that ``python -O``
keeps it and the CLI still exits 3 when it fails.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import robustmatch

PACKAGE = Path(robustmatch.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line; __future__ imports left out."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(annotation) if isinstance(n, ast.Name))
    return used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "rotations.py", "shift_analysis.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_bare_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements, which python -O strips, at lines {lines}"
