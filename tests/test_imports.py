"""Every module-level import in ``src/repro`` is used by its module.

No linter ships with the toolchain, so this is the one check against
unused imports: parse each non-``__init__`` module with :mod:`ast` and
require every name bound by a top-level ``import`` / ``from … import``
(``from __future__`` excepted) to appear in the module as an
``ast.Name`` (attribute chains start with one), inside a quoted
annotation, or in ``__all__``.
"""

import ast
import re
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _imported_names(tree: ast.Module):
    """(bound name, line) for every top-level import statement."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module):
    """Names the module reads: ``ast.Name`` nodes, identifiers inside
    quoted annotations and the entries of ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_IDENTIFIER.findall(node.value))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str):
    """Names imported at module level that the module never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        f"{line}: {name}"
        for name, line in _imported_names(tree)
        if name not in used
    ]


def test_modules_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: str(p.relative_to(SRC))
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_rule_flags_unused_names():
    source = '''
from __future__ import annotations
import os.path
from typing import Any, Dict, List, Optional
__all__ = ["Dict"]
def f(x: "Optional[int]") -> None:
    """Any List."""
    return os.path.sep
'''
    assert unused_imports(source) == ["4: Any", "4: List"]
