"""Every name a module under src/entmesh imports is used in that module.

An AST scan, so it needs no linter: a module fails when it imports a name
that none of its expressions, annotations (string annotations included)
or ``__all__`` entries mention.  ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entmesh"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _names_in(node: ast.AST) -> set[str]:
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            # A string annotation such as "Optional[Receipt]".
            try:
                names |= _names_in(ast.parse(child.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


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
    used = {child.id for child in ast.walk(tree) if isinstance(child, ast.Name)}
    for annotation in _annotations(tree):
        used |= _names_in(annotation)
    used |= _exported(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


class TestScanner:
    def test_flags_unused_name(self):
        assert unused_imports("from typing import Mapping, Optional\nx: Optional[int] = None\n") == ["line 1: Mapping"]

    def test_flags_unused_module(self):
        assert unused_imports("import json\nimport os.path\nos.path.join('a')\n") == ["line 1: json"]

    def test_exempts_future_and_all(self):
        source = 'from __future__ import annotations\nfrom .x import A\n__all__ = ["A"]\n'
        assert unused_imports(source) == []

    def test_string_annotation_counts_as_use(self):
        source = 'from .node import Receipt\ndef f(r: "Receipt") -> "list[Receipt]":\n    return [r]\n'
        assert unused_imports(source) == []

    def test_package_found(self):
        assert PACKAGE / "wire.py" in MODULES
