"""Every import in the package is used: a name bound by an import statement
is read somewhere in the scope that imports it (the module for a top-level
import, the function for a local one), or listed in the module's
``__all__``. ``from __future__`` imports are exempt."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bevlab"
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _exported(tree):
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    """(line, name) of every imported name that its scope never reads."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    exported = _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        scope = parent[node]
        while not isinstance(scope, SCOPES):
            scope = parent[scope]
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if isinstance(scope, ast.Module):
            read |= exported
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from a import b as c\n"
              "def f():\n"
              "    import json\n"
              "    return sys.argv\n"
              "__all__ = ['c']\n")
    assert unused_imports(source) == [(2, "os"), (5, "json")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
