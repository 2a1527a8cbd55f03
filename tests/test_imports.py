"""Every import in the package is used: a name bound by an import statement
is read somewhere in the scope that imports it (the module for a top-level
import, the function for a local one), or listed in the module's
``__all__``. ``from __future__`` imports are exempt.

Every definition in the modules the program runs is used: each top-level
function and class is read by code in those modules, exported or a script
entry point, and each method and property is read as an attribute there."""

import ast
import collections
import pathlib
import tomllib

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


# ---------------------------------------------------------------------------
# reachability: the modules the program runs define nothing it never uses

# The oracles and checks in verify.py exist to exercise the other modules,
# so its own definitions are not held to the rule and its reads reach nothing.
PROGRAM = sorted(p for p in SRC.glob("*.py") if p.name != "verify.py")

# Definitions that stay although no program module reads them, and why.
REACHED_FROM_OUTSIDE = {
    "DetectionOutput.to_json_dict":
        "perfbench's tracer reads it from the class dict to wrap it "
        "(perfbench/tracer.py TARGETS)",
}


def _entry_points():
    """'module.function' of every [project.scripts] entry of the package."""
    doc = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())
    return {target.split(":")[0].removeprefix("bevlab.") + "."
            + target.split(":")[1]
            for target in doc["project"]["scripts"].values()}


def _reads(node):
    """How often code under `node` reads each name, and each attribute."""
    names, attrs = collections.Counter(), collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
    return names, attrs


def unreachable(sources, entry_points=()):
    """Sorted names of the definitions in `sources` (module name -> source)
    that no code outside the definition itself reads: top-level functions
    and classes ("name") that are not read as a name or attribute, listed in
    an ``__all__`` or given as "module.name" in `entry_points`; and the
    methods and properties of those classes ("Class.name") that are not read
    as an attribute. Dunder methods are exempt."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    names, attrs = collections.Counter(), collections.Counter()
    exported = set()
    for tree in trees.values():
        n, a = _reads(tree)
        names += n
        attrs += a
        exported |= _exported(tree)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            n, a = _reads(node)
            if (names[node.name] - n[node.name] + attrs[node.name]
                    - a[node.name] == 0 and node.name not in exported
                    and f"{module}.{node.name}" not in entry_points):
                found.append(node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for meth in node.body:
                if (isinstance(meth, ast.FunctionDef)
                        and not meth.name.startswith("__")
                        and attrs[meth.name] == _reads(meth)[1][meth.name]):
                    found.append(f"{node.name}.{meth.name}")
    return sorted(found)


def test_checker_finds_an_unreachable_definition():
    sources = {
        "a": ("__all__ = ['exported']\n"
              "def exported(): return helper()\n"
              "def helper(): return 1\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def main(): pass\n"
              "class K:\n"
              "    def __init__(self): self.used()\n"
              "    def used(self): return 0\n"
              "    @property\n"
              "    def unused(self): return self.unused\n"),
        "b": "from .a import K\nK()\n",
    }
    assert unreachable(sources, {"a.main"}) == ["K.unused", "recursive"]


def test_program_modules_define_only_what_they_use():
    found = unreachable({p.stem: p.read_text() for p in PROGRAM},
                        _entry_points())
    assert sorted(set(found) - set(REACHED_FROM_OUTSIDE)) == []
    # an allowlisted name that the program reads again leaves the list
    assert set(REACHED_FROM_OUTSIDE) <= set(found)
