"""Every import in the package is used: a name bound by an import statement
is read somewhere in the scope that imports it (the module for a top-level
import, the function for a local one), or listed in the module's
``__all__``. ``from __future__`` imports are exempt.

Every definition in the modules the program runs is used: each top-level
function and class is read by code in those modules, exported or a script
entry point, and each method and property is read as an attribute there.
A name read only as some other object's attribute passes that static
check, so a second check runs `bevlab run` in every mode and a fit, and
requires every method and property of the program's classes to run."""

import ast
import collections
import functools
import importlib
import json
import pathlib
import tomllib
import types

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
    assert found == []


# ---------------------------------------------------------------------------
# the same rule at run time: every method and property of the program's
# classes runs in `bevlab run` (all modes) or a fit

# `bevlab run` configs that together use every VT, query-init and attention
# mode, at sizes that run in milliseconds
RUN_SIZES = {
    "model": {"channels": 4, "n_heights": 1, "n_points": 4, "n_layers": 1,
              "n_heads": 1, "queries_per_group": 1},
    "grid": {"x_range": [-8, 8], "y_range": [-8, 8], "z_range": [-5, 3],
             "cells": [8, 8]},
    "scene": {"n_boxes": 1, "image_size": [16, 16], "strides": [4, 8],
              "n_cameras": 1, "fixed_dims": [3.0, 1.5, 1.5]},
}


def _program_members():
    """(class, name) of every method, property and classmethod defined by a
    class of the program modules; dunder methods are exempt."""
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    for path in PROGRAM:
        module = importlib.import_module(f"bevlab.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name, attr in vars(cls).items():
                    if not name.startswith("__") and isinstance(attr, kinds):
                        yield cls, name


def _recording(attr, mark):
    """`attr` (a function, property or class/static method) with every call
    through it first calling mark()."""
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark()
            return fn(*args, **kwargs)
        return wrapper

    if isinstance(attr, property):
        return property(wrap(attr.fget), attr.fset and wrap(attr.fset))
    if isinstance(attr, (classmethod, staticmethod)):
        return type(attr)(wrap(attr.__func__))
    return wrap(attr)


def test_program_members_all_run(tmp_path, monkeypatch):
    from bevlab import cli, pipeline
    from bevlab.decoder import ATTENTION_MODES

    ran, members = set(), set()
    for cls, name in _program_members():
        key = f"{cls.__name__}.{name}"
        members.add(key)
        monkeypatch.setattr(cls, name, _recording(
            vars(cls)[name], lambda key=key: ran.add(key)))

    mode_lists = (pipeline.VT_MODES, pipeline.QUERY_INIT_MODES, ATTENTION_MODES)
    for i in range(max(map(len, mode_lists))):
        vt, query_init, attention = (m[i % len(m)] for m in mode_lists)
        doc = dict(RUN_SIZES, model=dict(
            RUN_SIZES["model"], vt_mode=vt, query_init=query_init,
            attention_mode=attention))
        config = tmp_path / f"config_{i}.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["run", str(config), "--out",
                         str(tmp_path / f"out_{i}")]) == 0
    pipeline_cfg, scene_cfg = cli.build_configs(cli.load_config(config))
    pipeline.fit_generators(pipeline_cfg, pipeline.init_params(pipeline_cfg, 0),
                            [cli.make_scene(scene_cfg, seed=0)], steps=2,
                            lr=1e-3)
    assert sorted(members - ran) == []
