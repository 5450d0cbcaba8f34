"""Every module of `src/vmorph` uses what it imports, and every function
reads the parameters it takes.

The checks need only the standard library: each parses a module with `ast`.
A name counts as used when the module reads it anywhere, in code or in an
annotation (a quoted one too). No module re-exports: a `# noqa: F401` does
not exempt an import. `__init__.py`, whose imports are the package's API, is
skipped by the import check. A parameter counts as read when its function's
body reads its name; `self`, `cls` and a name that starts with `_` are
exempt, the spelling of a parameter that a protocol passes and nothing
needs.
"""

import ast
from pathlib import Path

import pytest

SOURCES = Path(__file__).parent.parent / "src" / "vmorph"
MODULES = sorted(p.name for p in SOURCES.glob("*.py") if p.name != "__init__.py")


def _quoted_names(annotation: ast.expr) -> set[str]:
    """The names that the quoted parts of an annotation read."""
    return {n.id for c in ast.walk(annotation)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
            for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name)}


def unused_imports(text: str) -> list[str]:
    """The names that an import of `text` binds and nothing in it reads."""
    tree = ast.parse(text)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_quoted_names(node.annotation))
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            used.update(_quoted_names(node.returns))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda x: x[1])
            if name not in used and name != "*"]


def test_the_check_finds_an_unused_import():
    text = """from __future__ import annotations
from os import path, sep  # noqa: E501
import re
from typing import (  # noqa: F401
    Any)
from typing import Optional
import json as j
import os.path


def f(x: re.Pattern) -> "Optional[str]":
    import shutil
    return sep + j.dumps(x)
"""
    assert unused_imports(text) == ["line 2: path", "line 4: Any", "line 8: os",
                                    "line 12: shutil"]


@pytest.mark.parametrize("module", MODULES)
def test_a_module_uses_every_name_it_imports(module):
    assert unused_imports((SOURCES / module).read_text(encoding="utf-8")) == []


def unread_parameters(text: str) -> list[str]:
    """The parameters of each `def` and `lambda` in `text` whose body never
    reads them, `self`, `cls` and names that start with `_` aside."""
    unread = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, p.arg)
                   for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                   if p is not None and p.arg not in read and p.arg not in ("self", "cls")
                   and not p.arg.startswith("_")]
    return [f"line {line}: {name}" for line, name in sorted(unread)]


def test_the_check_finds_an_unread_parameter():
    text = """class C:
    def f(self, a, b, *args, c, _d, **kw):
        def g(x):
            return b + x
        return kw, g(lambda y, *_: 0)

    @classmethod
    def h(cls, e, f=1):
        del e
        e = f
"""
    assert unread_parameters(text) == ["line 2: a", "line 2: args", "line 2: c",
                                       "line 5: y", "line 8: e"]


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCES.glob("*.py")))
def test_a_function_reads_every_parameter_it_takes(module):
    assert unread_parameters((SOURCES / module).read_text(encoding="utf-8")) == []
