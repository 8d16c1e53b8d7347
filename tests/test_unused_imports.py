"""No module of the package imports a name it never reads.

pyflakes' F401 with the standard library alone: a name bound by an
import must be read somewhere in its module.  Imports from
``__future__``, names the module lists in ``__all__`` and import lines
marked ``# noqa: F401`` are exempt.
"""
import ast
import pathlib

import pytest

import walklab

MODULES = sorted(pathlib.Path(walklab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        # a literal list; the package's own __all__ is built, not listed
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import collections\n"
              "import math  # noqa: F401\n"
              "from typing import Iterator, Sequence\n"
              "from .graphs import Graph\n"
              "__all__ = ['Graph']\n"
              "def f(xs: Sequence[int]) -> int:\n"
              "    return len(xs)\n")
    assert unused_imports(source) == ["line 2: collections", "line 4: Iterator"]
