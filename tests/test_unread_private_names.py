"""No module of the package defines a private name that no module reads.

A module-level function, class or assignment whose name starts with one
underscore is the package's own business, so some module of the package
must read it: by name in its module, as an attribute of a module
(``mixing_mod._x``), or by importing it (``from .records import _x``).
A helper orphaned when its last caller goes fails here.
"""
import ast
import pathlib

import walklab

MODULES = sorted(pathlib.Path(walklab.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: dict[str, str]) -> list[str]:
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}:{line}: {name}" for module, line, name in defined if name not in read]


def test_every_private_name_is_read():
    assert unread_private_names({p.name: p.read_text() for p in MODULES}) == []


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": ("import numpy as np\n"
                 "_USED = 1\n"
                 "_ORPHAN, _PAIRED = 2, 3\n"
                 "__dunder__ = 4\n"
                 "def _helper():\n"
                 "    return _USED\n"
                 "def _lost():\n"
                 "    return np.zeros(_PAIRED)\n"
                 "class _Kept:\n"
                 "    pass\n"
                 "class _Gone:\n"
                 "    _field: int = 0\n"),
        "b.py": ("from .a import _helper\n"
                 "import a as a_mod\n"
                 "_typed: int = a_mod._Kept and _helper()\n"),
    }
    assert unread_private_names(sources) == [
        "a.py:3: _ORPHAN", "a.py:7: _lost", "a.py:11: _Gone", "b.py:3: _typed",
    ]
