"""Every imported name is used, every private name of the package is read,
every public one is read or exported, and the README names every export
and every command-line flag.

The first three stand in for a linter's unused-import rule and a dead-code
check.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

import transeig
from transeig import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "transeig").glob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; __all__ entries count."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom math import pi, tau as t\n"
              "__all__ = ['pi']\nprint(sys.argv)\n")
    assert unused_imports(source) == ["os", "t"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source: str) -> tuple[list[str], list[str]]:
    """Names a source binds at module level, and the methods of its classes.

    A module-level name is bound by a def, a class or an assignment.
    """
    names, methods = [], []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                methods += [m.name for m in node.body
                            if isinstance(m, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return names, methods


def private_definitions(source: str) -> list[str]:
    """Module-level _names a source defines, and the _methods of its classes.

    Dunder names are left out.
    """
    names, methods = definitions(source)
    return [n for n in names + methods
            if n.startswith("_") and not n.startswith("__")]


def public_definitions(source: str) -> list[str]:
    """Module-level names a source defines without a leading underscore."""
    return [n for n in definitions(source)[0] if not n.startswith("_")]


def read_names(sources: list[str]) -> set[str]:
    """Names loaded in the sources, as `name` or `module.name`."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources: list[str]) -> list[str]:
    """Private names defined in the sources and loaded in none of them."""
    read = read_names(sources)
    return [name for source in sources
            for name in private_definitions(source) if name not in read]


def unread_public_names(sources: list[str], exported: list[str]) -> list[str]:
    """Public module-level names loaded in no source and not exported."""
    read = read_names(sources) | set(exported)
    return [name for source in sources
            for name in public_definitions(source) if name not in read]


def test_dead_code_checker_flags_only_unread_private_names():
    sources = ["import math\n_USED = 1\n_ORPHAN: int = 2\n__all__ = []\n"
               "def _helper():\n    return _USED\n"
               "class _Gone:\n    _inner = 3\n"
               "class Kept:\n    def _orphan(self):\n        pass\n"
               "    def __init__(self):\n        self._used()\n"
               "    def _used(self):\n        pass\n"
               "def public():\n    _local = math.pi\n",
               "from mod import _helper\nprint(_helper())\n"]
    assert unread_private_names(sources) == ["_ORPHAN", "_Gone", "_orphan"]


def test_every_private_name_of_the_package_is_read():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert sum(len(private_definitions(s)) for s in sources) > 40
    assert unread_private_names(sources) == []


def test_dead_code_checker_flags_only_unread_public_names():
    sources = ["import math\nLIMIT = 1\nORPHAN: int = 2\n_hidden = 3\n"
               "def helper():\n    return LIMIT\n"
               "def exported():\n    pass\n"
               "class Gone:\n    def method(self):\n        pass\n"
               "def unused():\n    return math.pi\n",
               "import mod\nprint(mod.helper())\n"]
    assert unread_public_names(sources, ["exported"]) == [
        "ORPHAN", "Gone", "unused"]


def test_every_public_name_of_the_package_is_read_or_exported():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert sum(len(public_definitions(s)) for s in sources) > 50
    assert unread_public_names(sources, transeig.__all__) == []


def test_readme_names_every_export():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in transeig.__all__
            if f"`{name}`" not in readme and f"`{name}(" not in readme] == []


def test_readme_names_every_flag():
    # the flags of every subcommand, and no flag that is gone, in the
    # "Command line" section
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    subparsers, = [a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {flag for sub in subparsers.choices.values()
             for action in sub._actions for flag in action.option_strings
             if flag not in ("-h", "--help")}
    assert "--branch" in flags and "--tol" in flags
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section)) == flags
