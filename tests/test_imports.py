"""Every imported name is used, every private name of the package is read,
every public one is read or exported, every public method is read outside
its own tests or named in the README, every defaulted parameter of a
public function or method is passed outside its own tests or shown in the
README, and the README names every export and every command-line flag.

The first four stand in for a linter's unused-import rule and a dead-code
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
# the code a public method may be read in: the package, the frozen
# acceptance tests and the benchmark harness, not the method's own tests
READERS = [*SOURCES, ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]
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


def members(node: ast.ClassDef) -> list[str]:
    """The methods of a class, and its attributes bound to property(...)."""
    return [m.name for m in node.body if isinstance(m, ast.FunctionDef)] + [
        t.id for m in node.body if isinstance(m, ast.Assign)
        and isinstance(m.value, ast.Call)
        and getattr(m.value.func, "id", None) == "property"
        for t in m.targets if isinstance(t, ast.Name)]


def definitions(source: str) -> tuple[list[str], list[str]]:
    """Names a source binds at module level, and the members of its classes.

    A module-level name is bound by a def, a class or an assignment.
    """
    names, methods = [], []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                methods += members(node)
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


def public_members(source: str) -> list[str]:
    """Public members of a source's classes, as `Class.name`."""
    return [f"{node.name}.{name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            for name in members(node) if not name.startswith("_")]


def unread_public_members(sources: list[str], readers: list[str],
                          readme: str) -> list[str]:
    """Public members of the sources' classes that no reader loads and no
    backtick span of the readme names. Names are matched alone, so one
    that another class or a local also uses counts as read."""
    read = read_names(readers)
    read |= set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`",
                                                       readme))))
    return [member for source in sources for member in public_members(source)
            if member.split(".")[1] not in read]


def test_member_checker_flags_unread_methods_and_properties():
    source = ("class Toy:\n"
              "    size = property(lambda self: 1)\n"
              "    orphan_property = property(lambda self: 2)\n"
              "    label = 'toy'\n"
              "    def __call__(self):\n        return self.size\n"
              "    def _hidden(self):\n        pass\n"
              "    def documented(self):\n        pass\n"
              "    def orphan_method(self):\n        pass\n"
              "    @property\n    def shape(self):\n        pass\n"
              "    @staticmethod\n    def build():\n        return Toy()\n")
    readers = [source, "print(Toy.build().shape)\n"]
    readme = "Call `toy.documented()`; orphan_method is not in backticks."
    assert unread_public_members([source], readers, readme) == [
        "Toy.orphan_method", "Toy.orphan_property"]


def test_every_public_member_of_the_package_is_read_or_documented():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert sum(len(public_members(s)) for s in sources) > 30
    assert unread_public_members(sources, readers, readme) == []


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """Defaulted parameters of a source's public functions and of the
    public methods of its public classes, as (callee, name, position).

    callee is `function` or `Class.method`; position is the parameter's
    index among a call's positional arguments, None if it is keyword-only.
    """
    found = []

    def add(callee: str, node: ast.FunctionDef, skip: int) -> None:
        args = node.args
        positional = [*args.posonlyargs, *args.args][skip:]
        first = len(positional) - len(args.defaults)
        found.extend((callee, a.arg, first + i)
                     for i, a in enumerate(positional[first:]))
        found.extend((callee, a.arg, None) for a, default
                     in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None)

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and is_public(node):
            add(node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and is_public(node):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and is_public(m):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in m.decorator_list)
                    add(f"{node.name}.{m.name}", m, 0 if static else 1)
    return found


def is_public(node: ast.FunctionDef | ast.ClassDef) -> bool:
    """Whether a def or class has a name that is neither private nor
    dunder."""
    return not node.name.startswith("_")


def calls(source: str) -> list[tuple[str, ast.Call]]:
    """The calls of a source, as (callee's last name, call); none if the
    source does not parse."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    return [(getattr(n.func, "id", getattr(n.func, "attr", None)), n)
            for n in ast.walk(tree) if isinstance(n, ast.Call)]


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call may pass the parameter: by keyword, by position, or
    through a * or ** argument."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or position is not None and len(call.args) > position)


def shows(call: ast.Call, name: str) -> bool:
    """Whether a call names the parameter, as a keyword or as a positional
    argument spelled like it."""
    return (any(k.arg == name for k in call.keywords)
            or any(getattr(a, "id", None) == name for a in call.args))


def orphan_parameters(sources: list[str], readers: list[str],
                      readme: str) -> list[str]:
    """Defaulted parameters, as `callee(name)`, that no call in the readers
    passes and no call in a backtick span of the readme shows. Callees are
    matched by their last name alone, as in read_names."""
    passed = [c for reader in readers for c in calls(reader)]
    shown = [c for span in re.findall(r"`([^`]*)`", readme)
             for c in calls(span)]

    def used(callee: str, name: str, position: int | None) -> bool:
        last = callee.split(".")[-1]
        return (any(c == last and passes(call, name, position)
                    for c, call in passed)
                or any(c == last and shows(call, name) for c, call in shown))

    return [f"{callee}({name})" for source in sources
            for callee, name, position in defaulted_parameters(source)
            if not used(callee, name, position)]


def test_parameter_checker_flags_only_orphan_parameters():
    source = ("def solve(x, tol=1e-6, *, verbose=False, depth=3):\n"
              "    pass\n"
              "def _hidden(x, flag=False):\n    pass\n"
              "class Toy:\n"
              "    def __init__(self, size=2):\n        pass\n"
              "    def run(self, n, scale=1.0, shift=0.0):\n        pass\n"
              "    def _step(self, h=0.1):\n        pass\n"
              "    @staticmethod\n"
              "    def build(kind, extra=None):\n        return Toy()\n"
              "class _Private:\n"
              "    def go(self, fast=True):\n        pass\n")
    readers = [source, "solve(1.0, 1e-9)\nToy.build('a').run(3, shift=1.0)\n"]
    readme = ("Call `solve(x, depth=4)` or `Toy.run(n, scale)`; "
              "`Toy.build(kind, 1)` passes a value, not `extra`.")
    assert orphan_parameters([source], readers, readme) == [
        "solve(verbose)", "Toy.build(extra)"]


def test_every_defaulted_parameter_is_passed_or_shown():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert sum(len(defaulted_parameters(s)) for s in sources) > 5
    assert orphan_parameters(sources, readers, readme) == []


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
