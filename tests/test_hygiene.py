"""Static checks on the package source that no linter covers here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lithovid"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# c05's reference training losses: the acceptance suite checks their gradients, and no
# command trains a network with them
UNREAD_ALLOWED = {"bce_loss_grad", "dice_loss_grad", "combined_loss"}
# errors.read_json and errors.read_csv own the rule for a bad input file, so no other module
# parses JSON or CSV itself; timeline_from_json parses text, which is how perfbench calls it
PARSE_CALLS = {("json", "load"), ("json", "loads"), ("csv", "reader")}
PARSE_ALLOWED = {"timeline_from_json"}


def imported_names(tree):
    """Name each import statement binds, with its line, __future__ excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def used_names(tree):
    """Every name the module reads, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def private_names(tree):
    """Each name a module-level statement binds that starts with one underscore, with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unused_private_names(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in private_names(tree) if name not in used]


def read_names(nodes):
    """Every name the nodes read, as an ast.Name (quoted annotations included) or an attribute."""
    names = set()
    for node in nodes:
        names |= used_names(node)
        names |= {n.attr for n in ast.walk(node)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return names


def unread_public_names(modules, elsewhere):
    """(module, name) of each public top-level function or class in modules that is read
    neither by another module, nor by its own module outside its definition, nor elsewhere.

    modules and elsewhere map a file name to its source.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    outside = read_names(ast.parse(source) for source in elsewhere.values())
    unread = []
    for name, tree in trees.items():
        others = read_names(t for n, t in trees.items() if n != name)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                own = read_names(n for n in tree.body if n is not node)
                if node.name not in others | own | outside:
                    unread.append((name, node.name))
    return unread


def test_every_public_name_has_a_reader():
    """A public function or class that only tests reach is surface to delete.

    __init__.py is left out, so a re-export is not a read; perfbench counts.
    """
    modules = {p.name: p.read_text("utf-8") for p in MODULES}
    perfbench = {p.name: p.read_text("utf-8") for p in (ROOT / "perfbench").glob("*.py")}
    unread = [(m, n) for m, n in unread_public_names(modules, perfbench)
              if n not in UNREAD_ALLOWED]
    assert unread == []


def test_public_check_sees_unread_names():
    modules = {
        "a.py": (
            "def used_by_b(): pass\n"
            "def used_later(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Orphan: pass\n"
            "def by_attribute(): pass\n"
            "def by_bench(): pass\n"
            "_private = used_later()\n"
        ),
        "b.py": "from . import a\nused_by_b()\nx = a.by_attribute\n",
    }
    assert unread_public_names(modules, {"bench.py": "by_bench()\n"}) == [
        ("a.py", "recursive"), ("a.py", "Orphan")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_module_names(path):
    assert unused_private_names(path.read_text("utf-8")) == []


def test_private_check_sees_unread_names():
    source = (
        "_LIMIT = 3\n"
        "_unused: int = 4\n"
        "__all__ = []\n"
        "def _helper(x):\n"
        "    return x * _LIMIT\n"
        "def _left_behind():\n"
        "    _local = 1\n"
        "    return _local\n"
        "class _Kept:\n"
        "    pass\n"
        "def public(k: '_Kept'):\n"
        "    return _helper(k)\n"
    )
    assert unused_private_names(source) == [("_unused", 2), ("_left_behind", 6)]


def test_check_sees_unused_and_quoted_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from .rng import stream\n"
        "from .core import MorphClass, StoneMask\n"
        "def f(x: 'MorphClass') -> 'list[StoneMask]':\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == [("stream", 3)]


def parse_calls(source):
    """Line of each json.load(s) or csv.reader call outside the functions PARSE_ALLOWED names."""
    return [node.lineno for top in ast.parse(source).body
            if getattr(top, "name", None) not in PARSE_ALLOWED
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and (node.func.value.id, node.func.attr) in PARSE_CALLS]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_input_files_are_parsed_only_by_the_readers(path):
    assert parse_calls(path.read_text("utf-8")) == []


def test_parse_check_sees_calls():
    source = (
        "import csv, json\n"
        "def timeline_from_json(text):\n"
        "    return json.loads(text)\n"
        "def other(fh):\n"
        "    return json.load(fh), json.dumps(fh)\n"
        "rows = list(csv.reader(open('x')))\n"
    )
    assert parse_calls(source) == [5, 6]


def caught_names(tree):
    """Every name an except clause names: alone, in a tuple or as a module attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None
            for n in ast.walk(handler.type) if isinstance(n, (ast.Name, ast.Attribute))}


def uncaught_classes(errors_source, sources):
    """Each class errors_source defines that no except clause in sources names."""
    caught = set().union(*(caught_names(ast.parse(source)) for source in sources))
    return [node.name for node in ast.parse(errors_source).body
            if isinstance(node, ast.ClassDef) and node.name not in caught]


def test_every_exception_class_is_caught():
    """A subclass of LithovidError exists only where some except clause acts on it; any
    other failure is a plain LithovidError, told apart by its message."""
    sources = [p.read_text("utf-8") for p in PACKAGE.glob("*.py")]
    assert uncaught_classes((PACKAGE / "errors.py").read_text("utf-8"), sources) == []


def test_exception_check_sees_uncaught_classes():
    errors = (
        "class Base(Exception): pass\n"
        "class Alone(Base): pass\n"
        "class InTuple(Base): pass\n"
        "class ByAttribute(Base): pass\n"
        "class OnlyRaised(Base): pass\n"
    )
    user = (
        "from . import errors\n"
        "try:\n"
        "    f()\n"
        "except Alone:\n"
        "    pass\n"
        "except (InTuple, OSError):\n"
        "    pass\n"
        "except errors.ByAttribute:\n"
        "    pass\n"
        "except Base as exc:\n"
        "    raise OnlyRaised(str(exc))\n"
    )
    assert uncaught_classes(errors, [user]) == ["OnlyRaised"]
