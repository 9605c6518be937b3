"""Static checks on the package source that no linter covers here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lithovid"
MODULES = sorted(PACKAGE.glob("*.py"))
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

    Every module is a reader, __init__.py included, and so is perfbench. __init__.py
    imports nothing: a re-export fails test_no_unused_imports, so each name has one path.
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


def handler_names(tree):
    """(line, names) of each except clause: the names it catches, alone, in a tuple or as a
    module attribute."""
    return [(handler.lineno, {n.id if isinstance(n, ast.Name) else n.attr
                              for n in ast.walk(handler.type)
                              if isinstance(n, (ast.Name, ast.Attribute))})
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None]


def caught_names(tree):
    """Every name an except clause names."""
    return set().union(*(names for _, names in handler_names(tree)))


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


def bad_input_catches(source):
    """Line of each except clause that names BAD_INPUT."""
    return [line for line, names in handler_names(ast.parse(source)) if "BAD_INPUT" in names]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_only_the_readers_catch_bad_input(path):
    """errors' readers turn a faulty input file into one error naming it; a module that
    catches BAD_INPUT itself states that rule a second time."""
    assert bad_input_catches(path.read_text("utf-8")) == []


def test_bad_input_check_sees_catches():
    source = (
        "from . import errors\n"
        "from .errors import BAD_INPUT\n"
        "try:\n"
        "    f()\n"
        "except BAD_INPUT:\n"
        "    pass\n"
        "try:\n"
        "    f()\n"
        "except OSError:\n"
        "    pass\n"
        "except (KeyError, errors.BAD_INPUT) as exc:\n"
        "    raise ValueError(BAD_INPUT) from exc\n"
    )
    assert bad_input_catches(source) == [5, 11]


def thread_sites(source):
    """Sorted lines that import threading (or _thread) or ThreadPoolExecutor, or that read
    ThreadPoolExecutor as an attribute (concurrent.futures.ThreadPoolExecutor)."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            modules, names = [node.module or ""], [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor":
            modules, names = [], [node.attr]
        else:
            continue
        if ({m.split(".")[0] for m in modules} & {"threading", "_thread"}
                or "ThreadPoolExecutor" in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_video_io_starts_threads():
    """normalize_video reads an HD video ahead on one helper thread, which a fork pool must
    never inherit; a second module that starts threads is a design change to review."""
    assert {p.name for p in PACKAGE.glob("*.py")
            if thread_sites(p.read_text("utf-8"))} == {"video_io.py"}


def test_thread_check_sees_imports():
    source = (
        "import threading\n"
        "import concurrent.futures\n"
        "from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
        "from threading import Lock\n"
        "import _thread as low\n"
        "pool = concurrent.futures.ThreadPoolExecutor(1)\n"
        "other = ProcessPoolExecutor(2)\n"
        "import os.path\n"
    )
    assert thread_sites(source) == [1, 3, 4, 5, 6]


def scipy_imports(source):
    """(enclosing function or None, line) of each statement that imports scipy."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "scipy" for m in modules):
                sites.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def test_scipy_is_imported_only_to_clean_a_mask():
    """Only chroma's mask cleanup needs scipy, so only clean_mask imports it and no other
    command pays for loading it."""
    functions = {p.name: [f for f, _ in scipy_imports(p.read_text("utf-8"))] for p in MODULES}
    assert {name: found for name, found in functions.items() if found} == {
        "segmentation.py": ["clean_mask"]}


def test_scipy_check_sees_imports():
    source = (
        "import scipy\n"
        "from scipy import ndimage\n"
        "def f():\n"
        "    import scipy.ndimage as nd\n"
        "    def g():\n"
        "        from scipy.ndimage import label\n"
        "import numpy\n"
        "from . import scipy_like\n"
    )
    assert scipy_imports(source) == [(None, 1), (None, 2), ("f", 4), ("g", 6)]


def keyword_params(tree):
    """(function, parameter, position) of each parameter with a default of each public
    top-level function and each public method of a public class. position counts the
    arguments a call writes, so a method's self or cls is left out; None: keyword-only."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs = [(node, 0)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defs = [(d, 0 if any(getattr(x, "id", None) == "staticmethod"
                                 for x in d.decorator_list) else 1)
                    for d in node.body if isinstance(d, ast.FunctionDef)]
        else:
            continue
        for d, skip in defs:
            if d.name.startswith("_"):
                continue
            args = (d.args.posonlyargs + d.args.args)[skip:]
            first = len(args) - len(d.args.defaults)
            for position, arg in enumerate(args[first:], start=first):
                yield d.name, arg.arg, position
            for arg, default in zip(d.args.kwonlyargs, d.args.kw_defaults):
                if default is not None:
                    yield d.name, arg.arg, None


def passed(trees, function, param, position):
    """Whether some call of a function so named passes param: by name or **mapping, or, when
    it has a position, by position or *sequence."""
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        if getattr(call.func, "id", getattr(call.func, "attr", None)) != function:
            continue
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args)):
            return True
    return False


def keywords_only_tests_pass(modules, callers, tests):
    """(module, function, parameter) of each keyword parameter of modules (file name to
    source) that some source in tests passes and no source in callers does."""
    callers = [ast.parse(source) for source in callers]
    tests = [ast.parse(source) for source in tests]
    return [(name, function, param)
            for name, source in modules.items()
            for function, param, position in keyword_params(ast.parse(source))
            if passed(tests, function, param, position)
            and not passed(callers, function, param, position)]


def test_every_keyword_parameter_has_a_caller_outside_tests():
    """A keyword parameter that only tests pass is surface to delete. The package and
    perfbench's non-test files are callers."""
    modules = {p.name: p.read_text("utf-8") for p in MODULES}
    perfbench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    callers = [p.read_text("utf-8") for p in [*PACKAGE.glob("*.py"), *perfbench]]
    tests = [p.read_text("utf-8") for p in (ROOT / "tests").glob("*.py")]
    assert keywords_only_tests_pass(modules, callers, tests) == []


def test_keyword_check_sees_parameters_only_tests_pass():
    module = (
        "def f(a, by_name=1, by_position=2, *, kw_only=3, unpassed=4): pass\n"
        "def g(x=0): pass\n"
        "def h(v=0): pass\n"
        "class C:\n"
        "    def m(self, y=0): pass\n"
        "    @staticmethod\n"
        "    def s(z=0): pass\n"
        "    def _private(self, w=0): pass\n"
        "class _Hidden:\n"
        "    def n(self, u=0): pass\n"
    )
    caller = "f(0, by_name=1)\nf(0, 1, 2)\nobj.m(5)\nC.s(1)\nh(**options)\n"
    tests = ("f(0, by_name=1, by_position=2, kw_only=3)\ng(x=1)\nobj.m(y=1)\nC.s(z=2)\n"
             "h(v=1)\nobj._private(w=1)\nobj.n(u=1)\n")
    assert keywords_only_tests_pass({"a.py": module}, [caller], [tests]) == [
        ("a.py", "f", "kw_only"), ("a.py", "g", "x")]
