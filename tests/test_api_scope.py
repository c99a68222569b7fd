"""No API that nothing calls: every top-level function and class in
``src/daclear`` is named in the package outside its own definition (an
import in ``daclear/__init__.py``, its export, counts), or by the
benchmark (``bench/``) or the tools (``tools/``), which also name the
functions they wrap as dotted strings ("master.solve_master").  A
definition that only the tests use belongs in the tests."""

import ast
import re
from collections import Counter
from pathlib import Path

import daclear

SRC = Path(daclear.__file__).resolve().parent
ROOT = SRC.parent.parent
USERS = ("bench", "tools")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(tree):
    """How often ``tree`` names each name: as a name, an attribute, an
    imported name or a part of a dotted string."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def _unused(modules, users):
    """(module, line, name) per top-level function or class of
    ``modules`` (module name -> source) that neither another part of
    ``modules`` nor a source in ``users`` names, sorted."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    used = set().union(*(_names(ast.parse(source)) for source in users))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            elsewhere = named[node.name] - _names(node)[node.name]
            if not elsewhere and node.name not in used:
                out.append((module, node.lineno, node.name))
    return sorted(out)


def test_every_definition_has_a_caller():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    users = [p.read_text(encoding="utf-8")
             for d in USERS for p in sorted((ROOT / d).glob("*.py"))]
    assert _unused(modules, users) == []


def test_the_scan_sees_what_it_forbids():
    modules = {
        "__init__": "from .core import solve\n__all__ = ['solve']\n",
        "core": (
            "def solve(x):\n"
            "    return _helper(x)\n"
            "def _helper(x):\n"
            "    return _helper(x - 1) if x else 0\n"
            "def _recursive(x):\n"
            "    return _recursive(x - 1)\n"
            "class _Wrapped:\n"
            "    pass\n"
            "def _written(doc):\n"
            "    return doc\n"
            "def _orphan():\n"
            "    '''Named only by _orphan's own docstring.'''\n"
        ),
    }
    users = ["from daclear.core import _written\n", "WRAP = {'core._Wrapped': None}\n"]
    assert _unused(modules, users) == [("core", 5, "_recursive"), ("core", 11, "_orphan")]
