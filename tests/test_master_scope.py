"""The master searches the clearing model alone: ``daclear/master.py``
names neither the book (``Instance``) nor its presolve
(``presolve_price_bounds``), and ``solve_master`` takes the model first.
What the master needs of the book, its presolve fixings among it, is then
computed once in ``model.build_model``."""

import ast
from pathlib import Path

import daclear

MASTER = Path(daclear.__file__).resolve().parent / "master.py"
# the names of the book and of the book's presolve
FORBIDDEN = {"Instance", "presolve_price_bounds"}


def _breaches(source):
    """(line, what) per name, imported name or attribute in FORBIDDEN, and
    per ``solve_master`` whose first parameter is not ``model``, sorted."""
    out = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        out += [(node.lineno, f"names {name}") for name in names if name in FORBIDDEN]
        if isinstance(node, ast.FunctionDef) and node.name == "solve_master":
            first = node.args.args[0].arg if node.args.args else None
            if first != "model":
                out.append((node.lineno, f"takes {first} first"))
    return sorted(out)


def test_the_master_reads_only_the_model():
    assert _breaches(MASTER.read_text(encoding="utf-8")) == []


def test_the_scan_sees_what_it_forbids():
    source = (
        "from .core import BidSelection, Instance, presolve_price_bounds\n"
        "from . import core\n"
        "def solve_master(instance: Instance, model, test=None):\n"
        "    bounds = core.presolve_price_bounds(instance)\n"
        "    return model\n"
    )
    assert _breaches(source) == [
        (1, "names Instance"), (1, "names presolve_price_bounds"),
        (3, "names Instance"), (3, "takes instance first"),
        (4, "names presolve_price_bounds"),
    ]
