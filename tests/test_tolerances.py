"""Every tolerance of ``daclear`` is named once, in ``daclear.tolerances``:
no other module assigns a ``*_TOL`` name or writes a small float literal
(nonzero and below 1e-5 in magnitude) outside its docstrings."""

import ast
from pathlib import Path

import daclear

SRC = Path(daclear.__file__).resolve().parent


def _docstrings(tree):
    """The ids of the string constants that are docstrings in ``tree``."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, kinds) and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _bound(target):
    """The names an assignment to ``target`` binds (not those it reads,
    as in ``a[FEAS_TOL] = 1``)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for item in target.elts for name in _bound(item)]
    if isinstance(target, ast.Starred):
        return _bound(target.value)
    return []


def _stray_tolerances(path):
    """(line, what) per ``*_TOL`` assignment and per small float literal
    in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        names = [name for target in targets for name in _bound(target)]
        out += [(node.lineno, f"assigns {name}") for name in names if name.endswith("_TOL")]
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and id(node) not in docs and 0.0 < abs(node.value) < 1e-5):
            out.append((node.lineno, f"literal {node.value!r}"))
    return out


def test_only_the_tolerances_module_names_tolerances():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "tolerances.py" in modules and len(modules) > 10
    stray = {
        path.name: found
        for path in modules
        if path.name != "tolerances.py" and (found := _stray_tolerances(path))
    }
    assert stray == {}


def test_the_scan_sees_what_it_forbids(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""Docstring 1e-9 stays."""\n'
        "LOSS_TOL = 2.0\n"
        "a, (B_TOL, c) = x[A_TOL] = 1, (2, 3)\n"
        "def f(x):\n"
        "    '''1e-12 here too.'''\n"
        "    return x > -1e-7\n"
    )
    assert _stray_tolerances(module) == [
        (2, "assigns LOSS_TOL"), (3, "assigns B_TOL"), (6, "literal 1e-07"),
    ]
    assert _stray_tolerances(SRC / "tolerances.py") != []
