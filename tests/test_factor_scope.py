"""The QP kernel's working-set factorization sits behind ``qp._Factor``:
in ``daclear/qp.py`` the LAPACK gufuncs ``svd_f`` and ``eigh_lo`` and the
SVD routine ``_factor`` are named only inside ``_Factor`` and ``_factor``
itself, and no ``_ActiveSet`` method reads an attribute that ``_Factor``
keeps private.  Another factorization route then changes one class."""

import ast
from pathlib import Path

import numpy as np

import daclear
from daclear import qp
from daclear.qp import QpProblem, solve_qp

QP = Path(daclear.__file__).resolve().parent / "qp.py"
# the factorization's routines and the module-level names that may use them
ROUTINES = {"svd_f", "eigh_lo", "_factor"}
OWNERS = {"_Factor", "_factor"}


def _scoped(tree):
    """(node, names of the classes and functions around it) per node."""
    stack = [(tree, ())]
    while stack:
        node, outer = stack.pop()
        yield node, outer
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            outer += (node.name,)
        stack.extend((child, outer) for child in ast.iter_child_nodes(node))


def _leaks(source):
    """(line, what) per use of a routine outside its owners and per read,
    inside ``_ActiveSet``, of an attribute that ``_Factor`` sets on self
    under a private name, sorted."""
    nodes = list(_scoped(ast.parse(source)))
    private = {
        node.attr for node, outer in nodes
        if outer[:1] == ("_Factor",) and isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr.startswith("_") and not node.attr.startswith("__")
    }
    out = []
    for node, outer in nodes:
        top = outer[0] if outer else None  # the module-level class or function
        if isinstance(node, ast.Name) and node.id in ROUTINES and top not in OWNERS:
            out.append((node.lineno, f"names {node.id}"))
        if top == "_ActiveSet" and isinstance(node, ast.Attribute) and node.attr in private:
            out.append((node.lineno, f"reads {node.attr}"))
    return sorted(out)


def test_only_the_factor_factorizes():
    assert _leaks(QP.read_text(encoding="utf-8")) == []


def test_the_scan_sees_what_it_forbids():
    source = (
        "from numpy.linalg._umath_linalg import eigh_lo, svd_f\n"
        "def _factor(K):\n"
        "    return svd_f(K)\n"
        "class _Factor:\n"
        "    def __init__(self, K):\n"
        "        self.Z, self._P = _factor(K)\n"
        "        self.w = eigh_lo(K)\n"
        "class _ActiveSet:\n"
        "    def run(self, factor):\n"
        "        return factor._P, factor.Z, self._n, eigh_lo(factor.Z)\n"
        "def helper(K):\n"
        "    return _factor(K)\n"
    )
    assert _leaks(source) == [(10, "names eigh_lo"), (10, "reads _P"), (12, "names _factor")]


def test_the_kernel_asks_one_factor_per_working_set():
    # max x + y - (x^2 + y^2)/2 with x + y = 2: the optimum (1, 1) keeps
    # both columns free under the one equality row
    prob = QpProblem(c=[1.0, 1.0], d=[-1.0, -1.0], A_eq=[[1.0, 1.0]], b_eq=[2.0],
                     A_in=np.zeros((0, 2)), b_in=[], lb=[-5.0, -5.0], ub=[5.0, 5.0])
    sol = solve_qp(prob)
    assert sol.status == "optimal"
    assert prob.factors and all(isinstance(f, qp._Factor) for f in prob.factors.values())
    solver = qp._ActiveSet(prob.c, prob.d, prob.A_eq, prob.b_eq, prob.A_in, prob.b_in,
                           prob.lb, prob.ub, prob.factors)
    work, state = list(sol.working.rows), sol.working.state
    K, factor = solver._factorize(work, state)
    assert np.array_equal(K, prob.A_eq)
    assert factor is prob.factors[(tuple(work), (state == qp.FREE).tobytes())]
