"""Fixed-selection clearing relaxation.

With the combinatorial execution decisions frozen, the remaining problem
is a concave QP over segment fills and interconnector flows: the master
problem (``ClearingModel.master``) with every binary column pinned, whose
objective includes the executed bids' welfare.  The oracle
(``verify.oracle_clear``) solves one per enumerated selection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import SolverFailure
from .model import ClearingModel, balanced_start
from .qp import Multipliers, QpProblem, multipliers, solve_qp


def solve_relaxation(
    pinned: QpProblem, model: ClearingModel
) -> Optional[tuple[float, np.ndarray, Multipliers]]:
    """(objective, x, duals) of ``pinned``, a master problem on ``model``
    with its binary columns pinned at a selection, solved from its
    balanced start, which is built only when ``solve_qp``'s row test does
    not refute the selection: x is its optimum, whose fills and flows
    ``model.primal`` reads, and ``duals`` the multipliers there, which
    start FixFlow and pricing; None when the selection cannot be cleared
    within curve, flow and link bounds."""
    sol = solve_qp(pinned, x0=lambda: balanced_start(model, pinned))
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise SolverFailure(f"unexpected relaxation status {sol.status!r}")
    return sol.objective, sol.x, multipliers(pinned, sol)
