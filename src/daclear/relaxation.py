"""Fixed-selection clearing relaxation.

With the combinatorial execution decisions frozen, the remaining problem
is a concave QP over segment fills and interconnector flows.  Its clearing
equality multipliers are shadow prices that support the continuous part of
the solution.  The QP is a view of the shared clearing model
(``daclear.model``) with the selection's volume on the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .core import (
    BidSelection,
    DualCertificate,
    FixedSelectionTerms,
    Instance,
    PriceVector,
    PrimalSolution,
    selection_terms,
)
from .errors import InfeasibleSelection, LinkViolation, SolverFailure, UnknownId
from .model import ClearingModel, balanced_start, build_model
from .qp import QpProblem, check_kkt, solve_qp


def check_selection(instance: Instance, selection: BidSelection) -> None:
    for bid in selection.blocks:
        if bid not in instance.block_by_id:
            raise UnknownId(f"unknown block id {bid!r}")
    for fid, t in selection.flex.items():
        if fid not in instance.flex_by_id:
            raise UnknownId(f"unknown flex id {fid!r}")
        if t is not None and not 0 <= t < instance.hours:
            raise UnknownId(f"flex {fid!r} executed in unknown hour {t}")
    if not selection.link_consistent(instance.links):
        bad = [
            (c, p)
            for c, p in instance.links
            if selection.blocks.get(c, 0) > selection.blocks.get(p, 0)
        ]
        raise LinkViolation(f"selection breaks block links {bad}")


def assemble_qprelax(
    instance: Instance, selection: BidSelection, model: Optional[ClearingModel] = None
) -> tuple[QpProblem, ClearingModel, FixedSelectionTerms]:
    """The selection's relaxation QP on ``model``, the instance's clearing
    model, which is built here when None."""
    check_selection(instance, selection)
    if model is None:
        model = build_model(instance)
    terms = selection_terms(instance, selection)
    volume = np.array([terms.volume[key] for key in model.eq_keys])
    prob = QpProblem(
        c=model.c, d=model.d, A_eq=model.A_eq, b_eq=model.b_eq - volume,
        A_in=model.A_in, b_in=model.b_in, lb=model.lb, ub=model.ub,
    )
    return prob, model, terms


@dataclass(frozen=True)
class RelaxationOutcome:
    selection: BidSelection
    delta: Mapping[int, float]
    flows: Mapping[tuple[str, int], float]
    prices: PriceVector
    certificate: DualCertificate
    objective: float
    kkt_residual: float

    @property
    def primal(self) -> PrimalSolution:
        return PrimalSolution(selection=self.selection, delta=self.delta, flows=self.flows)


def solve_relaxation(
    instance: Instance, selection: BidSelection, model: Optional[ClearingModel] = None
) -> RelaxationOutcome:
    prob, model, terms = assemble_qprelax(instance, selection, model)
    sol = solve_qp(prob, x0=balanced_start(model, prob))
    if sol.status == "infeasible":
        raise InfeasibleSelection(
            f"selection cannot be cleared within curve and flow bounds "
            f"(certificate: {sol.certificate})"
        )
    if sol.status != "optimal":
        raise SolverFailure(f"unexpected relaxation status {sol.status!r}")
    rho = {"fwd": {}, "bwd": {}}
    for r, (cid, t, sense) in enumerate(model.ramp_keys):
        rho[sense][cid, t] = float(sol.mu_in[r])
    cert = DualCertificate(
        mu_upper={key: float(sol.nu_upper[j]) for key, j in model.flow_col.items()},
        mu_lower={key: float(sol.nu_lower[j]) for key, j in model.flow_col.items()},
        rho_fwd=rho["fwd"],
        rho_bwd=rho["bwd"],
        v_upper={sid: float(sol.nu_upper[j]) for sid, j in model.seg_col.items()},
        v_lower={sid: float(sol.nu_lower[j]) for sid, j in model.seg_col.items()},
    )
    return RelaxationOutcome(
        selection=selection,
        delta={sid: float(sol.x[j]) for sid, j in model.seg_col.items()},
        flows={key: float(sol.x[j]) for key, j in model.flow_col.items()},
        prices=PriceVector(pi={key: float(sol.y_eq[r]) for key, r in model.eq_row.items()}),
        certificate=cert,
        objective=sol.objective + terms.constant,
        kkt_residual=check_kkt(prob, sol).max_residual,
    )
