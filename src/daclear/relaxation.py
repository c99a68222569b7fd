"""Fixed-selection clearing relaxation.

With the combinatorial execution decisions frozen, the remaining problem
is a concave QP over segment fills and interconnector flows.  Its clearing
equality multipliers are shadow prices that support the continuous part of
the solution.
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
from .qp import QpProblem, QpSolution, solve_qp


@dataclass(frozen=True)
class RelaxationLayout:
    """Column/row bookkeeping shared by every fixed-selection assembly."""

    seg_ids: tuple[int, ...]
    flow_keys: tuple[tuple[str, int], ...]
    eq_keys: tuple[tuple[str, int], ...]
    ramp_keys: tuple[tuple[str, int, str], ...]  # (connector, hour, fwd|bwd)

    @property
    def n(self) -> int:
        return len(self.seg_ids) + len(self.flow_keys)

    def seg_col(self, sid: int) -> int:
        return self.seg_ids.index(sid)

    def flow_col(self, key) -> int:
        return len(self.seg_ids) + self.flow_keys.index(key)


def make_layout(instance: Instance) -> RelaxationLayout:
    seg_ids = tuple(s.id for s in instance.segments)
    flow_keys = tuple(
        (c.id, t) for c in instance.interconnectors for t in range(instance.hours)
    )
    eq_keys = tuple((a, t) for a in instance.areas for t in range(instance.hours))
    ramp_keys = []
    for c in instance.interconnectors:
        if c.ramp_rate is None or not np.isfinite(c.ramp_rate):
            continue
        for t in range(instance.hours):
            ramp_keys.append((c.id, t, "fwd"))
            ramp_keys.append((c.id, t, "bwd"))
    return RelaxationLayout(seg_ids, flow_keys, eq_keys, tuple(ramp_keys))


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
    instance: Instance, selection: BidSelection
) -> tuple[QpProblem, RelaxationLayout, FixedSelectionTerms]:
    check_selection(instance, selection)
    layout = make_layout(instance)
    terms = selection_terms(instance, selection)
    n = layout.n
    n_seg = len(layout.seg_ids)

    c = np.zeros(n)
    d = np.zeros(n)
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    seg_col = {sid: j for j, sid in enumerate(layout.seg_ids)}
    for j, seg in enumerate(instance.segments):
        c[j] = (seg.base_price + seg.price_span) * seg.quantity_span
        d[j] = -seg.price_span * seg.quantity_span
        lb[j] = 0.0
        ub[j] = 1.0
    conn = {cc.id: cc for cc in instance.interconnectors}
    for k, (cid, t) in enumerate(layout.flow_keys):
        lb[n_seg + k] = conn[cid].lower[t]
        ub[n_seg + k] = conn[cid].upper[t]

    A_eq = np.zeros((len(layout.eq_keys), n))
    b_eq = np.zeros(len(layout.eq_keys))
    for r, (a, t) in enumerate(layout.eq_keys):
        curve = instance.curves[a, t]
        for seg in curve.segments:
            A_eq[r, seg_col[seg.id]] = seg.quantity_span
        for k, (cid, tt) in enumerate(layout.flow_keys):
            if tt != t:
                continue
            if conn[cid].sink == a:
                A_eq[r, n_seg + k] -= 1.0
            if conn[cid].source == a:
                A_eq[r, n_seg + k] += 1.0
        b_eq[r] = -curve.min_net_demand - terms.volume[a, t]

    A_in = np.zeros((len(layout.ramp_keys), n))
    b_in = np.zeros(len(layout.ramp_keys))
    for r, (cid, t, sense) in enumerate(layout.ramp_keys):
        sgn = 1.0 if sense == "fwd" else -1.0
        A_in[r, layout.flow_col((cid, t))] = sgn
        b_in[r] = conn[cid].ramp_rate
        if t == 0:
            b_in[r] += sgn * conn[cid].initial_flow
        else:
            A_in[r, layout.flow_col((cid, t - 1))] = -sgn

    prob = QpProblem(c=c, d=d, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, lb=lb, ub=ub)
    return prob, layout, terms


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


def outcome_from_qp(
    instance: Instance,
    selection: BidSelection,
    layout: RelaxationLayout,
    terms: FixedSelectionTerms,
    sol: QpSolution,
) -> RelaxationOutcome:
    n_seg = len(layout.seg_ids)
    delta = {sid: float(sol.x[j]) for j, sid in enumerate(layout.seg_ids)}
    flows = {
        key: float(sol.x[n_seg + k]) for k, key in enumerate(layout.flow_keys)
    }
    prices = PriceVector(
        pi={key: float(sol.y_eq[r]) for r, key in enumerate(layout.eq_keys)}
    )
    mu_upper = {}
    mu_lower = {}
    for k, key in enumerate(layout.flow_keys):
        mu_upper[key] = float(sol.nu_upper[n_seg + k])
        mu_lower[key] = float(sol.nu_lower[n_seg + k])
    rho_fwd = {}
    rho_bwd = {}
    for r, (cid, t, sense) in enumerate(layout.ramp_keys):
        target = rho_fwd if sense == "fwd" else rho_bwd
        target[cid, t] = float(sol.mu_in[r])
    v_upper = {sid: float(sol.nu_upper[j]) for j, sid in enumerate(layout.seg_ids)}
    v_lower = {sid: float(sol.nu_lower[j]) for j, sid in enumerate(layout.seg_ids)}
    cert = DualCertificate(
        mu_upper=mu_upper,
        mu_lower=mu_lower,
        rho_fwd=rho_fwd,
        rho_bwd=rho_bwd,
        v_upper=v_upper,
        v_lower=v_lower,
    )
    return RelaxationOutcome(
        selection=selection,
        delta=delta,
        flows=flows,
        prices=prices,
        certificate=cert,
        objective=sol.objective + terms.constant,
        kkt_residual=sol.kkt_residual,
    )


def solve_relaxation(
    instance: Instance,
    selection: BidSelection,
    x0: Optional[np.ndarray] = None,
) -> RelaxationOutcome:
    prob, layout, terms = assemble_qprelax(instance, selection)
    sol = solve_qp(prob, x0=x0)
    if sol.status == "infeasible":
        raise InfeasibleSelection(
            f"selection cannot be cleared within curve and flow bounds "
            f"(certificate: {sol.certificate})"
        )
    if sol.status != "optimal":
        raise SolverFailure(f"unexpected relaxation status {sol.status!r}")
    return outcome_from_qp(instance, selection, layout, terms, sol)
