"""Uniqueness post-processing: canonical flows and canonical prices.

A fixed selection usually admits many optimal flow patterns and many
supporting price vectors.  FixFlow picks the minimum-squared-norm flows
on the optimal face of the welfare QP, which the multipliers of one of its
optima name; the price solve picks prices that first minimize total
executed-bid losses, then minimize the squared price norm.

Both are views of the clearing model (``daclear.model``) of the instance.
FixFlow keeps its vertical segment and flow columns, with the columns and
ramp rows whose multipliers are positive held tight.  The price QP has one
price column per clearing row, and its equality rows are the stationarity
conditions of the welfare QP on the flow columns at the fixed flows: the
price difference across each flow column meets the multipliers of the flow
bounds and ramp rows that are tight there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .core import Instance, PriceVector, PrimalSolution
from .errors import PriceInfeasible, SolverFailure
from .model import ClearingModel
from .qp import DUAL_TOL, INFEAS_TOL, Multipliers, QpProblem, solve_qp

TIGHT_TOL = 1e-7


def solve_fixflow(
    instance: Instance,
    model: ClearingModel,
    solution: PrimalSolution,
    duals: Multipliers,
    deadline: Optional[float] = None,
) -> PrimalSolution:
    """Minimum squared-norm flows on the optimal face of the welfare QP
    with ``solution``'s selection pinned, on ``model``, the clearing model
    of ``instance``.  ``solution`` is an optimum of that QP and ``duals``
    are multipliers of it (a master leaf's, or the oracle's relaxation's).

    The optimal set of a convex QP is the set of its feasible points
    complementary to any one of its dual solutions (Mangasarian, 1988),
    so the face keeps the clearing rows and: the slope-carrying segment
    fills, which the objective's curvature makes unique, fixed; each
    vertical fill or flow whose bound multiplier exceeds DUAL_TOL pinned
    at its value in ``solution``; and each ramp row whose multiplier
    exceeds DUAL_TOL as an equality.  Welfare is constant on the face, and
    ``solution`` lies on it and starts the QP.  ``deadline`` goes to the
    QP solve, which raises TimeLimit once it has passed.
    """
    if not instance.interconnectors:
        return solution
    cols, kept, A_eq, A_kept, A_in = model.fixflow_rows
    fills = np.array([solution.delta.get(sid, 0.0) for sid in model.seg_ids])
    flows = [solution.flows.get(key, 0.0) for key in model.flow_keys]
    x0 = np.concatenate((fills[model.vertical], flows))
    n_free = len(x0) - len(flows)

    lb, ub = model.lb[cols], model.ub[cols]
    pinned = np.maximum(duals.nu_lower[cols], duals.nu_upper[cols]) > DUAL_TOL
    lb[pinned] = ub[pinned] = x0[pinned]
    tight = duals.mu_in[:len(model.b_in)] > DUAL_TOL
    # clearing rows with the executed bids and the kept fills moved to the
    # rhs, then the tight ramp rows
    b_eq = model.b_eq - model.bin_A_eq @ model.binaries(solution.selection) - A_kept @ fills[kept]
    d_obj = np.zeros(len(x0))
    d_obj[n_free:] = -2.0
    prob = QpProblem(
        c=np.zeros(len(x0)), d=d_obj,
        A_eq=np.vstack((A_eq, A_in[tight])), b_eq=np.concatenate((b_eq, model.b_in[tight])),
        A_in=A_in[~tight], b_in=model.b_in[~tight], lb=lb, ub=ub,
    )
    sol = solve_qp(prob, x0=x0, deadline=deadline)
    if sol.status != "optimal":
        raise SolverFailure(f"flow canonicalization failed: {sol.status}")

    delta = dict(solution.delta)
    for j, value in zip(cols[:n_free].tolist(), sol.x[:n_free].tolist()):
        delta[model.seg_ids[j]] = value
    return PrimalSolution(
        selection=solution.selection, delta=delta,
        flows=dict(zip(model.flow_keys, sol.x[n_free:].tolist())),
    )


@dataclass(frozen=True)
class PricingOutcome:
    prices: PriceVector
    losses: Mapping[str, float]
    total_loss: float


def _flow_stationarity(model: ClearingModel, flows):
    """The welfare QP's stationarity rows on its flow columns at ``flows``:
    ``P @ prices + G @ multipliers = 0``, one row per flow column, with
    ``P = -A_eq[:, flow]'`` and ``G = -F[tight]'`` over the rows of
    ``model.flow_rows`` that are tight at ``flows``: -1 for an upper bound,
    +1 for a lower bound and the negated ramp row.  ``source`` names the
    flow row each multiplier belongs to (see ``ClearingModel.flow_rows``)."""
    F, h, source = model.flow_rows
    tau = np.array([flows.get(key, 0.0) for key in model.flow_keys])
    tight = np.flatnonzero(h - F @ tau <= TIGHT_TOL)
    f = slice(len(model.seg_ids), model.n)
    return -model.A_eq[:, f].T, -F[tight].T, source[tight]


def _dual_start(model: ClearingModel, duals: Multipliers, source, lb, ub, A_in, b_in, n_lam):
    """A start for the pricing QPs, whose columns are the prices, ``n_lam``
    loss slacks and the multipliers of the tight flow rows ``source``
    names, from ``duals``, the multipliers of a welfare QP on ``model``
    with the priced selection pinned, at a dispatch of the same welfare.

    Each price starts at its clearing row's multiplier clipped into its
    bounds, each flow-row multiplier at the welfare QP's (the flow bounds'
    from its reduced gradient, the ramp rows' from ``mu_in``), and each
    loss slack at its row's excess.  A convex QP has one multiplier set
    for all its optima, so these multipliers also meet the stationarity
    rows at FixFlow's flows, and phase 1 runs only where a price leaves
    its bounds or, without slacks, a bid loses."""
    n_pi = len(model.eq_keys)
    f = slice(len(model.seg_ids), model.n)
    flow = np.concatenate((duals.nu_upper[f], duals.nu_lower[f], duals.mu_in[:len(model.b_in)]))
    x = np.concatenate((np.clip(duals.y_eq, lb[:n_pi], ub[:n_pi]), np.zeros(n_lam), flow[source]))
    if n_lam:
        excess = A_in[:, :n_pi] @ x[:n_pi] - b_in
        x[n_pi:n_pi + n_lam] = np.clip(excess, 0.0, ub[n_pi:n_pi + n_lam])
    return x


def solve_qpprice(
    instance: Instance,
    model: ClearingModel,
    solution: PrimalSolution,
    relax_losses: bool = False,
    deadline: Optional[float] = None,
    duals: Optional[Multipliers] = None,
) -> PricingOutcome:
    """Prices that support ``solution`` on ``model``, the clearing model of
    ``instance``.  With ``relax_losses``, a first QP finds the least total
    loss of the executed fill-or-kill bids, and the prices are chosen among
    those that keep it.  ``duals``, the multipliers of the welfare QP with
    the selection pinned at a dispatch of ``solution``'s welfare (a
    master leaf's or the oracle's relaxation), start the QPs
    (``_dual_start``); without them they start cold."""
    iv = instance.interval
    bids = []  # (id, area, [(hour, quantity)], limit price) per executed bid
    for bid in solution.selection.executed_blocks():
        b = instance.block_by_id[bid]
        bids.append((bid, b.area, list(enumerate(b.quantities)), b.limit_price))
    for fid, t in solution.selection.executed_flex():
        f = instance.flex_by_id[fid]
        bids.append((fid, f.area, [(t, f.quantity)], f.limit_price))
    P, G, source = _flow_stationarity(model, solution.flows)
    n_pi = len(model.eq_keys)
    n_lam = len(bids) if relax_losses else 0
    lam = slice(n_pi, n_pi + n_lam)
    n = n_pi + n_lam + G.shape[1]

    lb = np.full(n, 0.0)
    ub = np.full(n, np.inf)
    lb[:n_pi] = iv.lower
    ub[:n_pi] = iv.upper
    # a loss slack is capped at its bid's largest loss over the interval
    for k, (_, _, qty, limit) in enumerate(bids[:n_lam]):
        worst = sum(min((limit - iv.lower) * q, (limit - iv.upper) * q) for _, q in qty)
        ub[n_pi + k] = max(-worst, 0.0)

    # execution-fraction price rule per quantity-carrying segment, as bounds
    # of its price column: a full segment caps the price, an empty one
    # floors it and a fractional one pins it
    for seg in instance.segments:
        if seg.quantity_span == 0.0:
            continue
        j = model.eq_row[instance.segment_location[seg.id]]
        dlt = solution.delta.get(seg.id, 0.0)
        if dlt >= 1.0 - TIGHT_TOL:
            ub[j] = min(ub[j], seg.price_at(1.0))
        elif dlt <= TIGHT_TOL:
            lb[j] = max(lb[j], seg.price_at(0.0))
        else:
            price = seg.price_at(dlt)
            lb[j], ub[j] = max(lb[j], price), min(ub[j], price)
    if np.any(lb - ub > INFEAS_TOL):
        raise PriceInfeasible("no price meets the segment fill conditions")
    # bounds crossed by round-off pin the price between them
    crossed = lb > ub
    lb[crossed] = ub[crossed] = 0.5 * (lb[crossed] + ub[crossed])

    A_eq = np.zeros((len(P), n))
    A_eq[:, :n_pi] = P
    A_eq[:, n_pi + n_lam:] = G
    b_eq = np.zeros(len(P))
    # no-loss row per executed fill-or-kill bid (slack lam when relaxed)
    A_in = np.zeros((len(bids), n))
    b_in = np.zeros(len(bids))
    for r, (_, area, qty, limit) in enumerate(bids):
        for t, q in qty:
            A_in[r, model.eq_row[area, t]] += q
            b_in[r] += limit * q
    A_in[np.arange(n_lam), n_pi + np.arange(n_lam)] = -1.0
    x1 = None if duals is None else _dual_start(model, duals, source, lb, ub, A_in, b_in, n_lam)

    if n_lam:
        c1 = np.zeros(n)
        c1[lam] = -1.0
        p1 = QpProblem(
            c=c1, d=np.zeros(n), A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in,
            lb=lb, ub=ub,
        )
        s1 = solve_qp(p1, x0=x1, deadline=deadline)
        if s1.status != "optimal":
            raise PriceInfeasible(
                f"no supporting price even with loss slacks ({s1.status})"
            )
        total = float(np.sum(s1.x[lam]))
        row = np.zeros(n)
        row[lam] = 1.0
        A_in = np.vstack([A_in, row])
        b_in = np.append(b_in, total + 1e-9)
        x1 = s1.x

    d2 = np.zeros(n)
    d2[:n_pi] = -2.0
    p2 = QpProblem(
        c=np.zeros(n), d=d2, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in,
        lb=lb, ub=ub,
    )
    s2 = solve_qp(p2, x0=x1, deadline=deadline)
    if s2.status != "optimal":
        raise PriceInfeasible(
            "no loss-free supporting price exists for this execution"
            if not relax_losses
            else f"price selection failed ({s2.status})"
        )

    prices = PriceVector(
        pi={key: float(s2.x[j]) for j, key in enumerate(model.eq_keys)}
    )

    losses = {
        bid: max(0.0, -sum((limit - prices[area, t]) * q for t, q in qty))
        for bid, area, qty, limit in bids
    }
    return PricingOutcome(
        prices=prices,
        losses=losses,
        total_loss=float(sum(losses.values())),
    )


def clamp_prices(
    prices: PriceVector, instance: Instance
) -> tuple[PriceVector, list[str]]:
    """Project each price onto its area interval; clamping can break the
    cross-border price-difference conditions, so each move is reported."""
    out = {}
    warnings = []
    for (a, t), pi in prices.pi.items():
        interval = instance.area_interval(a)
        clamped = interval.clamp(pi)
        out[a, t] = clamped
        if clamped != pi:
            warnings.append(
                f"price for area {a!r} hour {t} moved from {pi} to {clamped}; "
                f"cross-border price conditions may no longer hold"
            )
    return PriceVector(pi=out), warnings
