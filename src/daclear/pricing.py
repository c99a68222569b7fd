"""Uniqueness post-processing: canonical flows and canonical prices.

A fixed selection usually admits many optimal flow patterns and many
supporting price vectors.  FixFlow picks the minimum-squared-norm flows
among the welfare-preserving ones; the price solve picks prices that first
minimize total executed-bid losses, then minimize the squared price norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .core import (
    Instance,
    PriceVector,
    PrimalSolution,
    big_m,
    selection_terms,
)
from .errors import PriceInfeasible, SolverFailure
from .model import build_model
from .qp import INFEAS_TOL, QpProblem, QpSolution, infeasible_by_bounds, solve_qp

TIGHT_TOL = 1e-7


def solve_fixflow(
    instance: Instance, solution: PrimalSolution, deadline: Optional[float] = None
) -> PrimalSolution:
    """Minimum squared-norm flows among welfare-preserving alternatives.

    Slope-carrying segment fills are unique and stay fixed; vertical
    segment fills may redistribute as long as total welfare and clearing
    balance are preserved.  ``deadline`` goes to the QP solve, which raises
    TimeLimit once it has passed.
    """
    if not instance.interconnectors:
        return solution
    model = build_model(instance)
    free = [s for s in instance.segments if s.is_vertical]
    free_ids = {s.id for s in free}
    cols = [model.seg_col[s.id] for s in free] + list(model.flow_col.values())
    n_free = len(free)
    n = len(cols)

    c_obj = np.zeros(n)
    d_obj = np.zeros(n)
    d_obj[n_free:] = -2.0

    # clearing rows with the pinned (sloped) fills moved to the rhs,
    # plus one welfare-preservation row over the free fills
    n_eq = len(model.eq_keys)
    A_eq = np.zeros((n_eq + 1, n))
    A_eq[:n_eq] = model.A_eq[:, cols]
    b_eq = np.zeros(n_eq + 1)
    terms = selection_terms(instance, solution.selection)
    for r, (a, t) in enumerate(model.eq_keys):
        rhs = model.b_eq[r] - terms.volume[a, t]
        for seg in instance.curves[a, t].segments:
            if seg.id not in free_ids:
                rhs -= seg.quantity_span * solution.delta.get(seg.id, 0.0)
        b_eq[r] = rhs
    for k, seg in enumerate(free):
        A_eq[n_eq, k] = seg.base_price * seg.quantity_span
        b_eq[n_eq] += (
            seg.base_price * seg.quantity_span * solution.delta.get(seg.id, 0.0)
        )

    prob = QpProblem(
        c=c_obj, d=d_obj, A_eq=A_eq, b_eq=b_eq, A_in=model.A_in[:, cols],
        b_in=model.b_in, lb=model.lb[cols], ub=model.ub[cols],
    )
    x0 = np.zeros(n)
    for k, seg in enumerate(free):
        x0[k] = solution.delta.get(seg.id, 0.0)
    for k, key in enumerate(model.flow_keys):
        x0[n_free + k] = solution.flows.get(key, 0.0)
    sol = solve_qp(prob, x0=x0, deadline=deadline)
    if sol.status != "optimal":
        raise SolverFailure(f"flow canonicalization failed: {sol.status}")

    delta = dict(solution.delta)
    for k, seg in enumerate(free):
        delta[seg.id] = float(sol.x[k])
    flows = {key: float(sol.x[n_free + k]) for k, key in enumerate(model.flow_keys)}
    return PrimalSolution(selection=solution.selection, delta=delta, flows=flows)


@dataclass(frozen=True)
class PricingOutcome:
    prices: PriceVector
    losses: Mapping[str, float]
    total_loss: float


def _tight_flow_multiplier_vars(instance: Instance, flows):
    """Which flow-side multipliers may be nonzero at the fixed flows."""
    keys = []
    for c in instance.interconnectors:
        ramp = c.ramp_rate if c.ramp_rate is not None else np.inf
        for t in range(instance.hours):
            tau = flows.get((c.id, t), 0.0)
            if c.upper[t] - tau <= TIGHT_TOL:
                keys.append((c.id, t, "mu_upper"))
            if tau - c.lower[t] <= TIGHT_TOL:
                keys.append((c.id, t, "mu_lower"))
            if np.isfinite(ramp):
                prev = c.initial_flow if t == 0 else flows.get((c.id, t - 1), 0.0)
                if (tau - prev) >= ramp - TIGHT_TOL:
                    keys.append((c.id, t, "rho_fwd"))
                if (prev - tau) >= ramp - TIGHT_TOL:
                    keys.append((c.id, t, "rho_bwd"))
    return keys


# flow multiplier kinds: the ones at even positions let a connector's sink
# price exceed its source price, the ones at odd positions let it fall below
_MULTS = ("mu_upper", "mu_lower", "rho_fwd", "rho_bwd")


def _price_start(instance: Instance, mult_col, lb, ub, A_in, b_in, n_lam):
    """A start for the pricing QPs, whose columns are the prices (area, then
    hour), ``n_lam`` loss slacks and the flow multipliers in ``mult_col``.

    Prices start at their lower bounds and rise to the least prices that
    meet each (connector, hour) sign rule: without a multiplier column of
    one kind at that hour, the rows say sink >= source (no mu_lower or
    rho_bwd) or sink <= source (no mu_upper or rho_fwd).  These are
    difference constraints, relaxed Bellman-Ford style, then clipped into
    the bounds.  Each connector's multipliers then absorb its rows from the
    last hour back, a ramp multiplier carrying its value into the previous
    hour's row, and each loss slack takes its row's excess.  Phase 1 runs
    only where this point is infeasible."""
    T = instance.hours
    index = {a: k * T for k, a in enumerate(instance.areas)}  # first price column
    n_pi = len(index) * T
    rules = []  # (lo, hi): the price in column hi is at least the one in lo
    for c in instance.interconnectors:
        for t in range(T):
            has = [(c.id, t, m) in mult_col for m in _MULTS]
            src, sink = index[c.source] + t, index[c.sink] + t
            if not (has[1] or has[3]):  # no mu_lower, no rho_bwd
                rules.append((src, sink))
            if not (has[0] or has[2]):  # no mu_upper, no rho_fwd
                rules.append((sink, src))
    pi = lb[:n_pi].tolist()  # plain floats: a book has a handful of prices
    for _ in range(len(index) + 1):
        raised = False
        for lo, hi in rules:
            if pi[hi] < pi[lo]:
                pi[hi] = pi[lo]
                raised = True
        if not raised:
            break
    x = np.zeros(len(lb))
    x[:n_pi] = np.clip(pi, lb[:n_pi], ub[:n_pi])
    pi = x[:n_pi].tolist()
    for c in instance.interconnectors:
        carry = 0.0
        for t in reversed(range(T)):
            r = pi[index[c.sink] + t] - pi[index[c.source] + t] + carry
            carry = 0.0
            names = _MULTS[0::2] if r > 0.0 else _MULTS[1::2] if r < 0.0 else ()
            for name in names:
                j = mult_col.get((c.id, t, name))
                if j is not None:
                    x[j] = abs(r)
                    carry = r if name.startswith("rho") else 0.0
                    break
    if n_lam:
        excess = A_in[:n_lam, :n_pi] @ x[:n_pi] - b_in[:n_lam]
        x[n_pi : n_pi + n_lam] = np.clip(excess, 0.0, ub[n_pi : n_pi + n_lam])
    return x


def _solve(prob: QpProblem, x0, deadline) -> QpSolution:
    """solve_qp, or an infeasible verdict without a QP when row activity
    bounds prove it."""
    if infeasible_by_bounds(prob):
        return QpSolution(status="infeasible")
    return solve_qp(prob, x0=x0, deadline=deadline)


def solve_qpprice(
    instance: Instance,
    solution: PrimalSolution,
    relax_losses: bool = False,
    deadline: Optional[float] = None,
) -> PricingOutcome:
    areas = instance.areas
    T = instance.hours
    pi_keys = [(a, t) for a in areas for t in range(T)]
    pi_col = {key: j for j, key in enumerate(pi_keys)}
    exec_blocks = solution.selection.executed_blocks()
    exec_flex = solution.selection.executed_flex()
    lam_keys = (exec_blocks + [f for f, _ in exec_flex]) if relax_losses else []
    lam_col = {bid: len(pi_keys) + j for j, bid in enumerate(lam_keys)}
    mult_keys = _tight_flow_multiplier_vars(instance, solution.flows)
    mult_col = {key: len(pi_keys) + len(lam_keys) + j for j, key in enumerate(mult_keys)}
    n = len(pi_keys) + len(lam_keys) + len(mult_keys)

    lb = np.full(n, 0.0)
    ub = np.full(n, np.inf)
    for key, j in pi_col.items():
        lb[j] = instance.interval.lower
        ub[j] = instance.interval.upper
    for bid, j in lam_col.items():
        if bid in instance.block_by_id:
            cap = -big_m(instance.block_by_id[bid], instance.interval)
        else:
            f = instance.flex_by_id[bid]
            cap = max(
                (f.limit_price - instance.interval.lower) * -f.quantity,
                (f.limit_price - instance.interval.upper) * -f.quantity,
            )
        ub[j] = max(cap, 0.0)

    # execution-fraction price rule per quantity-carrying segment, as bounds
    # of its price column: a full segment caps the price, an empty one
    # floors it and a fractional one pins it
    for seg in instance.segments:
        if seg.quantity_span == 0.0:
            continue
        j = pi_col[instance.segment_location[seg.id]]
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

    eq_rows = []
    eq_rhs = []
    in_rows = []
    in_rhs = []

    # price-difference stationarity per interconnector and hour
    for c in instance.interconnectors:
        for t in range(T):
            row = np.zeros(n)
            row[pi_col[c.sink, t]] += 1.0
            row[pi_col[c.source, t]] -= 1.0
            for name, sgn, tt in (
                ("mu_upper", -1.0, t),
                ("mu_lower", 1.0, t),
                ("rho_fwd", -1.0, t),
                ("rho_bwd", 1.0, t),
                ("rho_fwd", 1.0, t + 1),
                ("rho_bwd", -1.0, t + 1),
            ):
                key = (c.id, tt, name)
                if key in mult_col:
                    row[mult_col[key]] += sgn
            eq_rows.append(row)
            eq_rhs.append(0.0)

    # no-loss rows for executed fill-or-kill bids (slack lam when relaxed)
    def loss_row(area, hours_qty, limit, bid):
        row = np.zeros(n)
        rhs = 0.0
        for t, q in hours_qty:
            row[pi_col[area, t]] += q
            rhs += limit * q
        if relax_losses:
            row[lam_col[bid]] = -1.0
        in_rows.append(row)
        in_rhs.append(rhs)

    for bid in exec_blocks:
        b = instance.block_by_id[bid]
        loss_row(b.area, list(enumerate(b.quantities)), b.limit_price, bid)
    for fid, t in exec_flex:
        f = instance.flex_by_id[fid]
        loss_row(f.area, [(t, f.quantity)], f.limit_price, fid)

    A_eq = np.array(eq_rows).reshape(-1, n)
    b_eq = np.array(eq_rhs)
    A_in = np.array(in_rows).reshape(-1, n)
    b_in = np.array(in_rhs)
    x1 = _price_start(instance, mult_col, lb, ub, A_in, b_in, len(lam_keys))

    if relax_losses and lam_keys:
        c1 = np.zeros(n)
        for j in lam_col.values():
            c1[j] = -1.0
        p1 = QpProblem(
            c=c1, d=np.zeros(n), A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in,
            lb=lb, ub=ub,
        )
        s1 = _solve(p1, x1, deadline)
        if s1.status != "optimal":
            raise PriceInfeasible(
                f"no supporting price even with loss slacks ({s1.status})"
            )
        total = float(np.sum(s1.x[len(pi_keys) : len(pi_keys) + len(lam_keys)]))
        row = np.zeros(n)
        for j in lam_col.values():
            row[j] = 1.0
        A_in = np.vstack([A_in, row])
        b_in = np.append(b_in, total + 1e-9)
        x1 = s1.x

    c2 = np.zeros(n)
    d2 = np.zeros(n)
    for j in pi_col.values():
        d2[j] = -2.0
    p2 = QpProblem(
        c=c2, d=d2, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, lb=lb, ub=ub
    )
    s2 = _solve(p2, x1, deadline)
    if s2.status != "optimal":
        raise PriceInfeasible(
            "no loss-free supporting price exists for this execution"
            if not relax_losses
            else f"price selection failed ({s2.status})"
        )

    prices = PriceVector(pi={key: float(s2.x[pi_col[key]]) for key in pi_keys})

    losses = {}
    for bid in exec_blocks:
        b = instance.block_by_id[bid]
        surplus = sum(
            (b.limit_price - prices[b.area, t]) * q for t, q in enumerate(b.quantities)
        )
        losses[bid] = max(0.0, -surplus)
    for fid, t in exec_flex:
        f = instance.flex_by_id[fid]
        losses[fid] = max(0.0, -(f.limit_price - prices[f.area, t]) * f.quantity)

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
