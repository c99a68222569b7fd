"""Independent equilibrium checkers and a brute-force clearing oracle.

The checkers re-derive every condition from the book and the primal values
alone, without the clearing model or any multiplier the solvers produce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import BidSelection, Instance, PriceVector, bid_surplus
from .driver import _check_leaf, _finish
from .errors import PriceInfeasible, SolverFailure, TooLarge
from .model import ClearingModel, build_model
from .qp import QpProblem, solve_qp
from .relaxation import solve_relaxation
from .tolerances import CHECK_TOL, TIGHT_TOL


@dataclass(frozen=True)
class Violation:
    location: tuple
    amount: float
    condition: str


@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    violations: tuple[Violation, ...] = ()

    @staticmethod
    def from_violations(violations) -> "ConditionReport":
        v = tuple(violations)
        return ConditionReport(passed=not v, violations=v)


def check_filling(
    instance: Instance,
    delta: Mapping[int, float],
    prices: PriceVector,
    tol: float = CHECK_TOL,
) -> ConditionReport:
    """Price/fill consistency of every quantity-carrying segment, by the
    three-way rule: full fill allows lower prices, no fill allows higher
    prices, interior fill pins the price."""
    violations = []
    for seg in instance.segments:
        if seg.quantity_span == 0.0:
            continue
        a, t = instance.segment_location[seg.id]
        dlt = float(delta.get(seg.id, 0.0))
        v = _case_violation(seg, dlt, prices[a, t], tol)
        if v is not None:
            violations.append(Violation((a, t, seg.id), abs(v), "filling"))
    return ConditionReport.from_violations(violations)


def _case_violation(seg, dlt, pi, tol):
    v = pi - seg.price_at(dlt)
    if abs(v) <= tol:
        return None
    if dlt >= 1.0 - tol and v <= tol:
        return None
    if dlt <= tol and v >= -tol:
        return None
    return v


def check_flow_price(
    instance: Instance,
    flows: Mapping[tuple[str, int], float],
    prices: PriceVector,
    tol: float = CHECK_TOL,
) -> ConditionReport:
    """Existence of nonnegative congestion/ramp multipliers explaining
    every cross-border price difference at the fixed flows, one LP per
    interconnector (``_flow_general``).  A flow bound or ramp row counts
    as tight within max(tol, TIGHT_TOL), the tolerance of pricing's tight
    sets at the least, so a pass at one ``tol`` is a pass at every larger
    one."""
    return ConditionReport.from_violations(
        v for c in instance.interconnectors for v in _flow_general(instance, c, flows, prices, tol))


def _flow_general(instance, c, flows, prices, tol):
    """Multiplier-existence test: minimize slack in the per-hour
    stationarity rows over the multipliers of tight constraints, judged in
    book units (``rise = tau - prev``, ``prev`` the initial flow at hour 0;
    a connector without a ramp limit has no tight ramp row).
    Multiplier columns: the held (hour, kind) entries of ``E, -E, D, -D``
    (upper, lower, ramp up, ramp down; ``E = I``, ``D = I - eye(T, k=1)``),
    hour-major; slack columns: ``kron(E, [1, -1])``.  ``+ 0.0`` clears each
    ``-0.0``, as the QP kernel's vertex on a degenerate LP depends on it.
    SolverFailure when the LP, which always has a solution, ends otherwise."""
    T, tight = instance.hours, max(tol, TIGHT_TOL)
    ramp = c.ramp_rate if c.ramp_rate is not None else np.inf
    tau = np.array([flows.get((c.id, t), 0.0) for t in range(T)])
    rise = tau - np.append(c.initial_flow, tau[:-1])
    held = np.column_stack((np.array(c.upper) - tau <= tight, tau - np.array(c.lower) <= tight,
                            rise >= ramp - tight, -rise >= ramp - tight))
    E, D = np.eye(T), np.eye(T) - np.eye(T, k=1)
    mult = np.stack((E, -E, D, -D), axis=2)[:, held] + 0.0
    A_eq = np.hstack((mult, np.kron(E, [1.0, -1.0]) + 0.0))
    b_eq = np.array([prices[c.sink, t] - prices[c.source, t] for t in range(T)])
    n, k = A_eq.shape[1], mult.shape[1]
    sol = solve_qp(QpProblem(
        c=np.r_[np.zeros(k), np.full(2 * T, -1.0)], d=np.zeros(n), A_eq=A_eq, b_eq=b_eq,
        A_in=np.zeros((0, n)), b_in=np.zeros(0), lb=np.zeros(n), ub=np.full(n, np.inf)))
    if sol.status != "optimal":
        raise SolverFailure(f"unexpected flow-price LP status {sol.status!r} on {c.id!r}")
    resid = b_eq - mult @ sol.x[:k]
    return [Violation((c.id, t), abs(float(r)), "flow-price")
            for t, r in enumerate(resid) if abs(r) > tol]


def check_bid_prices(
    instance: Instance,
    selection: BidSelection,
    prices: PriceVector,
    tol: float = CHECK_TOL,
) -> ConditionReport:
    """No executed fill-or-kill bid may lose money at the prices: one
    violation per losing bid, located at its key."""
    return ConditionReport.from_violations(
        Violation(key, -surplus, "no-loss")
        for key in selection.executed_keys()
        if (surplus := bid_surplus(instance, key, prices)) < -tol
    )


def check_links(instance: Instance, selection: BidSelection) -> ConditionReport:
    """No executed child block whose parent block is rejected: one
    violation per broken link, located at (child, parent)."""
    return ConditionReport.from_violations(
        Violation((child, parent), 1.0, "link")
        for child, parent in instance.links
        if selection.blocks.get(child, 0) > selection.blocks.get(parent, 0)
    )


def check_bounds(
    instance: Instance,
    delta: Mapping[int, float],
    flows: Mapping[tuple[str, int], float],
    tol: float = CHECK_TOL,
) -> ConditionReport:
    """Fills within [0, 1], by segment id; flows within their
    interconnector's bounds, by connector and hour; then the ramp rows
    ``+-(flow[t] - flow[t-1]) <= ramp_rate`` (``fwd``, then ``bwd``), by
    connector and hour, with the initial flow as ``flow[-1]``, moved to
    the right-hand side at hour 0 as in the clearing model.  Each excess
    beyond ``tol``, in the book's units, is a violation."""
    bounds, ramps = [], []
    for sid, (a, t) in sorted(instance.segment_location.items()):
        x = float(delta.get(sid, 0.0))
        bounds.append(((a, t, sid), -x, x - 1.0, "fill-bound"))
    for c in instance.interconnectors:
        prev, r = c.initial_flow, c.ramp_rate
        for t in range(instance.hours):
            tau = float(flows.get((c.id, t), 0.0))
            bounds.append(((c.id, t), c.lower[t] - tau, tau - c.upper[t], "flow-bound"))
            if r is not None:
                up, down = (tau - (r + prev), -tau - (r - prev)) if t == 0 else (
                    tau - prev - r, prev - tau - r)
                ramps += [((c.id, t, "fwd"), up), ((c.id, t, "bwd"), down)]
            prev = tau
    return ConditionReport.from_violations(
        [Violation(loc, v, kind) for loc, below, above, kind in bounds
         if (v := max(below, above)) > tol]
        + [Violation(loc, v, "ramp") for loc, v in ramps if v > tol])


def _all_selections(instance: Instance):
    """All selections in lexicographic order (rejected first), link-breaking
    ones too: the model's link rows refute those in ``solve_qp``'s row test."""
    block_ids = [b.id for b in instance.blocks]
    flex_ids = [f.id for f in instance.flex_bids]
    hour_choices = [None] + list(range(instance.hours))
    for bits in itertools.product((0, 1), repeat=len(block_ids)):
        blocks = dict(zip(block_ids, bits))
        for assign in itertools.product(hour_choices, repeat=len(flex_ids)):
            yield BidSelection(blocks=blocks, flex=dict(zip(flex_ids, assign)))


def _relaxations(instance: Instance, model: ClearingModel):
    """(objective, index, x, duals) of each enumerated selection whose
    relaxation clears, in enumeration order (see ``solve_relaxation``).
    The relaxation is the master problem on ``model``, the clearing model
    of ``instance``, with its binary columns pinned at the selection; its
    objective leaves the model in the book's units of money."""
    prob = model.master()
    for idx, selection in enumerate(_all_selections(instance)):
        lb, ub = prob.lb.copy(), prob.ub.copy()
        lb[model.n:] = ub[model.n:] = model.binaries(selection)
        pinned = prob.with_bounds(lb, ub)  # shares the master's rows
        relaxed = solve_relaxation(pinned, model)
        if relaxed is not None:
            objective, x, duals = relaxed
            yield objective * model.money_unit, idx, x, duals


ORACLE_CAP = 12  # binary decisions (``Instance.bid_terms`` keys) at most


def oracle_clear(instance: Instance):
    """Ground-truth clearing by enumeration of all bid selections, for a
    book of at most ORACLE_CAP binary decisions (else TooLarge).

    Candidates are ranked by relaxed welfare and tested from the top down
    by the clear's own leaf check (``driver._check_leaf``); the first that
    passes is optimal.  Its result is built as the clear's
    (``driver._finish``), with its relaxation objective as welfare and
    bound, and with the frontier: (objective, selection, passed) per
    tested candidate.
    """
    decisions = len(instance.bid_terms)
    if decisions > ORACLE_CAP:
        raise TooLarge(f"{decisions} binary decisions exceed the enumeration cap {ORACLE_CAP}")
    model = build_model(instance)
    candidates = sorted(_relaxations(instance, model), key=lambda rec: (-rec[0], rec[1]))
    frontier = []
    for objective, _, x, duals in candidates:
        x, fills, prices, curt = _check_leaf(
            instance, model, model.selection_at(x), x, duals, None)
        passed = prices is not None and not curt
        frontier.append((objective, fills.selection, passed))
        if passed:
            return _finish(instance, model, "oracle", model.primal(fills.selection, x), prices,
                           objective, objective, (), tuple(frontier))
    raise PriceInfeasible("no selection admits supporting prices")
