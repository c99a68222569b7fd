"""Cut-constrained welfare maximization over binary bid executions.

Branch-and-bound on the block and flex execution variables; every node is
a concave QP (binaries relaxed to [0,1]) solved by the active-set engine.
Price conditions are absent here by design: cuts supplied by the caller
are the only coupling to pricing.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    BidSelection,
    Instance,
    PrimalSolution,
    presolve_price_bounds,
)
from .cuts import CutPool
from .model import build_model
from .qp import QpProblem, solve_qp

INT_TOL = 1e-6


@dataclass
class MasterResult:
    status: str  # optimal | infeasible | limit
    solution: Optional[PrimalSolution] = None
    objective: float = float("-inf")
    bound: float = float("inf")
    nodes: int = 0


def _assemble(instance: Instance, cuts: CutPool):
    """The clearing model with a column per block and per flex (bid, hour),
    and the link, flex-once and cut rows over those columns."""
    model = build_model(instance)
    n_cont = model.n
    hours = range(instance.hours)
    flex_keys = [(f.id, t) for f in instance.flex_bids for t in hours]
    col_block = {b.id: n_cont + j for j, b in enumerate(instance.blocks)}
    col_flex = {key: n_cont + len(col_block) + j for j, key in enumerate(flex_keys)}
    n = n_cont + len(col_block) + len(col_flex)

    c = np.zeros(n)
    d = np.zeros(n)
    lb = np.zeros(n)
    ub = np.ones(n)
    c[:n_cont], d[:n_cont] = model.c, model.d
    lb[:n_cont], ub[:n_cont] = model.lb, model.ub
    A_eq = np.zeros((len(model.eq_keys), n))
    A_eq[:, :n_cont] = model.A_eq
    for b in instance.blocks:
        c[col_block[b.id]] = b.limit_price * sum(b.quantities)
        for t in hours:
            if b.quantities[t] != 0.0:
                A_eq[model.eq_row[b.area, t], col_block[b.id]] = b.quantities[t]
    for f in instance.flex_bids:
        for t in hours:
            c[col_flex[f.id, t]] = f.limit_price * f.quantity
            A_eq[model.eq_row[f.area, t], col_flex[f.id, t]] = f.quantity

    ramp = np.zeros((len(model.b_in), n))
    ramp[:, :n_cont] = model.A_in
    in_rows = list(ramp)
    in_rhs = list(model.b_in)
    for child, parent in instance.links:
        row = np.zeros(n)
        row[col_block[child]] = 1.0
        row[col_block[parent]] -= 1.0
        in_rows.append(row)
        in_rhs.append(0.0)
    for f in instance.flex_bids:
        row = np.zeros(n)
        for t in hours:
            row[col_flex[f.id, t]] = 1.0
        in_rows.append(row)
        in_rhs.append(1.0)
    for cut in cuts:
        row = np.zeros(n)
        for key, coef in cut.coeffs:
            if key[0] == "block":
                row[col_block[key[1]]] += coef
            else:
                row[col_flex[key[1], key[2]]] += coef
        in_rows.append(row)
        in_rhs.append(cut.rhs)

    A_in = np.array(in_rows).reshape(-1, n)
    b_in = np.array(in_rhs)
    prob = QpProblem(c=c, d=d, A_eq=A_eq, b_eq=model.b_eq, A_in=A_in, b_in=b_in, lb=lb, ub=ub)
    return prob, model, col_block, col_flex


def _presolve_fixings(instance: Instance) -> dict:
    """Binary columns provably zero: bids that lose at every price inside
    the presolve bounds.  Only the always-loss direction is fixed; the
    never-loss direction is left to the search (forcing execution is not
    welfare-safe in general)."""
    bounds = presolve_price_bounds(instance)
    fixed = {}
    for b in instance.blocks:
        best = 0.0
        for t, q in enumerate(b.quantities):
            iv = bounds[b.area, t]
            best += max((b.limit_price - iv.lower) * q, (b.limit_price - iv.upper) * q)
        if best < -1e-9:
            fixed["block", b.id] = 0.0
    for f in instance.flex_bids:
        for t in range(instance.hours):
            iv = bounds[f.area, t]
            best = max(
                (f.limit_price - iv.lower) * f.quantity,
                (f.limit_price - iv.upper) * f.quantity,
            )
            if best < -1e-9:
                fixed["flex", f.id, t] = 0.0
    return fixed


def _selection_from_x(instance: Instance, x, col_block, col_flex) -> BidSelection:
    blocks = {bid: int(round(x[j])) for bid, j in col_block.items()}
    flex = {f.id: None for f in instance.flex_bids}
    for (fid, t), j in col_flex.items():
        if round(x[j]) == 1:
            flex[fid] = t
    return BidSelection(blocks=blocks, flex=flex)


def solve_master(
    instance: Instance,
    cuts: Optional[CutPool] = None,
    abs_gap: float = 1e-9,
    time_limit: Optional[float] = None,
    presolve: bool = True,
) -> MasterResult:
    cuts = cuts if cuts is not None else CutPool()
    prob, model, col_block, col_flex = _assemble(instance, cuts)
    bin_cols = list(range(model.n, prob.n))
    deadline = time.monotonic() + time_limit if time_limit is not None else None

    base_lb = prob.lb.copy()
    base_ub = prob.ub.copy()
    if presolve:
        for key, val in _presolve_fixings(instance).items():
            j = col_block[key[1]] if key[0] == "block" else col_flex[key[1], key[2]]
            base_lb[j] = base_ub[j] = val

    best_obj = float("-inf")
    best_x = None
    closed_bound = float("-inf")  # largest bound among gap-pruned nodes
    nodes = 0

    def solve_fixed(sel_lb, sel_ub, x0=None):
        return solve_qp(replace(prob, lb=sel_lb, ub=sel_ub), x0=x0)

    counter = 0
    root = (base_lb, base_ub, None)  # bounds and the parent's optimal x
    heap = []

    def push(bound, node):
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (-bound, counter, node))

    push(float("inf"), root)
    status = "optimal"
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            status = "limit"
            break
        neg_bound, _, (node_lb, node_ub, node_x0) = heapq.heappop(heap)
        if -neg_bound <= best_obj + abs_gap:
            closed_bound = max(closed_bound, -neg_bound)
            continue
        sol = solve_fixed(node_lb, node_ub, x0=node_x0)
        nodes += 1
        if sol.status != "optimal":
            continue
        if sol.objective <= best_obj + abs_gap:
            closed_bound = max(closed_bound, sol.objective)
            continue
        frac = [
            (abs(sol.x[j] - round(sol.x[j])), j)
            for j in bin_cols
            if node_lb[j] < node_ub[j]
        ]
        worst = max((f for f, _ in frac), default=0.0)
        if worst <= INT_TOL:
            # integral leaf: re-solve with binaries pinned at the rounding
            leaf_lb = node_lb.copy()
            leaf_ub = node_ub.copy()
            for j in bin_cols:
                leaf_lb[j] = leaf_ub[j] = round(sol.x[j])
            exact = solve_fixed(leaf_lb, leaf_ub, x0=sol.x)
            if exact.status == "optimal" and exact.objective > best_obj:
                best_obj = exact.objective
                best_x = exact.x
            continue
        # branch on the most fractional binary, lowest column on ties
        j_star = min(
            (j for f, j in frac if f >= worst - 1e-12),
        )
        for fixed_val in (0.0, 1.0):
            child_lb = node_lb.copy()
            child_ub = node_ub.copy()
            child_lb[j_star] = child_ub[j_star] = fixed_val
            push(sol.objective, (child_lb, child_ub, sol.x))

    if status == "limit":
        open_bound = max((-nb for nb, _, _ in heap), default=float("-inf"))
        bound = max(best_obj, closed_bound, open_bound)
    else:
        bound = max(best_obj, closed_bound)
    if best_x is None:
        return MasterResult(
            status="infeasible" if status == "optimal" else status,
            objective=float("-inf"),
            bound=bound,
            nodes=nodes,
        )
    selection = _selection_from_x(instance, best_x, col_block, col_flex)
    delta = {sid: float(best_x[j]) for sid, j in model.seg_col.items()}
    flows = {key: float(best_x[j]) for key, j in model.flow_col.items()}
    return MasterResult(
        status=status,
        solution=PrimalSolution(selection=selection, delta=delta, flows=flows),
        objective=best_obj,
        bound=bound,
        nodes=nodes,
    )

