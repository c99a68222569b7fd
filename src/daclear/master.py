"""Cut-constrained welfare maximization over binary bid executions.

Branch-and-bound on the block and flex execution variables; every node is
a concave QP (binaries relaxed to [0,1]) solved by the active-set engine.
Price conditions are absent here by design: cuts supplied by the caller
are the only coupling to pricing.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BidSelection,
    Instance,
    PriceInterval,
    PrimalSolution,
    big_m,
    presolve_price_bounds,
)
from .cuts import Cut, CutPool
from .errors import InfeasibleSelection
from .qp import QpProblem, solve_qp

INT_TOL = 1e-6


@dataclass
class MasterResult:
    status: str  # optimal | infeasible | limit
    solution: Optional[PrimalSolution] = None
    objective: float = float("-inf")
    bound: float = float("inf")
    nodes: int = 0


@dataclass
class _Layout:
    seg_ids: list
    flow_keys: list
    block_ids: list
    flex_keys: list  # (flex id, hour)
    eq_keys: list

    @property
    def n_cont(self):
        return len(self.seg_ids) + len(self.flow_keys)

    @property
    def n(self):
        return self.n_cont + len(self.block_ids) + len(self.flex_keys)


def _assemble(instance: Instance, cuts: CutPool):
    layout = _Layout(
        seg_ids=[s.id for s in instance.segments],
        flow_keys=[(c.id, t) for c in instance.interconnectors for t in range(instance.hours)],
        block_ids=[b.id for b in instance.blocks],
        flex_keys=[(f.id, t) for f in instance.flex_bids for t in range(instance.hours)],
        eq_keys=[(a, t) for a in instance.areas for t in range(instance.hours)],
    )
    n = layout.n
    n_seg = len(layout.seg_ids)
    n_cont = layout.n_cont
    conn = {c.id: c for c in instance.interconnectors}
    col_block = {bid: n_cont + j for j, bid in enumerate(layout.block_ids)}
    col_flex = {key: n_cont + len(layout.block_ids) + j for j, key in enumerate(layout.flex_keys)}

    c = np.zeros(n)
    d = np.zeros(n)
    lb = np.zeros(n)
    ub = np.ones(n)
    for j, seg in enumerate(instance.segments):
        c[j] = (seg.base_price + seg.price_span) * seg.quantity_span
        d[j] = -seg.price_span * seg.quantity_span
    for k, (cid, t) in enumerate(layout.flow_keys):
        lb[n_seg + k] = conn[cid].lower[t]
        ub[n_seg + k] = conn[cid].upper[t]
    for b in instance.blocks:
        c[col_block[b.id]] = b.limit_price * sum(b.quantities)
    for f in instance.flex_bids:
        for t in range(instance.hours):
            c[col_flex[f.id, t]] = f.limit_price * f.quantity

    seg_col = {sid: j for j, sid in enumerate(layout.seg_ids)}
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
        for b in instance.blocks:
            if b.area == a and b.quantities[t] != 0.0:
                A_eq[r, col_block[b.id]] = b.quantities[t]
        for f in instance.flex_bids:
            if f.area == a:
                A_eq[r, col_flex[f.id, t]] = f.quantity
        b_eq[r] = -curve.min_net_demand

    in_rows = []
    in_rhs = []
    for cc in instance.interconnectors:
        if cc.ramp_rate is None or not np.isfinite(cc.ramp_rate):
            continue
        for t in range(instance.hours):
            for sgn in (1.0, -1.0):
                row = np.zeros(n)
                row[n_seg + layout.flow_keys.index((cc.id, t))] = sgn
                rhs = cc.ramp_rate
                if t == 0:
                    rhs += sgn * cc.initial_flow
                else:
                    row[n_seg + layout.flow_keys.index((cc.id, t - 1))] = -sgn
                in_rows.append(row)
                in_rhs.append(rhs)
    for child, parent in instance.links:
        row = np.zeros(n)
        row[col_block[child]] = 1.0
        row[col_block[parent]] -= 1.0
        in_rows.append(row)
        in_rhs.append(0.0)
    for f in instance.flex_bids:
        row = np.zeros(n)
        for t in range(instance.hours):
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
    prob = QpProblem(c=c, d=d, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, lb=lb, ub=ub)
    return prob, layout, col_block, col_flex


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


def _selection_from_x(layout: _Layout, x, n_cont) -> BidSelection:
    blocks = {}
    for j, bid in enumerate(layout.block_ids):
        blocks[bid] = int(round(x[n_cont + j]))
    flex = {}
    for f_id, _ in layout.flex_keys:
        flex.setdefault(f_id, None)
    for j, (fid, t) in enumerate(layout.flex_keys):
        if round(x[n_cont + len(layout.block_ids) + j]) == 1:
            flex[fid] = t
    return BidSelection(blocks=blocks, flex=flex)


def solve_master(
    instance: Instance,
    cuts: Optional[CutPool] = None,
    abs_gap: float = 1e-9,
    time_limit: Optional[float] = None,
    incumbent: Optional[BidSelection] = None,
    presolve: bool = True,
) -> MasterResult:
    cuts = cuts if cuts is not None else CutPool()
    prob, layout, col_block, col_flex = _assemble(instance, cuts)
    n_cont = layout.n_cont
    n = layout.n
    bin_cols = list(range(n_cont, n))
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
        p = QpProblem(
            c=prob.c, d=prob.d, A_eq=prob.A_eq, b_eq=prob.b_eq,
            A_in=prob.A_in, b_in=prob.b_in, lb=sel_lb, ub=sel_ub,
        )
        return solve_qp(p, x0=x0)

    if incumbent is not None:
        lbw = base_lb.copy()
        ubw = base_ub.copy()
        ok = True
        for j, bid in enumerate(layout.block_ids):
            v = float(incumbent.blocks.get(bid, 0))
            if not (base_lb[n_cont + j] - 1e-12 <= v <= base_ub[n_cont + j] + 1e-12):
                ok = False
                break
            lbw[n_cont + j] = ubw[n_cont + j] = v
        for j, (fid, t) in enumerate(layout.flex_keys):
            col = n_cont + len(layout.block_ids) + j
            v = 1.0 if incumbent.flex.get(fid) == t else 0.0
            if not (base_lb[col] - 1e-12 <= v <= base_ub[col] + 1e-12):
                ok = False
                break
            lbw[col] = ubw[col] = v
        if ok and all(cut.satisfied(incumbent) for cut in cuts):
            warm = solve_fixed(lbw, ubw)
            if warm.status == "optimal":
                best_obj = warm.objective
                best_x = warm.x

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
    selection = _selection_from_x(layout, best_x, n_cont)
    delta = {sid: float(best_x[j]) for j, sid in enumerate(layout.seg_ids)}
    flows = {
        key: float(best_x[len(layout.seg_ids) + k])
        for k, key in enumerate(layout.flow_keys)
    }
    return MasterResult(
        status=status,
        solution=PrimalSolution(selection=selection, delta=delta, flows=flows),
        objective=best_obj,
        bound=bound,
        nodes=nodes,
    )

