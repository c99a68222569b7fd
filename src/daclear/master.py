"""Cut-constrained welfare maximization over binary bid executions.

One best-first branch-and-cut tree on the block and flex execution
variables, the binary columns of the clearing model's master problem
(``ClearingModel.master``); every node is a concave QP (binaries relaxed
to [0,1]) solved by the active-set engine, on the box that its rows leave
it: before the QP, each free binary whose other value one row rules out
over the node's box is fixed (node presolve; Savelsbergh, 1994).  Price
conditions are absent here: the leaf test is the only coupling to pricing.
The test sees each integral leaf that is the master optimum under the cuts
so far, and either accepts it or returns cuts, which become rows of the
one QP while the search goes on (Padberg and Rinaldi, 1991).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import BidSelection
from .cuts import Cut
from .errors import TimeLimit
from .model import ClearingModel, balanced_start
from .qp import Multipliers, QpProblem, _lowest_activity, multipliers, solve_qp
from .tolerances import CHECK_TOL, DEFAULT_GAP, ROUND_TOL

@dataclass
class MasterResult:
    """The objective and bound are in the book's units of money; ``duals``
    and ``x`` are in the model's (``model.build_model``)."""

    status: str  # optimal | infeasible | limit
    selection: Optional[BidSelection] = None  # with a solution
    objective: float = float("-inf")
    bound: float = float("inf")
    nodes: int = 0
    # with a solution: the multipliers of its node's QP there, whose
    # clearing-row and flow-row entries are also those of the welfare QP
    # with the selection pinned (cut, link and flex-once rows hold no fill
    # or flow)
    duals: Optional[Multipliers] = None
    x: Optional[np.ndarray] = None  # with a solution: its node's optimal point


def _with_cuts(prob: QpProblem, cuts: Sequence[Cut], model: ClearingModel) -> QpProblem:
    """``prob``, a master problem on ``model``, with one more inequality row
    per cut, and a factor cache of its own (see ``QpProblem.factors`` for
    when it may take prob's)."""
    rows = np.zeros((len(cuts), prob.n))
    for row, cut in zip(rows, cuts):
        for key, coef in cut.coeffs:
            row[model.bin_col[key]] += coef
    b_in = np.concatenate((prob.b_in, [cut.rhs for cut in cuts]))
    return QpProblem(prob.c, prob.d, prob.A_eq, prob.b_eq, np.concatenate((prob.A_in, rows)), b_in,
                     prob.lb, prob.ub)


def _binary_rows(prob: QpProblem, n: int):
    """What ``_fix_binaries`` reads of ``prob``'s stacked rows: the binary
    columns (from ``n`` on, as a slice), each row's |coefficient| on them,
    and where it is positive and where negative."""
    M = prob._activity_rows[0][:, n:]
    return slice(n, None), np.abs(M), M > 0.0, M < 0.0


def _fix_binaries(prob: QpProblem, binary_rows, lb: np.ndarray, ub: np.ndarray) -> QpProblem:
    """prob on the box lb..ub with each free binary column fixed at v
    where the row test would refute its other value over the box (node
    presolve; Savelsbergh, 1994): its |coefficient| in a stacked row
    exceeds that row's room, ``broken`` minus its lowest activity
    (``qp._lowest_activity``), so the value that raises the row's activity
    by it breaks the row.  Passes repeat while a binary moves, so at most
    one per binary.  The pass gives no verdict: at a broken row, or
    once a binary is ruled out both ways (fixed at 0), it stops and leaves
    the node to ``solve_qp``'s row test, which reads the last pass's
    activities when that pass ran on the node's box (``with_bounds``).
    Continuous bounds stay as they are; lb and ub are not modified."""
    cols, size, positive, negative = binary_rows
    broken = prob._activity_rows[1]
    while True:
        free = lb[cols] < ub[cols]
        if not np.count_nonzero(free):
            return prob.with_bounds(lb, ub)
        activity = _lowest_activity(prob, lb, ub)
        low, row = activity
        if row is not None:
            return prob.with_bounds(lb, ub, activity)
        ruled = size * free > (broken - low)[:, None]
        if not np.count_nonzero(ruled):
            return prob.with_bounds(lb, ub, activity)
        no_one, no_zero = (ruled & positive).any(axis=0), (ruled & negative).any(axis=0)
        lb, ub = lb.copy(), ub.copy()
        ub[cols][no_one] = 0.0
        lb[cols][no_zero & ~no_one] = 1.0
        if np.count_nonzero(no_one & no_zero):
            return prob.with_bounds(lb, ub)


def solve_master(
    model: ClearingModel,
    test: Optional[Callable[[MasterResult], Sequence[Cut]]] = None,
    abs_gap: float = DEFAULT_GAP,
    deadline: Optional[float] = None,
) -> MasterResult:
    """Best-first branch-and-cut on ``model``, a book's clearing model,
    from the root box with the model's presolve fixings (``fixed_cols``)
    at 0.  Before a popped node's QP, ``_fix_binaries`` fixes each free
    binary whose other value the row test would refute over the node's
    box, and the node is solved and branched on that tightened box; it
    gives no verdict, so a node its rows rule out still ends at
    ``solve_qp``'s row test.  Each child is solved from its parent's
    optimum and working set (``solve_qp``'s ``start``), so phase 1 runs
    only at the root and where that parametric start falls back, both
    from ``model.balanced_start`` of the parent's optimum (of zero at the
    root), which is built only then.  A node whose free
    binaries all sit on 0/1 up to round-off (``ROUND_TOL``) is an integral
    leaf; any other node branches.  A leaf goes back on the heap keyed by
    its objective plus ``abs_gap``, given in the book's units of money and
    read in the model's, as the heap's bounds are; when it reaches the top
    and meets every cut row it is the master optimum under the cuts so far,
    and ``test`` gets it as an optimal ``MasterResult``.  The test returns
    no cuts to accept the leaf, or cuts that reject it (they become rows
    of the QP, the only place cuts are kept).  Rejecting cuts cut the leaf
    off: each is violated at the leaf's binaries, as the bid, curtailment
    and no-good cuts are.  So the leaf's node is solved again under them
    only while some binary is free in its box; with every binary pinned,
    the row test would refute it, and it is dropped.  Without a test the
    first such leaf is returned.  ``deadline``, a ``time.monotonic()``
    instant (the clear's, which the driver sets once from its time limit),
    stops the search with status ``limit`` once it has passed: the loop
    checks it before each popped node, and each node's QP solves check it
    too; one that passes it puts its node back on the heap, so the
    ``limit`` result's bound stays valid.  A test that raises TimeLimit
    (at the deadline, or at the driver's cap on heuristic mode's tests)
    puts its leaf back the same way."""
    prob = model.master()
    n = model.n  # the binary columns come after the model's
    binary_rows = _binary_rows(prob, n)
    cut_rows = len(prob.b_in)  # the rows after these are cuts
    gap = abs_gap / model.money_unit

    base_ub = prob.ub.copy()
    base_ub[list(model.fixed_cols)] = 0.0

    nodes = 0
    counter = 0
    heap = []

    def push(bound, node, leaf=None):
        # a leaf wins ties against the nodes its gap prunes
        nonlocal counter
        counter += 1
        key = bound if leaf is None else bound + gap
        heapq.heappush(heap, (-key, leaf is None, counter, bound, node, leaf))

    def result(status, leaf=None, objective=float("-inf")):
        # the objective and bound leave the model in the book's units
        unit = model.money_unit
        bound = max([objective] + [entry[3] for entry in heap]) * unit
        if leaf is None:
            return MasterResult(status=status, bound=bound, nodes=nodes)
        return MasterResult(
            status=status, selection=model.selection_at(leaf.x), objective=objective * unit,
            bound=bound, nodes=nodes, duals=multipliers(prob, leaf), x=leaf.x,
        )

    push(float("inf"), (prob.lb, base_ub, None))  # bounds and a parent solution
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            return result("limit")
        entry = heapq.heappop(heap)
        _, _, _, bound, (node_lb, node_ub, parent), leaf = entry
        if leaf is not None and (
            prob.A_in[cut_rows:] @ leaf.x <= prob.b_in[cut_rows:] + CHECK_TOL
        ).all():
            # the master optimum under the cuts so far
            found = result("optimal", leaf, bound)
            try:
                cuts = () if test is None else test(found)
            except TimeLimit:
                heapq.heappush(heap, entry)  # the tested leaf keeps its bound
                return result("limit")
            if not cuts:
                return found
            if (node_lb[n:] < node_ub[n:]).any():
                push(bound, (node_lb, node_ub, parent))  # solved again under the new cuts
            cut_prob = _with_cuts(prob, cuts, model)
            # the rows before the cuts keep their indices, so every cached
            # factorization still holds for the longer problem
            cut_prob.factors = prob.factors
            prob = cut_prob
            binary_rows = _binary_rows(prob, n)
            continue
        # a node, or a leaf that a later cut removed, on the box its rows
        # leave it
        node = _fix_binaries(prob, binary_rows, node_lb, node_ub)
        node_lb, node_ub = node.lb, node.ub
        try:
            sol = solve_qp(node, deadline=deadline, start=parent, x0=lambda: balanced_start(
                model, node, None if parent is None else parent.x))
        except TimeLimit:
            heapq.heappush(heap, entry)  # the interrupted node keeps its bound
            return result("limit")
        nodes += 1
        if sol.status != "optimal":
            continue
        xs, lo, hi = sol.x[n:].tolist(), node_lb[n:].tolist(), node_ub[n:].tolist()
        frac = [(abs(v - round(v)), n + k) for k, v in enumerate(xs) if lo[k] < hi[k]]
        worst = max(frac)[0] if frac else 0.0
        if worst <= ROUND_TOL:
            push(sol.objective, (node_lb, node_ub, sol), sol)
            continue
        # branch on the most fractional binary, lowest column on ties
        j_star = min(j for f, j in frac if f >= worst - ROUND_TOL)
        # a free binary's bounds are 0 and 1, so each child changes one of
        # them and shares the other array with its parent
        no_ub, one_lb = node_ub.copy(), node_lb.copy()
        no_ub[j_star], one_lb[j_star] = 0.0, 1.0
        push(sol.objective, (node_lb, no_ub, sol))
        push(sol.objective, (one_lb, node_ub, sol))
    return result("infeasible")
