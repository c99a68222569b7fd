"""Clearing orchestration.

Each clear runs one branch-and-cut tree (``solve_master``) and tests each
integral leaf that is the master optimum under the cuts so far with
``_check_leaf``: FixFlow picks the candidate's flows, and the candidate
passes with its strict prices when it has loss-free prices and no
curtailment violation.  The oracle (``verify.oracle_clear``) runs the same
check on its enumerated selections, and builds its result with the same
``_finish``.  The modes differ only in the cut for a failed leaf.
Heuristic mode cuts off the currently loss-making bid set; exact mode
cuts off only the failed selection, so its accepted leaf is the welfare
optimum among price-supportable selections.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .core import Instance, PriceVector, PrimalSolution, list_prbs, welfare_of
from .cuts import (
    LossSets,
    bid_cut,
    curtailment_cut,
    curtailment_violations,
    loss_sets,
    no_good_cut,
)
from .errors import PriceInfeasible, TimeLimit
from .master import solve_master
from .model import build_model
from .pricing import clamp_prices, solve_fixflow, solve_qpprice
from .tolerances import DEFAULT_GAP, MONEY_TOL


@dataclass(frozen=True)
class IterationRecord:
    master_objective: float
    loss_blocks: tuple[str, ...]
    loss_flex: tuple[tuple[str, int], ...]
    curtailment_areas: tuple[tuple[str, int], ...]
    cuts_added: int


@dataclass(frozen=True)
class ClearingResult:
    status: str  # optimal | feasible | infeasible | limit
    mode: str  # heuristic | exact | oracle
    solution: Optional[PrimalSolution]
    prices: Optional[PriceVector]
    welfare: float
    bound: float
    gap: float
    iterations: tuple[IterationRecord, ...]
    prbs: tuple = ()
    warnings: tuple[str, ...] = ()
    frontier: Optional[tuple] = None


@dataclass(frozen=True)
class ClearOptions:
    abs_gap: float = DEFAULT_GAP
    time_limit: Optional[float] = None


def _relative_gap(bound: float, welfare: float) -> float:
    return max(0.0, bound - welfare) / max(1.0, abs(bound))


def _price(model, x, relax_losses, deadline, duals):
    """Prices of a candidate, or None when no price in the interval supports it."""
    try:
        return solve_qpprice(model, x, relax_losses, deadline, duals)
    except PriceInfeasible:
        return None


def _check_leaf(instance, model, selection, x, duals, deadline):
    """The test of a candidate ``selection``, a leaf of the clear or a
    selection the oracle enumerates: FixFlow from x, an optimum of the
    welfare QP with the selection pinned, and ``duals``, its multipliers;
    then strict pricing and the curtailment check.  Returns (FixFlow's
    point, the selection with its curtailment fills, the strict prices or
    None, the curtailment violations): a pass has prices and no violation."""
    x = solve_fixflow(model, x, duals, deadline)
    fills = PrimalSolution(selection, {s: float(x[j]) for s, j in model.curtailment}, {})
    prices = _price(model, x, False, deadline, duals)
    return x, fills, prices, curtailment_violations(instance, fills)


def _leaf_cuts(instance, model, fills, x, prices, curt, exact, deadline, duals):
    """(loss sets, cuts) of a leaf that failed ``_check_leaf``, whose
    results ``fills``, ``x``, ``prices`` and ``curt`` are.  Loss-free prices
    make the least relaxed loss 0, so only a leaf without them runs
    relaxed pricing, for its record's loss sets and heuristic mode's bid
    cut.  Exact mode cuts off a failed leaf with one no-good cut;
    heuristic mode with a bid cut on the loss sets plus curtailment cuts,
    or a no-good cut when relaxed pricing fails or these give no cut.  A
    bid loses beyond MONEY_TOL in the model's units of money."""
    relaxed = None if prices is not None else _price(model, x, True, deadline, duals)
    tol = MONEY_TOL * model.money_unit
    sets = LossSets() if relaxed is None else loss_sets(instance, fills, relaxed, tol)
    no_good = [no_good_cut(model, fills.selection)]
    if exact or (prices is None and relaxed is None):
        return sets, no_good
    cuts = [] if sets.empty else [bid_cut(sets)]
    for cut in map(curtailment_cut, curt.values()):
        if cut not in cuts:  # one row per coefficients and rhs
            cuts.append(cut)
    return sets, cuts or no_good


def _finish(instance, model, mode, solution, prices, welfare, bound, iterations, frontier):
    """The result that accepts ``solution`` at its strict ``prices``, clamped
    to the area intervals with a warning per moved price, and its PRBs, the
    rejected bids that would profit beyond MONEY_TOL in ``model``'s units of
    money; ``frontier`` is the oracle's."""
    prices, warnings = clamp_prices(prices, instance)
    return ClearingResult(
        status="feasible" if mode == "heuristic" else "optimal",
        mode=mode,
        solution=solution,
        prices=prices,
        welfare=welfare,
        bound=bound,
        gap=_relative_gap(bound, welfare),
        iterations=tuple(iterations),
        prbs=tuple(list_prbs(instance, solution.selection, prices, MONEY_TOL * model.money_unit)),
        warnings=tuple(warnings),
        frontier=frontier,
    )


def _no_solution(status, mode, bound, iterations):
    return ClearingResult(
        status=status, mode=mode, solution=None, prices=None,
        welfare=float("-inf"), bound=bound, gap=float("inf"),
        iterations=tuple(iterations),
    )


def _branch_and_cut(instance, options, mode):
    """One master tree whose leaf test runs ``_check_leaf``, takes a failed
    leaf's cuts from ``_leaf_cuts`` and records each tested leaf.
    Heuristic mode tests at most 10 x (blocks + flex) leaves: the test
    raises TimeLimit when a leaf past that cap comes up, so a tree its cuts
    have used up ends ``infeasible`` first.  The time limit sets the
    clear's one deadline, which bounds the master's nodes and the leaf
    test's QPs alike.  Either limit ends the clear with ``limit``."""
    exact = mode == "exact"
    blocks_and_flex = len(instance.blocks) + len(instance.flex_bids)
    cap = float("inf") if exact else max(1, 10 * blocks_and_flex)
    model = build_model(instance)
    iterations = []
    tested = []  # (leaf, FixFlow's point, strict prices) per tested leaf
    limit = options.time_limit
    deadline = time.monotonic() + limit if limit is not None else None

    def leaf_test(leaf):
        if len(iterations) >= cap:
            raise TimeLimit(f"heuristic mode's cap of {cap} leaf tests")
        x, fills, prices, curt = _check_leaf(
            instance, model, leaf.selection, leaf.x, leaf.duals, deadline)
        sets, cuts = LossSets(), []
        if prices is None or curt:
            sets, cuts = _leaf_cuts(
                instance, model, fills, x, prices, curt, exact, deadline, leaf.duals)
        tested.append((leaf, x, prices))
        iterations.append(IterationRecord(
            leaf.objective, sets.blocks, sets.flex, tuple(sorted(curt)), len(cuts)))
        return cuts

    master = solve_master(model, leaf_test, abs_gap=options.abs_gap, deadline=deadline)
    bound = tested[0][0].bound if tested else float("inf")  # the cut-free master's
    if master.status == "optimal":
        leaf, x, prices = tested[-1]
        solution = model.primal(leaf.selection, x)
        # every selection exact mode excluded lacked loss-free prices,
        # so the accepted leaf's objective is also the tight dual bound
        final = master.objective if exact else bound
        return _finish(instance, model, mode, solution, prices, welfare_of(instance, solution),
                       final, iterations, frontier=None)
    if exact and master.status == "limit":
        bound = master.bound
    return _no_solution(master.status, mode, bound, iterations)


def clear_heuristic(instance: Instance, options: ClearOptions = ClearOptions()) -> ClearingResult:
    return _branch_and_cut(instance, options, "heuristic")


def clear_exact(instance: Instance, options: ClearOptions = ClearOptions()) -> ClearingResult:
    return _branch_and_cut(instance, options, "exact")
