"""Clearing orchestration.

Both modes run one cut loop: the master maximizes welfare under the cuts so
far, FixFlow picks the candidate's flows, and the mode's test either accepts
the candidate with its strict prices or cuts it off. Heuristic mode cuts off
the currently loss-making bid set; exact mode cuts off only the failed
selection, so its final candidate is the welfare optimum among
price-supportable selections. Exact mode first runs the heuristic and starts
from its no-good cuts, the ones that hold in exact mode too; when the
heuristic added no other cut, its answer is already exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from .core import Instance, PriceVector, PrimalSolution, welfare_of
from .cuts import (
    Cut,
    CutPool,
    LossSets,
    bid_cut,
    curtailment_cut,
    curtailment_violations,
    loss_sets,
    no_good_cut,
)
from .errors import PriceInfeasible
from .master import solve_master
from .pricing import clamp_prices, solve_fixflow, solve_qpprice


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
    cuts: tuple[Cut, ...] = ()  # the cut pool the clear ended with


@dataclass(frozen=True)
class ClearOptions:
    abs_gap: float = 1e-9
    time_limit: Optional[float] = None
    presolve: bool = True


def _relative_gap(bound: float, welfare: float) -> float:
    return max(0.0, bound - welfare) / max(1.0, abs(bound))


def _deadline(options: ClearOptions) -> Optional[float]:
    if options.time_limit is None:
        return None
    return time.monotonic() + options.time_limit


def _price(instance, solution, relax_losses):
    """Pricing of a candidate, or None when no price in the interval supports it."""
    try:
        return solve_qpprice(instance, solution, relax_losses=relax_losses)
    except PriceInfeasible:
        return None


def _heuristic_test(instance, solution, cuts):
    """Relaxed pricing, then a bid cut on the loss sets plus curtailment
    cuts; a candidate that no price supports, or that has no loss-free
    price once nothing is cut, gets a no-good cut instead."""
    relaxed = _price(instance, solution, relax_losses=True)
    curt = curtailment_violations(instance, solution)
    if relaxed is None:
        cut = no_good_cut(instance, solution.selection)
        return LossSets((), ()), curt, None, int(cuts.add(cut))
    sets = loss_sets(instance, solution, relaxed.prices)
    added = 0 if sets.empty else int(cuts.add(bid_cut(sets)))
    added += sum(cuts.add(curtailment_cut(bad)) for bad in curt.values())
    pricing = None if added else _price(instance, solution, relax_losses=False)
    if not added and pricing is None:
        added = int(cuts.add(no_good_cut(instance, solution.selection)))
    return sets, curt, pricing, added


def _exact_test(instance, solution, cuts):
    """Strict pricing plus the curtailment check; a failed candidate gets
    one no-good cut. Relaxed pricing only fills the record's loss sets."""
    pricing = _price(instance, solution, relax_losses=False)
    relaxed = None if pricing is not None else _price(instance, solution, relax_losses=True)
    sets = LossSets((), ()) if relaxed is None else loss_sets(instance, solution, relaxed.prices)
    curt = curtailment_violations(instance, solution)
    failed = pricing is None or bool(curt)
    return sets, curt, pricing, int(failed and cuts.add(no_good_cut(instance, solution.selection)))


def _finish(instance, mode, solution, pricing, bound, iterations, cuts):
    from .verify import list_prbs

    prices, warnings = clamp_prices(pricing.prices, instance)
    w = welfare_of(instance, solution)
    return ClearingResult(
        status="optimal" if mode == "exact" else "feasible",
        mode=mode,
        solution=solution,
        prices=prices,
        welfare=w,
        bound=bound,
        gap=_relative_gap(bound, w),
        iterations=tuple(iterations),
        prbs=tuple(list_prbs(instance, solution.selection, prices)),
        warnings=tuple(warnings),
        cuts=tuple(cuts),
    )


def _no_solution(status, mode, bound, iterations, cuts):
    return ClearingResult(
        status=status, mode=mode, solution=None, prices=None,
        welfare=float("-inf"), bound=bound, gap=float("inf"),
        iterations=tuple(iterations), cuts=tuple(cuts),
    )


def _cut_loop(instance, options, mode, deadline, cuts, fallback=None):
    """Master, FixFlow, the mode's test and a record per iteration, from
    the pool ``cuts`` until the test adds no cut. A limit returns
    ``fallback``'s solution, if any."""
    exact = mode == "exact"
    test = _exact_test if exact else _heuristic_test
    blocks_and_flex = len(instance.blocks) + len(instance.flex_bids)
    cap = float("inf") if exact else max(1, 10 * blocks_and_flex)
    iterations = []
    bound = float("inf")  # the first master's bound
    while len(iterations) < cap:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        master = solve_master(
            instance, cuts, abs_gap=options.abs_gap, time_limit=remaining,
            presolve=options.presolve,
        )
        if master.status == "infeasible":
            return _no_solution("infeasible", mode, bound, iterations, cuts)
        if not iterations:
            bound = master.bound
        if master.status == "limit":
            break
        solution = solve_fixflow(instance, master.solution)
        sets, curt, pricing, added = test(instance, solution, cuts)
        iterations.append(
            IterationRecord(
                master_objective=master.objective,
                loss_blocks=sets.blocks,
                loss_flex=sets.flex,
                curtailment_areas=tuple(sorted(curt)),
                cuts_added=added,
            )
        )
        if not added:
            # every selection exact mode excluded lacked loss-free prices,
            # so its final master objective is also the tight dual bound
            final = master.objective if exact else bound
            return _finish(instance, mode, solution, pricing, final, iterations, cuts)
    if exact:
        bound = master.bound
    if fallback is None or fallback.solution is None:
        return _no_solution("limit", mode, bound, iterations, cuts)
    return replace(
        fallback, status="limit", mode=mode, bound=bound,
        gap=_relative_gap(bound, fallback.welfare), iterations=tuple(iterations),
        cuts=tuple(cuts),
    )


def clear_heuristic(instance: Instance, options: ClearOptions = ClearOptions()) -> ClearingResult:
    return _cut_loop(instance, options, "heuristic", _deadline(options), CutPool())


def clear_exact(instance: Instance, options: ClearOptions = ClearOptions()) -> ClearingResult:
    deadline = _deadline(options)
    heuristic = clear_heuristic(instance, options)
    # a no-good cut removes one selection without loss-free prices, so it
    # holds in exact mode too; bid and curtailment cuts do not
    no_goods = [cut for cut in heuristic.cuts if cut.kind == "no-good"]
    if heuristic.status != "limit" and len(no_goods) == len(heuristic.cuts):
        # the heuristic's test then cut off what the exact test would have,
        # so its masters were the exact loop's
        if heuristic.solution is None:
            return replace(heuristic, mode="exact")
        final = heuristic.iterations[-1].master_objective
        return replace(
            heuristic, status="optimal", mode="exact", bound=final,
            gap=_relative_gap(final, heuristic.welfare),
        )
    return _cut_loop(instance, options, "exact", deadline, CutPool(no_goods), fallback=heuristic)
