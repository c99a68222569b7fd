"""Cut generation over the binary execution variables.

Three families: a cut forbidding joint execution of the currently
loss-making bids, a cut excluding exactly one full selection, and the
analogous cuts for hourly-curtailment priority violations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BidSelection, Instance, PriceVector, PrimalSolution, bid_surplus
from .errors import EmptyLossSets
from .model import ClearingModel
from .tolerances import CHECK_TOL, MONEY_TOL


@dataclass(frozen=True)
class Cut:
    """sum(coefficient * column) <= rhs over the master's binary columns;
    the master keeps each cut as a row of its QP."""

    # (bid key, coefficient); a key is ("block", id) or ("flex", id, hour)
    coeffs: tuple[tuple[tuple, float], ...]
    rhs: float


@dataclass(frozen=True)
class LossSets:
    """Keys of executed bids (``Instance.bid_terms``), in ``executed_keys``
    order."""

    keys: tuple[tuple, ...] = ()

    @property
    def blocks(self) -> tuple[str, ...]:
        return tuple(key[1] for key in self.keys if key[0] == "block")

    @property
    def flex(self) -> tuple[tuple[str, int], ...]:
        return tuple(key[1:] for key in self.keys if key[0] == "flex")

    @property
    def empty(self) -> bool:
        return not self.keys


def loss_sets(
    instance: Instance,
    solution: PrimalSolution,
    prices: PriceVector,
    tol: float = MONEY_TOL,
) -> LossSets:
    """Executed bids that lose more than ``tol`` at the given prices."""
    return LossSets(tuple(
        key for key in solution.selection.executed_keys()
        if bid_surplus(instance, key, prices) < -tol
    ))


def bid_cut(sets: LossSets) -> Cut:
    """Forbid simultaneous execution of every loss-making bid."""
    if sets.empty:
        raise EmptyLossSets("no loss-making bids to cut")
    return Cut(coeffs=tuple((key, 1.0) for key in sets.keys), rhs=float(len(sets.keys) - 1))


def no_good_cut(model: ClearingModel, selection: BidSelection) -> Cut:
    """Exclude exactly the given selection, over every binary column of
    ``model``.

    The complement form sum_{executed}(1 - x) + sum_{rejected} x >= 1 is
    stored as  sum_{executed} x - sum_{rejected} x <= n_executed - 1.
    """
    values = model.binaries(selection)
    coeffs = tuple((key, 1.0 if v else -1.0) for key, v in zip(model.bin_keys, values))
    return Cut(coeffs=coeffs, rhs=float(values.sum() - 1))


def curtailment_violations(
    instance: Instance, solution: PrimalSolution, tol: float = CHECK_TOL
) -> dict[tuple[str, int], LossSets]:
    """Executed combinatorial bids that outrank active hourly curtailment.

    When hourly demand is being curtailed in an area and hour, executed
    demand blocks and flex bids there violate the hourly-priority rule;
    symmetrically for curtailed supply.
    """
    active = []  # (area, hour, demand side) per active curtailment segment
    for seg in instance.segments:
        if not seg.is_curtailment:
            continue
        dlt = solution.delta.get(seg.id, 0.0)
        demand_side = seg.node_quantity > 0
        if not (dlt >= 1.0 - tol if demand_side else dlt <= tol):
            active.append((*instance.segment_location[seg.id], demand_side))
    if not active:
        return {}
    cells = {}  # (area, hour) -> (key, quantity) per executed term there
    for key in solution.selection.executed_keys():
        for a, t, _, q in instance.bid_terms[key]:
            cells.setdefault((a, t), []).append((key, q))
    out = {}
    for a, t, demand_side in active:
        bad = tuple(key for key, q in cells.get((a, t), ()) if (q > 0 if demand_side else q < 0))
        if bad:
            out[a, t] = LossSets(bad)
    return out


def curtailment_cut(sets: LossSets) -> Cut:
    """Forbid simultaneous execution of the bids of one curtailment
    violation: the bid cut on them."""
    return bid_cut(sets)
