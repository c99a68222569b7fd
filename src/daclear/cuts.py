"""Cut generation over the binary execution variables.

Three families: a cut forbidding joint execution of the currently
loss-making bids, a cut excluding exactly one full selection, and the
analogous cuts for hourly-curtailment priority violations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BidSelection, Instance, PriceVector, PrimalSolution
from .errors import EmptyLossSets
from .model import ClearingModel
from .tolerances import CHECK_TOL, MONEY_TOL


@dataclass(frozen=True)
class Cut:
    """sum(coefficient * column) <= rhs over the master's binary columns;
    the master keeps each cut as a row of its QP."""

    # (variable key, coefficient); a key is ("block", id) or ("flex", id, hour)
    coeffs: tuple[tuple[tuple, float], ...]
    rhs: float
    kind: str = "bid-cut"  # bid-cut | no-good | curtailment


@dataclass(frozen=True)
class LossSets:
    blocks: tuple[str, ...]
    flex: tuple[tuple[str, int], ...]

    @property
    def empty(self) -> bool:
        return not self.blocks and not self.flex


def loss_sets(
    instance: Instance,
    solution: PrimalSolution,
    prices: PriceVector,
    tol: float = MONEY_TOL,
) -> LossSets:
    """Executed bids that lose more than ``tol`` at the given prices."""
    bad_blocks = []
    for bid in solution.selection.executed_blocks():
        b = instance.block_by_id[bid]
        surplus = sum(
            (b.limit_price - prices[b.area, t]) * q for t, q in enumerate(b.quantities)
        )
        if surplus < -tol:
            bad_blocks.append(bid)
    bad_flex = []
    for fid, t in solution.selection.executed_flex():
        f = instance.flex_by_id[fid]
        if (f.limit_price - prices[f.area, t]) * f.quantity < -tol:
            bad_flex.append((fid, t))
    return LossSets(blocks=tuple(bad_blocks), flex=tuple(bad_flex))


def bid_cut(sets: LossSets) -> Cut:
    """Forbid simultaneous execution of every loss-making bid."""
    if sets.empty:
        raise EmptyLossSets("no loss-making bids to cut")
    coeffs = [(("block", b), 1.0) for b in sets.blocks]
    coeffs += [(("flex", f, t), 1.0) for f, t in sets.flex]
    return Cut(
        coeffs=tuple(coeffs),
        rhs=float(len(coeffs) - 1),
        kind="bid-cut",
    )


def no_good_cut(model: ClearingModel, selection: BidSelection) -> Cut:
    """Exclude exactly the given selection, over every binary column of
    ``model``.

    The complement form sum_{executed}(1 - x) + sum_{rejected} x >= 1 is
    stored as  sum_{executed} x - sum_{rejected} x <= n_executed - 1.
    """
    values = model.binaries(selection)
    coeffs = tuple((key, 1.0 if v else -1.0) for key, v in zip(model.bin_keys, values))
    return Cut(coeffs=coeffs, rhs=float(values.sum() - 1), kind="no-good")


def curtailment_violations(
    instance: Instance, solution: PrimalSolution, tol: float = CHECK_TOL
) -> dict[tuple[str, int], LossSets]:
    """Executed combinatorial bids that outrank active hourly curtailment.

    When hourly demand is being curtailed in an area and hour, executed
    demand blocks and flex bids there violate the hourly-priority rule;
    symmetrically for curtailed supply.
    """
    out = {}
    for seg in instance.segments:
        if not seg.is_curtailment:
            continue
        a, t = instance.segment_location[seg.id]
        dlt = solution.delta.get(seg.id, 0.0)
        demand_side = seg.node_quantity > 0
        if demand_side and dlt >= 1.0 - tol:
            continue
        if not demand_side and dlt <= tol:
            continue
        bad_blocks = []
        for bid in solution.selection.executed_blocks():
            b = instance.block_by_id[bid]
            q = b.quantities[t]
            if b.area == a and ((demand_side and q > 0) or (not demand_side and q < 0)):
                bad_blocks.append(bid)
        bad_flex = []
        for fid, ft in solution.selection.executed_flex():
            f = instance.flex_by_id[fid]
            q = f.quantity
            if f.area == a and ft == t and (
                (demand_side and q > 0) or (not demand_side and q < 0)
            ):
                bad_flex.append((fid, ft))
        if bad_blocks or bad_flex:
            out[a, t] = LossSets(blocks=tuple(bad_blocks), flex=tuple(bad_flex))
    return out


def curtailment_cut(sets: LossSets) -> Cut:
    cut = bid_cut(sets)
    return Cut(coeffs=cut.coeffs, rhs=cut.rhs, kind="curtailment")
