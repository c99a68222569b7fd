"""Day-ahead electricity market clearing with linear price guarantees."""

from .core import (
    BidSelection,
    BlockBid,
    FlexBid,
    Instance,
    Interconnector,
    NetCurve,
    NetCurveSegment,
    PriceInterval,
    PriceVector,
    PrimalSolution,
    build_net_curve,
    presolve_price_bounds,
    surplus_report,
    welfare,
)
from .driver import ClearOptions, ClearingResult, clear_exact, clear_heuristic
from .verify import oracle_clear

__all__ = [
    "BidSelection",
    "BlockBid",
    "ClearOptions",
    "ClearingResult",
    "FlexBid",
    "Instance",
    "Interconnector",
    "NetCurve",
    "NetCurveSegment",
    "PriceInterval",
    "PriceVector",
    "PrimalSolution",
    "build_net_curve",
    "clear_exact",
    "clear_heuristic",
    "oracle_clear",
    "presolve_price_bounds",
    "surplus_report",
    "welfare",
]
