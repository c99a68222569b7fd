"""Domain model: order books, net curves, welfare and presolve bounds.

Quantities are MW with demand positive and supply negative; prices are
currency per MW.  A book keeps each curve once, as its document's nodes.
``_polyline`` turns them into the curve's ascending polyline on the global
price interval; the net curve is cut from it into segments sorted by
descending price, so a segment's execution fraction runs from the
high-price end (fraction 0) to the low-price end (fraction 1), and
presolve walks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .errors import (
    ClearingViolated,
    EmptyCurve,
    NonMonotoneCurve,
    UnknownId,
    ValidationError,
)
from .tolerances import CHECK_TOL, FEAS_TOL, MONEY_TOL


@dataclass(frozen=True)
class PriceInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValidationError(f"price interval [{self.lower}, {self.upper}] is empty")

    def contains(self, price: float, tol: float = FEAS_TOL) -> bool:
        return self.lower - tol <= price <= self.upper + tol

    def clamp(self, price: float) -> float:
        return min(max(price, self.lower), self.upper)


@dataclass(frozen=True)
class NetCurveSegment:
    """One piecewise-linear stretch of a net demand curve.

    ``base_price`` is the low-price end; filling the segment by a fraction z
    moves along prices ``price_at(z) = base_price + (1 - z) * price_span``
    and adds ``quantity_span * z`` of net demand.
    """

    id: int
    base_price: float
    price_span: float
    node_quantity: float
    quantity_span: float
    is_curtailment: bool = False

    def price_at(self, z: float) -> float:
        return self.base_price + (1.0 - z) * self.price_span

    @property
    def lower_quantity(self) -> float:
        # case rule for the segment-relative quantity anchor
        if self.node_quantity > 0:
            return min(0.0, self.node_quantity - self.quantity_span)
        return -self.quantity_span

    @property
    def is_vertical(self) -> bool:
        return self.price_span == 0.0 and self.quantity_span > 0.0


@dataclass(frozen=True)
class NetCurve:
    area: str
    hour: int
    min_net_demand: float
    segments: tuple[NetCurveSegment, ...]


@dataclass(frozen=True)
class BlockBid:
    id: str
    area: str
    limit_price: float
    quantities: tuple[float, ...]

    def __post_init__(self):
        if not any(q != 0.0 for q in self.quantities):
            raise ValidationError(f"block bid {self.id!r} has no nonzero quantity")


@dataclass(frozen=True)
class FlexBid:
    id: str
    area: str
    limit_price: float
    quantity: float

    def __post_init__(self):
        if self.quantity == 0.0:
            raise ValidationError(f"flex bid {self.id!r} has zero quantity")


@dataclass(frozen=True)
class Interconnector:
    id: str
    source: str
    sink: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    ramp_rate: Optional[float]
    initial_flow: float = 0.0

    def __post_init__(self):
        if self.source == self.sink:
            raise ValidationError(f"interconnector {self.id!r} connects an area to itself")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValidationError(f"interconnector {self.id!r} has crossing flow bounds")
        if self.ramp_rate is not None and self.ramp_rate < 0:
            raise ValidationError(f"interconnector {self.id!r} has negative ramp rate")


@dataclass(frozen=True)
class BidSelection:
    """Execution decisions for the combinatorial bids.

    ``flex`` maps a flex bid id to its execution hour or ``None`` when
    rejected, which makes the at-most-once rule structural.
    """

    blocks: Mapping[str, int] = field(default_factory=dict)
    flex: Mapping[str, Optional[int]] = field(default_factory=dict)

    def executed_keys(self) -> list[tuple]:
        """The bid keys (``Instance.bid_terms``) of the executed bids:
        blocks, then flex bids, each in id order."""
        keys = [("block", b) for b, v in self.blocks.items() if v]
        keys += [("flex", f, t) for f, t in self.flex.items() if t is not None]
        return sorted(keys)


@dataclass(frozen=True)
class PrimalSolution:
    selection: BidSelection
    delta: Mapping[int, float]
    flows: Mapping[tuple[str, int], float]


@dataclass(frozen=True)
class PriceVector:
    pi: Mapping[tuple[str, int], float]

    def __getitem__(self, key: tuple[str, int]) -> float:
        return self.pi[key]


@dataclass(frozen=True)
class Instance:
    """An order book.  ``nodes`` holds each (area, hour)'s curve as its
    document's (price, quantity) nodes, from which ``curves`` derives the
    net curves.  A book checks itself (``validate``) when made."""

    interval: PriceInterval
    hours: int
    areas: tuple[str, ...]
    area_intervals: Mapping[str, PriceInterval]
    nodes: Mapping[tuple[str, int], Sequence[tuple[float, float]]]
    blocks: tuple[BlockBid, ...]
    links: tuple[tuple[str, str], ...]
    flex_bids: tuple[FlexBid, ...]
    interconnectors: tuple[Interconnector, ...]

    def __post_init__(self):
        self.validate()

    @cached_property
    def curves(self) -> dict[tuple[str, int], NetCurve]:
        """Each (area, hour)'s net curve (``build_net_curve``), built in
        area-then-hour order with running segment ids."""
        curves, next_seg = {}, 0
        for a in self.areas:
            for t in range(self.hours):
                if (a, t) not in self.nodes:
                    raise ValidationError(f"missing net curve for area {a!r} hour {t}")
                curve = build_net_curve(self.nodes[a, t], self.area_interval(a), self.interval,
                                        area=a, hour=t, first_segment_id=next_seg)
                next_seg += len(curve.segments)
                curves[a, t] = curve
        return curves

    @cached_property
    def segments(self) -> tuple[NetCurveSegment, ...]:
        return tuple(s for curve in self.curves.values() for s in curve.segments)

    @cached_property
    def segment_location(self) -> dict[int, tuple[str, int]]:
        return {s.id: key for key, curve in self.curves.items() for s in curve.segments}

    @cached_property
    def flex_by_id(self) -> dict[str, FlexBid]:
        return {f.id: f for f in self.flex_bids}

    @cached_property
    def bid_terms(self) -> dict[tuple, tuple[tuple[str, int, float, float], ...]]:
        """Per bid key, the (area, hour, limit price, quantity) of each hour
        in which executing the key executes its bid, hours ascending.  A key
        is ("block", id), whose terms are every hour of the block, zero
        quantities included, or ("flex", id, hour), whose one term is that
        hour.  Keys come in the master's column order (``ClearingModel``):
        blocks in instance order, then each flex bid's hours."""
        terms = {
            ("block", b.id): tuple((b.area, t, b.limit_price, q) for t, q in enumerate(b.quantities))
            for b in self.blocks
        }
        for f in self.flex_bids:
            for t in range(self.hours):
                terms["flex", f.id, t] = ((f.area, t, f.limit_price, f.quantity),)
        return terms

    def area_interval(self, area: str) -> PriceInterval:
        return self.area_intervals.get(area, self.interval)

    def validate(self) -> None:
        if self.hours <= 0:
            raise ValidationError("instance needs at least one hour")
        if len(set(self.areas)) != len(self.areas):
            raise ValidationError("duplicate area ids")
        self.curves  # building a curve checks its nodes
        if len(self.nodes) != len(self.areas) * self.hours:
            raise ValidationError("net curve for an unknown area or hour")
        ids: set[str] = set()
        for b in self.blocks:
            if b.id in ids:
                raise ValidationError(f"duplicate bid id {b.id!r}")
            ids.add(b.id)
            if b.area not in self.areas:
                raise ValidationError(f"block {b.id!r} references unknown area {b.area!r}")
            if len(b.quantities) != self.hours:
                raise ValidationError(f"block {b.id!r} quantity vector length mismatch")
            if not self.interval.contains(b.limit_price):
                raise ValidationError(f"block {b.id!r} limit price outside the price interval")
        for f in self.flex_bids:
            if f.id in ids:
                raise ValidationError(f"duplicate bid id {f.id!r}")
            ids.add(f.id)
            if f.area not in self.areas:
                raise ValidationError(f"flex {f.id!r} references unknown area {f.area!r}")
            if not self.interval.contains(f.limit_price):
                raise ValidationError(f"flex {f.id!r} limit price outside the price interval")
        block_ids = {b.id for b in self.blocks}
        for child, parent in self.links:
            if child not in block_ids or parent not in block_ids:
                raise ValidationError(f"link ({child!r}, {parent!r}) references unknown block")
        seen_c: set[str] = set()
        for c in self.interconnectors:
            if c.id in seen_c:
                raise ValidationError(f"duplicate interconnector id {c.id!r}")
            seen_c.add(c.id)
            if c.source not in self.areas or c.sink not in self.areas:
                raise ValidationError(f"interconnector {c.id!r} references unknown area")
            if len(c.lower) != self.hours or len(c.upper) != self.hours:
                raise ValidationError(f"interconnector {c.id!r} bound vector length mismatch")


def _collapse_nodes(nodes: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """The monotone nodes as float pairs without duplicate points or the
    middle nodes of constant-price or constant-quantity triples."""
    out: list[tuple[float, float]] = []
    for p, q in nodes:
        p, q = float(p), float(q)
        if out and out[-1] == (p, q):
            continue
        while len(out) > 1 and (out[-2][0] == out[-1][0] == p or out[-2][1] == out[-1][1] == q):
            out.pop()
        out.append((p, q))
    return out


def _polyline(
    nodes: Sequence[tuple[float, float]], interval: PriceInterval
) -> tuple[list[tuple[float, float]], Optional[tuple[float, float]]]:
    """(pts, curtail): the ascending (price, quantity) polyline of a
    curve's monotone nodes (``_collapse_nodes``), connected to the quantity
    axis by a vertical curtailment step when it does not cross zero and
    extended flat to the ends of ``interval``, and that step's (price,
    juncture quantity), or None.  The collapse keeps the first and last
    nodes, so they decide the step and the extensions."""
    (p_first, q_first), (p_last, q_last) = nodes[0], nodes[-1]
    head, tail, curtail = [], [], None
    if q_last > 0:
        # pure demand: curtail at the top price down to the axis
        curtail, q_last = (float(p_last), float(q_last)), 0.0
        tail.append((p_last, q_last))
    elif q_first < 0:
        # pure supply: curtail at the bottom price up to the axis
        curtail, q_first = (float(p_first), float(q_first)), 0.0
        head.append((p_first, q_first))
    if p_first > interval.lower:
        head.insert(0, (interval.lower, q_first))
    if p_last < interval.upper:
        tail.append((interval.upper, q_last))
    return _collapse_nodes([*head, *nodes, *tail]), curtail


def build_net_curve(
    nodes: Sequence[tuple[float, float]],
    area_interval: PriceInterval,
    global_interval: PriceInterval,
    *,
    area: str = "",
    hour: int = 0,
    first_segment_id: int = 0,
) -> NetCurve:
    """Build a net curve from raw (price, quantity) nodes: one segment per
    stretch of their polyline on the global price interval (``_polyline``),
    sorted by descending price."""
    if not nodes:
        raise EmptyCurve(f"net curve for area {area!r} hour {hour} has no nodes")
    for (p0, q0), (p1, q1) in zip(nodes, nodes[1:]):
        if p1 < p0 or q1 > q0:
            raise NonMonotoneCurve(
                f"curve nodes for area {area!r} hour {hour} are not monotone "
                f"at ({p0}, {q0}) -> ({p1}, {q1})"
            )
    for p, _ in nodes:
        if not area_interval.contains(p):
            raise ValidationError(
                f"curve node price {p} outside area interval "
                f"[{area_interval.lower}, {area_interval.upper}]"
            )
    pts, curtail = _polyline(nodes, global_interval)

    raw_segments = []
    for (p0, q0), (p1, q1) in zip(pts, pts[1:]):
        dp = p1 - p0
        dq = q0 - q1
        if dp == 0.0 and dq == 0.0:
            continue
        is_curt = curtail is not None and dp == 0.0 and p0 == curtail[0] and (
            (curtail[1] > 0 and q0 > 0 >= q1) or (curtail[1] < 0 and q0 >= 0 > q1)
        )
        raw_segments.append((p0, dp, q0, dq, is_curt))

    raw_segments.sort(key=lambda s: (-s[0], -s[1]))
    segments = tuple(
        NetCurveSegment(
            id=first_segment_id + i,
            base_price=p0,
            price_span=dp,
            node_quantity=q0,
            quantity_span=dq,
            is_curtailment=is_curt,
        )
        for i, (p0, dp, q0, dq, is_curt) in enumerate(raw_segments)
    )
    return NetCurve(area=area, hour=hour, min_net_demand=pts[-1][1], segments=segments)


def _executed(instance: Instance, selection: BidSelection):
    """(area, hour, limit price, quantity) per executed hour of each
    executed bid, in ``executed_keys`` order."""
    for key in selection.executed_keys():
        if key not in instance.bid_terms:
            kind, bid = key[:2]
            if kind == "block" or bid not in instance.flex_by_id:
                raise UnknownId(f"unknown {kind} id {bid!r}")
            raise UnknownId(f"flex {bid!r} executed in unknown hour {key[2]}")
        yield from instance.bid_terms[key]


def bid_surplus(instance: Instance, key: tuple, prices: PriceVector) -> float:
    """The surplus of executing bid ``key`` (``Instance.bid_terms``) at
    ``prices``: limit price minus price, times quantity, summed over its
    hours."""
    return sum((limit - prices[a, t]) * q for a, t, limit, q in instance.bid_terms[key])


def segment_fill_value(seg: NetCurveSegment, delta: float) -> float:
    """Welfare contribution of filling ``seg`` to fraction ``delta``."""
    return (
        (seg.base_price + seg.price_span) * seg.quantity_span * delta
        - 0.5 * seg.price_span * seg.quantity_span * delta * delta
    )


def welfare(
    instance: Instance,
    delta: Mapping[int, float],
    blocks: Mapping[str, int],
    flex: Mapping[str, Optional[int]],
) -> float:
    """Economic surplus of an execution (price- and flow-free form)."""
    seg_ids = {s.id for s in instance.segments}
    for sid in delta:
        if sid not in seg_ids:
            raise UnknownId(f"unknown segment id {sid}")
    total = 0.0
    for seg in instance.segments:
        total += segment_fill_value(seg, delta.get(seg.id, 0.0))
    constant = 0.0
    for _, _, price, q in _executed(instance, BidSelection(blocks=blocks, flex=flex)):
        constant += price * q
    return total + constant


def welfare_of(instance: Instance, solution: PrimalSolution) -> float:
    return welfare(
        instance, solution.delta, solution.selection.blocks, solution.selection.flex
    )


def clearing_residuals(
    instance: Instance, solution: PrimalSolution
) -> dict[tuple[str, int], float]:
    """Executed net demand minus net import, per (area, hour)."""
    volume = {(a, t): 0.0 for a in instance.areas for t in range(instance.hours)}
    for a, t, _, q in _executed(instance, solution.selection):
        volume[a, t] += q
    res = {}
    for a in instance.areas:
        for t in range(instance.hours):
            curve = instance.curves[a, t]
            vol = curve.min_net_demand + sum(
                s.quantity_span * solution.delta.get(s.id, 0.0) for s in curve.segments
            )
            vol += volume[a, t]
            net_import = 0.0
            for c in instance.interconnectors:
                flow = solution.flows.get((c.id, t), 0.0)
                if c.sink == a:
                    net_import += flow
                if c.source == a:
                    net_import -= flow
            res[a, t] = vol - net_import
    return res


@dataclass(frozen=True)
class SurplusReport:
    segments: Mapping[int, float]
    blocks: Mapping[str, float]
    flex: Mapping[str, float]
    congestion: Mapping[tuple[str, int], float]
    total: float


def surplus_report(
    instance: Instance,
    solution: PrimalSolution,
    prices: PriceVector,
    tol: float = CHECK_TOL,
) -> SurplusReport:
    """Per-participant surpluses at the given prices.

    Requires the clearing balance to hold: only then does the sum of the
    price-dependent surpluses reduce to the price-free welfare.
    """
    residuals = clearing_residuals(instance, solution)
    worst = max(abs(r) for r in residuals.values())
    if worst > tol:
        raise ClearingViolated(f"clearing residual {worst:.3e} exceeds tolerance {tol}")

    seg_surplus = {}
    for seg in instance.segments:
        a, t = instance.segment_location[seg.id]
        d = solution.delta.get(seg.id, 0.0)
        pi = prices[a, t]
        executed = seg.lower_quantity + seg.quantity_span * d
        seg_surplus[seg.id] = segment_fill_value(seg, d) - pi * executed

    # per kind, each bid's surplus: 0 when rejected
    bids = {"block": {}, "flex": {}}
    taken = set(solution.selection.executed_keys())
    for key in instance.bid_terms:
        if key in taken:
            bids[key[0]][key[1]] = bid_surplus(instance, key, prices)
        else:
            bids[key[0]].setdefault(key[1], 0.0)

    congestion = {}
    for c in instance.interconnectors:
        for t in range(instance.hours):
            flow = solution.flows.get((c.id, t), 0.0)
            congestion[c.id, t] = (prices[c.sink, t] - prices[c.source, t]) * flow

    total = (
        sum(seg_surplus.values())
        + sum(bids["block"].values())
        + sum(bids["flex"].values())
        + sum(congestion.values())
    )
    return SurplusReport(
        segments=seg_surplus,
        blocks=bids["block"],
        flex=bids["flex"],
        congestion=congestion,
        total=total,
    )


def list_prbs(instance: Instance, selection: BidSelection, prices: PriceVector,
              tol: float = MONEY_TOL) -> list:
    """Rejected combinatorial bids that would profit beyond ``tol`` at the
    prices: the key of each such block and of each such flex bid's first
    such hour."""
    prbs = []
    skip = {key[:2] for key in selection.executed_keys()}  # (kind, id)
    for key in instance.bid_terms:
        if key[:2] not in skip and bid_surplus(instance, key, prices) > tol:
            prbs.append(key)
            skip.add(key[:2])
    return prbs


def _price_band(nodes, lo_q, hi_q, interval, eps):
    """(lo_p, hi_p) in one walk up the ascending (price, quantity) polyline,
    whose quantities fall: the smallest price at which its quantity is <= hi_q
    and the largest at which it is >= lo_q (<= hi_q), quantities read within
    eps; without one, the interval's far end."""
    hi_t, lo_t = hi_q + eps, lo_q - eps
    lo_p = interval.lower if nodes[0][1] <= hi_t else None
    top = nodes[-1][1] >= lo_t  # so hi_p is the upper bound
    hi_p = interval.upper if top else interval.lower
    pairs = () if top and lo_p is not None else zip(nodes, nodes[1:])  # () once both are found
    for (p0, q0), (p1, q1) in pairs:
        if top and lo_p is not None:
            break
        if lo_p is None and q1 <= hi_t:
            lo_p = p1 if p1 == p0 or q0 == q1 else p0 + (q0 - hi_t) / (q0 - q1) * (p1 - p0)
        if q1 < lo_t:  # so lo_p is found
            if q0 >= lo_t:  # the last node at or above lo_q
                hi_p = p0 if p1 == p0 or q0 == q1 else p0 + (q0 - lo_t) / (q0 - q1) * (p1 - p0)
            break
    return (interval.upper if lo_p is None else lo_p), hi_p


def presolve_price_bounds(
    instance: Instance, tol: float = FEAS_TOL
) -> dict[tuple[str, int], PriceInterval]:
    """Per-(area, hour) price bounds containing every feasible clearing price.

    The worst-case combinatorial volume plus flow extremes bound the hourly
    curve volume; walking the curve's polyline (``_polyline`` of the book's
    nodes, the one its net curve is cut from) converts the quantity band to
    prices, taking the widest consistent interval on flat stretches.
    Quantities are read within ``tol``.
    """
    # per (area, hour): [hi_q, lo_q], the worst-case combinatorial volume
    band = {(a, t): [0.0, 0.0] for a in instance.areas for t in range(instance.hours)}
    for terms in instance.bid_terms.values():
        for a, t, _, q in terms:
            cell = band[a, t]
            cell[0] -= min(0.0, q)
            cell[1] -= max(0.0, q)
    bounds = {}
    for a in instance.areas:
        for t in range(instance.hours):
            hi_q, lo_q = band[a, t]
            for c in instance.interconnectors:
                if c.sink == a:
                    hi_q += c.upper[t]
                    lo_q += c.lower[t]
                if c.source == a:
                    hi_q -= c.lower[t]
                    lo_q -= c.upper[t]
            pts, _ = _polyline(instance.nodes[a, t], instance.interval)
            lo_p, hi_p = _price_band(pts, lo_q, hi_q, instance.interval, tol)
            lo_p = instance.interval.clamp(lo_p)
            hi_p = instance.interval.clamp(max(hi_p, lo_p))
            bounds[a, t] = PriceInterval(lo_p, hi_p)
    return bounds
