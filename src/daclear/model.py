"""The clearing model shared by every clearing QP.

Columns are the fills of the segments that carry quantity (in segment id
order; a flat one has no column and fills 0), then the interconnector flows
(connector, then hour).  There is one clearing row per (area, hour) and two
ramp rows per ramped connector and hour.  The master's binary columns come
after these: one per block in instance order, then one per flex (bid,
hour), with their clearing-row entries and the link and flex-once rows.
The master, FixFlow and pricing all start from this model: the master is
the whole of it (the oracle's fixed-selection relaxation is the master with
every binary pinned), FixFlow keeps the vertical segment and flow columns,
and pricing's rows are the stationarity conditions of the continuous QP on
its flow columns, one price per clearing row.  Each array is made once per
clear from lists of its entries, in model order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from typing import Optional

import numpy as np

from .core import BidSelection, Instance, PriceInterval, PrimalSolution, presolve_price_bounds
from .qp import QpProblem, _clipped
from .errors import ValidationError
from .tolerances import FEAS_TOL, MAX_MAGNITUDE, MONEY_TOL

# the most a book's largest |price| and |quantity| may be in model units
# (``ClearingModel``)
MODEL_PRICE, MODEL_QUANTITY = 128.0, 64.0


@dataclass(frozen=True)
class ClearingModel:
    """Layout and rows of  max c'x + 1/2 sum d x^2  over fills and flows.

    Fills are columns of the segments with a nonzero quantity span, whose
    ids are ``seg_ids``; ``primal`` writes 0.0 for the rest of ``book_ids``.
    ``A_eq x = b_eq`` balances each (area, hour): segment spans, +1 for
    flows leaving the area and -1 for flows entering it, against
    ``-min_net_demand``.  ``A_in x <= b_in`` holds the ramp limits
    ``+-(flow[t] - flow[t-1]) <= ramp_rate``, with the initial flow on the
    right-hand side at hour 0.  The master's binary columns follow column
    ``n``: ``bin_col`` maps each key of ``bin_keys``, the keys cuts use, to
    its master column, and ``bin_A_eq`` holds their clearing-row entries.
    The master problem (``master``) adds their objective and their link
    rows ``y_child - y_parent <= 0`` and flex-once rows ``sum_t y <= 1``.
    These arrays are read-only views of the master problem's.
    ``fixed_cols`` are the binary columns of the bids that lose beyond
    MONEY_TOL at every price inside the presolve bounds
    (``core.presolve_price_bounds``): ``solve_master`` fixes them at 0 in
    its root box, and ``master`` leaves them free.

    The rest is what starts, pricing and the leaf test read, in model
    order: per clearing
    row its segment columns in merit order and their spans (``row_segs``);
    per segment column its row, base price, price span and quantity span
    (``fill_prices``); per binary column the sums, over the hours
    its bid executes in, of limit price times quantity (``bin_b``) and of
    the smaller surplus at the interval's ends (``bin_worst``), and the
    columns in key order, as ``BidSelection`` lists executed
    bids (``bin_order``); (F, h, source), the flow columns' rows
    ``F @ flows <= h``, each flow's upper and lower bound then the ramp rows
    it ends, source[i] being the row's index in [upper bounds, lower bounds,
    ramp rows] (``flow_rows``); and (P, G) = (-A_eq' on the flow columns,
    -F'), the stationarity rows of the welfare QP there (``stationarity``);
    and the curtailment segments' (id, column) pairs (``curtailment``).

    Every array is in model units: prices in units of ``price_unit``
    (S_p), quantities, flows among them, in units of ``quantity_unit``
    (S_q) and money in units of their product (``money_unit``), the
    smallest powers of two, at least 1, that bring the book's largest
    |price| to MODEL_PRICE or less and its largest |quantity| to
    MODEL_QUANTITY or less.  Fills and binaries have no unit.  ``interval``
    is the book's price interval in model units.  Powers of two keep the
    change of units exact, so a book and the book with every price and
    quantity times a power of two make the same model."""

    seg_ids: tuple[int, ...]
    book_ids: tuple[int, ...]
    flow_keys: tuple[tuple[str, int], ...]
    eq_keys: tuple[tuple[str, int], ...]
    ramp_keys: tuple[tuple[str, int, str], ...]  # (connector, hour, fwd|bwd)
    c: np.ndarray
    d: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_in: np.ndarray
    b_in: np.ndarray
    bin_keys: tuple[tuple, ...]  # ("block", id), then ("flex", id, hour)
    bin_col: dict[tuple, int]
    bin_A_eq: np.ndarray
    vertical: np.ndarray  # per segment column: its segment is vertical
    curtailment: tuple[tuple[int, int], ...]  # (id, column) of curtailment segments
    row_segs: tuple[tuple[list, list], ...]
    fill_prices: tuple
    bin_b: np.ndarray
    bin_worst: tuple[float, ...]
    bin_order: tuple[int, ...]
    fixed_cols: tuple[int, ...]
    flow_rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    stationarity: tuple[np.ndarray, np.ndarray]
    price_unit: float
    quantity_unit: float
    interval: PriceInterval
    # (c, d, A_eq, b_eq, A_in, b_in, lb, ub) of the master problem
    master_arrays: tuple = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.seg_ids) + len(self.flow_keys)

    @property
    def money_unit(self) -> float:
        return self.price_unit * self.quantity_unit

    @cached_property
    def fixflow_rows(self):
        """FixFlow's layout (``pricing.solve_fixflow``): (cols, kept, A_eq,
        A_kept, A_in, c, d).  Its columns ``cols`` are the vertical
        segments' fills, then the flows; the other segments' fills,
        ``kept``, stay where they are and move to the right-hand side of
        the clearing rows through ``A_kept``, their clearing-row block.
        ``A_eq`` and ``A_in`` are the clearing and ramp rows on ``cols``,
        and c and d its objective, minus the flows' squared norm."""
        kept = np.flatnonzero(~self.vertical)
        cols = np.concatenate((np.flatnonzero(self.vertical), np.arange(len(self.seg_ids), self.n)))
        d = np.where(np.arange(len(cols)) < len(cols) - len(self.flow_keys), 0.0, -2.0)
        A_eq, A_kept, A_in = self.A_eq[:, cols], self.A_eq[:, kept], self.A_in[:, cols]
        return cols, kept, A_eq, A_kept, A_in, np.zeros(len(cols)), d

    def master(self) -> QpProblem:
        """A new master problem: every column, the binaries in [0, 1], and
        the ramp rows followed by the link and flex-once rows.  Each call
        builds its own problem, so each has its own factor cache; all
        share the model's read-only arrays."""
        return QpProblem(*self.master_arrays)

    def binaries(self, selection: BidSelection) -> np.ndarray:
        """The binary columns' values at ``selection``, in ``bin_keys`` order."""
        return np.array([
            float(selection.flex.get(key[1]) == key[2]) if key[0] == "flex"
            else selection.blocks.get(key[1], 0)
            for key in self.bin_keys
        ], dtype=float)

    def selection_at(self, x: np.ndarray) -> BidSelection:
        """The selection whose binaries ``x``, a master point, rounds to."""
        blocks, flex = {}, {}
        for key, v in zip(self.bin_keys, x[self.n:].tolist()):
            if key[0] == "block":
                blocks[key[1]] = int(round(v))
            elif round(v) == 1:
                flex[key[1]] = key[2]
            else:
                flex.setdefault(key[1])
        return BidSelection(blocks=blocks, flex=flex)

    def primal(self, selection: BidSelection, x: np.ndarray) -> PrimalSolution:
        """``selection`` with the fills and flows that ``x``, a point of a
        QP whose leading columns are this model's, gives them, the flows
        back in the book's units."""
        n_seg = len(self.seg_ids)
        delta = dict.fromkeys(self.book_ids, 0.0)
        delta.update(zip(self.seg_ids, x[:n_seg].tolist()))
        return PrimalSolution(
            selection=selection,
            delta=delta,
            flows=dict(zip(self.flow_keys, (x[n_seg:self.n] * self.quantity_unit).tolist())),
        )


def _unit(largest: float, target: float) -> float:
    """The smallest power of two, at least 1, that divides ``largest`` down
    to ``target`` or less."""
    unit = 1.0
    while largest > target * unit:
        unit *= 2.0
    return unit


def _units(instance: Instance) -> tuple[float, float]:
    """(S_p, S_q), the model units of ``instance`` (``ClearingModel``), from
    its largest finite |price| (interval ends, curve node prices, limit
    prices) and |quantity| (curve node quantities, bid quantities, flow
    bounds, ramp rates and initial flows).  ValidationError when either
    exceeds MAX_MAGNITUDE, the bound ``io`` puts on every number it
    parses."""
    ivs = (instance.interval, *instance.area_intervals.values())
    segs = [s for curve in instance.curves.values() for s in curve.segments]
    prices = [v for iv in ivs for v in (iv.lower, iv.upper)]
    prices += [s.base_price for s in segs] + [s.base_price + s.price_span for s in segs]
    terms = [term for terms in instance.bid_terms.values() for term in terms]
    prices += [limit for _, _, limit, _ in terms]
    quantities = [s.node_quantity for s in segs]
    quantities += [s.node_quantity - s.quantity_span for s in segs]
    quantities += [q for _, _, _, q in terms]
    for cc in instance.interconnectors:  # only a connector's numbers may be infinite
        values = (*cc.lower, *cc.upper, cc.initial_flow, cc.ramp_rate or 0.0)
        quantities += [v for v in values if isfinite(v)]
    price, quantity = (max(map(abs, values), default=0.0) for values in (prices, quantities))
    if max(price, quantity) > MAX_MAGNITUDE:
        raise ValidationError(
            f"a price or quantity of magnitude {max(price, quantity)!r} exceeds {MAX_MAGNITUDE!r}")
    return _unit(price, MODEL_PRICE), _unit(quantity, MODEL_QUANTITY)


def build_model(instance: Instance) -> ClearingModel:
    """The clearing model of ``instance``, in its model units.  One pass
    over the curves, connectors and bids collects each array's entries in
    lists, each price divided by S_p and each quantity by S_q as it is
    read; each array is then made by one conversion or one assignment, the
    master's first and the model's as views of them."""
    sp, sq = _units(instance)
    H = instance.hours
    conns, links = instance.interconnectors, instance.links
    blocks, flex = instance.blocks, instance.flex_bids
    eq_keys = tuple((a, t) for a in instance.areas for t in range(H))
    curves = [instance.curves[key] for key in eq_keys]
    area_row = {a: H * i for i, a in enumerate(instance.areas)}  # the row of (a, 0)
    # (id, clearing row, segment) in id order, then those with a column
    segs = sorted((s.id, r, s) for r, curve in enumerate(curves) for s in curve.segments)
    book_ids = tuple(sid for sid, _, _ in segs)
    segs = [(sid, r, s) for sid, r, s in segs if s.quantity_span / sq > 0.0]
    seg_ids = tuple(sid for sid, _, _ in segs)
    # per segment: its row, base price, price span and quantity span
    spans = [(r, s.base_price / sp, s.price_span / sp, s.quantity_span / sq) for _, r, s in segs]
    flow_keys = tuple((cc.id, t) for cc in conns for t in range(H))
    bin_keys = tuple(instance.bid_terms)
    n_seg, nf, m = len(seg_ids), len(flow_keys), len(bin_keys)
    n = n_seg + nf

    c = [(base + span) * q for _, base, span, q in spans] + [0.0] * nf
    d = [-span * q for _, _, span, q in spans] + [0.0] * (nf + m)
    lb, ub = [0.0] * n_seg, [1.0] * n_seg
    eq_r, eq_c = [r for r, _, _, _ in spans], list(range(n_seg))
    eq_v = [q for _, _, _, q in spans]
    row_segs = [([], []) for _ in curves]
    for j, (r, _, _, q) in enumerate(spans):
        row_segs[r][0].append(j)
        row_segs[r][1].append(q)
    # per flow column (from 0): its flow rows (``flow_rows``), the upper
    # and lower bound and then its ramp rows
    flow_rows = [[i, nf + i] for i in range(nf)]
    in_r, in_c, in_v, b_in, ramp_keys = [], [], [], [], []
    for k, cc in enumerate(conns):
        lb += [v / sq for v in cc.lower]
        ub += [v / sq for v in cc.upper]
        j = n_seg + k * H
        eq_r += [area_row[area] + t for area in (cc.source, cc.sink) for t in range(H)]
        eq_c += [*range(j, j + H)] * 2
        eq_v += [1.0] * H + [-1.0] * H
        if cc.ramp_rate is None or not isfinite(cc.ramp_rate):
            continue
        for t in range(H):
            for sgn, sense in ((1.0, "fwd"), (-1.0, "bwd")):
                cols = [j + t] if t == 0 else [j + t, j + t - 1]
                flow_rows[k * H + t].append(2 * nf + len(b_in))
                ramp_keys.append((cc.id, t, sense))
                in_r += [len(b_in)] * len(cols)
                in_c += cols
                in_v += [sgn, -sgn][:len(cols)]
                rhs = cc.ramp_rate + sgn * cc.initial_flow if t == 0 else cc.ramp_rate
                b_in.append(rhs / sq)
    n_ramp = len(b_in)

    # per binary column: (limit price, ((clearing row, quantity), ...))
    # over the hours it executes its bid in
    bids = [(terms[0][2] / sp, tuple((area_row[a] + t, q / sq) for a, t, _, q in terms))
            for terms in instance.bid_terms.values()]
    c += [limit * sum(q for _, q in terms) for limit, terms in bids]
    for k, (_, terms) in enumerate(bids, n):
        for r, q in terms:
            if q != 0.0:
                eq_r.append(r)
                eq_c.append(k)
                eq_v.append(q)
    bin_col = dict(zip(bin_keys, range(n, n + m)))
    for i in range(len(flex)):  # the flex-once rows, after the link rows
        in_r += [n_ramp + len(links) + i] * H
        in_c += range(n + len(blocks) + i * H, n + len(blocks) + (i + 1) * H)
        in_v += [1.0] * H

    c, d = np.array(c, dtype=float), np.array(d, dtype=float)
    lb, ub = np.array(lb + [0.0] * m, dtype=float), np.array(ub + [1.0] * m, dtype=float)
    A_eq = np.zeros((len(eq_keys), n + m))
    A_eq[np.array(eq_r, dtype=int), np.array(eq_c, dtype=int)] = np.array(eq_v, dtype=float)
    b_eq = np.array([-curve.min_net_demand / sq for curve in curves], dtype=float)
    A_in = np.zeros((n_ramp + len(links) + len(flex), n + m))
    if in_r:
        A_in[np.array(in_r, dtype=int), np.array(in_c, dtype=int)] = np.array(in_v, dtype=float)
    for r, (child, parent) in enumerate(links, n_ramp):
        A_in[r, bin_col["block", child]] = 1.0
        A_in[r, bin_col["block", parent]] -= 1.0
    b_in = np.array(b_in + [0.0] * len(links) + [1.0] * len(flex), dtype=float)
    arrays = (c, d, A_eq, b_eq, A_in, b_in, lb, ub)
    for a in arrays:
        a.flags.writeable = False
    f = slice(n_seg, n)
    order = np.array([row for rows in flow_rows for row in rows], dtype=int)
    F, h = np.zeros((0, 0)), np.zeros(0)
    if nf:
        eye = np.eye(nf)
        F = np.concatenate((eye, -eye, A_in[:n_ramp, f]))[order]
        h = np.concatenate((ub[f], -lb[f], b_in[:n_ramp]))[order]

    # pricing's no-loss right-hand sides and loss caps, summed hour by hour
    # from 0.0, as the rows were once built, and the fixings: only the
    # always-loss direction, since forcing execution is not welfare-safe in
    # general; presolve reads quantities within FEAS_TOL in model units
    iv = PriceInterval(instance.interval.lower / sp, instance.interval.upper / sp)
    bounds = presolve_price_bounds(instance, FEAS_TOL * sq)
    row_bounds = [(bounds[key].lower / sp, bounds[key].upper / sp) for key in eq_keys]
    bin_b, bin_worst, fixed_cols = [], [], []
    for k, (limit, terms) in enumerate(bids, n):
        total, worst, best = 0.0, 0.0, 0.0
        for r, q in terms:
            total += limit * q
            low, high = (limit - iv.lower) * q, (limit - iv.upper) * q
            worst += high if high < low else low  # min(low, high)
            lower, upper = row_bounds[r]
            low, high = (limit - lower) * q, (limit - upper) * q
            best += high if high > low else low  # max(low, high)
        bin_b.append(total)
        bin_worst.append(worst)
        if best < -MONEY_TOL:
            fixed_cols.append(k)

    return ClearingModel(
        seg_ids=seg_ids, flow_keys=flow_keys, eq_keys=eq_keys, ramp_keys=tuple(ramp_keys),
        c=c[:n], d=d[:n], lb=lb[:n], ub=ub[:n], A_eq=A_eq[:, :n], b_eq=b_eq,
        A_in=A_in[:n_ramp, :n], b_in=b_in[:n_ramp],
        bin_keys=bin_keys, bin_col=bin_col, bin_A_eq=A_eq[:, n:],
        vertical=np.array([s.is_vertical for _, _, s in segs], dtype=bool),
        curtailment=tuple((sid, j) for j, (sid, _, s) in enumerate(segs) if s.is_curtailment),
        row_segs=tuple(row_segs), fill_prices=tuple(spans),
        bin_b=np.array(bin_b, dtype=float), bin_worst=tuple(bin_worst),
        bin_order=tuple(sorted(range(m), key=bin_keys.__getitem__)), fixed_cols=tuple(fixed_cols),
        flow_rows=(F, h, order), stationarity=(-A_eq[:, f].T, -F.T),
        price_unit=sp, quantity_unit=sq, interval=iv, book_ids=book_ids,
        master_arrays=arrays,
    )


def balanced_start(
    model: ClearingModel, prob: QpProblem, x0: Optional[np.ndarray] = None
) -> np.ndarray:
    """A start for ``prob``, a QP whose leading columns and equality rows are
    ``model``'s: ``x0`` (zero when None) clipped into the box, then each
    clearing row balanced along its own curve.  A row short of net demand
    fills its next segments in column order, which is merit order; a row
    with too much empties its last filled segments.  Flows, other columns
    and inequality rows are left alone, so phase 1 runs only for the rows
    no curve can balance and for violated inequality rows."""
    x = _clipped(prob, x0)
    residual = prob.b_eq - prob.A_eq @ x
    rows = (np.abs(residual) > FEAS_TOL).nonzero()[0].tolist()
    if not rows:
        return x
    # rows hold a few segments, so plain floats beat array calls
    fill, lower, upper = x.tolist(), prob.lb.tolist(), prob.ub.tolist()
    for r in rows:
        short = float(residual[r])
        cols, spans = model.row_segs[r]
        if short < 0.0:
            cols, spans = cols[::-1], spans[::-1]
        sign = 1.0 if short > 0.0 else -1.0
        bound = upper if short > 0.0 else lower
        # net demand each segment can still add, or give back, in turn
        total = 0.0
        for j, span in zip(cols, spans):
            room = span * abs(bound[j] - fill[j])
            total += room
            take = min(max(abs(short) - (total - room), 0.0), room)
            fill[j] = bound[j] if take >= room else fill[j] + sign * take / span
    return np.array(fill)
