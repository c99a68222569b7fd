"""The clearing model shared by every clearing QP.

Columns are the segment fills (in segment id order) followed by the
interconnector flows (connector, then hour).  There is one clearing row per
(area, hour) and two ramp rows per ramped connector and hour.  The master's
binary columns come after these: one per block in instance order, then one
per flex (bid, hour), with their clearing-row entries and the link and
flex-once rows.  The master, FixFlow and pricing all start from this model:
the master is the whole of it (the oracle's fixed-selection relaxation is
the master with every binary pinned), FixFlow keeps the vertical segment
and flow columns, and pricing's rows are the stationarity conditions of
the continuous QP on its flow columns, one price per clearing row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .core import BidSelection, Instance, PrimalSolution
from .qp import FEAS_TOL, QpProblem, rows_hold


@dataclass(frozen=True)
class ClearingModel:
    """Layout and rows of  max c'x + 1/2 sum d x^2  over fills and flows.

    ``A_eq x = b_eq`` balances each (area, hour): segment spans, +1 for
    flows leaving the area and -1 for flows entering it, against
    ``-min_net_demand``.  ``A_in x <= b_in`` holds the ramp limits
    ``+-(flow[t] - flow[t-1]) <= ramp_rate``, with the initial flow on the
    right-hand side at hour 0.  The master's binary columns follow column
    ``n``: ``bin_col`` maps each key of ``bin_keys``, the keys cuts use, to
    its master column; ``bin_c`` and ``bin_A_eq`` are their objective and
    clearing-row entries, and ``link_A y <= link_b`` their link rows
    ``y_child - y_parent <= 0`` and flex-once rows ``sum_t y <= 1``."""

    seg_ids: tuple[int, ...]
    flow_keys: tuple[tuple[str, int], ...]
    eq_keys: tuple[tuple[str, int], ...]
    ramp_keys: tuple[tuple[str, int, str], ...]  # (connector, hour, fwd|bwd)
    seg_col: dict[int, int]
    flow_col: dict[tuple[str, int], int]
    eq_row: dict[tuple[str, int], int]
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
    bin_c: np.ndarray
    bin_A_eq: np.ndarray
    link_A: np.ndarray
    link_b: np.ndarray
    vertical: np.ndarray  # per segment column: its segment is vertical
    # per clearing row: its segment columns in column (merit) order and
    # their spans, derived from A_eq
    row_segs: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False, compare=False
    )
    # (F, h, source): the flow columns' inequality rows  F @ flows <= h,
    # each flow's upper and lower bound followed by the ramp rows whose
    # last flow column it is; source[i] is the row's index in [upper bounds,
    # lower bounds, ramp rows], the order in which the welfare QP's
    # multipliers price them.  Derived from lb, ub and A_in
    flow_rows: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n_seg = len(self.seg_ids)
        segs = []
        for row in self.A_eq[:, :n_seg]:
            cols = np.flatnonzero(row > 0.0)
            segs.append((cols, row[cols]))
        object.__setattr__(self, "row_segs", tuple(segs))
        f = slice(n_seg, self.n)
        eye = np.eye(len(self.flow_keys))
        F = np.vstack([eye, -eye, self.A_in[:, f]])
        h = np.concatenate([self.ub[f], -self.lb[f], self.b_in])
        owner = np.where(F != 0.0, np.arange(len(eye)), -1).max(axis=1, initial=-1)
        order = np.argsort(owner, kind="stable")
        object.__setattr__(self, "flow_rows", (F[order], h[order], order))

    @property
    def n(self) -> int:
        return len(self.seg_ids) + len(self.flow_keys)

    @cached_property
    def fixflow_rows(self):
        """FixFlow's layout (``pricing.solve_fixflow``): (cols, kept, A_eq,
        A_kept, A_in).  Its columns ``cols`` are the vertical segments'
        fills, then the flows; the other segments' fills, ``kept``, stay
        where they are and move to the right-hand side of the clearing
        rows through ``A_kept``, their clearing-row block.  ``A_eq`` and
        ``A_in`` are the clearing and ramp rows on ``cols``."""
        kept = np.flatnonzero(~self.vertical)
        cols = np.concatenate((np.flatnonzero(self.vertical), np.arange(len(self.seg_ids), self.n)))
        return cols, kept, self.A_eq[:, cols], self.A_eq[:, kept], self.A_in[:, cols]

    def master(self) -> QpProblem:
        """A new master problem: every column, the binaries in [0, 1], and
        the ramp rows followed by the link and flex-once rows.  Each call
        builds its own problem, so each has its own factor cache."""
        m = len(self.bin_keys)
        return QpProblem(
            c=np.concatenate([self.c, self.bin_c]),
            d=np.concatenate([self.d, np.zeros(m)]),
            A_eq=np.hstack([self.A_eq, self.bin_A_eq]),
            b_eq=self.b_eq,
            A_in=np.block([
                [self.A_in, np.zeros((len(self.b_in), m))],
                [np.zeros((len(self.link_b), self.n)), self.link_A],
            ]),
            b_in=np.concatenate([self.b_in, self.link_b]),
            lb=np.concatenate([self.lb, np.zeros(m)]),
            ub=np.concatenate([self.ub, np.ones(m)]),
        )

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
        for key, j in self.bin_col.items():
            if key[0] == "block":
                blocks[key[1]] = int(round(x[j]))
            elif round(x[j]) == 1:
                flex[key[1]] = key[2]
            else:
                flex.setdefault(key[1])
        return BidSelection(blocks=blocks, flex=flex)

    def primal(self, selection: BidSelection, x: np.ndarray) -> PrimalSolution:
        """``selection`` with the fills and flows that ``x``, a point of a
        QP whose leading columns are this model's, gives them."""
        return PrimalSolution(
            selection=selection,
            delta={sid: float(x[j]) for sid, j in self.seg_col.items()},
            flows={key: float(x[j]) for key, j in self.flow_col.items()},
        )


def build_model(instance: Instance) -> ClearingModel:
    hours = range(instance.hours)
    seg_ids = tuple(s.id for s in instance.segments)
    flow_keys = tuple((cc.id, t) for cc in instance.interconnectors for t in hours)
    eq_keys = tuple((a, t) for a in instance.areas for t in hours)
    seg_col = {sid: j for j, sid in enumerate(seg_ids)}
    flow_col = {key: len(seg_ids) + k for k, key in enumerate(flow_keys)}
    eq_row = {key: r for r, key in enumerate(eq_keys)}
    n = len(seg_ids) + len(flow_keys)

    c = np.zeros(n)
    d = np.zeros(n)
    lb = np.zeros(n)
    ub = np.ones(n)
    for j, seg in enumerate(instance.segments):
        c[j] = (seg.base_price + seg.price_span) * seg.quantity_span
        d[j] = -seg.price_span * seg.quantity_span

    A_eq = np.zeros((len(eq_keys), n))
    b_eq = np.zeros(len(eq_keys))
    for r, (a, t) in enumerate(eq_keys):
        curve = instance.curves[a, t]
        for seg in curve.segments:
            A_eq[r, seg_col[seg.id]] = seg.quantity_span
        b_eq[r] = -curve.min_net_demand

    ramp_keys = []
    in_rows = []
    in_rhs = []
    for cc in instance.interconnectors:
        ramped = cc.ramp_rate is not None and np.isfinite(cc.ramp_rate)
        for t in hours:
            j = flow_col[cc.id, t]
            lb[j] = cc.lower[t]
            ub[j] = cc.upper[t]
            A_eq[eq_row[cc.source, t], j] = 1.0
            A_eq[eq_row[cc.sink, t], j] = -1.0
            if not ramped:
                continue
            for sense, sgn in (("fwd", 1.0), ("bwd", -1.0)):
                row = np.zeros(n)
                row[j] = sgn
                rhs = cc.ramp_rate
                if t == 0:
                    rhs += sgn * cc.initial_flow
                else:
                    row[flow_col[cc.id, t - 1]] = -sgn
                ramp_keys.append((cc.id, t, sense))
                in_rows.append(row)
                in_rhs.append(rhs)

    bin_keys = tuple(("block", b.id) for b in instance.blocks)
    bin_keys += tuple(("flex", f.id, t) for f in instance.flex_bids for t in hours)
    bin_col = {key: n + k for k, key in enumerate(bin_keys)}
    bin_c = np.zeros(len(bin_keys))
    bin_A_eq = np.zeros((len(eq_keys), len(bin_keys)))
    link_A = np.zeros((len(instance.links) + len(instance.flex_bids), len(bin_keys)))
    for k, b in enumerate(instance.blocks):
        bin_c[k] = b.limit_price * sum(b.quantities)
        for t in hours:
            if b.quantities[t] != 0.0:
                bin_A_eq[eq_row[b.area, t], k] = b.quantities[t]
    for r, (child, parent) in enumerate(instance.links):
        link_A[r, bin_col["block", child] - n] = 1.0
        link_A[r, bin_col["block", parent] - n] -= 1.0
    for r, f in enumerate(instance.flex_bids, len(instance.links)):
        for t in hours:
            k = bin_col["flex", f.id, t] - n
            bin_c[k] = f.limit_price * f.quantity
            bin_A_eq[eq_row[f.area, t], k] = f.quantity
            link_A[r, k] = 1.0

    return ClearingModel(
        seg_ids=seg_ids,
        flow_keys=flow_keys,
        eq_keys=eq_keys,
        ramp_keys=tuple(ramp_keys),
        seg_col=seg_col,
        flow_col=flow_col,
        eq_row=eq_row,
        c=c,
        d=d,
        lb=lb,
        ub=ub,
        A_eq=A_eq,
        b_eq=b_eq,
        A_in=np.array(in_rows).reshape(-1, n),
        b_in=np.array(in_rhs),
        bin_keys=bin_keys,
        bin_col=bin_col,
        bin_c=bin_c,
        bin_A_eq=bin_A_eq,
        link_A=link_A,
        link_b=np.array([0.0] * len(instance.links) + [1.0] * len(instance.flex_bids)),
        vertical=np.array([seg.is_vertical for seg in instance.segments], dtype=bool),
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
    x = np.clip(np.zeros(prob.n) if x0 is None else x0, prob.lb, prob.ub)
    residual = prob.b_eq - prob.A_eq @ x
    for r in (np.abs(residual) > FEAS_TOL).nonzero()[0]:
        short = float(residual[r])
        cols, spans = model.row_segs[r]
        if short < 0.0:
            cols, spans = cols[::-1], spans[::-1]
        sign = 1.0 if short > 0.0 else -1.0
        bound = (prob.ub if short > 0.0 else prob.lb)[cols].tolist()
        fill = x[cols].tolist()
        # net demand each segment can still add, or give back, in turn;
        # rows hold a few segments, so plain floats beat array calls
        total = 0.0
        for k, span in enumerate(spans.tolist()):
            room = span * abs(bound[k] - fill[k])
            total += room
            take = min(max(abs(short) - (total - room), 0.0), room)
            fill[k] = bound[k] if take >= room else fill[k] + sign * take / span
        x[cols] = fill
    return x


def _curves_take(model: ClearingModel, prob: QpProblem, x: np.ndarray) -> bool:
    """False when a clearing row's curve cannot take the volume that x's
    other columns leave it, by more than round-off, anywhere in its
    segments' box: ``balanced_start`` of x would leave that row broken, and
    ``rows_hold`` would reject the point."""
    s = len(model.seg_ids)
    spans = prob.A_eq[:, :s]  # nonnegative
    need = prob.b_eq - prob.A_eq[:, s:] @ x[s:]
    margin = 2.0 * FEAS_TOL
    return not ((need < spans @ prob.lb[:s] - margin) | (need > spans @ prob.ub[:s] + margin)).any()


def money_start(model: ClearingModel, prob: QpProblem) -> np.ndarray:
    """A start for ``prob``, a master problem on ``model``: the bids in the
    money executed, when their balanced point meets every row of prob, and
    otherwise ``balanced_start`` with every binary at its lower bound.

    A bid is in the money when its surplus is positive at the marginal
    prices of that balanced start: each clearing row's price is the one at
    which its last filled segment is filled (its first segment's, at fill
    0, when none is; 0 for a row without segments).  A link or flex-once
    row that the bids in the money break keeps none of its columns, except
    the hour of a flex bid with the largest surplus (the earliest on ties).
    The executed bids' point is ``balanced_start`` of the balanced start
    with these binaries set; it is built only when each clearing row's
    curve can take the executed bids' volume."""
    x = balanced_start(model, prob)
    n = model.n
    g = prob.c[:n] + prob.d[:n] * x[:n]
    pi = np.zeros(len(model.row_segs))
    for r, (cols, _) in enumerate(model.row_segs):
        if len(cols):
            filled = cols[x[cols] > 0.0]
            j = filled[-1] if len(filled) else cols[0]
            pi[r] = g[j] / model.A_eq[r, j]
    surplus = model.bin_c - pi @ model.bin_A_eq
    y = np.where(surplus > 0.0, prob.ub[n:], prob.lb[n:])
    broken = np.flatnonzero(model.link_A @ y > model.link_b + FEAS_TOL)
    while len(broken):
        for r in broken:
            cols = np.flatnonzero(model.link_A[r])
            on = cols[y[cols] > 0.0]
            y[cols] = 0.0
            if model.link_b[r] > 0.0:  # a flex-once row
                y[on[np.argmax(surplus[on])]] = 1.0
        broken = np.flatnonzero(model.link_A @ y > model.link_b + FEAS_TOL)
    if not y.any():
        return x
    start = x.copy()
    start[n:] = y
    if not _curves_take(model, prob, start):
        return x
    start = balanced_start(model, prob, start)
    return start if rows_hold(prob, start) else x
