"""Uniqueness post-processing: canonical flows and canonical prices.

A fixed selection usually admits many optimal flow patterns and many
supporting price vectors.  FixFlow picks the minimum-squared-norm flows
on the optimal face of the welfare QP, which the multipliers of one of its
optima name; the price solve picks prices that first minimize total
executed-bid losses, then minimize the squared price norm.

Both are views of the clearing model (``daclear.model``) of the instance,
read in model order from a point of its master columns and from its
per-column arrays.  FixFlow keeps its vertical segment and flow columns,
with the columns and ramp rows whose multipliers are positive held tight.
The price QP has a price column per clearing row, and its equality rows
are the welfare QP's stationarity on the flow columns at the fixed flows:
the price difference across each flow column meets the multipliers of the
flow bounds and ramp rows that are tight there.

Each segment's fill bounds its row's price, and a partly executed segment
pins it.  When every price is pinned and the QPs' start holds their rows,
the QPs would return that start's prices, so pricing returns them and
builds no QP; otherwise the QPs decide, their row test and phase 1
included.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import Instance, PriceVector
from .errors import PriceInfeasible, SolverFailure
from .model import ClearingModel
from .qp import Multipliers, QpProblem, rows_hold, solve_qp
from .tolerances import DUAL_TOL, INFEAS_TOL, MONEY_TOL, TIGHT_TOL


def solve_fixflow(
    model: ClearingModel,
    x: np.ndarray,
    duals: Multipliers,
    deadline: Optional[float] = None,
) -> np.ndarray:
    """Minimum squared-norm flows on the optimal face of the welfare QP
    with x's selection pinned, on the clearing model ``model``.  ``x`` is
    an optimum of that QP (a master leaf's point, or the oracle's
    relaxation's) and ``duals`` are multipliers of it; the result is x
    with the face optimum's vertical fills and flows, or x itself when
    the model has no flow column.

    The optimal set of a convex QP is the set of its feasible points
    complementary to any one of its dual solutions (Mangasarian, 1988),
    so the face keeps the clearing rows and: the slope-carrying segment
    fills, which the objective's curvature makes unique, fixed; each
    vertical fill or flow whose bound multiplier exceeds DUAL_TOL pinned
    at its value in x; and each ramp row whose multiplier exceeds DUAL_TOL
    as an equality.  Welfare is constant on the face, and x lies on it
    and starts the QP.  ``deadline`` goes to the QP solve, which raises
    TimeLimit once it has passed.
    """
    if not model.flow_keys:
        return x
    cols, kept, A_eq, A_kept, A_in, c, d = model.fixflow_rows
    x0 = x[cols]
    lb, ub = model.lb[cols], model.ub[cols]
    pinned = np.maximum(duals.nu_lower[cols], duals.nu_upper[cols]) > DUAL_TOL
    lb[pinned] = ub[pinned] = x0[pinned]
    tight = duals.mu_in[:len(model.b_in)] > DUAL_TOL
    # clearing rows with the executed bids and the kept fills moved to the
    # rhs, then the tight ramp rows
    b_eq = model.b_eq - model.bin_A_eq @ (x[model.n:] > 0.5).astype(float) - A_kept @ x[kept]
    prob = QpProblem(
        c=c, d=d,
        A_eq=np.concatenate((A_eq, A_in[tight])), b_eq=np.concatenate((b_eq, model.b_in[tight])),
        A_in=A_in[~tight], b_in=model.b_in[~tight], lb=lb, ub=ub,
    )
    sol = solve_qp(prob, x0=x0, deadline=deadline)
    if sol.status != "optimal":
        raise SolverFailure(f"flow canonicalization failed: {sol.status}")
    out = x.copy()
    out[cols] = sol.x
    return out


def _flow_stationarity(model: ClearingModel, flows: np.ndarray):
    """The welfare QP's stationarity rows on its flow columns at ``flows``
    (in ``model.flow_keys`` order): ``P @ prices + G @ multipliers = 0``,
    one row per flow column, with ``(P, G) = model.stationarity`` over the
    rows of ``model.flow_rows`` tight at ``flows``: -1 for an upper bound,
    +1 for a lower bound and the negated ramp row.  ``source`` names the
    flow row each multiplier belongs to."""
    F, h, source = model.flow_rows
    P, G = model.stationarity
    if len(h):
        tight = (h - F @ flows <= TIGHT_TOL).nonzero()[0]
        G, source = G[:, tight], source[tight]
    return P, G, source


def _dual_start(model: ClearingModel, duals: Multipliers, source, lb, ub, A_in, b_in, n_lam):
    """A start for the pricing QPs, whose columns are the prices, ``n_lam``
    loss slacks and the multipliers of the tight flow rows ``source``
    names, from ``duals``, the multipliers of a welfare QP on ``model``
    with the priced selection pinned, at a dispatch of the same welfare.

    Each price starts at its clearing row's multiplier clipped into its
    bounds, each flow-row multiplier at the welfare QP's (the flow bounds'
    from its reduced gradient, the ramp rows' from ``mu_in``), and each
    loss slack at its row's excess.  A convex QP has one multiplier set
    for all its optima, so these multipliers also meet the stationarity
    rows at FixFlow's flows, and phase 1 runs only where a price leaves
    its bounds or, without slacks, a bid loses."""
    n_pi = len(model.eq_keys)
    x = np.zeros(len(lb))
    x[:n_pi] = np.minimum(np.maximum(duals.y_eq, lb[:n_pi]), ub[:n_pi])
    if len(source):
        f = slice(len(model.seg_ids), model.n)
        flow = np.concatenate((duals.nu_upper[f], duals.nu_lower[f], duals.mu_in[:len(model.b_in)]))
        x[n_pi + n_lam:] = flow[source]
    if n_lam:
        excess = A_in[:, :n_pi] @ x[:n_pi] - b_in
        x[n_pi:n_pi + n_lam] = np.minimum(np.maximum(excess, 0.0), ub[n_pi:n_pi + n_lam])
    return x


class _PriceQps:
    """The pricing QPs of ``x`` on ``model``, short of solving them: the
    columns' bounds ``lb`` and ``ub`` (the fill rule's price bounds first,
    then a loss slack per executed bid, in model order), the
    stationarity rows ``A_eq``/``b_eq``, the no-loss rows ``A_in``/``b_in``
    and the start ``start`` (``_dual_start``, or None to start cold).
    Building them raises PriceInfeasible when the fill rule's bounds cross
    by more than INFEAS_TOL."""

    def __init__(self, model, x, relax_losses, duals):
        iv = model.interval  # in model units, as every array here is
        n_seg, n = len(model.seg_ids), model.n
        on = x[n:].tolist()
        self.relax_losses = relax_losses
        executed = [k for k in model.bin_order if on[k] > 0.5]
        P, G, source = _flow_stationarity(model, x[n_seg:n])
        self.n_pi = n_pi = len(model.eq_keys)
        self.n_lam = n_lam = len(executed) if relax_losses else 0
        n_var = n_pi + n_lam + G.shape[1]

        # execution-fraction price rule per quantity-carrying segment, as
        # bounds of its price column: a full segment caps the price, an
        # empty one floors it and a fractional one pins it
        lo, hi = [iv.lower] * n_pi, [iv.upper] * n_pi
        cols, rows, base, span = model.fill_prices
        for r, b, s, z in zip(rows, base, span, x[cols].tolist()):
            if z >= 1.0 - TIGHT_TOL:
                hi[r] = min(hi[r], b + (1.0 - 1.0) * s)
            elif z <= TIGHT_TOL:
                lo[r] = max(lo[r], b + (1.0 - 0.0) * s)
            else:
                price = b + (1.0 - z) * s
                lo[r], hi[r] = max(lo[r], price), min(hi[r], price)
        for r, (low, high) in enumerate(zip(lo, hi)):
            if low - high > INFEAS_TOL:
                raise PriceInfeasible("no price meets the segment fill conditions")
            if low > high:  # crossed by round-off: the price sits between them
                lo[r] = hi[r] = 0.5 * (low + high)
        self.pinned = lo == hi
        # a loss slack is capped at its bid's largest loss over the interval
        caps = [max(-model.bin_worst[k], 0.0) for k in executed[:n_lam]]
        self.lb = np.array(lo + [0.0] * (n_var - n_pi))
        self.ub = np.array(hi + caps + [np.inf] * (n_var - n_pi - n_lam))

        self.A_eq = np.concatenate((P, np.zeros((len(P), n_lam)), G), axis=1)
        self.b_eq = np.zeros(len(P))
        # no-loss row per executed fill-or-kill bid (slack lam when relaxed)
        self.A_in = np.zeros((len(executed), n_var))
        self.A_in[:, :n_pi] = model.bin_A_eq.T[executed]
        self.b_in = model.bin_b[executed]
        if n_lam:
            self.A_in[range(n_lam), range(n_pi, n_pi + n_lam)] = -1.0
        self.start = None if duals is None else _dual_start(
            model, duals, source, self.lb, self.ub, self.A_in, self.b_in, n_lam)

    def pinned_prices(self) -> Optional[list]:
        """The prices, without a QP, when the fill bounds pin every one and
        the QPs' start, clipped into the box as ``solve_qp`` clips it,
        holds every row (``qp.rows_hold``); None otherwise.  Prices are
        pricing's only output, and pinned columns never move, so from a
        start that holds every row, which phase 1 leaves as it is, both
        QPs of ``solve`` end optimal at these prices: neither objective
        grows without bound, as the loss slacks are nonnegative and the
        flow-row multipliers carry no objective."""
        if not self.pinned:
            return None
        start = np.zeros(len(self.lb)) if self.start is None else self.start
        start = np.minimum(np.maximum(start, self.lb), self.ub)
        if not rows_hold(self, start):
            return None
        return start[:self.n_pi].tolist()

    def solve(self, deadline=None) -> list:
        """The prices the QPs choose: with loss slacks, a first QP finds
        the least total loss, and a second the least squared price norm
        among the prices that keep it.  Raises PriceInfeasible when a
        stage has no optimum."""
        n_pi, n_lam, n_var = self.n_pi, self.n_lam, len(self.lb)
        lam = slice(n_pi, n_pi + n_lam)
        A_in, b_in, x1 = self.A_in, self.b_in, self.start
        if n_lam:
            c1 = np.zeros(n_var)
            c1[lam] = -1.0
            p1 = QpProblem(
                c=c1, d=np.zeros(n_var), A_eq=self.A_eq, b_eq=self.b_eq, A_in=A_in, b_in=b_in,
                lb=self.lb, ub=self.ub,
            )
            s1 = solve_qp(p1, x0=x1, deadline=deadline)
            if s1.status != "optimal":
                raise PriceInfeasible(
                    f"no supporting price even with loss slacks ({s1.status})"
                )
            total = float(s1.x[lam].sum())
            row = np.zeros(n_var)
            row[lam] = 1.0
            A_in = np.concatenate((A_in, row[None]))
            b_in = np.concatenate((b_in, [total + MONEY_TOL]))
            x1 = s1.x

        d2 = np.zeros(n_var)
        d2[:n_pi] = -2.0
        p2 = QpProblem(
            c=np.zeros(n_var), d=d2, A_eq=self.A_eq, b_eq=self.b_eq, A_in=A_in, b_in=b_in,
            lb=self.lb, ub=self.ub,
        )
        s2 = solve_qp(p2, x0=x1, deadline=deadline)
        if s2.status != "optimal":
            raise PriceInfeasible(
                "no loss-free supporting price exists for this execution"
                if not self.relax_losses
                else f"price selection failed ({s2.status})"
            )
        return s2.x[:n_pi].tolist()


def solve_qpprice(
    model: ClearingModel,
    x: np.ndarray,
    relax_losses: bool = False,
    deadline: Optional[float] = None,
    duals: Optional[Multipliers] = None,
) -> PriceVector:
    """Prices that support ``x`` on the clearing model ``model``, by area
    and hour: x holds the model's fills and flows, then the binaries,
    whose columns above 0.5 are the executed bids.  With
    ``relax_losses``, a first QP finds the least total loss of the
    executed fill-or-kill bids, and the prices are chosen among those that
    keep it; the prices are the only output, and the bids that lose at
    them are ``cuts.loss_sets``'s to find.  ``duals``, the multipliers of
    the welfare QP with the selection pinned at a dispatch of x's welfare
    (a master leaf's or the oracle's relaxation), start the QPs
    (``_dual_start``); without them they start cold.  When the fill
    bounds pin every price and the QPs' start holds their rows, those
    prices are the answer and no QP is built (``_PriceQps.pinned_prices``).
    The QPs work in the model's units, and the prices leave them in the
    book's."""
    qps = _PriceQps(model, x, relax_losses, duals)
    pi = qps.pinned_prices()
    pi = np.array(qps.solve(deadline) if pi is None else pi) * model.price_unit
    return PriceVector(pi=dict(zip(model.eq_keys, pi.tolist())))


def clamp_prices(
    prices: PriceVector, instance: Instance
) -> tuple[PriceVector, list[str]]:
    """Project each price onto its area interval; clamping can break the
    cross-border price-difference conditions, so each move is reported."""
    out = {}
    warnings = []
    for (a, t), pi in prices.pi.items():
        interval = instance.area_interval(a)
        clamped = interval.clamp(pi)
        out[a, t] = clamped
        if clamped != pi:
            warnings.append(
                f"price for area {a!r} hour {t} moved from {pi} to {clamped}; "
                f"cross-border price conditions may no longer hold"
            )
    return PriceVector(pi=out), warnings
