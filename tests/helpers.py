"""Shared fixture builders; random small instances come from ``bench/generate.py``."""

import functools
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from daclear import driver, master, pricing, qp
from daclear.core import BidSelection, PriceVector, PrimalSolution
from daclear.errors import PriceInfeasible, SolverFailure, UnknownId
from daclear.io import parse_instance
from daclear.master import _with_cuts
from daclear.model import build_model
from daclear.pricing import solve_fixflow, solve_qpprice
from daclear.qp import QpProblem, QpSolution, multipliers
from daclear.tolerances import (
    CHECK_TOL, CURV_TOL, DUAL_TOL, INFEAS_TOL, MAX_MAGNITUDE, RANK_TOL, TIGHT_TOL,
)
from daclear.verify import ConditionReport, Violation, _case_violation, check_bid_prices


def make_instance(curves, conns=(), P=(0.0, 100.0), hours=1, areas=None,
                  blocks=(), links=(), flex=(), area_intervals=None):
    if areas is None:
        areas = sorted({a for a, _ in curves})
    area_intervals = area_intervals or {}
    doc = {
        "price_interval": {"lower": P[0], "upper": P[1]},
        "hours": hours,
        "areas": [
            {"id": a, **({"price_interval": area_intervals[a]} if a in area_intervals else {})}
            for a in areas
        ],
        "curves": [
            {"area": a, "hour": t, "nodes": [list(n) for n in nodes]}
            for (a, t), nodes in curves.items()
        ],
        "blocks": list(blocks),
        "links": [list(l) for l in links],
        "flex": list(flex),
        "interconnectors": list(conns),
    }
    return parse_instance(json.dumps(doc))


def block(bid, area, limit, quantities):
    return {"id": bid, "area": area, "limit_price": float(limit),
            "quantities": [float(q) for q in quantities]}


def flexbid(fid, area, limit, quantity):
    return {"id": fid, "area": area, "limit_price": float(limit),
            "quantity": float(quantity)}


def connector(cid, source, sink, lower, upper, ramp=None, initial=0.0):
    return {"id": cid, "source": source, "sink": sink,
            "lower": [float(v) for v in lower], "upper": [float(v) for v in upper],
            "ramp_rate": None if ramp is None else float(ramp),
            "initial_flow": float(initial)}


def expiring_clock(ticks_before_expiry):
    """A stand-in for the ``time`` module whose monotonic clock reads 0 for
    the given number of calls and 10 after them."""
    calls = []

    def monotonic():
        calls.append(None)
        return 0.0 if len(calls) <= ticks_before_expiry else 10.0

    return SimpleNamespace(monotonic=monotonic)


def without_row_test(monkeypatch):
    """Take ``solve_qp``'s row test out, so that phase 1 decides every
    verdict of infeasibility."""
    monkeypatch.setattr(qp, "_row_test", lambda prob: None)


def without_node_pass(monkeypatch):
    """Take the master's node pass (``master._fix_binaries``) out, so that
    every node is solved and branched on the box it was pushed with."""
    monkeypatch.setattr(master, "_fix_binaries",
                        lambda prob, binary_rows, lb, ub: prob.with_bounds(lb, ub))


def executed_bids(selection):
    """(block ids, (flex id, hour) pairs) of ``selection``'s executed
    bids, each in id order, read from its bid keys (``executed_keys``)."""
    keys = selection.executed_keys()
    return [k[1] for k in keys if k[0] == "block"], [k[1:] for k in keys if k[0] == "flex"]


def pinned_relaxation(inst, selection):
    """(problem, model): the master problem of ``inst`` with its block and
    flex columns pinned at ``selection``, the relaxation the oracle solves
    for that selection."""
    model = build_model(inst)
    prob = model.master()
    lb, ub = prob.lb.copy(), prob.ub.copy()
    lb[model.n:] = ub[model.n:] = model.binaries(selection)
    return prob.with_bounds(lb, ub), model


def model_maps(model):
    """The model's key-to-position maps, built from its layout: its
    segment columns (``seg_col``, by segment id), flow columns
    (``flow_col``, by (connector, hour)) and clearing rows (``eq_row``, by
    (area, hour))."""
    n_seg = len(model.seg_ids)
    return SimpleNamespace(
        seg_col=dict(zip(model.seg_ids, range(n_seg))),
        flow_col=dict(zip(model.flow_keys, range(n_seg, n_seg + len(model.flow_keys)))),
        eq_row=dict(zip(model.eq_keys, range(len(model.eq_keys)))),
    )


def point(model, solution):
    """``solution`` as a point of ``model``'s master problem: its fills and
    flows in column order (0 where it has none), the flows in model units,
    then its binaries."""
    return np.concatenate((
        [solution.delta.get(sid, 0.0) for sid in model.seg_ids],
        [solution.flows.get(key, 0.0) / model.quantity_unit for key in model.flow_keys],
        model.binaries(solution.selection),
    ))


def fixflow(model, solution, duals):
    """``pricing.solve_fixflow`` of ``solution``, as a solution."""
    x = solve_fixflow(model, point(model, solution), duals)
    return model.primal(solution.selection, x)


def qpprice(model, solution, *args, **kwargs):
    """``pricing.solve_qpprice`` of ``solution``."""
    return solve_qpprice(model, point(model, solution), *args, **kwargs)


def qp_prices(model, x, relax_losses=False, deadline=None, duals=None):
    """``pricing.solve_qpprice`` by its QPs alone (``_PriceQps.solve``),
    also where the prices that the fill bounds pin would answer it
    without them (``_PriceQps.pinned_prices``)."""
    qps = pricing._PriceQps(model, x, relax_losses, duals)
    prices = np.array(qps.solve(deadline)) * model.price_unit
    return PriceVector(pi=dict(zip(model.eq_keys, prices.tolist())))


def total_loss(inst, selection, prices):
    """The executed bids' total loss at ``prices``: the sum of
    ``verify.check_bid_prices``'s no-loss violations at tolerance 0, one
    per losing bid, blocks then flex bids, each in id order."""
    report = check_bid_prices(inst, selection, prices, tol=0.0)
    return float(sum(v.amount for v in report.violations))


def check_filling_gamma(instance, delta, prices, tol=CHECK_TOL):
    """``verify.check_filling`` another way, for cross-validation:
    construct the binary stacking chain over ascending-price segments (a
    partially filled segment forces every higher-priced one to full fill)
    and then apply the price rule to the stacked profile."""
    violations = []
    for a in instance.areas:
        for t in range(instance.hours):
            segs = sorted(
                (s for s in instance.curves[a, t].segments if s.quantity_span != 0.0),
                key=lambda s: (s.base_price, s.price_span),
            )
            for lo, hi in zip(segs, segs[1:]):
                d_lo = float(delta.get(lo.id, 0.0))
                d_hi = float(delta.get(hi.id, 0.0))
                # gamma between the pair must be >= d_lo and <= d_hi
                if d_lo > tol and d_hi < 1.0 - tol:
                    violations.append(
                        Violation((a, t, lo.id, hi.id), d_lo - d_hi, "stacking")
                    )
            pi = prices[a, t]
            for seg in segs:
                v = _case_violation(seg, float(delta.get(seg.id, 0.0)), pi, tol)
                if v is not None:
                    violations.append(Violation((a, t, seg.id), abs(v), "price-rule"))
    return ConditionReport.from_violations(violations)


def flow_fast_path(instance, c, flows, prices, tol):
    """The flow-price violations of connector ``c``, which has no ramp
    limit, by the direct rule, for cross-validation with
    ``verify._flow_general``: a price rise toward the sink requires a
    tight upper bound, a price drop a tight lower bound."""
    tight = max(tol, TIGHT_TOL)
    out = []
    for t in range(instance.hours):
        tau = flows.get((c.id, t), 0.0)
        diff = prices[c.sink, t] - prices[c.source, t]
        if diff > tol and c.upper[t] - tau > tight:
            out.append(Violation((c.id, t), diff, "flow-price"))
        elif diff < -tol and tau - c.lower[t] > tight:
            out.append(Violation((c.id, t), -diff, "flow-price"))
    return out


def curtailment_breaches(inst, sol, tol=1e-6):
    """The curtailment-priority rule as the README states it, written apart
    from ``cuts.curtailment_violations``: {(area, hour): (blocks, flex)} of
    the executed bids that outrank curtailed hourly bids there.  Hourly
    demand is curtailed when the curtailment segment that joins a
    demand-only curve to zero is less than full (beyond ``tol``); then each
    executed block with a positive quantity in that hour and each flex bid
    with a positive quantity executed in that hour outranks it.  Hourly
    supply is curtailed when the segment that joins a supply-only curve to
    zero is filled at all (beyond ``tol``); then the bids with a negative
    quantity there outrank it.  Blocks are listed by id, flex bids as
    (id, hour) by id."""
    out = {}
    for (area, hour), curve in inst.curves.items():
        for seg in curve.segments:
            if not seg.is_curtailment:
                continue
            fill = sol.delta.get(seg.id, 0.0)
            side = 1.0 if seg.node_quantity > 0.0 else -1.0  # demand, or supply
            if fill >= 1.0 - tol if side > 0.0 else fill <= tol:
                continue
            blocks = tuple(sorted(
                b.id for b in inst.blocks
                if sol.selection.blocks.get(b.id) and b.area == area
                and side * b.quantities[hour] > 0.0
            ))
            flex = tuple(sorted(
                (f.id, hour) for f in inst.flex_bids
                if sol.selection.flex.get(f.id) == hour and f.area == area
                and side * f.quantity > 0.0
            ))
            if blocks or flex:
                out[area, hour] = (blocks, flex)
    return out


def min_loss_lp(optimize, inst, sol, strict):
    """Minimum total executed-bid loss over the prices that support ``sol``,
    solved by HiGHS with every fill condition written as a row; None when
    no price supports it."""
    keys = [(a, t) for a in inst.areas for t in range(inst.hours)]
    pi = {k: j for j, k in enumerate(keys)}
    executed, flex = executed_bids(sol.selection)
    blocks = {b.id: b for b in inst.blocks}
    bids = [(blocks[b].area, enumerate(blocks[b].quantities), blocks[b].limit_price)
            for b in executed]
    bids += [(inst.flex_by_id[f].area, [(t, inst.flex_by_id[f].quantity)],
              inst.flex_by_id[f].limit_price) for f, t in flex]
    conns = [(c, t) for c in inst.interconnectors for t in range(inst.hours)]
    n_pi, n_loss = len(keys), len(bids)
    # per connector and hour: upper, lower, ramp-up and ramp-down multipliers
    mult = {ct: n_pi + n_loss + 4 * k for k, ct in enumerate(conns)}
    n = n_pi + n_loss + 4 * len(conns)
    lo, hi = inst.interval.lower, inst.interval.upper
    bounds = [(lo, hi)] * n_pi + [(0.0, 0.0 if strict else None)] * n_loss
    tol = 1e-7
    for c, t in conns:
        tau = sol.flows.get((c.id, t), 0.0)
        prev = c.initial_flow if t == 0 else sol.flows.get((c.id, t - 1), 0.0)
        ramp = np.inf if c.ramp_rate is None else c.ramp_rate
        for tight in (c.upper[t] - tau <= tol, tau - c.lower[t] <= tol,
                      tau - prev >= ramp - tol, prev - tau >= ramp - tol):
            bounds.append((0.0, None if tight else 0.0))
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for seg in inst.segments:
        if seg.quantity_span == 0.0:
            continue
        row = np.zeros(n)
        row[pi[inst.segment_location[seg.id]]] = 1.0
        z = sol.delta.get(seg.id, 0.0)
        if z >= 1.0 - tol:
            A_ub.append(row)
            b_ub.append(seg.price_at(1.0))
        elif z <= tol:
            A_ub.append(-row)
            b_ub.append(-seg.price_at(0.0))
        else:
            A_eq.append(row)
            b_eq.append(seg.price_at(z))
    for k, (area, hours_qty, limit) in enumerate(bids):
        row = np.zeros(n)
        rhs = 0.0
        for t, q in hours_qty:
            row[pi[area, t]] += q
            rhs += limit * q
        row[n_pi + k] = -1.0
        A_ub.append(row)
        b_ub.append(rhs)
    # price difference = upper - lower multiplier + ramp-up(t) - ramp-down(t)
    #                    - ramp-up(t+1) + ramp-down(t+1)
    for c, t in conns:
        row = np.zeros(n)
        row[pi[c.sink, t]] += 1.0
        row[pi[c.source, t]] -= 1.0
        j = mult[c, t]
        row[j:j + 4] -= [1.0, -1.0, 1.0, -1.0]
        if t + 1 < inst.hours:
            j = mult[c, t + 1]
            row[j + 2:j + 4] += [1.0, -1.0]
        A_eq.append(row)
        b_eq.append(0.0)
    cost = np.zeros(n)
    cost[n_pi:n_pi + n_loss] = 1.0
    res = optimize.linprog(
        cost, A_ub=np.array(A_ub).reshape(-1, n) if A_ub else None,
        b_ub=b_ub or None, A_eq=np.array(A_eq).reshape(-1, n) if A_eq else None,
        b_eq=b_eq or None, bounds=bounds, method="highs",
    )
    assert res.status in (0, 2)
    return res.fun if res.status == 0 else None


def with_qp_path(monkeypatch):
    """Have every pricing call of the driver that the pinned prices answer
    build and solve pricing's QPs as well (``qp_prices``), so that a spy on
    ``pricing.solve_qp`` sees the QPs of each priced leaf; the driver goes
    on with the pinned path's prices."""
    price = driver.solve_qpprice

    def spy(model, x, relax_losses=False, deadline=None, duals=None):
        out = price(model, x, relax_losses, deadline, duals)
        qps = pricing._PriceQps(model, x, relax_losses, duals)
        if qps.pinned_prices() is not None:
            qps.solve(deadline)
        return out

    monkeypatch.setattr(driver, "solve_qpprice", spy)


def cut_activity(inst, cut, selection):
    """The left-hand side of ``cut`` at ``selection``: the row that the
    master's ``_with_cuts`` adds for it, times the selection's binaries
    as ``pinned_relaxation`` pins them."""
    pinned, model = pinned_relaxation(inst, selection)
    row = _with_cuts(pinned, [cut], model).A_in[-1]
    return float(row[model.n:] @ pinned.lb[model.n:])


def appendix_a():
    return make_instance(
        {("X", 0): [[0, 0], [5, 0]]},
        P=(0.0, 5.0),
        blocks=[
            block("a", "X", 1, [-1]),
            block("b", "X", 2, [1]),
            block("c", "X", 3, [-2]),
            block("d", "X", 4, [2]),
        ],
    )


# per document of ``repeated_key_documents``, the key it repeats
REPEATED_KEYS = {"top-level-blocks": "blocks", "curve-nodes": "nodes"}


def repeated_key_documents():
    """{name: text} of the appendix A fixture file with one key repeated: a
    second top-level ``blocks``, empty, and a second ``nodes`` in its curve
    entry (``REPEATED_KEYS``).  A decoder that keeps each key's last value
    would read no block from the first and the fixture's own curve from the
    second."""
    text = (Path(__file__).resolve().parent.parent / "fixtures" / "appendix_a.json").read_text()
    nodes = '"hour": 0, "nodes": '
    assert text.count(nodes) == 1 and text.rstrip().endswith("\n}")
    return {
        "top-level-blocks": text.rstrip()[:-2] + ',\n  "blocks": []\n}\n',
        "curve-nodes": text.replace(nodes, nodes + '[[0.0, 1.0], [5.0, 1.0]], "nodes": '),
    }


def two_area(atc):
    """Supply step of 50 MW at price 10 in R, demand step of 30 MW at 40 in S."""
    return make_instance(
        {("R", 0): [[0, 0], [10, 0], [10, -50], [100, -50]],
         ("S", 0): [[0, 30], [40, 30], [40, 0], [100, 0]]},
        [connector("c1", "R", "S", [-atc], [atc])],
    )


def f2():
    return two_area(100.0)


def f3():
    return two_area(20.0)


def ramp_fixture():
    """Two hours, elastic curves, free ATC, ramp rate 6 starting from flow 18."""
    return make_instance(
        {("R", 0): [[-100, 0], [0, 0], [100, -200]],
         ("R", 1): [[-100, 0], [0, 0], [100, -200]],
         ("S", 0): [[-100, 65], [100, -35]],
         ("S", 1): [[-100, 95], [100, -5]]},
        [connector("c1", "R", "S", [-1000, -1000], [1000, 1000], ramp=6.0, initial=18.0)],
        P=(-100.0, 100.0), hours=2,
    )


def diamond():
    """Two symmetric routes R->A->S and R->B->S moving 100 MW in total."""
    return make_instance(
        {("R", 0): [[0, 0], [10, 0], [10, -150], [100, -150]],
         ("A", 0): [[0, 0], [100, 0]],
         ("B", 0): [[0, 0], [100, 0]],
         ("S", 0): [[0, 100], [40, 100], [40, 0], [100, 0]]},
        [connector("RA", "R", "A", [-200], [200]),
         connector("AS", "A", "S", [-200], [200]),
         connector("RB", "R", "B", [-200], [200]),
         connector("BS", "B", "S", [-200], [200])],
        areas=["R", "A", "B", "S"],
    )


def price_indifferent():
    return make_instance(
        {("X", 0): [[-10, 20], [-5, 0], [7, 0], [10, -20]]},
        P=(-10.0, 10.0),
    )


def random_instance(seed):
    """Small jittered instance within the enumeration-oracle caps: the
    small-suite instance of ``bench/generate.py`` at ``seed``."""
    return bench_instance("small-suite", seed)


def paradox_book(seed):
    """One area, two hours, two seller/buyer block pairs with overlapping
    price windows on a thin elastic curve: the curve cannot absorb a
    block that a branch pins, so branch-and-bound children need other
    blocks to move."""
    rng = np.random.default_rng(seed)
    curves = {}
    for t in range(2):
        width = float(rng.uniform(1.0, 4.0))
        mid = float(rng.uniform(35.0, 65.0))
        curves["X", t] = [[mid - 30.0, width], [mid + 30.0, -width]]
    blocks = []
    for i in range(2):
        low = rng.uniform(30.0, 60.0)
        supply = rng.uniform(5.0, 15.0, size=2)
        demand = supply * rng.uniform(0.6, 1.4, size=2)
        blocks.append(block(f"s{i}", "X", low + rng.uniform(0.0, 5.0), -supply))
        blocks.append(block(f"d{i}", "X", low + rng.uniform(2.0, 12.0), demand))
    return make_instance(curves, hours=2, blocks=blocks)



def _step_nodes(rng, level, width):
    """Stepped node list on prices 12-88: vertical drops at 1-2 price
    levels, flat between, so every segment's quadratic term is zero."""
    prices = np.unique(np.round(np.sort(rng.uniform(12.0, 88.0, size=int(rng.integers(1, 3)))), 4))
    hi = level + rng.uniform(*width)
    lo = level - rng.uniform(*width)
    qty = [hi, *np.sort(rng.uniform(lo, hi, size=len(prices) - 1))[::-1], lo]
    nodes = []
    for i, p in enumerate(prices):
        nodes += [[float(p), float(qty[i])], [float(p), float(qty[i + 1])]]
    return nodes


def step_book(seed):
    """Three areas in a chain, three hours and 13-20 blocks on step curves:
    a master with more binaries than the oracle enumerates, whose QPs are
    LPs.  Curves reach 10-30 MW either side of their level on even seeds,
    where presolve often fixes the last block, which bids far outside the
    curves' prices, and 2-10 MW on odd seeds, where the blocks compete and
    the tree branches more."""
    rng = np.random.default_rng(seed)
    hours = 3
    areas = ["A0", "A1", "A2"]
    width = (10.0, 30.0) if seed % 2 == 0 else (2.0, 10.0)
    curves = {
        (a, t): _step_nodes(rng, rng.uniform(-8.0, 8.0), width) for a in areas for t in range(hours)
    }
    conns = []
    for k, (src, snk) in enumerate(zip(areas, areas[1:])):
        atc = rng.uniform(5.0, 20.0, size=hours)
        conns.append(connector(f"c{k}", src, snk, -atc, atc, ramp=float(rng.uniform(4.0, 12.0)),
                               initial=float(rng.uniform(-4.0, 4.0))))
    n_blocks = int(rng.integers(13, 21))
    blocks = []
    for i in range(n_blocks):
        sign = 1.0 if i % 2 else -1.0
        q = sign * rng.uniform(3.0, 15.0, size=hours)
        q[rng.random(hours) < 0.25] = 0.0
        if not np.any(q):
            q[0] = 8.0 * sign
        limit = rng.uniform(20.0, 80.0) + rng.uniform(0, 1e-3)
        if i == n_blocks - 1:
            limit = rng.uniform(1.0, 8.0) if sign > 0 else rng.uniform(92.0, 99.0)
        blocks.append(block(f"b{i}", str(rng.choice(areas)), float(limit), q))
    return make_instance(curves, conns, hours=hours, areas=areas, blocks=blocks)


@functools.cache
def _generate():
    """``bench/generate.py``, loaded once."""
    path = Path(__file__).resolve().parent.parent / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate


def bench_text(family, seed):
    """The instance document of ``bench/generate.py``'s ``family`` at ``seed``."""
    return _generate().instance_text(family, seed)


def bench_instance(family, seed):
    """The instance of ``bench/generate.py``'s ``family`` at ``seed``."""
    return parse_instance(bench_text(family, seed))


def rescaled(doc, price=1.0, quantity=1.0):
    """The instance document ``doc``, as ``io.serialize_instance`` writes
    it, with every price times ``price``: the price intervals, the whole
    market's and each area's, curve nodes and limit prices; and every
    quantity times ``quantity``: curves, bids, flow limits, ramps and
    initial flows."""
    interval = lambda iv: {"lower": price * iv["lower"], "upper": price * iv["upper"]}
    ramp = lambda r: None if r is None else quantity * r
    return {
        **doc,
        "price_interval": interval(doc["price_interval"]),
        "areas": [{**a, **({"price_interval": interval(a["price_interval"])}
                           if "price_interval" in a else {})} for a in doc["areas"]],
        "curves": [{**c, "nodes": [[price * p, quantity * q] for p, q in c["nodes"]]}
                   for c in doc["curves"]],
        "blocks": [{**b, "limit_price": price * b["limit_price"],
                    "quantities": [quantity * q for q in b["quantities"]]}
                   for b in doc["blocks"]],
        "flex": [{**f, "limit_price": price * f["limit_price"],
                  "quantity": quantity * f["quantity"]} for f in doc["flex"]],
        "interconnectors": [
            {**c, "lower": [quantity * v for v in c["lower"]],
             "upper": [quantity * v for v in c["upper"]],
             "ramp_rate": ramp(c["ramp_rate"]), "initial_flow": quantity * c["initial_flow"]}
            for c in doc["interconnectors"]
        ],
    }


# what a scalar may become: edges of the magnitude bound
# (``tolerances.MAX_MAGNITUDE``) and values past it, zero, a subnormal, an
# integer too large for a float, the non-finite constants that strict JSON
# forbids (``json.dumps`` writes them as NaN and Infinity), and values of
# another JSON type
_SCALAR_EDITS = (MAX_MAGNITUDE, -MAX_MAGNITUDE, 10 * MAX_MAGNITUDE, 1e15, 1e308, -1e308, 0.0,
                 5e-324, 10**400, float("nan"), float("inf"), "x", None, True, [])


def _nodes_of(value, path=()):
    """(path, value) of every node below ``value``, a JSON document, in
    document order."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,), item
        yield from _nodes_of(item, path + (key,))


def mutated_document(text, rng):
    """``text``, a JSON document, with one or two edits that ``rng`` (a
    numpy Generator) draws.  An edit picks its kind, then a node of that
    kind: a number (six edits in ten) is negated, scaled by 1e3, 1e-3 or
    10, or moved by one (an integer); a scalar (two in ten) is replaced
    from ``_SCALAR_EDITS``; a string takes another string of the document
    or becomes empty; a list loses or repeats an entry, and an object
    loses one."""
    doc = json.loads(text)
    for _ in range(int(rng.integers(1, 3))):
        kind = rng.choice(["number", "scalar", "string", "container"], p=[0.6, 0.2, 0.1, 0.1])
        nodes = list(_nodes_of(doc))
        strings = [v for _, v in nodes if isinstance(v, str)]
        nodes = [(path, v) for path, v in nodes if {
            "number": type(v) in (int, float),
            "scalar": not isinstance(v, (list, dict)),
            "string": isinstance(v, str),
            "container": isinstance(v, (list, dict)) and len(v) > 0,
        }[kind]]
        path, value = nodes[int(rng.integers(len(nodes)))]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "number":
            parent[key] = value + 1 if type(value) is int else value * float(
                rng.choice([-1.0, 1e3, 1e-3, 10.0]))
        elif kind == "scalar":
            parent[key] = _SCALAR_EDITS[int(rng.integers(len(_SCALAR_EDITS)))]
        elif kind == "string":
            parent[key] = "" if rng.random() < 0.2 else strings[int(rng.integers(len(strings)))]
        else:
            keys = list(value) if isinstance(value, dict) else list(range(len(value)))
            pick = keys[int(rng.integers(len(keys)))]
            if isinstance(value, dict) or rng.random() < 0.5:
                del value[pick]
            else:
                value.insert(pick, json.loads(json.dumps(value[pick])))
    return json.dumps(doc)


@dataclass(frozen=True)
class FixedSelectionTerms:
    """Objective constant and per-(area, hour) volume of a fixed selection."""

    constant: float
    volume: dict


def selection_terms(instance, selection) -> FixedSelectionTerms:
    """Welfare constant and per-(area, hour) combinatorial volume of a
    selection, from the bids alone."""
    constant = 0.0
    volume = {(a, t): 0.0 for a in instance.areas for t in range(instance.hours)}
    executed, flex = executed_bids(selection)
    blocks = {b.id: b for b in instance.blocks}
    for bid in executed:
        if bid not in blocks:
            raise UnknownId(f"unknown block id {bid!r}")
        b = blocks[bid]
        for t, q in enumerate(b.quantities):
            constant += b.limit_price * q
            volume[b.area, t] += q
    for fid, t in flex:
        if fid not in instance.flex_by_id:
            raise UnknownId(f"unknown flex id {fid!r}")
        if not 0 <= t < instance.hours:
            raise UnknownId(f"flex {fid!r} executed in unknown hour {t}")
        f = instance.flex_by_id[fid]
        constant += f.limit_price * f.quantity
        volume[f.area, t] += f.quantity
    return FixedSelectionTerms(constant=constant, volume=volume)


def welfare_row_fixflow(instance, model, solution):
    """A reference FixFlow that needs no multipliers: the minimum
    squared-norm flows over the vertical fills and flows that keep the
    clearing rows, the ramp rows and the vertical fills' welfare (one
    equality row), with the sloped fills fixed, in the model's units."""
    if not instance.interconnectors:
        return solution
    sp, sq = model.price_unit, model.quantity_unit
    free = [s for s in instance.segments if s.is_vertical]
    free_ids = {s.id for s in free}
    maps = model_maps(model)
    cols = [maps.seg_col[s.id] for s in free] + list(maps.flow_col.values())
    n_free, n = len(free), len(cols)
    d = np.zeros(n)
    d[n_free:] = -2.0
    n_eq = len(model.eq_keys)
    A_eq = np.zeros((n_eq + 1, n))
    A_eq[:n_eq] = model.A_eq[:, cols]
    b_eq = np.zeros(n_eq + 1)
    terms = selection_terms(instance, solution.selection)
    for r, (a, t) in enumerate(model.eq_keys):
        b_eq[r] = model.b_eq[r] - terms.volume[a, t] / sq - sum(
            seg.quantity_span / sq * solution.delta.get(seg.id, 0.0)
            for seg in instance.curves[a, t].segments if seg.id not in free_ids
        )
    for k, seg in enumerate(free):
        A_eq[n_eq, k] = seg.base_price / sp * (seg.quantity_span / sq)
        b_eq[n_eq] += A_eq[n_eq, k] * solution.delta.get(seg.id, 0.0)
    prob = qp.QpProblem(
        c=np.zeros(n), d=d, A_eq=A_eq, b_eq=b_eq, A_in=model.A_in[:, cols],
        b_in=model.b_in, lb=model.lb[cols], ub=model.ub[cols],
    )
    x0 = [solution.delta.get(s.id, 0.0) for s in free]
    x0 += [solution.flows.get(key, 0.0) / sq for key in model.flow_keys]
    sol = qp.solve_qp(prob, x0=np.array(x0))
    if sol.status != "optimal":
        raise SolverFailure(f"flow canonicalization failed: {sol.status}")
    delta = dict(solution.delta)
    delta.update({seg.id: float(sol.x[k]) for k, seg in enumerate(free)})
    flows = {key: float(sol.x[n_free + k]) * sq for k, key in enumerate(model.flow_keys)}
    return PrimalSolution(selection=solution.selection, delta=delta, flows=flows)


@dataclass
class KktReport:
    stationarity: float
    primal: float
    dual: float
    complementarity: float
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.primal, self.dual, self.complementarity)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def check_kkt(prob: QpProblem, sol: QpSolution, tol: float = 1e-8) -> KktReport:
    """Residuals of stationarity, primal feasibility, dual sign and
    complementarity for a candidate solution, priced by ``multipliers``."""
    x = sol.x
    mult = multipliers(prob, sol)
    primal = 0.0
    dual = 0.0
    comp = 0.0
    if len(prob.b_eq):
        primal = max(primal, float(np.max(np.abs(prob.A_eq @ x - prob.b_eq))))
    if len(prob.b_in):
        slack = prob.b_in - prob.A_in @ x
        primal = max(primal, float(np.max(-slack)))
        comp = max(comp, float(np.max(np.abs(mult.mu_in * slack))))
        dual = max(dual, float(np.max(-mult.mu_in)))
    lo_ok = np.isfinite(prob.lb)
    hi_ok = np.isfinite(prob.ub)
    if np.any(lo_ok):
        s = (x - prob.lb)[lo_ok]
        primal = max(primal, float(np.max(-s)))
        comp = max(comp, float(np.max(np.abs(mult.nu_lower[lo_ok] * s))))
    if np.any(hi_ok):
        s = (prob.ub - x)[hi_ok]
        primal = max(primal, float(np.max(-s)))
        comp = max(comp, float(np.max(np.abs(mult.nu_upper[hi_ok] * s))))
    dual = max(
        dual,
        float(np.max(-mult.nu_lower)) if len(mult.nu_lower) else 0.0,
        float(np.max(-mult.nu_upper)) if len(mult.nu_upper) else 0.0,
    )
    grad = prob.c + prob.d * x
    stat = grad - mult.nu_upper + mult.nu_lower
    if len(prob.b_eq):
        stat = stat - prob.A_eq.T @ mult.y_eq
    if len(prob.b_in):
        stat = stat - prob.A_in.T @ mult.mu_in
    stationarity = float(np.max(np.abs(stat))) if len(stat) else 0.0
    return KktReport(
        stationarity=stationarity, primal=primal, dual=dual,
        complementarity=comp, tol=tol,
    )


def empty_selection(instance) -> BidSelection:
    return BidSelection(
        blocks={b.id: 0 for b in instance.blocks},
        flex={f.id: None for f in instance.flex_bids},
    )


def reference_model(instance):
    """The clearing model's arrays as loops build them entry by entry, one
    ``np.zeros`` row per ramp row, in the book's units and then divided by
    ``model.build_model``'s units (prices by S_p, quantities by S_q, money
    by both), with ``row_segs`` and ``flow_rows`` derived from them and
    ``master`` assembled with ``np.block``: the reference that
    ``model.build_model``'s arrays must equal bit for bit."""
    built = build_model(instance)
    sp, sq = built.price_unit, built.quantity_unit
    hours = range(instance.hours)
    seg_ids = tuple(s.id for s in instance.segments)
    flow_keys = tuple((cc.id, t) for cc in instance.interconnectors for t in hours)
    eq_keys = tuple((a, t) for a in instance.areas for t in hours)
    seg_col = {sid: j for j, sid in enumerate(seg_ids)}
    flow_col = {key: len(seg_ids) + k for k, key in enumerate(flow_keys)}
    eq_row = {key: r for r, key in enumerate(eq_keys)}
    n = len(seg_ids) + len(flow_keys)

    c, d, lb, ub = np.zeros(n), np.zeros(n), np.zeros(n), np.ones(n)
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
    ramp_keys, in_rows, in_rhs = [], [], []
    for cc in instance.interconnectors:
        ramped = cc.ramp_rate is not None and np.isfinite(cc.ramp_rate)
        for t in hours:
            j = flow_col[cc.id, t]
            lb[j], ub[j] = cc.lower[t], cc.upper[t]
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
    A_in, b_in = np.array(in_rows).reshape(-1, n), np.array(in_rhs)

    bin_keys = tuple(("block", b.id) for b in instance.blocks)
    bin_keys += tuple(("flex", f.id, t) for f in instance.flex_bids for t in hours)
    bin_col = {key: n + k for k, key in enumerate(bin_keys)}
    m = len(bin_keys)
    bin_c, bin_A_eq = np.zeros(m), np.zeros((len(eq_keys), m))
    link_A = np.zeros((len(instance.links) + len(instance.flex_bids), m))
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
    link_b = np.array([0.0] * len(instance.links) + [1.0] * len(instance.flex_bids))
    # into model units: fills and binaries have none, flows are quantities
    n_seg = len(seg_ids)
    c, d, bin_c = c / (sp * sq), d / (sp * sq), bin_c / (sp * sq)
    lb[n_seg:], ub[n_seg:], A_eq[:, :n_seg] = lb[n_seg:] / sq, ub[n_seg:] / sq, A_eq[:, :n_seg] / sq
    b_eq, b_in, bin_A_eq = b_eq / sq, b_in / sq, bin_A_eq / sq

    row_segs = []
    for row in A_eq[:, :len(seg_ids)]:
        cols = np.flatnonzero(row > 0.0)
        row_segs.append((cols, row[cols]))
    f = slice(len(seg_ids), n)
    eye = np.eye(len(flow_keys))
    F = np.vstack([eye, -eye, A_in[:, f]])
    h = np.concatenate([ub[f], -lb[f], b_in])
    owner = np.where(F != 0.0, np.arange(len(eye)), -1).max(axis=1, initial=-1)
    order = np.argsort(owner, kind="stable")
    master_arrays = dict(
        c=np.concatenate([c, bin_c]), d=np.concatenate([d, np.zeros(m)]),
        A_eq=np.hstack([A_eq, bin_A_eq]), b_eq=b_eq,
        A_in=np.block([[A_in, np.zeros((len(b_in), m))], [np.zeros((len(link_b), n)), link_A]]),
        b_in=np.concatenate([b_in, link_b]),
        lb=np.concatenate([lb, np.zeros(m)]), ub=np.concatenate([ub, np.ones(m)]),
    )
    return SimpleNamespace(
        seg_ids=seg_ids, flow_keys=flow_keys, eq_keys=eq_keys, ramp_keys=tuple(ramp_keys),
        seg_col=seg_col, flow_col=flow_col, eq_row=eq_row, bin_keys=bin_keys, bin_col=bin_col,
        c=c, d=d, lb=lb, ub=ub, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in,
        bin_c=bin_c, bin_A_eq=bin_A_eq, link_A=link_A, link_b=link_b,
        vertical=np.array([seg.is_vertical for seg in instance.segments], dtype=bool),
        row_segs=row_segs, flow_rows=(F[order], h[order], order), master=master_arrays,
    )


def reference_price_rows(instance, model, solution, relax_losses):
    """(lb, ub, A_eq, b_eq, A_in, b_in) of the first pricing QP of
    ``solution`` (the loss QP when ``relax_losses``), as loops over the
    executed bids and over ``instance.segments`` build them; raises
    PriceInfeasible where pricing's fill conditions do; in ``model``'s
    units, as pricing's QPs are."""
    sp, sq = model.price_unit, model.quantity_unit
    iv = SimpleNamespace(lower=instance.interval.lower / sp, upper=instance.interval.upper / sp)
    bids = []
    executed, flex = executed_bids(solution.selection)
    blocks = {b.id: b for b in instance.blocks}
    for bid in executed:
        b = blocks[bid]
        bids.append((bid, b.area, [(t, q / sq) for t, q in enumerate(b.quantities)],
                     b.limit_price / sp))
    for fid, t in flex:
        f = instance.flex_by_id[fid]
        bids.append((fid, f.area, [(t, f.quantity / sq)], f.limit_price / sp))
    F, h, source = model.flow_rows
    tau = np.array([solution.flows.get(key, 0.0) / sq for key in model.flow_keys])
    tight = np.flatnonzero(h - F @ tau <= TIGHT_TOL)
    P, G = -model.A_eq[:, len(model.seg_ids):model.n].T, -F[tight].T
    n_pi = len(model.eq_keys)
    n_lam = len(bids) if relax_losses else 0
    n = n_pi + n_lam + G.shape[1]
    lb, ub = np.full(n, 0.0), np.full(n, np.inf)
    lb[:n_pi], ub[:n_pi] = iv.lower, iv.upper
    for k, (_, _, qty, limit) in enumerate(bids[:n_lam]):
        worst = sum(min((limit - iv.lower) * q, (limit - iv.upper) * q) for _, q in qty)
        ub[n_pi + k] = max(-worst, 0.0)
    eq_row = model_maps(model).eq_row
    for seg in instance.segments:
        if seg.quantity_span == 0.0:
            continue
        j = eq_row[instance.segment_location[seg.id]]
        dlt = solution.delta.get(seg.id, 0.0)
        if dlt >= 1.0 - TIGHT_TOL:
            ub[j] = min(ub[j], seg.price_at(1.0) / sp)
        elif dlt <= TIGHT_TOL:
            lb[j] = max(lb[j], seg.price_at(0.0) / sp)
        else:
            price = seg.price_at(dlt) / sp
            lb[j], ub[j] = max(lb[j], price), min(ub[j], price)
    if np.any(lb - ub > INFEAS_TOL):
        raise PriceInfeasible("no price meets the segment fill conditions")
    crossed = lb > ub
    lb[crossed] = ub[crossed] = 0.5 * (lb[crossed] + ub[crossed])
    A_eq = np.zeros((len(P), n))
    A_eq[:, :n_pi] = P
    A_eq[:, n_pi + n_lam:] = G
    A_in, b_in = np.zeros((len(bids), n)), np.zeros(len(bids))
    for r, (_, area, qty, limit) in enumerate(bids):
        for t, q in qty:
            A_in[r, eq_row[area, t]] += q
            b_in[r] += limit * q
    A_in[np.arange(n_lam), n_pi + np.arange(n_lam)] = -1.0
    return lb, ub, A_eq, np.zeros(len(P)), A_in, b_in


def reference_fixflow_problem(instance, model, solution, duals):
    """FixFlow's QP for ``solution`` as it was built from the solution's
    fill and flow dicts (the flows in model units) and its selection's
    binaries, or None without interconnectors."""
    if not instance.interconnectors:
        return None
    cols, kept, A_eq, A_kept, A_in, _, _ = model.fixflow_rows
    fills = np.array([solution.delta.get(sid, 0.0) for sid in model.seg_ids])
    flows = [solution.flows.get(key, 0.0) / model.quantity_unit for key in model.flow_keys]
    x0 = np.concatenate((fills[model.vertical], flows))
    lb, ub = model.lb[cols], model.ub[cols]
    pinned = np.maximum(duals.nu_lower[cols], duals.nu_upper[cols]) > DUAL_TOL
    lb[pinned] = ub[pinned] = x0[pinned]
    tight = duals.mu_in[:len(model.b_in)] > DUAL_TOL
    b_eq = model.b_eq - model.bin_A_eq @ model.binaries(solution.selection) - A_kept @ fills[kept]
    d_obj = np.zeros(len(x0))
    d_obj[len(x0) - len(flows):] = -2.0
    return QpProblem(
        c=np.zeros(len(x0)), d=d_obj,
        A_eq=np.vstack((A_eq, A_in[tight])), b_eq=np.concatenate((b_eq, model.b_in[tight])),
        A_in=A_in[~tight], b_in=model.b_in[~tight], lb=lb, ub=ub,
    )


def reference_factor(K):
    """``qp._factor`` through numpy's public ``np.linalg.svd``, as it was
    before it called LAPACK's gufunc directly: (Z, P, Vr)."""
    if K.shape[0] == 0:
        return np.eye(K.shape[1]), np.zeros((0, 0)), np.zeros((0, K.shape[1]))
    u, s, vt = np.linalg.svd(K, full_matrices=True)
    tol = max(K.shape) * (float(s[0]) if len(s) else 0.0) * RANK_TOL + RANK_TOL
    rank = int(np.count_nonzero(s > tol))
    return vt[rank:].T, u[:, :rank] / s[:rank], vt[:rank]


def reference_factorize(solver, work, state):
    """``qp._ActiveSet._factorize`` as it was before its cache entries kept
    the working matrix, computed afresh with no cache and numpy's public
    ``svd`` and ``eigh``: (free, K, Z, P, Vr, curv), free a column mask and
    curv (w, V, curved, divisor) or None."""
    free = state == qp.FREE
    K = np.concatenate((solver.A, solver.G[work])) if work else solver.A
    Z, P, Vr = reference_factor(K[:, free])
    curv = None
    df = solver.d[free]
    if Z.shape[1] and df.any():
        H = Z.T @ (df[:, None] * Z)
        w, V = (H[0], np.ones((1, 1))) if len(H) == 1 else np.linalg.eigh(H)
        scale = max(1.0, float(np.max(np.abs(w))))
        curved = w < -CURV_TOL * scale
        curv = (w, V, curved, np.where(curved, w, 1.0))
    return free, K, Z, P, Vr, curv


def reference_ratio(solver, x, p, work, state, alpha_max):
    """``qp._ActiveSet._ratio`` as it was before it took the free part of
    the step from its caller: (alpha, block)."""
    pf = np.where(state == qp.FREE, p, 0.0)
    gp = solver.G @ p
    gp[work] = 0.0
    rate = np.concatenate((gp, pf, -pf))
    slack = np.concatenate((solver.h - solver.G @ x, solver.ub - x, x - solver.lb))
    hit = ((rate > 1e-12) & (slack < np.inf)).nonzero()[0]
    if len(hit) == 0:
        return alpha_max, None
    ratios = np.maximum(slack[hit], 0.0) / rate[hit]
    alpha = float(ratios.min())
    if not alpha < alpha_max - 1e-14:
        return alpha_max, None
    k = int((ratios <= alpha + 1e-14).argmax())
    return float(ratios[k]), int(hit[k])


def same_bits(a, b) -> bool:
    """True when the arrays a and b hold the same float64 bits in the same
    shape."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def kernel_reference_spy(monkeypatch):
    """Compare every ``_factorize`` and ``_ratio`` call of the active-set
    kernel, bit for bit, with ``reference_factorize`` and
    ``reference_ratio``: of a factorization, the working matrix, the
    factor's ``free``, ``Z``, ``rank`` and ``curv``, and its ``lstsq`` and
    ``least_norm`` answers for random gradients and row changes against
    the reference's  P @ (Vr @ g[free])  and  Vr' @ (P' @ r).  Returns the
    counts of calls compared, {"factorize": n, "ratio": n, "curved": n}.
    A mismatch fails at once."""
    counts = {"factorize": 0, "ratio": 0, "curved": 0}
    factorize, ratio = qp._ActiveSet._factorize, qp._ActiveSet._ratio
    last = {}
    rng = np.random.default_rng(0)

    def factorize_spy(self, work, state):
        out = factorize(self, work, state)
        K, factor = out
        free, Z, curv = factor.free, factor.Z, factor.curv
        ref_free, ref_K, ref_Z, ref_P, ref_Vr, ref_curv = reference_factorize(self, work, state)
        assert np.array_equal(free, ref_free.nonzero()[0])
        for a, b in ((K, ref_K), (Z, ref_Z)):
            assert same_bits(a, b) and a.strides == b.strides
        assert factor.rank == len(ref_Vr)
        # one gradient and two stacked as columns, as ``_signed_duals`` asks
        for g in (rng.standard_normal(self.n), rng.standard_normal((self.n, 2))):
            assert same_bits(factor.lstsq(g), ref_P @ (ref_Vr @ g[ref_free]))
        r = rng.standard_normal(len(K))
        assert same_bits(factor.least_norm(r), ref_Vr.T @ (ref_P.T @ r))
        assert (curv is None) == (ref_curv is None)
        if curv is not None:
            w, V, Vc, wc = curv
            ref_w, ref_V, curved, divisor = ref_curv
            assert same_bits(w, ref_w) and same_bits(V, ref_V)
            # the curved eigenvalues lead, so they are the divisor's head
            assert np.array_equal(curved, np.arange(len(w)) < len(wc))
            assert same_bits(wc, divisor[:len(wc)]) and (divisor[len(wc):] == 1.0).all()
            assert same_bits(Vc, ref_V[:, curved]) and Vc.strides == ref_V[:, curved].strides
            counts["curved"] += 1
        counts["factorize"] += 1
        last["state"] = state
        return out

    def ratio_spy(self, x, p, pf, work, alpha_max):
        out = ratio(self, x, p, pf, work, alpha_max)
        state = last["state"]  # the caller factorized this state last
        assert same_bits(pf, np.where(state == qp.FREE, p, 0.0))
        ref = reference_ratio(self, x, p, list(work), state, alpha_max)
        assert out[1] == ref[1] and same_bits(out[0], ref[0])
        counts["ratio"] += 1
        return out

    monkeypatch.setattr(qp._ActiveSet, "_factorize", factorize_spy)
    monkeypatch.setattr(qp._ActiveSet, "_ratio", ratio_spy)
    return counts
