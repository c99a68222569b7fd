"""Shared fixture builders and the random small-instance generator."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from daclear import master, qp
from daclear.core import PrimalSolution, selection_terms
from daclear.errors import SolverFailure
from daclear.io import parse_instance
from daclear.master import _with_cuts
from daclear.model import build_model


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
    monkeypatch.setattr(master, "_fix_binaries", lambda prob, binary_rows, lb, ub: (lb, ub))


def pinned_relaxation(inst, selection):
    """(problem, model): the master problem of ``inst`` with its block and
    flex columns pinned at ``selection``, the relaxation the oracle solves
    for that selection."""
    model = build_model(inst)
    prob = model.master()
    lb, ub = prob.lb.copy(), prob.ub.copy()
    lb[model.n:] = ub[model.n:] = model.binaries(selection)
    return prob.with_bounds(lb, ub), model


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


def _random_curve(rng, demand_only=False):
    """Monotone node list on [0, 100] with jittered prices."""
    k = int(rng.integers(2, 5))
    prices = np.sort(rng.uniform(1.0, 99.0, size=k)) + rng.uniform(0, 1e-3, size=k)
    prices = np.unique(np.round(prices, 6))
    if demand_only:
        qty = np.sort(rng.uniform(1.0, 40.0, size=len(prices)))[::-1]
    else:
        hi = rng.uniform(5.0, 40.0)
        lo = -rng.uniform(5.0, 40.0)
        qty = np.sort(rng.uniform(lo, hi, size=len(prices)))[::-1]
        qty[0] = hi
        qty[-1] = lo
    return [[float(p), float(q)] for p, q in zip(prices, qty)]


def random_instance(seed):
    """Small jittered instance within the enumeration-oracle caps."""
    rng = np.random.default_rng(seed)
    n_areas = int(rng.integers(1, 3))
    hours = int(rng.integers(1, 4))
    areas = ["A0", "A1"][:n_areas]
    curves = {}
    for a in areas:
        for t in range(hours):
            curves[a, t] = _random_curve(rng, demand_only=rng.random() < 0.15)

    n_blocks = int(rng.choice([1, 2, 2, 3, 3, 4], p=[0.15, 0.25, 0.25, 0.15, 0.1, 0.1]))
    blocks = []
    for i in range(n_blocks):
        q = rng.uniform(-15.0, 15.0, size=hours)
        q[rng.random(hours) < 0.3] = 0.0
        if not np.any(q):
            q[0] = float(rng.uniform(3.0, 12.0)) * (1 if rng.random() < 0.5 else -1)
        blocks.append(block(
            f"b{i}", str(rng.choice(areas)),
            float(rng.uniform(5.0, 95.0) + rng.uniform(0, 1e-3)),
            [float(v) for v in q],
        ))
    links = []
    if n_blocks >= 2 and rng.random() < 0.2:
        links.append((blocks[1]["id"], blocks[0]["id"]))

    n_flex = int(rng.choice([0, 0, 1, 1, 2], p=[0.35, 0.25, 0.2, 0.1, 0.1]))
    if n_blocks + n_flex * hours > 12:
        n_flex = 0
    flex = [
        flexbid(f"f{i}", str(rng.choice(areas)),
                float(rng.uniform(5.0, 95.0) + rng.uniform(0, 1e-3)),
                float(rng.uniform(2.0, 12.0)) * (1 if rng.random() < 0.5 else -1))
        for i in range(n_flex)
    ]

    conns = []
    if n_areas == 2:
        atc = float(rng.uniform(5.0, 40.0))
        ramp = float(rng.uniform(2.0, 15.0)) if rng.random() < 0.5 else None
        initial = float(rng.uniform(-5.0, 5.0)) if ramp is not None else 0.0
        conns.append(connector(
            "c1", "A0", "A1", [-atc] * hours, [atc] * hours,
            ramp=ramp, initial=initial,
        ))
    return make_instance(curves, conns, hours=hours, areas=areas,
                         blocks=blocks, links=links, flex=flex)


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


def bench_instance(family, seed):
    """The instance of ``bench/generate.py``'s ``family`` at ``seed``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return parse_instance(generate.instance_text(family, seed))


def welfare_row_fixflow(instance, model, solution):
    """A reference FixFlow that needs no multipliers: the minimum
    squared-norm flows over the vertical fills and flows that keep the
    clearing rows, the ramp rows and the vertical fills' welfare (one
    equality row), with the sloped fills fixed."""
    if not instance.interconnectors:
        return solution
    free = [s for s in instance.segments if s.is_vertical]
    free_ids = {s.id for s in free}
    cols = [model.seg_col[s.id] for s in free] + list(model.flow_col.values())
    n_free, n = len(free), len(cols)
    d = np.zeros(n)
    d[n_free:] = -2.0
    n_eq = len(model.eq_keys)
    A_eq = np.zeros((n_eq + 1, n))
    A_eq[:n_eq] = model.A_eq[:, cols]
    b_eq = np.zeros(n_eq + 1)
    terms = selection_terms(instance, solution.selection)
    for r, (a, t) in enumerate(model.eq_keys):
        b_eq[r] = model.b_eq[r] - terms.volume[a, t] - sum(
            seg.quantity_span * solution.delta.get(seg.id, 0.0)
            for seg in instance.curves[a, t].segments if seg.id not in free_ids
        )
    for k, seg in enumerate(free):
        A_eq[n_eq, k] = seg.base_price * seg.quantity_span
        b_eq[n_eq] += A_eq[n_eq, k] * solution.delta.get(seg.id, 0.0)
    prob = qp.QpProblem(
        c=np.zeros(n), d=d, A_eq=A_eq, b_eq=b_eq, A_in=model.A_in[:, cols],
        b_in=model.b_in, lb=model.lb[cols], ub=model.ub[cols],
    )
    x0 = [solution.delta.get(s.id, 0.0) for s in free]
    x0 += [solution.flows.get(key, 0.0) for key in model.flow_keys]
    sol = qp.solve_qp(prob, x0=np.array(x0))
    if sol.status != "optimal":
        raise SolverFailure(f"flow canonicalization failed: {sol.status}")
    delta = dict(solution.delta)
    delta.update({seg.id: float(sol.x[k]) for k, seg in enumerate(free)})
    flows = {key: float(sol.x[n_free + k]) for k, key in enumerate(model.flow_keys)}
    return PrimalSolution(selection=solution.selection, delta=delta, flows=flows)
