"""Seeded instance documents for the benchmark's three workload families.

Each family maps one integer seed to one instance document (a plain dict in
the ``daclear`` JSON instance format).  The same seed always gives a
byte-identical document, because every draw comes from one
``numpy.random.default_rng(seed)`` stream in a fixed order.

Families:

* ``small-suite`` -- the acceptance suite's random family: 1-2 areas,
  1-3 hours, 1-4 blocks, 0-2 flex bids, at most 12 binary decisions.  The
  draw order matches the suite's generator, so seed ``s`` here is the
  suite's instance ``s``.
* ``day-book`` -- 3 areas in a ring of ramp-limited interconnectors,
  2 hours, curves mixing elastic and step (vertical-segment) shapes,
  2 blocks and 1 flex bid: meshed loop flows for FixFlow and ramp and
  flow multipliers for pricing.
* ``paradox`` -- 1 area, 2 hours, 2 buyer/seller block pairs with
  overlapping price windows on a thin elastic curve, so paradoxically
  accepted blocks drive the cut loop.

The day-book and paradox sizes are the largest at which one benchmark
run clears enough instances for its medians to agree across seeds.
"""

from __future__ import annotations

import json

import numpy as np

FAMILIES = ("small-suite", "day-book", "paradox")


def _doc(curves, conns=(), P=(0.0, 100.0), hours=1, areas=(), blocks=(),
         links=(), flex=()):
    return {
        "price_interval": {"lower": P[0], "upper": P[1]},
        "hours": hours,
        "areas": [{"id": a} for a in areas],
        "curves": [
            {"area": a, "hour": t, "nodes": [list(n) for n in nodes]}
            for (a, t), nodes in curves.items()
        ],
        "blocks": list(blocks),
        "links": [list(pair) for pair in links],
        "flex": list(flex),
        "interconnectors": list(conns),
    }


def _block(bid, area, limit, quantities):
    return {"id": bid, "area": area, "limit_price": float(limit),
            "quantities": [float(q) for q in quantities]}


def _flex(fid, area, limit, quantity):
    return {"id": fid, "area": area, "limit_price": float(limit),
            "quantity": float(quantity)}


def _connector(cid, source, sink, lower, upper, ramp=None, initial=0.0):
    return {"id": cid, "source": source, "sink": sink,
            "lower": [float(v) for v in lower], "upper": [float(v) for v in upper],
            "ramp_rate": None if ramp is None else float(ramp),
            "initial_flow": float(initial)}


def _elastic_curve(rng, demand_only=False, max_nodes=4):
    """Monotone node list on [1, 99] with jittered prices."""
    k = int(rng.integers(2, max_nodes + 1))
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


def small_suite(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n_areas = int(rng.integers(1, 3))
    hours = int(rng.integers(1, 4))
    areas = ["A0", "A1"][:n_areas]
    curves = {}
    for a in areas:
        for t in range(hours):
            curves[a, t] = _elastic_curve(rng, demand_only=rng.random() < 0.15)

    n_blocks = int(rng.choice([1, 2, 2, 3, 3, 4], p=[0.15, 0.25, 0.25, 0.15, 0.1, 0.1]))
    blocks = []
    for i in range(n_blocks):
        q = rng.uniform(-15.0, 15.0, size=hours)
        q[rng.random(hours) < 0.3] = 0.0
        if not np.any(q):
            q[0] = float(rng.uniform(3.0, 12.0)) * (1 if rng.random() < 0.5 else -1)
        blocks.append(_block(
            f"b{i}", str(rng.choice(areas)),
            float(rng.uniform(5.0, 95.0) + rng.uniform(0, 1e-3)), q,
        ))
    links = []
    if n_blocks >= 2 and rng.random() < 0.2:
        links.append((blocks[1]["id"], blocks[0]["id"]))

    n_flex = int(rng.choice([0, 0, 1, 1, 2], p=[0.35, 0.25, 0.2, 0.1, 0.1]))
    if n_blocks + n_flex * hours > 12:
        n_flex = 0
    flex = [
        _flex(f"f{i}", str(rng.choice(areas)),
              float(rng.uniform(5.0, 95.0) + rng.uniform(0, 1e-3)),
              float(rng.uniform(2.0, 12.0)) * (1 if rng.random() < 0.5 else -1))
        for i in range(n_flex)
    ]

    conns = []
    if n_areas == 2:
        atc = float(rng.uniform(5.0, 40.0))
        ramp = float(rng.uniform(2.0, 15.0)) if rng.random() < 0.5 else None
        initial = float(rng.uniform(-5.0, 5.0)) if ramp is not None else 0.0
        conns.append(_connector(
            "c1", "A0", "A1", [-atc] * hours, [atc] * hours,
            ramp=ramp, initial=initial,
        ))
    return _doc(curves, conns, hours=hours, areas=areas,
                blocks=blocks, links=links, flex=flex)


def _step_curve(rng, level):
    """Stepped node list: vertical drops at 1-2 price levels, flat between."""
    k = int(rng.integers(1, 3))
    prices = np.unique(np.round(np.sort(rng.uniform(5.0, 95.0, size=k)), 4))
    hi = level + rng.uniform(10.0, 30.0)
    lo = level - rng.uniform(10.0, 30.0)
    cuts = np.sort(rng.uniform(lo, hi, size=len(prices) - 1))[::-1]
    qty = [hi, *cuts, lo]
    nodes = []
    for i, p in enumerate(prices):
        nodes.append([float(p), float(qty[i])])
        nodes.append([float(p), float(qty[i + 1])])
    return nodes


def day_book(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    hours = 2
    areas = ["A0", "A1", "A2"]
    profile = [-6.0, 8.0]  # off-peak, then peak net demand
    curves = {}
    for a in areas:
        bias = rng.uniform(-8.0, 8.0)
        for t in range(hours):
            level = bias + profile[t]
            if rng.random() < 0.5:
                nodes = _elastic_curve(rng, max_nodes=3)
                nodes = [[p, q + level] for p, q in nodes]
            else:
                nodes = _step_curve(rng, level)
            curves[a, t] = nodes

    conns = []
    for k, (src, snk) in enumerate(zip(areas, areas[1:] + areas[:1])):
        atc = rng.uniform(10.0, 30.0, size=hours)
        conns.append(_connector(
            f"c{k}", src, snk, -atc, atc,
            ramp=float(rng.uniform(4.0, 12.0)),
            initial=float(rng.uniform(-4.0, 4.0)),
        ))

    blocks = []
    for i in range(2):
        sign = 1.0 if i % 2 else -1.0
        q = sign * rng.uniform(3.0, 15.0, size=hours)
        q[rng.random(hours) < 0.25] = 0.0
        if not np.any(q):
            q[1] = sign * 8.0
        blocks.append(_block(
            f"b{i}", str(rng.choice(areas)),
            float(rng.uniform(20.0, 80.0) + rng.uniform(0, 1e-3)), q,
        ))
    flex = [_flex("f0", str(rng.choice(areas)),
                  float(rng.uniform(20.0, 80.0) + rng.uniform(0, 1e-3)),
                  float(rng.uniform(4.0, 12.0)) * (1 if rng.random() < 0.5 else -1))]
    return _doc(curves, conns, hours=hours, areas=areas, blocks=blocks, flex=flex)


def paradox(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    hours = 2
    curves = {}
    for t in range(hours):
        width = rng.uniform(1.0, 4.0)
        mid = rng.uniform(35.0, 65.0)
        curves["X", t] = [
            [float(mid - 30.0), float(width)],
            [float(mid + 30.0), float(-width)],
        ]
    blocks = []
    for i in range(2):
        # the seller mostly asks less than its buyer bids, and the two
        # pairs' price windows overlap, so one pair sets the other's price
        low = rng.uniform(30.0, 60.0)
        ask = low + rng.uniform(0.0, 5.0)
        bid = low + rng.uniform(2.0, 12.0)
        supply = rng.uniform(5.0, 15.0, size=hours)
        demand = supply * rng.uniform(0.6, 1.4, size=hours)
        blocks.append(_block(f"s{i}", "X", ask + rng.uniform(0, 1e-3), -supply))
        blocks.append(_block(f"d{i}", "X", bid + rng.uniform(0, 1e-3), demand))
    return _doc(curves, hours=hours, areas=["X"], blocks=blocks)


_GENERATORS = {"small-suite": small_suite, "day-book": day_book, "paradox": paradox}


def instance_text(family: str, seed: int) -> str:
    """The instance document for ``seed`` as canonical JSON text."""
    return json.dumps(_GENERATORS[family](seed), sort_keys=True)
