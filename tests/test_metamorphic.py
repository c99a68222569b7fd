"""Metamorphic tests: reordering the bids, the areas or the
interconnectors of an instance document changes neither the oracle's
verdict nor its welfare, and exact mode agrees with the oracle on the
reordered instance.  Reversing every interconnector or doubling every
quantity keeps each mode's verdict, selection and prices, and negates the
flows or doubles the welfare.  Shifting every price by a constant shifts
the prices, keeps the verdicts and selections, and moves the welfare by a
constant that no selection changes; adding a block that loses at every price
the market can clear at changes nothing, and presolve fixes it out.
Multiplying every price and every quantity by 1000, or by 1024, keeps each
mode's verdict and selection and scales the prices and flows by the factor
and the welfare by its square."""

import json
from pathlib import Path

import pytest

from daclear.driver import clear_exact, clear_heuristic
from daclear.core import presolve_price_bounds
from daclear.errors import PriceInfeasible
from daclear.io import parse_instance, serialize_instance
from daclear.model import build_model
from daclear.tolerances import MAX_MAGNITUDE
from daclear.verify import oracle_clear

from helpers import bench_instance, diamond, ramp_fixture, random_instance, rescaled

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _reversed(doc, kind):
    doc = dict(doc)
    if kind == "areas":
        # the curves follow their areas, so the segments are renumbered too
        doc["areas"] = doc["areas"][::-1]
        doc["curves"] = doc["curves"][::-1]
    else:
        doc[kind] = doc[kind][::-1]
    return doc


def _oracle(inst):
    try:
        return oracle_clear(inst)
    except PriceInfeasible:
        return None


def _instances():
    # random instances have at most one interconnector; the fixtures and
    # the diamond have three and four
    for seed in range(500, 540):
        yield f"seed {seed}", random_instance(seed)
    for name in ("no_price_support", "exact_log_pricing_fails"):
        yield name, parse_instance((FIXTURES / f"{name}.json").read_text())
    yield "diamond", diamond()


@pytest.mark.parametrize("kind", ["blocks", "areas", "interconnectors"])
def test_reordering_keeps_the_oracle_and_exact_mode(kind):
    reordered = 0
    for name, inst in _instances():
        doc = json.loads(serialize_instance(inst))
        flipped = _reversed(doc, kind)
        reordered += doc[kind] != flipped[kind]
        permuted = parse_instance(json.dumps(flipped))
        base, oracle = _oracle(inst), _oracle(permuted)
        exact = clear_exact(permuted)
        assert (base is None) == (oracle is None), name
        if oracle is None:
            assert exact.status == "infeasible", name
            continue
        assert oracle.welfare == pytest.approx(base.welfare, abs=1e-7), name
        assert exact.status == "optimal", name
        assert exact.welfare == pytest.approx(oracle.welfare, abs=1e-7), name
    assert reordered >= 3


def _reversed_connectors(doc):
    """Every interconnector turned around: the same physical flows, negated."""
    return {**doc, "interconnectors": [
        {**c, "source": c["sink"], "sink": c["source"],
         "lower": [-v for v in c["upper"]], "upper": [-v for v in c["lower"]],
         "initial_flow": -c["initial_flow"]}
        for c in doc["interconnectors"]
    ]}


def _doubled(doc):
    """Every quantity doubled."""
    return rescaled(doc, quantity=2.0)


def _decisions(inst):
    return len(inst.blocks) + len(inst.flex_bids) * inst.hours


def _transformed_pairs(transform, seeds=range(540, 580), price_shift=0.0, factor=1.0,
                       books=(), ramp=True):
    """(where, instance, result, transformed result) per instance and mode that
    clears with a solution, after asserting that the oracle, exact and
    heuristic modes keep their verdicts and selections, and that the
    transformed prices are the prices times ``factor`` plus ``price_shift``,
    within 1e-7 times ``factor``.  New seeds, the (family, seed) ``books``
    of ``bench/generate.py``, the day-book fixtures, the diamond and, with
    ``ramp``, the ramp fixture.  The oracle runs where the transformed
    instance is within its cap."""
    instances = [(f"seed {seed}", random_instance(seed)) for seed in seeds]
    instances += [(f"{family} {seed}", bench_instance(family, seed)) for family, seed in books]
    instances += [(name, parse_instance((FIXTURES / f"{name}.json").read_text()))
                  for name in ("no_price_support", "exact_log_pricing_fails")]
    instances += [("diamond", diamond())] + ([("ramp_fixture", ramp_fixture())] if ramp else [])
    for name, inst in instances:
        doc = json.loads(serialize_instance(inst))
        other = parse_instance(json.dumps(transform(doc)))
        for mode, clear in (("oracle", _oracle), ("exact", clear_exact),
                            ("heuristic", clear_heuristic)):
            if mode == "oracle" and _decisions(other) > 12:
                continue
            a, b = clear(inst), clear(other)
            where = f"{name} {mode}"
            assert (a is None) == (b is None), where
            if a is None:
                continue
            assert b.status == a.status, where
            if a.solution is None:
                continue
            executed = a.solution.selection.executed_keys()
            assert b.solution.selection.executed_keys() == executed, where
            assert b.prices.pi.keys() == a.prices.pi.keys(), where
            for key, price in a.prices.pi.items():
                expected = factor * price + price_shift
                assert b.prices[key] == pytest.approx(expected, abs=1e-7 * factor), where
            yield where, inst, a, b


def test_reversing_every_interconnector_negates_the_flows():
    with_flows = 0
    for where, _, a, b in _transformed_pairs(_reversed_connectors):
        assert b.welfare == pytest.approx(a.welfare, abs=1e-7), where
        assert b.solution.flows.keys() == a.solution.flows.keys(), where
        for key, flow in a.solution.flows.items():
            assert b.solution.flows[key] == pytest.approx(-flow, abs=1e-7), where
        with_flows += bool(a.solution.flows)
    assert with_flows >= 50


def test_doubling_every_quantity_doubles_the_welfare():
    compared = 0
    for where, _, a, b in _transformed_pairs(_doubled):
        assert b.welfare == pytest.approx(2.0 * a.welfare, abs=1e-7), where
        compared += 1
    assert compared >= 120


# new seeds and generated books for the scale tests
SCALE_SEEDS = range(620, 700)
SCALE_BOOKS = [(family, seed) for family in ("day-book", "paradox") for seed in range(7000, 7040)]


@pytest.mark.parametrize("factor", [1000.0, 1024.0])
def test_scaling_every_price_and_quantity_scales_the_clear(factor):
    # model units (``model.build_model``) give a book and the scaled book
    # numbers of the same size, so the same tolerances decide both; the
    # ramp fixture's ATC of 1000 is beyond ``io``'s magnitude bound at 1024
    compared = 0
    scaled = lambda doc: rescaled(doc, factor, factor)
    pairs = _transformed_pairs(scaled, SCALE_SEEDS, factor=factor, books=SCALE_BOOKS,
                               ramp=factor * 1000.0 <= MAX_MAGNITUDE)
    for where, _, a, b in pairs:
        money = factor * factor
        assert b.welfare == pytest.approx(money * a.welfare, abs=1e-7 * money), where
        assert b.solution.flows.keys() == a.solution.flows.keys(), where
        for key, flow in a.solution.flows.items():
            assert b.solution.flows[key] == pytest.approx(factor * flow, abs=1e-7 * factor), where
        compared += 1
    assert compared >= 450


SHIFT = 37.5


def _shifted(doc):
    """Every price moved up by SHIFT: curve nodes, limit prices and the
    price intervals, the whole market's and each area's."""
    interval = lambda iv: {"lower": iv["lower"] + SHIFT, "upper": iv["upper"] + SHIFT}
    return {
        **doc,
        "price_interval": interval(doc["price_interval"]),
        "areas": [{**a, **({"price_interval": interval(a["price_interval"])}
                           if "price_interval" in a else {})} for a in doc["areas"]],
        "curves": [{**c, "nodes": [[p + SHIFT, q] for p, q in c["nodes"]]}
                   for c in doc["curves"]],
        "blocks": [{**b, "limit_price": b["limit_price"] + SHIFT} for b in doc["blocks"]],
        "flex": [{**f, "limit_price": f["limit_price"] + SHIFT} for f in doc["flex"]],
    }


def _with_loser(doc):
    """One more block, "loser", that loses at every price presolve allows:
    a buyer priced at the interval's floor where presolve keeps the price
    above it, else a seller priced at the ceiling where presolve keeps it
    below.  A buyer leaves the bounds that exclude its price as they are,
    and so does a seller."""
    inst = parse_instance(json.dumps(doc))
    iv = inst.interval
    bounds = presolve_price_bounds(inst)
    for (area, hour), b in sorted(bounds.items()):
        for limit, quantity, excluded in ((iv.lower, 5.0, b.lower > iv.lower),
                                          (iv.upper, -5.0, b.upper < iv.upper)):
            if excluded:
                q = [0.0] * inst.hours
                q[hour] = quantity
                loser = {"id": "loser", "area": area, "limit_price": limit, "quantities": q}
                return {**doc, "blocks": doc["blocks"] + [loser]}
    return doc


def test_shifting_every_price_shifts_the_prices():
    # welfare leaves out the value of each curve's inelastic net demand
    # (its quantity at the price cap), so the shift moves it by the same
    # amount for every selection: SHIFT times minus their sum
    compared = 0
    for where, inst, a, b in _transformed_pairs(_shifted, range(580, 620), SHIFT):
        inelastic = sum(curve.min_net_demand for curve in inst.curves.values())
        assert b.welfare == pytest.approx(a.welfare - SHIFT * inelastic, abs=1e-7), where
        compared += 1
    assert compared >= 100


def test_a_block_that_always_loses_changes_nothing():
    compared = 0
    fixed = set()
    for where, _, a, b in _transformed_pairs(_with_loser, range(580, 620)):
        assert b.welfare == pytest.approx(a.welfare, abs=1e-7), where
        assert b.solution.selection.blocks.get("loser", 0) == 0, where
        compared += 1
    for seed in range(580, 620):
        doc = json.loads(serialize_instance(random_instance(seed)))
        other = parse_instance(json.dumps(_with_loser(doc)))
        if any(b.id == "loser" for b in other.blocks):
            model = build_model(other)
            assert model.bin_col["block", "loser"] in model.fixed_cols, seed
            fixed.add(seed)
    assert compared >= 100
    assert len(fixed) >= 30
