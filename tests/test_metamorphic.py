"""Metamorphic tests: reordering the bids, the areas or the
interconnectors of an instance document changes neither the oracle's
verdict nor its welfare, and exact mode agrees with the oracle on the
reordered instance.  Reversing every interconnector or doubling every
quantity keeps each mode's verdict, selection and prices, and negates the
flows or doubles the welfare."""

import json
from pathlib import Path

import pytest

from daclear.driver import clear_exact, clear_heuristic
from daclear.errors import PriceInfeasible
from daclear.io import parse_instance, serialize_instance
from daclear.verify import oracle_clear

from helpers import diamond, ramp_fixture, random_instance

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
    """Every quantity doubled: curves, bids, flow limits, ramps and initial flows."""
    ramp = lambda r: None if r is None else 2.0 * r
    return {
        **doc,
        "curves": [{**c, "nodes": [[p, 2.0 * q] for p, q in c["nodes"]]}
                   for c in doc["curves"]],
        "blocks": [{**b, "quantities": [2.0 * q for q in b["quantities"]]}
                   for b in doc["blocks"]],
        "flex": [{**f, "quantity": 2.0 * f["quantity"]} for f in doc["flex"]],
        "interconnectors": [
            {**c, "lower": [2.0 * v for v in c["lower"]],
             "upper": [2.0 * v for v in c["upper"]],
             "ramp_rate": ramp(c["ramp_rate"]), "initial_flow": 2.0 * c["initial_flow"]}
            for c in doc["interconnectors"]
        ],
    }


def _transformed_pairs(transform):
    """(where, result, transformed result) per instance and mode that
    clears with a solution, after asserting that the oracle, exact and
    heuristic modes keep their verdicts and selections.  New seeds, the
    day-book fixtures, the diamond and the ramp fixture."""
    instances = [(f"seed {seed}", random_instance(seed)) for seed in range(540, 580)]
    instances += [(name, parse_instance((FIXTURES / f"{name}.json").read_text()))
                  for name in ("no_price_support", "exact_log_pricing_fails")]
    instances += [("diamond", diamond()), ("ramp_fixture", ramp_fixture())]
    for name, inst in instances:
        doc = json.loads(serialize_instance(inst))
        other = parse_instance(json.dumps(transform(doc)))
        for mode, clear in (("oracle", _oracle), ("exact", clear_exact),
                            ("heuristic", clear_heuristic)):
            a, b = clear(inst), clear(other)
            where = f"{name} {mode}"
            assert (a is None) == (b is None), where
            if a is None:
                continue
            assert b.status == a.status, where
            if a.solution is None:
                continue
            for side in ("executed_blocks", "executed_flex"):
                sel = getattr(a.solution.selection, side)()
                assert getattr(b.solution.selection, side)() == sel, where
            assert b.prices.pi.keys() == a.prices.pi.keys(), where
            for key, price in a.prices.pi.items():
                assert b.prices[key] == pytest.approx(price, abs=1e-7), where
            yield where, a, b


def test_reversing_every_interconnector_negates_the_flows():
    with_flows = 0
    for where, a, b in _transformed_pairs(_reversed_connectors):
        assert b.welfare == pytest.approx(a.welfare, abs=1e-7), where
        assert b.solution.flows.keys() == a.solution.flows.keys(), where
        for key, flow in a.solution.flows.items():
            assert b.solution.flows[key] == pytest.approx(-flow, abs=1e-7), where
        with_flows += bool(a.solution.flows)
    assert with_flows >= 50


def test_doubling_every_quantity_doubles_the_welfare():
    compared = 0
    for where, a, b in _transformed_pairs(_doubled):
        assert b.welfare == pytest.approx(2.0 * a.welfare, abs=1e-7), where
        compared += 1
    assert compared >= 120
