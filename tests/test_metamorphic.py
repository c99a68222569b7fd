"""Metamorphic tests of the oracle: reordering the bids, the areas or the
interconnectors of an instance document changes neither the oracle's
verdict nor its welfare, and exact mode agrees with the oracle on the
reordered instance."""

import json
from pathlib import Path

import pytest

from daclear.driver import clear_exact
from daclear.errors import PriceInfeasible
from daclear.io import parse_instance, serialize_instance
from daclear.verify import oracle_clear

from helpers import diamond, random_instance

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
