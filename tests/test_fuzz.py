"""A tie-seeking differential fuzz: small books drawn with integer prices
and quantities, so that limit prices tie with each other, with curve steps
and with the interval ends.  Each book is made in code, written by
``serialize_instance`` and cleared through the CLI in exact and heuristic
mode and by the oracle; exact mode must agree with the oracle, heuristic
mode must not beat exact mode, and every ``clear`` document must pass
``verify``.  Tier-1 runs a fixed, derandomized budget and keeps no
example database; ``check_book`` runs on any drawn book, for longer
offline runs."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from daclear.cli import run
from daclear.core import BlockBid, FlexBid, Instance, Interconnector, PriceInterval
from daclear.io import parse_instance, serialize_instance
from daclear.verify import ORACLE_CAP


@st.composite
def _nodes(draw, top):
    """Monotone (price, quantity) nodes on integers in [0, top]: each step
    raises the price, lowers the quantity, or both (a sloped segment),
    from a start that may sit at either interval end."""
    price = draw(st.sampled_from([0, draw(st.integers(0, top)), top]))
    quantity = draw(st.integers(-6, 6))
    nodes = [(float(price), float(quantity))]
    for _ in range(draw(st.integers(0, 3))):
        step = draw(st.sampled_from(["price", "quantity", "both"]))
        if step != "quantity":
            price = draw(st.integers(price, top))
        if step != "price":
            quantity -= draw(st.integers(0, 6))
        nodes.append((float(price), float(quantity)))
    return tuple(nodes)


def _quantities(draw, hours):
    """Integer hourly quantities, zeros allowed, not all of them zero."""
    q = [float(draw(st.integers(-5, 5))) for _ in range(hours)]
    if not any(q):
        q[0] = draw(st.sampled_from([-3.0, 3.0]))
    return tuple(q)


@st.composite
def books(draw):
    """A book of at most ``ORACLE_CAP`` binary decisions: one or two areas
    over one to three hours, blocks (some limits at a curve's node price
    or an interval end), a link, flex bids, and between two areas a
    connector whose ATC may be 0 in an hour and whose ramp may bind."""
    top = draw(st.integers(4, 12))
    interval = PriceInterval(0.0, float(top))
    hours = draw(st.integers(1, 3))
    areas = ("A", "B")[: draw(st.integers(1, 2))]
    nodes = {(a, t): draw(_nodes(top)) for a in areas for t in range(hours)}
    prices = sorted({p for curve in nodes.values() for p, _ in curve} | {0.0, float(top)})
    limit = st.one_of(st.sampled_from(prices), st.integers(0, top).map(float))
    flex_count = draw(st.integers(0, min(2, ORACLE_CAP // hours)))
    block_count = draw(st.integers(0, min(6, ORACLE_CAP - flex_count * hours)))
    blocks = tuple(
        BlockBid(f"b{i}", draw(st.sampled_from(areas)), draw(limit), _quantities(draw, hours))
        for i in range(block_count)
    )
    links = ()
    if block_count >= 2 and draw(st.booleans()):
        child, parent = draw(st.permutations([b.id for b in blocks]))[:2]
        links = ((child, parent),)
    flex_bids = tuple(
        FlexBid(f"f{i}", draw(st.sampled_from(areas)), draw(limit),
                float(draw(st.sampled_from([-4, -2, 2, 4]))))
        for i in range(flex_count)
    )
    connectors = ()
    if len(areas) == 2:
        atc = tuple(float(draw(st.integers(0, 5))) for _ in range(hours))
        ramp = draw(st.sampled_from([None, 0.0, 1.0, 2.0]))
        initial = float(draw(st.integers(-2, 2)))
        connectors = (Interconnector("c0", "A", "B", tuple(-c for c in atc), atc, ramp, initial),)
    return Instance(interval=interval, hours=hours, areas=areas, area_intervals={},
                    nodes=nodes, blocks=blocks, links=links, flex_bids=flex_bids,
                    interconnectors=connectors)


def _cli(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue()


def check_book(book):
    """The fuzz's properties on one book, AssertionError on a breach; the
    (exit code, status, welfare) of each clear by name, status and welfare
    None where it wrote no document."""
    text = serialize_instance(book)
    again = parse_instance(text)
    assert again == book and again.curves == book.curves
    with tempfile.TemporaryDirectory() as tmp:
        path, solution = Path(tmp) / "instance.json", Path(tmp) / "solution.json"
        path.write_text(text, encoding="utf-8")
        outcome = {}
        for name, argv, codes in (("exact", ["clear", "--mode", "exact"], (0, 2)),
                                  ("heuristic", ["clear", "--mode", "heuristic"], (0, 2, 3)),
                                  ("oracle", ["oracle"], (0, 2))):
            code, out = _cli([*argv, "--instance", str(path)])
            assert code in codes, (name, code)
            doc = json.loads(out) if out else {"status": None, "welfare": None}
            outcome[name] = code, doc["status"], doc["welfare"]
            if name != "oracle" and code == 0:
                solution.write_text(out, encoding="utf-8")
                code, report = _cli(["verify", "--instance", str(path),
                                     "--solution", str(solution)])
                assert code == 0 and json.loads(report)["pass"], (name, report)
    exact, oracle, heuristic = (outcome[name][2] for name in ("exact", "oracle", "heuristic"))
    assert outcome["exact"][:2] == outcome["oracle"][:2], outcome
    if exact is not None:
        assert abs(exact - oracle) <= 1e-7 * max(1.0, abs(oracle)), outcome
    if heuristic is not None:
        assert exact is not None and heuristic <= exact + 1e-9, outcome
    return outcome


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(books())
def test_drawn_books_clear_as_the_oracle_does(book):
    check_book(book)
