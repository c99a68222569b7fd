"""A tie-seeking differential fuzz: small books drawn with integer prices
and quantities, so that limit prices tie with each other, with curve steps
and with the interval ends.  Each book is made in code, written by
``serialize_instance`` and cleared through the CLI in exact and heuristic
mode and by the oracle; exact mode must agree with the oracle, heuristic
mode must not beat exact mode, and every ``clear`` document must pass
``verify``.  A drawn book's connector split into two parallel halves
must clear as the whole.  Tier-1 runs a fixed, derandomized budget and
keeps no example database; ``check_book`` and ``check_split`` run on any
drawn book, for longer offline runs."""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
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
    (exit code, document) of each clear by name, the document None where
    it wrote none."""
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
            outcome[name] = code, json.loads(out) if out else None
            if name != "oracle" and code == 0:
                solution.write_text(out, encoding="utf-8")
                code, report = _cli(["verify", "--instance", str(path),
                                     "--solution", str(solution)])
                assert code == 0 and json.loads(report)["pass"], (name, report)
    exact, oracle, heuristic = (
        _summary(outcome[name]) for name in ("exact", "oracle", "heuristic"))
    assert exact[:2] == oracle[:2], outcome
    if exact[2] is not None:
        assert abs(exact[2] - oracle[2]) <= 1e-7 * max(1.0, abs(oracle[2])), outcome
    if heuristic[2] is not None:
        assert exact[2] is not None and heuristic[2] <= exact[2] + 1e-9, outcome
    return outcome


def _summary(run):
    """(exit code, status, welfare) of one clear's (exit code, document),
    status and welfare None where it wrote no document."""
    code, doc = run
    return code, doc and doc["status"], doc and doc["welfare"]


def split(book):
    """``book`` with its connector split into two parallel ones, each with
    half its bounds, ramp rate and initial flow."""
    (c,) = book.interconnectors
    half = lambda values: tuple(v / 2 for v in values)
    ramp = None if c.ramp_rate is None else c.ramp_rate / 2
    return replace(book, interconnectors=tuple(
        replace(c, id=c.id + part, lower=half(c.lower), upper=half(c.upper), ramp_rate=ramp,
                initial_flow=c.initial_flow / 2)
        for part in ("a", "b")))


def check_split(book):
    """The split relation on one book with a connector: ``check_book``'s
    properties on the split book (so each of its ``clear`` documents
    passes ``verify``), its exact clear's status and welfare those of the
    whole book's and, where the selections match, the halves' flows
    summing to the whole's flow."""
    whole, halves = check_book(book)["exact"], check_book(split(book))["exact"]
    a, b = _summary(whole), _summary(halves)
    assert a[:2] == b[:2], (whole, halves)
    if a[2] is not None:
        assert abs(b[2] - a[2]) <= 1e-7 * max(1.0, abs(a[2])), (whole, halves)
    if whole[1] is None or whole[1]["selection"] != halves[1]["selection"]:
        return
    (c,) = book.interconnectors
    flows = {(f["interconnector"], f["hour"]): f["flow"] for f in halves[1]["flows"]}
    for f in whole[1]["flows"]:
        total = flows[c.id + "a", f["hour"]] + flows[c.id + "b", f["hour"]]
        assert abs(total - f["flow"]) <= 1e-7 * max(1.0, abs(f["flow"])), (whole, halves)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(books())
def test_drawn_books_clear_as_the_oracle_does(book):
    check_book(book)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.filter_too_much])
@given(books().filter(lambda book: book.interconnectors))
def test_a_connector_split_in_halves_clears_as_the_whole(book):
    check_split(book)
