from pathlib import Path

import numpy as np
import pytest

from daclear.core import (
    _polyline,
    BidSelection,
    BlockBid,
    PriceInterval,
    PrimalSolution,
    PriceVector,
    build_net_curve,
    clearing_residuals,
    presolve_price_bounds,
    surplus_report,
    welfare,
    welfare_of,
)
from daclear.errors import ClearingViolated, EmptyCurve, NonMonotoneCurve, UnknownId
from daclear.io import parse_instance
from daclear.model import build_model
from daclear.tolerances import FEAS_TOL

from helpers import (
    appendix_a, bench_instance, block, diamond, empty_selection, f3, flexbid,
    make_instance, ramp_fixture,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
P100 = PriceInterval(0.0, 100.0)


class TestBuildNetCurve:
    def test_flat_zero_curve(self):
        curve = build_net_curve([(0, 0), (100, 0)], P100, P100)
        assert len(curve.segments) == 1
        seg = curve.segments[0]
        assert seg.quantity_span == 0.0
        assert not seg.is_curtailment
        assert curve.min_net_demand == 0.0

    def test_demand_step(self):
        curve = build_net_curve(
            [(0, 30), (40, 30), (40, 0), (100, 0)], P100, P100
        )
        vertical = [s for s in curve.segments if s.quantity_span > 0]
        assert len(vertical) == 1
        seg = vertical[0]
        assert seg.base_price == 40.0
        assert seg.quantity_span == 30.0
        assert seg.lower_quantity == 0.0
        assert curve.min_net_demand == 0.0

    def test_horizontal_extension_to_global_interval(self):
        wide = PriceInterval(-3000.0, 3000.0)
        narrow = PriceInterval(-200.0, 2000.0)
        pts, curtail = _polyline([(-200, 50), (2000, -50)], wide)
        assert pts == [(-3000.0, 50.0), (-200.0, 50.0), (2000.0, -50.0), (3000.0, -50.0)]
        assert curtail is None
        curve = build_net_curve([(-200, 50), (2000, -50)], narrow, wide)
        assert _cut_from(curve, pts)

    def test_curtailment_inserted_for_pure_demand(self):
        curve = build_net_curve([(0, 30), (60, 10)], P100, P100)
        curt = [s for s in curve.segments if s.is_curtailment]
        assert len(curt) == 1
        assert curt[0].base_price == 60.0
        assert curt[0].quantity_span == 10.0
        assert curve.min_net_demand == 0.0

    def test_curtailment_inserted_for_pure_supply(self):
        curve = build_net_curve([(20, -10), (60, -30)], P100, P100)
        curt = [s for s in curve.segments if s.is_curtailment]
        assert len(curt) == 1
        assert curt[0].base_price == 20.0
        pts, curtail = _polyline([(20, -10), (60, -30)], P100)
        assert pts[:2] == [(0.0, 0.0), (20.0, 0.0)]
        assert curtail == (20.0, -10.0)

    def test_polyline_of_tied_nodes_keeps_only_corners(self):
        # nodes with many equal prices and quantities: the polyline spans
        # the interval, keeps no repeated point and no middle node of a
        # constant-price or constant-quantity triple, and passes through
        # every node
        rng = np.random.default_rng(3)
        for _ in range(300):
            k = int(rng.integers(1, 8))
            ps = np.sort(rng.choice([10.0, 20.0, 30.0], size=k))
            qs = np.sort(rng.choice([-5.0, 0.0, 5.0], size=k))[::-1]
            nodes = list(zip(ps.tolist(), qs.tolist()))
            pts, _ = _polyline(nodes, P100)
            assert pts[0][0] == 0.0 and pts[-1][0] == 100.0
            assert len(set(pts)) == len(pts)
            for (p0, q0), (p1, q1), (p2, q2) in zip(pts, pts[1:], pts[2:]):
                assert not (p0 == p1 == p2 or q0 == q1 == q2)
            for p, q in nodes:  # on a stretch: inside its box and on its line
                assert any(
                    a[0] <= p <= b[0] and b[1] <= q <= a[1]
                    and (p - a[0]) * (b[1] - a[1]) == (q - a[1]) * (b[0] - a[0])
                    for a, b in zip(pts, pts[1:])
                )

    def test_rejects_empty_and_non_monotone(self):
        with pytest.raises(EmptyCurve):
            build_net_curve([], P100, P100)
        with pytest.raises(NonMonotoneCurve):
            build_net_curve([(0, 0), (10, 5)], P100, P100)
        with pytest.raises(NonMonotoneCurve):
            build_net_curve([(10, 0), (5, -5)], P100, P100)

    def test_quantity_at_price_cap_is_min_net_demand(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            prices = np.sort(rng.uniform(1, 99, size=k))
            qty = np.sort(rng.uniform(-40, 40, size=k))[::-1]
            nodes = [(float(p), float(q)) for p, q in zip(prices, qty)]
            curve = build_net_curve(nodes, P100, P100)
            pts, _ = _polyline(nodes, P100)
            assert pts[-1][1] == curve.min_net_demand
            assert _cut_from(curve, pts)
            # quantity nonincreasing along the polyline
            qs = [q for _, q in pts]
            assert all(a >= b for a, b in zip(qs, qs[1:]))
            # lower-quantity anchors telescope to the curve minimum
            assert sum(s.lower_quantity for s in curve.segments) == pytest.approx(
                curve.min_net_demand, abs=1e-9
            )


def _cut_from(curve, pts):
    """Whether ``curve``'s segments, ascending in price, are the stretches
    of the polyline ``pts``, bit for bit."""
    stretches = [
        (p0, p1 - p0, q0, q0 - q1)
        for (p0, q0), (p1, q1) in zip(pts, pts[1:])
    ]
    segments = sorted(curve.segments, key=lambda s: (s.base_price, s.price_span))
    return stretches == [
        (s.base_price, s.price_span, s.node_quantity, s.quantity_span) for s in segments
    ]


class TestWelfare:
    def test_empty_execution_is_zero(self):
        inst = appendix_a()
        assert welfare(inst, {}, {}, {}) == 0.0

    def test_appendix_a_all_four(self):
        inst = appendix_a()
        beta = {"a": 1, "b": 1, "c": 1, "d": 1}
        assert welfare(inst, {}, beta, {}) == pytest.approx(3.0, abs=1e-12)

    def test_single_segment_quadrature(self):
        inst = make_instance({("X", 0): [[10, 5], [30, 0]]})
        seg = [s for s in inst.segments if s.quantity_span > 0][0]
        assert seg.base_price == 10.0 and seg.price_span == 20.0
        assert welfare(inst, {seg.id: 0.5}, {}, {}) == pytest.approx(62.5, abs=1e-12)

    def test_unknown_ids_rejected(self):
        inst = appendix_a()
        with pytest.raises(UnknownId):
            welfare(inst, {999: 0.5}, {}, {})
        with pytest.raises(UnknownId):
            welfare(inst, {}, {"nope": 1}, {})


def _flex_book():
    """Two hours; three blocks, one with a zero-quantity hour, q linked to
    p; two flex bids."""
    return make_instance(
        {("X", 0): [[0, 20], [100, -20]], ("X", 1): [[0, 20], [100, -20]]},
        hours=2,
        blocks=[block("p", "X", 80, [4, 6]), block("q", "X", 30, [-3, 2]),
                block("r", "X", 50, [0, -5])],
        links=[("q", "p")],
        flex=[flexbid("f", "X", 60, 3), flexbid("g", "X", 5, -4)],
    )


class TestBidTerms:
    def test_keys_are_the_master_columns(self):
        books = [appendix_a(), f3(), ramp_fixture(), diamond(), _flex_book(),
                 bench_instance("paradox", 1000), bench_instance("day-book", 3000)]
        books += [parse_instance(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
        for inst in books:
            assert tuple(inst.bid_terms) == build_model(inst).bin_keys

    def test_a_block_keeps_its_zero_quantity_hours(self):
        terms = _flex_book().bid_terms
        assert terms["block", "r"] == (("X", 0, 50.0, 0.0), ("X", 1, 50.0, -5.0))
        assert terms["block", "p"] == (("X", 0, 80.0, 4.0), ("X", 1, 80.0, 6.0))

    def test_each_flex_key_has_one_term_in_its_hour(self):
        inst = _flex_book()
        flex = [key for key in inst.bid_terms if key[0] == "flex"]
        assert flex == [("flex", f, t) for f in ("f", "g") for t in range(2)]
        for key in flex:
            f = inst.flex_by_id[key[1]]
            assert inst.bid_terms[key] == ((f.area, key[2], f.limit_price, f.quantity),)

    def test_executed_keys_list_blocks_then_flex_in_id_order(self):
        sel = BidSelection(blocks={"q": 1, "p": 1, "r": 0}, flex={"g": 1, "f": None})
        assert sel.executed_keys() == [("block", "p"), ("block", "q"), ("flex", "g", 1)]


class TestUnknownFlex:
    @pytest.mark.parametrize("flex, message", [
        ({"nope": 0}, "unknown flex id 'nope'"),
        ({"f": -1}, "flex 'f' executed in unknown hour -1"),
        ({"f": 2}, "flex 'f' executed in unknown hour 2"),
    ])
    def test_welfare_and_residuals_reject_it(self, flex, message):
        inst = _flex_book()
        with pytest.raises(UnknownId, match=message):
            welfare(inst, {}, {}, flex)
        sol = PrimalSolution(BidSelection(blocks={}, flex=flex), delta={}, flows={})
        with pytest.raises(UnknownId, match=message):
            clearing_residuals(inst, sol)


class TestSurplusReport:
    def test_appendix_a_solution_b(self):
        inst = appendix_a()
        sol = PrimalSolution(
            selection=BidSelection(blocks={"a": 0, "b": 0, "c": 1, "d": 1}, flex={}),
            delta={}, flows={},
        )
        prices = PriceVector(pi={("X", 0): 3.0})
        rep = surplus_report(inst, sol, prices)
        assert rep.blocks["c"] == pytest.approx(0.0, abs=1e-12)
        assert rep.blocks["d"] == pytest.approx(2.0, abs=1e-12)
        assert rep.total == pytest.approx(2.0, abs=1e-12)

    def test_zero_execution_all_zero(self):
        inst = appendix_a()
        sol = PrimalSolution(selection=empty_selection(inst), delta={}, flows={})
        rep = surplus_report(inst, sol, PriceVector(pi={("X", 0): 4.2}))
        assert rep.total == 0.0

    def test_congestion_rent_f3(self):
        from daclear.driver import clear_exact

        inst = f3()
        res = clear_exact(inst)
        rep = surplus_report(inst, res.solution, res.prices)
        assert rep.congestion["c1", 0] == pytest.approx(600.0, abs=1e-6)

    def test_total_equals_welfare(self):
        from daclear.driver import clear_exact
        from helpers import random_instance

        for seed in range(8):
            inst = random_instance(seed)
            res = clear_exact(inst)
            rep = surplus_report(inst, res.solution, res.prices)
            assert rep.total == pytest.approx(welfare_of(inst, res.solution), abs=1e-9)

    def test_unbalanced_solution_rejected(self):
        inst = appendix_a()
        sol = PrimalSolution(
            selection=BidSelection(blocks={"d": 1}, flex={}), delta={}, flows={}
        )
        with pytest.raises(ClearingViolated):
            surplus_report(inst, sol, PriceVector(pi={("X", 0): 3.0}))


class TestBlockBid:
    def test_zero_quantities(self):
        with pytest.raises(Exception):
            BlockBid(id="b", area="X", limit_price=2.0, quantities=(0.0,))


class TestPresolveBounds:
    def test_bare_curve_pins_crossing(self):
        inst = make_instance({("X", 0): [[0, 30], [40, 30], [40, -10], [100, -10]]})
        iv = presolve_price_bounds(inst)["X", 0]
        assert iv.lower == pytest.approx(40.0, abs=1e-9)
        assert iv.upper == pytest.approx(40.0, abs=1e-9)

    def test_appendix_a_band(self):
        inst = appendix_a()
        iv = presolve_price_bounds(inst)["X", 0]
        # every selection-feasible price of the flat curve lies inside
        assert iv.lower <= 1.0 and iv.upper >= 4.0

    def test_bounds_come_from_the_documents_prices(self):
        # 0.09 + (0.34 - 0.09) is not 0.34 in floats, so a polyline rebuilt
        # from the segments' base prices and spans moves the sloped
        # segment's top node; the bounds interpolate the document's nodes
        p0, p1, q0, q1 = 0.09, 0.34, 10.0, -10.0
        assert p0 + (p1 - p0) != p1
        inst = make_instance({("X", 0): [[p0, q0], [p1, q1]]},
                             blocks=[block("b", "X", 50, [4])])
        iv = presolve_price_bounds(inst)["X", 0]
        # the block's worst case: net demand in [-4, 0], read within FEAS_TOL
        hi_t, lo_t = 0.0 + FEAS_TOL, -4.0 - FEAS_TOL
        assert iv.lower == p0 + (q0 - hi_t) / (q0 - q1) * (p1 - p0)
        assert iv.upper == p0 + (q0 - lo_t) / (q0 - q1) * (p1 - p0)

    def test_f3_bounds_contain_oracle_prices(self):
        inst = f3()
        bounds = presolve_price_bounds(inst)
        assert bounds["R", 0].contains(10.0, tol=1e-9)
        assert bounds["S", 0].contains(40.0, tol=1e-9)
