import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from daclear.core import BidSelection
from daclear.driver import clear_exact, clear_heuristic
from daclear.errors import ValidationError
from daclear.io import parse_instance, serialize_instance
from daclear.model import balanced_start, build_model
from daclear.qp import QpProblem, solve_qp
from daclear.tolerances import MAX_MAGNITUDE
from daclear.verify import _all_selections, oracle_clear

from helpers import (
    appendix_a, bench_instance, block, connector, diamond, empty_selection, f2, flexbid,
    make_instance, model_maps, pinned_relaxation, ramp_fixture, random_instance, rescaled,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestClearingRows:
    def test_flow_incidence_signs(self):
        inst = f2()
        model = build_model(inst)
        maps = model_maps(model)
        col = model.A_eq[:, maps.flow_col["c1", 0]]
        # c1 runs R -> S: it leaves the source and enters the sink
        assert col[maps.eq_row["R", 0]] == 1.0
        assert col[maps.eq_row["S", 0]] == -1.0
        assert np.count_nonzero(col) == 2

    def test_segment_spans_rhs_and_bounds(self):
        # in model units: the ATC of 1000 makes the quantity unit 16
        inst = ramp_fixture()
        model = build_model(inst)
        maps = model_maps(model)
        sq = model.quantity_unit
        assert (model.price_unit, sq) == (1.0, 16.0)
        for (a, t), r in maps.eq_row.items():
            curve = inst.curves[a, t]
            assert model.b_eq[r] * sq == -curve.min_net_demand
            for seg in curve.segments:
                assert model.A_eq[r, maps.seg_col[seg.id]] * sq == seg.quantity_span
        conn = inst.interconnectors[0]
        for t in range(inst.hours):
            j = maps.flow_col[conn.id, t]
            assert (model.lb[j] * sq, model.ub[j] * sq) == (conn.lower[t], conn.upper[t])
        seg_cols = list(maps.seg_col.values())
        assert np.all(model.lb[seg_cols] == 0.0)
        assert np.all(model.ub[seg_cols] == 1.0)

    def test_no_connectors_no_flow_columns(self):
        model = build_model(appendix_a())
        assert model.flow_keys == ()
        assert model.A_in.shape == (0, model.n)
        assert model.A_eq.shape == (1, model.n)


class TestModelUnits:
    def _times(self, inst, factor):
        doc = json.loads(serialize_instance(inst))
        return parse_instance(json.dumps(rescaled(doc, factor, factor)))

    @pytest.mark.parametrize("make", [appendix_a, f2, ramp_fixture, diamond])
    def test_units_are_the_least_powers_of_two_that_fit(self, make):
        # the largest |price| to 128 or less, the largest |quantity| to 64
        # or less, each unit at least 1
        inst = make()
        model = build_model(inst)
        doc = json.loads(serialize_instance(inst))
        prices, quantities = [], []
        for iv in [doc["price_interval"]] + [a["price_interval"] for a in doc["areas"]
                                             if "price_interval" in a]:
            prices += [iv["lower"], iv["upper"]]
        for curve in doc["curves"]:
            prices += [p for p, _ in curve["nodes"]]
            quantities += [q for _, q in curve["nodes"]]
        for bid in doc["blocks"] + doc["flex"]:
            prices.append(bid["limit_price"])
            quantities += bid.get("quantities", [bid.get("quantity", 0.0)])
        for c in doc["interconnectors"]:
            quantities += c["lower"] + c["upper"] + [c["initial_flow"], c["ramp_rate"] or 0.0]
        for unit, values, top in ((model.price_unit, prices, 128.0),
                                  (model.quantity_unit, quantities, 64.0)):
            largest = max(abs(v) for v in values)
            assert largest <= top * unit
            assert unit == 1.0 or largest > top * unit / 2

    def test_a_number_above_the_magnitude_bound_is_refused(self):
        # day-book 3000 with the first node quantity of curve (A1, 1) at
        # 1e9, which io refuses in a document: the API entry points refuse
        # it too, and at the bound the book builds
        inst = bench_instance("day-book", 3000)

        def outlier(quantity):
            (p, _), *rest = inst.nodes["A1", 1]
            return replace(inst, nodes={**inst.nodes, ("A1", 1): ((p, quantity), *rest)})

        build_model(outlier(MAX_MAGNITUDE))
        book = outlier(1e9)
        for clear in (clear_exact, clear_heuristic, oracle_clear):
            with pytest.raises(ValidationError, match="exceeds"):
                clear(book)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_book_times_a_power_of_two_makes_the_same_model(self, seed):
        # a book times 16 against the book times 256: both have units
        # above 1, so the second's are 16 times the first's
        inst = random_instance(seed)
        model = build_model(self._times(inst, 16.0))
        other = build_model(self._times(inst, 256.0))
        assert model.price_unit > 1.0 and model.quantity_unit > 1.0
        assert other.price_unit == 16.0 * model.price_unit
        assert other.quantity_unit == 16.0 * model.quantity_unit
        for a, b in zip(model.master_arrays, other.master_arrays):
            assert np.array_equal(a, b)
        assert model.interval == other.interval
        assert model.bin_b.tolist() == other.bin_b.tolist()
        assert model.bin_worst == other.bin_worst


class TestRampRows:
    def test_two_rows_per_connector_hour(self):
        inst = ramp_fixture()
        model = build_model(inst)
        assert model.ramp_keys == (
            ("c1", 0, "fwd"), ("c1", 0, "bwd"), ("c1", 1, "fwd"), ("c1", 1, "bwd"),
        )
        assert model.A_in.shape == (4, model.n)

    def test_coefficients_and_rhs(self):
        inst = ramp_fixture()
        conn = inst.interconnectors[0]
        model = build_model(inst)
        sq = model.quantity_unit  # the right-hand sides are in model units
        f0, f1 = model_maps(model).flow_col["c1", 0], model_maps(model).flow_col["c1", 1]
        for r, (_, t, sense) in enumerate(model.ramp_keys):
            sgn = 1.0 if sense == "fwd" else -1.0
            row = model.A_in[r]
            if t == 0:
                assert row[f0] == sgn
                assert np.count_nonzero(row) == 1
                assert model.b_in[r] * sq == conn.ramp_rate + sgn * conn.initial_flow
            else:
                assert row[f1] == sgn
                assert row[f0] == -sgn
                assert np.count_nonzero(row) == 2
                assert model.b_in[r] * sq == conn.ramp_rate
        # ramp rate 6 from flow 18: fwd 24, bwd -12 at hour 0
        assert list(model.b_in[:2] * sq) == [24.0, -12.0]

    def test_unramped_connectors_have_no_rows(self):
        model = build_model(diamond())
        assert model.ramp_keys == ()
        assert model.A_in.shape == (0, model.n)

    def test_flow_rows_group_bounds_and_ramps_by_their_last_flow(self):
        # ATC 1000 both hours, ramp 6 from flow 18; the hour-1 ramp rows
        # also reach back to hour 0's flow
        model = build_model(ramp_fixture())
        F, h, source = model.flow_rows
        # indices into [upper bounds, lower bounds, ramp rows]
        assert source.tolist() == [0, 2, 4, 5, 1, 3, 6, 7]
        assert F.tolist() == [
            [1, 0], [-1, 0], [1, 0], [-1, 0],  # hour 0: upper, lower, fwd, bwd
            [0, 1], [0, -1], [-1, 1], [1, -1],  # hour 1
        ]
        assert (h * model.quantity_unit).tolist() == [1000, 1000, 24, -12, 1000, 1000, 6, 6]
        assert [f.shape for f in build_model(appendix_a()).flow_rows] == [(0, 0), (0,), (0,)]


class TestLayout:
    @pytest.mark.parametrize("make", [appendix_a, f2, ramp_fixture, diamond])
    def test_column_maps_follow_key_order(self, make):
        inst = make()
        model = build_model(inst)
        maps = model_maps(model)
        assert model.seg_ids == tuple(s.id for s in inst.segments)
        assert list(maps.seg_col) == list(model.seg_ids)
        assert list(maps.seg_col.values()) == list(range(len(model.seg_ids)))
        assert model.flow_keys == tuple(
            (c.id, t) for c in inst.interconnectors for t in range(inst.hours)
        )
        assert list(maps.flow_col) == list(model.flow_keys)
        assert list(maps.flow_col.values()) == list(
            range(len(model.seg_ids), model.n)
        )
        assert list(maps.eq_row) == list(model.eq_keys)
        assert list(maps.eq_row.values()) == list(range(len(model.eq_keys)))
        assert model.eq_keys == tuple(
            (a, t) for a in inst.areas for t in range(inst.hours)
        )
        for arr in (model.c, model.d, model.lb, model.ub):
            assert arr.shape == (model.n,)

    def test_binary_keys_follow_the_continuous_columns(self):
        inst = _linked_flex_book()
        model = build_model(inst)
        assert model.bin_keys == (
            ("block", "p"), ("block", "q"), ("block", "r"),
            ("flex", "f", 0), ("flex", "f", 1), ("flex", "g", 0), ("flex", "g", 1),
        )
        assert list(model.bin_col) == list(model.bin_keys)
        assert list(model.bin_col.values()) == list(range(model.n, model.n + 7))
        prob = model.master()
        assert prob.n == model.n + 7
        assert prob.c[model.bin_col["block", "p"]] == 80.0 * 10.0
        assert prob.c[model.bin_col["flex", "g", 1]] == 5.0 * -4.0
        eq_row = model_maps(model).eq_row
        assert prob.A_eq[eq_row["X", 1], model.bin_col["block", "q"]] == 2.0
        assert prob.A_eq[eq_row["X", 0], model.bin_col["flex", "f", 1]] == 0.0
        # the link q -> p, then the flex-once rows of f and g
        assert prob.A_in[:, model.n:].tolist() == [
            [-1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 1, 1],
        ]
        assert prob.b_in.tolist() == [0.0, 1.0, 1.0]

    def test_every_selection_pins_and_rounds_back_to_itself(self):
        # seeds 922 and 927 have a link; ten seeds have flex bids over 2-3 hours
        linked = multi_hour_flex = checked = 0
        for seed in range(900, 940):
            inst = random_instance(seed)
            model = build_model(inst)
            linked += bool(inst.links)
            multi_hour_flex += bool(inst.flex_bids) and inst.hours > 1
            for selection in _all_selections(inst):
                pinned, _ = pinned_relaxation(inst, selection)
                assert np.array_equal(pinned.lb[model.n:], pinned.ub[model.n:])
                assert set(pinned.lb[model.n:]) <= {0.0, 1.0}
                assert model.selection_at(pinned.lb) == selection
                checked += 1
        assert linked == 2 and multi_hour_flex == 10
        assert checked == 736

    def test_master_problems_share_no_factor_cache(self):
        # a search that appends its cuts at row k must not see factorizations
        # of another search's different row k
        model = build_model(_linked_flex_book())
        first, second = model.master(), model.master()
        assert first is not second and first.factors is not second.factors
        assert solve_qp(first, x0=balanced_start(model, first)).status == "optimal"
        assert first.factors and not second.factors


def _linked_flex_book():
    """One area, two hours, three blocks with q linked to p, and two
    2-hour flex bids."""
    return make_instance(
        {("X", 0): [[0, 20], [100, -20]], ("X", 1): [[0, 20], [100, -20]]},
        hours=2,
        blocks=[block("p", "X", 80, [4, 6]), block("q", "X", 30, [-3, 2]),
                block("r", "X", 50, [0, -5])],
        links=[("q", "p")],
        flex=[flexbid("f", "X", 60, 3), flexbid("g", "X", 5, -4)],
    )


def _model_qp(model):
    return QpProblem(
        c=model.c, d=model.d, A_eq=model.A_eq, b_eq=model.b_eq,
        A_in=model.A_in, b_in=model.b_in, lb=model.lb, ub=model.ub,
    )


def _start_instances():
    for path in sorted(FIXTURES.glob("*.json")):
        yield parse_instance(path.read_text())
    for seed in range(50):
        yield random_instance(seed)


class TestBalancedStart:
    def _check(self, model, prob, x0):
        n_seg = len(model.seg_ids)
        x = balanced_start(model, prob, x0)
        assert np.all(prob.lb <= x) and np.all(x <= prob.ub)
        clipped = np.clip(np.zeros(prob.n) if x0 is None else x0, prob.lb, prob.ub)
        assert np.array_equal(x[n_seg:], clipped[n_seg:])  # flows untouched
        resid = prob.b_eq - prob.A_eq @ x
        balanced = 0
        for r, short in enumerate(prob.b_eq - prob.A_eq @ clipped):
            cols = np.flatnonzero(model.A_eq[r, :n_seg] > 0.0)
            bound = prob.ub[cols] if short > 0 else prob.lb[cols]
            room = float(model.A_eq[r, cols] @ np.abs(bound - clipped[cols]))
            if abs(short) <= room - 1e-9:
                assert abs(resid[r]) <= 1e-9
                balanced += 1
            elif abs(short) > room + 1e-9:
                # the curve cannot absorb it: every segment moves to its bound
                assert np.array_equal(x[cols], bound)
        return balanced

    def test_in_box_and_balanced_where_the_curve_absorbs(self):
        rng = np.random.default_rng(11)
        balanced = 0
        for inst in _start_instances():
            model = build_model(inst)
            everything = BidSelection(
                blocks={b.id: 1 for b in inst.blocks},
                flex={f.id: 0 for f in inst.flex_bids},
            )
            probs = [_model_qp(model)]
            probs += [pinned_relaxation(inst, sel)[0]
                      for sel in (empty_selection(inst), everything)]
            for prob in probs:
                for x0 in (None, rng.uniform(prob.lb - 1.0, prob.ub + 1.0)):
                    balanced += self._check(model, prob, x0)
        assert balanced > 500

    def test_matches_the_array_formula(self):
        # the per-row float loop does the array formula's arithmetic in the
        # same order, so the starts agree bit for bit
        def reference(model, prob, x0):
            x = np.clip(np.zeros(prob.n) if x0 is None else x0, prob.lb, prob.ub)
            n_seg = len(model.seg_ids)
            for r, short in enumerate(prob.b_eq - prob.A_eq @ x):
                if abs(short) <= 1e-9:
                    continue
                cols = np.flatnonzero(model.A_eq[r, :n_seg] > 0.0)
                if short < 0.0:
                    cols = cols[::-1]
                span = model.A_eq[r, cols]
                bound = prob.ub[cols] if short > 0.0 else prob.lb[cols]
                room = span * np.abs(bound - x[cols])
                take = np.clip(abs(short) - (np.cumsum(room) - room), 0.0, room)
                x[cols] = np.where(take >= room, bound, x[cols] + np.sign(short) * take / span)
            return x

        rng = np.random.default_rng(5)
        for inst in _start_instances():
            prob, model = pinned_relaxation(inst, empty_selection(inst))
            for x0 in (None, rng.uniform(prob.lb - 1.0, prob.ub + 1.0)):
                x = balanced_start(model, prob, x0)
                ref = reference(model, prob, x0)
                assert np.array_equal(x, ref)
                assert np.array_equal(np.signbit(x), np.signbit(ref))

    def test_curve_out_of_merit_order(self):
        # three segments of one curve, stored cheapest first
        inst = make_instance({("X", 0): [[0, 30], [20, 20], [50, 5], [100, -10]]})
        model = build_model(inst)
        perm = np.arange(model.n)[::-1]
        spans = model.A_eq[0, perm].tolist()
        shuffled = replace(
            model, seg_ids=model.seg_ids[::-1], c=model.c[perm], d=model.d[perm],
            lb=model.lb[perm], ub=model.ub[perm], A_eq=model.A_eq[:, perm],
            row_segs=(([j for j, s in enumerate(spans) if s > 0.0], [s for s in spans if s > 0.0]),),
        )
        prob = replace(_model_qp(shuffled), b_eq=shuffled.b_eq + 10.0)
        x = balanced_start(shuffled, prob)
        assert np.all(prob.lb <= x) and np.all(x <= prob.ub)
        assert np.abs(prob.A_eq @ x - prob.b_eq).max() <= 1e-9
        warm = solve_qp(prob, x0=x)
        cold = solve_qp(prob)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_block_larger_than_its_curve(self):
        # S's curve can give back none of a 40 MW demand block, so the start
        # leaves S's row unbalanced and phase 1 imports the block from R
        inst = make_instance(
            {("R", 0): [[0, 0], [10, 0], [10, -50], [100, -50]],
             ("S", 0): [[0, 30], [40, 30], [40, 0], [100, 0]]},
            [connector("c1", "R", "S", [-100], [100])],
            blocks=[block("big", "S", 50, [40])],
        )
        prob, model = pinned_relaxation(inst, BidSelection(blocks={"big": 1}))
        x = balanced_start(model, prob)
        sq = model.quantity_unit  # 2: the ATC of 100 is the largest quantity
        resid = (prob.b_eq - prob.A_eq @ x) * sq
        maps = model_maps(model)
        assert abs(resid[maps.eq_row["R", 0]]) <= 1e-9
        assert resid[maps.eq_row["S", 0]] == pytest.approx(-40.0)
        warm = solve_qp(prob, x0=x)
        cold = solve_qp(prob)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        # at the optimum R sells all 50 MW to S
        assert warm.x[maps.flow_col["c1", 0]] * sq == pytest.approx(50.0)
