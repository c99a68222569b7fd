import json
from dataclasses import replace

import numpy as np
import pytest

from daclear import verify
from daclear.core import PriceVector, list_prbs
from daclear.driver import clear_exact
from daclear.errors import PriceInfeasible, TooLarge
from daclear.io import parse_instance, serialize_instance
from daclear.model import build_model
from daclear.verify import (
    Violation,
    check_bid_prices,
    check_bounds,
    check_filling,
    check_flow_price,
    oracle_clear,
)

from helpers import (
    appendix_a,
    bench_instance,
    check_filling_gamma,
    curtailment_breaches,
    f3,
    make_instance,
    min_loss_lp,
    block,
    diamond,
    ramp_fixture,
    random_instance,
    rescaled,
)


class TestFilling:
    def test_exact_solutions_pass_both_modes(self):
        for inst in (appendix_a(), f3(), ramp_fixture(), diamond()):
            res = clear_exact(inst)
            for check in (check_filling, check_filling_gamma):
                rep = check(inst, res.solution.delta, res.prices)
                assert rep.passed, (check.__name__, rep.violations)

    def test_detects_wrong_price(self):
        inst = f3()
        res = clear_exact(inst)
        bad = PriceVector(pi={**dict(res.prices.pi), ("S", 0): 90.0})
        rep = check_filling(inst, res.solution.delta, bad)
        assert not rep.passed

    def test_modes_agree_on_random_prices(self):
        import numpy as np

        rng = np.random.default_rng(0)
        agree = 0
        for seed in range(30):
            inst = random_instance(seed)
            res = clear_exact(inst)
            pin = {k: float(rng.uniform(inst.interval.lower, inst.interval.upper)) for k in res.prices.pi}
            noisy = PriceVector(pi=pin)
            a = check_filling(inst, res.solution.delta, noisy)
            b = check_filling_gamma(inst, res.solution.delta, noisy)
            assert a.passed == b.passed
            agree += 1
        assert agree == 30


class TestFlowPrice:
    def test_fast_path_congestion(self):
        inst = f3()
        res = clear_exact(inst)
        rep = check_flow_price(inst, res.solution.flows, res.prices)
        assert rep.passed

    def test_fast_path_detects_uncovered_spread(self):
        inst = f3()
        res = clear_exact(inst)
        # spread with slack capacity cannot be explained
        bad_flows = {("c1", 0): 5.0}
        rep = check_flow_price(inst, bad_flows, res.prices)
        assert not rep.passed

    def test_general_path_with_ramps(self):
        inst = ramp_fixture()
        res = clear_exact(inst)
        rep = check_flow_price(inst, res.solution.flows, res.prices)
        assert rep.passed

    def test_general_path_detects_tampering(self):
        inst = ramp_fixture()
        res = clear_exact(inst)
        bad = PriceVector(pi={k: 50.0 if k[0] == "S" else v
                              for k, v in res.prices.pi.items()})
        rep = check_flow_price(inst, res.solution.flows, bad)
        assert not rep.passed

    def test_tightness_follows_tol(self):
        # day-book instance seed 3005, exact: flow (c1, 1) sits on its cap
        # with a price difference of 3.62 across it.  Moved 5e-7 below the
        # cap, it passes the bounds check at tol 1e-6 and 1e-4, and its cap
        # still explains the difference at both; 1e-3 below, it does not
        # at 1e-6
        inst = bench_instance("day-book", 3005)
        res = clear_exact(inst)
        cap = next(c for c in inst.interconnectors if c.id == "c1").upper[1]
        assert res.solution.flows["c1", 1] == pytest.approx(cap, abs=1e-9)
        for below, passes in ((5e-7, True), (1e-3, False)):
            flows = {**res.solution.flows, ("c1", 1): cap - below}
            for tol in (1e-6, 1e-4):
                assert check_bounds(inst, res.solution.delta, flows, tol=tol).passed
            assert check_flow_price(inst, flows, res.prices, tol=1e-6).passed is passes
            if passes:
                assert check_flow_price(inst, flows, res.prices, tol=1e-4).passed

    def test_lp_agrees_with_highs(self):
        # an independent verdict on every connector, ramped or not: r*, the
        # least total residual of the stationarity rows diff_t = mu_up_t -
        # mu_lo_t + rho_up_t - rho_up_t+1 - rho_down_t + rho_down_t+1 over
        # the multipliers of tight rows (no ramp row is tight without a
        # ramp limit), solved by HiGHS.  A zero r* admits no violation, and
        # an r* above T * tol needs one; in between, tied optima may spread
        # a residual over the hours differently (of 1,120 ramped draws, 253
        # had a zero r*, 867 one above T * tol and none another when this
        # was written; of 590 unramped draws, 90 and 500)
        optimize = pytest.importorskip("scipy.optimize")
        import numpy as np

        from daclear.tolerances import TIGHT_TOL

        tol, tight = 1e-6, max(1e-6, TIGHT_TOL)
        books = [bench_instance("day-book", seed) for seed in range(3000, 3020)]
        books += [random_instance(seed) for seed in range(200)]
        rng = np.random.default_rng(45)
        zero, positive = {True: 0, False: 0}, {True: 0, False: 0}
        for inst in books:
            T = inst.hours
            for c in inst.interconnectors:
                ramped = c.ramp_rate is not None
                ramp = c.ramp_rate if ramped else np.inf
                for _ in range(10):
                    flows, prev = {}, c.initial_flow
                    for t in range(T):
                        # a bound, a point inside them or, when ramped, a
                        # ramp step from the hour before
                        kind = rng.integers(4 if ramped else 3)
                        tau = (c.upper[t], c.lower[t], rng.uniform(c.lower[t], c.upper[t]),
                               prev + rng.choice((-1, 1)) * ramp)[kind]
                        flows[c.id, t] = prev = float(tau)
                    prices = PriceVector(pi={
                        (a, t): float(rng.uniform(0.0, 100.0)) for a in inst.areas for t in range(T)
                    })
                    # columns: mu_up, mu_lo, rho_up, rho_down per hour, then
                    # the residual's two signs per hour
                    A = np.zeros((T, 6 * T))
                    bounds = []
                    for t in range(T):
                        tau = flows[c.id, t]
                        before = c.initial_flow if t == 0 else flows[c.id, t - 1]
                        held = (c.upper[t] - tau <= tight, tau - c.lower[t] <= tight,
                                tau - before >= ramp - tight, before - tau >= ramp - tight)
                        bounds += [(0.0, None if h else 0.0) for h in held]
                        A[t, 4 * t:4 * t + 4] = (1.0, -1.0, 1.0, -1.0)
                        if t > 0:
                            A[t - 1, 4 * t + 2:4 * t + 4] = (-1.0, 1.0)
                        A[t, 4 * T + 2 * t:4 * T + 2 * t + 2] = (1.0, -1.0)
                    bounds += [(0.0, None)] * (2 * T)
                    diff = [prices[c.sink, t] - prices[c.source, t] for t in range(T)]
                    lp = optimize.linprog(np.r_[np.zeros(4 * T), np.ones(2 * T)], A_eq=A,
                                          b_eq=diff, bounds=bounds, method="highs")
                    assert lp.status == 0
                    found = verify._flow_general(inst, c, flows, prices, tol)
                    if lp.fun <= 1e-9:
                        assert not found, (c, flows, prices.pi)
                        zero[ramped] += 1
                    elif lp.fun > T * tol:
                        assert found, (c, flows, prices.pi)
                        positive[ramped] += 1
        assert zero[True] >= 200 and positive[True] >= 700, (zero, positive)
        assert zero[False] >= 70 and positive[False] >= 400, (zero, positive)


def _model_bounds(inst, delta, flows, tol):
    """``check_bounds``'s violations as the clearing model's box and ramp
    rows give them: ``max(lb - x, x - ub)`` and ``A_in @ x - b_in`` at the
    fills, by segment id, and the flows in model units, each excess back
    in book units.  A segment with a column has the model's box, and one
    without (a flat segment) the book's [0, 1]."""
    model = build_model(inst)
    sq, n_seg = model.quantity_unit, len(model.seg_ids)
    col = dict(zip(model.seg_ids, range(n_seg)))
    fills = {sid: float(delta.get(sid, 0.0)) for sid in model.book_ids}
    tau = [float(flows.get(key, 0.0)) / sq for key in model.flow_keys]
    x = np.array([*fills.values(), *tau])
    lb, ub = ([bounds[col[sid]] if sid in col else end for sid in model.book_ids]
              for bounds, end in ((model.lb, 0.0), (model.ub, 1.0)))
    lb, ub = np.r_[lb, model.lb[n_seg:]], np.r_[ub, model.ub[n_seg:]]
    units = np.r_[np.ones(len(fills)), np.full(len(model.flow_keys), sq)]
    locations = [(*inst.segment_location[sid], sid) for sid in model.book_ids]
    locations += model.flow_keys
    kinds = ["fill-bound"] * len(fills) + ["flow-bound"] * len(model.flow_keys)
    excess = np.maximum(lb - x, x - ub) * units
    out = [Violation(loc, float(v), kind)
           for loc, kind, v in zip(locations, kinds, excess) if v > tol]
    x_model = np.array([*(fills[sid] for sid in model.seg_ids), *tau])
    out += [Violation(key, float(v), "ramp")
            for key, v in zip(model.ramp_keys, (model.A_in @ x_model - model.b_in) * sq)
            if v > tol]
    return out


def _bits(violations):
    return [(v.location, v.amount.hex(), v.condition) for v in violations]


class TestBounds:
    def test_book_level_check_is_the_models_rows_bit_for_bit(self):
        # exact solutions pushed out of their bounds: every fill and flow
        # moved together, and each moved on its own; on books whose model
        # units are not 1 (rescaled, the ramp fixture's ATC of 1000, the
        # diamond's of 200) and on a connector without flow bounds, with a
        # ramp of 0 from a nonzero initial flow
        docs = [json.loads(serialize_instance(bench_instance("day-book", 3000))),
                json.loads(serialize_instance(random_instance(3)))]
        books = [parse_instance(json.dumps(rescaled(doc, factor, factor)))
                 for doc in docs for factor in (1.0, 1000.0, 1024.0)]
        fixture = ramp_fixture()
        (c,) = fixture.interconnectors
        free = replace(c, lower=(-np.inf,) * 2, upper=(np.inf,) * 2, ramp_rate=0.0)
        books += [fixture, diamond(), replace(fixture, interconnectors=(free,))]
        assert {build_model(inst).quantity_unit for inst in books} >= {1.0, 4.0, 16.0, 1024.0}
        rng = np.random.default_rng(49)
        kinds, compared = set(), 0
        for inst in books:
            sol = clear_exact(inst).solution
            limits = [v for c in inst.interconnectors for v in (*c.lower, *c.upper)]
            scale = max([1.0, *(abs(v) for v in limits if np.isfinite(v))])
            pushes = [(0.5, 100.0), (-0.5, -100.0)]
            pushes += [(rng.uniform(-0.6, 0.6, len(sol.delta)),
                        rng.uniform(-1.5, 1.5, len(sol.flows)) * scale) for _ in range(20)]
            for fill, flow in pushes:
                delta = dict(zip(sol.delta, np.array(list(sol.delta.values())) + fill))
                flows = dict(zip(sol.flows, np.array(list(sol.flows.values())) + flow))
                delta, flows = ({k: float(v) for k, v in d.items()} for d in (delta, flows))
                for tol in (1e-6, 1e-3):
                    found = check_bounds(inst, delta, flows, tol=tol).violations
                    assert _bits(found) == _bits(_model_bounds(inst, delta, flows, tol))
                    kinds |= {(build_model(inst).quantity_unit > 1.0, v.condition) for v in found}
                    compared += 1
        assert kinds == {(big, kind) for big in (False, True)
                         for kind in ("fill-bound", "flow-bound", "ramp")}
        assert compared == 2 * 22 * len(books)


class TestBidPrices:
    def test_exact_solution_clean(self):
        inst = appendix_a()
        res = clear_exact(inst)
        rep = check_bid_prices(inst, res.solution.selection, res.prices)
        assert rep.passed

    def test_losing_block_flagged(self):
        inst = appendix_a()
        res = clear_exact(inst)
        bad = PriceVector(pi={("X", 0): 100.0})
        rep = check_bid_prices(inst, res.solution.selection, bad)
        assert not rep.passed
        locations = {v.location for v in rep.violations}
        assert ("block", "d") in locations


class TestPrbs:
    def test_appendix_a_prb(self):
        inst = appendix_a()
        res = clear_exact(inst)
        assert res.prbs == (("block", "a"),)

    def test_no_prbs_without_rejections(self):
        inst = f3()
        res = clear_exact(inst)
        assert list_prbs(inst, res.solution.selection, res.prices) == []


class TestOracle:
    def test_appendix_a(self):
        inst = appendix_a()
        res = oracle_clear(inst)
        assert res.welfare == pytest.approx(2.0, abs=1e-9)
        assert res.solution.selection.executed_keys() == [("block", "c"), ("block", "d")]
        assert res.prices["X", 0] == pytest.approx(3.0, abs=1e-6)
        # full execution appears on the frontier but is price-infeasible
        assert any(w == pytest.approx(3.0, abs=1e-9) for w, _, _ in res.frontier)

    def test_too_large(self):
        inst = make_instance(
            {("X", 0): [[0, 50], [50, 50], [50, -50], [100, -50]]},
            blocks=[block(f"b{i}", "X", 50 + i, [1]) for i in range(20)],
        )
        with pytest.raises(TooLarge):
            oracle_clear(inst)

    def test_matches_exact_driver(self):
        for seed in range(15):
            inst = random_instance(seed)
            a = oracle_clear(inst)
            b = clear_exact(inst)
            assert b.welfare == pytest.approx(a.welfare, abs=1e-7)

    def test_clamps_to_area_intervals_like_exact(self):
        # A0's interval caps its hour-1 price below the one pricing finds
        doc = json.loads(serialize_instance(random_instance(169)))
        doc["areas"][0]["price_interval"] = {"lower": 19.06, "upper": 90.492}
        inst = parse_instance(json.dumps(doc))
        o = oracle_clear(inst)
        e = clear_exact(inst)
        assert o.solution.selection == e.solution.selection
        assert o.welfare == pytest.approx(e.welfare, abs=1e-7)
        assert o.prices["A0", 1] == e.prices["A0", 1] == 90.492
        assert o.warnings == e.warnings
        assert len(o.warnings) == 1 and "'A0' hour 1" in o.warnings[0]

    def test_every_candidates_price_verdict_agrees_with_highs(self, monkeypatch):
        # an independent verdict on each candidate the oracle tests: the
        # strict minimum-loss LP (helpers.min_loss_lp), written from the
        # instance and solved by HiGHS, finds prices where the clear's own
        # leaf check does, and none where it finds none (678 candidates,
        # 432 of them priced, when this was written); and the curtailment
        # rule written again from the README (helpers.curtailment_breaches)
        # finds the violations the leaf check finds (on 60 candidates)
        optimize = pytest.importorskip("scipy.optimize")
        check_leaf = verify._check_leaf
        verdicts, disagreements, curtailed = [], [], []

        def spy(instance, model, selection, *args):
            out = check_leaf(instance, model, selection, *args)
            x, fills, prices, curt = out
            sol = model.primal(fills.selection, x)
            highs = min_loss_lp(optimize, instance, sol, strict=True) is not None
            verdicts.append(prices is not None)
            if highs != verdicts[-1]:
                disagreements.append((instance, selection, highs))
            breaches = curtailment_breaches(instance, sol)
            if breaches != {key: (s.blocks, s.flex) for key, s in curt.items()}:
                disagreements.append((instance, selection, breaches))
            curtailed.append(bool(breaches))
            return out

        monkeypatch.setattr(verify, "_check_leaf", spy)
        instances = [random_instance(seed) for seed in range(200)]
        instances += [bench_instance("paradox", seed) for seed in range(1000, 1110)]
        instances += [bench_instance("day-book", seed) for seed in range(3000, 3110)]
        for inst in instances:
            try:
                oracle_clear(inst)
            except PriceInfeasible:
                pass
        assert disagreements == []
        assert len(verdicts) >= 600 and verdicts.count(True) >= 400 and verdicts.count(False) >= 200
        assert curtailed.count(True) >= 40
