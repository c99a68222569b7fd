from pathlib import Path

import numpy as np
import pytest

from daclear import driver, pricing, qp, tolerances, verify
from daclear.core import BidSelection, PrimalSolution, clearing_residuals, welfare_of
from daclear.driver import clear_exact, clear_heuristic
from daclear.errors import PriceInfeasible, TooLarge
from daclear.io import parse_instance
from daclear.model import build_model
from daclear.pricing import clamp_prices, solve_fixflow, solve_qpprice
from daclear.qp import rows_hold, solve_qp
from daclear.master import solve_master
from daclear.verify import _relaxations

from helpers import (
    appendix_a,
    model_maps,
    min_loss_lp,
    fixflow,
    qpprice,
    bench_instance,
    block,
    connector,
    diamond,
    f2,
    f3,
    make_instance,
    pinned_relaxation,
    point,
    price_indifferent,
    qp_prices,
    ramp_fixture,
    random_instance,
    total_loss,
    welfare_row_fixflow,
    without_row_test,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _master_result(inst):
    """``inst``'s cut-free master optimum and its solution."""
    model = build_model(inst)
    res = solve_master(model)
    assert res.status == "optimal"
    return res, model.primal(res.selection, res.x)


def _fixflow(inst):
    """FixFlow of ``inst``'s cut-free master optimum, on its leaf's duals."""
    res, sol = _master_result(inst)
    return fixflow(build_model(inst), sol, res.duals)


class TestFixFlow:
    def test_idempotent(self):
        for inst in (f2(), f3(), ramp_fixture()):
            res, sol = _master_result(inst)
            once = fixflow(build_model(inst), sol, res.duals)
            twice = fixflow(build_model(inst), once, res.duals)
            for k in once.flows:
                assert twice.flows[k] == pytest.approx(once.flows[k], abs=1e-9)
            for k in once.delta:
                assert twice.delta[k] == pytest.approx(once.delta[k], abs=1e-9)

    def test_preserves_welfare_and_clearing(self):
        for seed in range(12):
            inst = random_instance(seed)
            res, sol = _master_result(inst)
            fixed = fixflow(build_model(inst), sol, res.duals)
            assert welfare_of(inst, fixed) == pytest.approx(
                welfare_of(inst, sol), abs=1e-6
            )
            res = clearing_residuals(inst, fixed)
            assert max(abs(r) for r in res.values()) <= 1e-6

    def test_ramp_fixture_flows(self):
        inst = ramp_fixture()
        fixed = _fixflow(inst)
        assert fixed.flows["c1", 0] == pytest.approx(21.0, abs=1e-6)
        assert fixed.flows["c1", 1] == pytest.approx(27.0, abs=1e-6)

    @staticmethod
    def _books():
        yield from (random_instance(seed) for seed in range(50))
        yield from (f3(), ramp_fixture())
        yield from (bench_instance("day-book", seed) for seed in range(1000, 1020))

    def test_agrees_with_the_welfare_row_formulation(self):
        # the face that the leaf's multipliers name is the set of
        # welfare-preserving dispatches, so both give the same flows
        for inst in self._books():
            model = build_model(inst)
            res, sol = _master_result(inst)
            face = fixflow(model, sol, res.duals)
            ref = welfare_row_fixflow(inst, model, sol)
            for key in model.flow_keys:
                assert face.flows[key] == pytest.approx(ref.flows[key], abs=1e-9)
            for seg in inst.segments:
                if seg.is_vertical:
                    assert face.delta[seg.id] == pytest.approx(ref.delta[seg.id], abs=1e-9)
            assert welfare_of(inst, face) == pytest.approx(welfare_of(inst, ref), abs=1e-9)

    def test_idempotent_under_the_same_duals(self):
        for inst in self._books():
            model = build_model(inst)
            res, sol = _master_result(inst)
            once = fixflow(model, sol, res.duals)
            twice = fixflow(model, once, res.duals)
            assert twice.flows == once.flows
            assert twice.delta == once.delta

    def test_pins_follow_multipliers_not_tightness(self):
        # price 20 on both sides: any flow in [0, 10] gives the same
        # welfare, and the relaxation started on the ATC cap ends there, on
        # a bound that is tight with a zero multiplier.  FixFlow moves the
        # flow to 0
        inst = make_instance(
            {("X", 0): [[0, 0], [20, 0], [20, -30], [100, -30]],
             ("Y", 0): [[0, 10], [20, 10], [20, -20], [100, -20]]},
            [connector("c", "X", "Y", [-10], [10])],
        )
        prob, model = pinned_relaxation(inst, BidSelection())
        j = model_maps(model).flow_col["c", 0]
        x0 = np.zeros(prob.n)
        x0[j] = 10.0
        sol = solve_qp(prob, x0=x0)
        duals = qp.multipliers(prob, sol)
        assert sol.status == "optimal" and sol.x[j] == pytest.approx(10.0, abs=1e-12)
        assert max(duals.nu_lower[j], duals.nu_upper[j]) <= tolerances.DUAL_TOL
        candidate = model.primal(BidSelection(), sol.x)
        fixed = fixflow(model, candidate, duals)
        assert fixed.flows["c", 0] == pytest.approx(0.0, abs=1e-9)
        assert welfare_of(inst, fixed) == pytest.approx(welfare_of(inst, candidate), abs=1e-9)


class TestQpPrice:
    def test_appendix_a_strict_price(self):
        inst = appendix_a()
        # optimal selection {a,b,c,d} has no uniform supporting price
        with pytest.raises(PriceInfeasible):
            qpprice(build_model(inst), _fixflow(inst))

    def test_appendix_a_second_best(self):
        from daclear.driver import clear_exact

        inst = appendix_a()
        res = clear_exact(inst)
        out = qpprice(build_model(inst), res.solution)
        assert out["X", 0] == pytest.approx(3.0, abs=1e-6)
        assert total_loss(inst, res.solution.selection, out) == pytest.approx(0.0, abs=1e-9)

    def test_relaxed_losses_nonnegative(self):
        inst = appendix_a()
        full = _fixflow(inst)
        out = qpprice(build_model(inst), full, relax_losses=True)
        assert total_loss(inst, full.selection, out) > 0

    def test_f3_congested_prices(self):
        inst = f3()
        out = qpprice(build_model(inst), _fixflow(inst))
        assert out["R", 0] == pytest.approx(10.0, abs=1e-6)
        assert out["S", 0] == pytest.approx(40.0, abs=1e-6)

    def test_ramp_price_reflection(self):
        inst = ramp_fixture()
        out = qpprice(build_model(inst), _fixflow(inst))
        d0 = out["S", 0] - out["R", 0]
        d1 = out["S", 1] - out["R", 1]
        assert d0 + d1 == pytest.approx(0.0, abs=1e-6)
        assert abs(d0) > 1.0

    def test_price_indifference_minimizes_norm(self):
        inst = price_indifferent()
        out = qpprice(build_model(inst), _fixflow(inst))
        # any price in [0, 7] supports the execution; tie broken at 0
        assert out["X", 0] == pytest.approx(0.0, abs=1e-6)

    def test_resolve_gives_same_prices(self):
        for seed in range(8):
            inst = random_instance(seed)
            sol = _fixflow(inst)
            try:
                a = qpprice(build_model(inst), sol)
                b = qpprice(build_model(inst), sol)
            except PriceInfeasible:
                continue
            for k in a.pi:
                assert b[k] == pytest.approx(a[k], abs=1e-7)


class TestPriceBounds:
    """Each segment's price rule is a bound of its area-hour price."""

    @staticmethod
    def _fills(delta):
        return PrimalSolution(selection=BidSelection(), delta=delta, flows={})

    def test_inconsistent_fills_raise_at_once(self):
        # segment 2 (prices 50-60) empty asks for a price of at least 60;
        # segment 4 (prices 10-20) full asks for at most 10
        inst = make_instance(
            {("X", 0): [[0, 40], [10, 40], [20, 30], [50, 30], [60, 20], [100, 20]]}
        )
        spans = {seg.id: (seg.price_at(1.0), seg.price_at(0.0)) for seg in inst.segments}
        assert spans[2] == (50.0, 60.0) and spans[4] == (10.0, 20.0)
        fills = self._fills({0: 1.0, 2: 0.0, 4: 1.0})
        for relax in (False, True):
            with pytest.raises(PriceInfeasible):
                qpprice(build_model(inst), fills, relax_losses=relax)

    @pytest.mark.parametrize("shift", [0.0, -100.0])
    def test_full_next_to_empty_pins_the_shared_node(self, shift):
        # continuous curve: segment 0 full and segment 1 empty meet at
        # 60 + shift, the only price both allow.  The minimum-norm price
        # would sit on the floor at shift 0 and on the cap at shift -100
        nodes = [[0, 40], [30, 20], [60, 0], [100, -10]]
        inst = make_instance({("X", 0): [[p + shift, q] for p, q in nodes]},
                             P=(shift, 100.0 + shift))
        fills = self._fills({0: 1.0, 1: 0.0, 2: 0.0})
        for relax in (False, True):
            out = qpprice(build_model(inst), fills, relax_losses=relax)
            assert out["X", 0] == 60.0 + shift
            assert total_loss(inst, fills.selection, out) == 0.0


def _pricing_cases(instances):
    """(instance, FixFlow solution, duals of its relaxation) for every
    selection of each instance whose relaxation clears: priced,
    loss-making and unpriceable ones."""
    for inst in instances:
        model = build_model(inst)
        for _, _, x, duals in _relaxations(inst, model):
            yield inst, model.primal(model.selection_at(x), solve_fixflow(model, x, duals)), duals


def _outcome(inst, sol, relax, duals=None, price=qpprice):
    """(prices, total loss) of ``price`` (``qpprice`` or ``_by_qps``) on
    ``sol``, or the message of its PriceInfeasible."""
    try:
        out = price(build_model(inst), sol, relax_losses=relax, duals=duals)
    except PriceInfeasible as exc:
        return str(exc)
    return out.pi, total_loss(inst, sol.selection, out)


def _by_qps(model, sol, **kwargs):
    """``qpprice`` by pricing's QPs alone (``qp_prices``)."""
    return qp_prices(model, point(model, sol), **kwargs)


def _spy_pricing_qps(monkeypatch):
    """(problem, x0) of every QP that pricing solves."""
    seen = []

    def spy(prob, x0=None, deadline=None):
        seen.append((prob, x0))
        return solve_qp(prob, x0=x0, deadline=deadline)

    monkeypatch.setattr(pricing, "solve_qp", spy)
    return seen


def _phase1_runs(monkeypatch):
    """One flag per ``qp._phase1`` call: True when the start was
    infeasible, so that phase 1 ran (a feasible start comes back as it
    is)."""
    runs = []
    phase1 = qp._phase1

    def spy(prob, x0, deadline=None):
        out = phase1(prob, x0, deadline)
        runs.append(out[0] is not x0)
        return out

    monkeypatch.setattr(qp, "_phase1", spy)
    return runs


class TestPriceStart:
    """Pricing starts from the welfare QP's multipliers: the prices at the
    clearing rows' multipliers, the flow rows' multipliers as they are and
    loss slacks that absorb the loss rows."""

    INSTANCES = [random_instance(seed) for seed in range(40)] + [
        f2(), f3(), diamond(), ramp_fixture(), appendix_a(),
    ]

    def test_inside_the_box_with_duals_and_cold_without(self, monkeypatch):
        cases = list(_pricing_cases(self.INSTANCES))
        seen = _spy_pricing_qps(monkeypatch)
        for inst, sol, duals in cases:
            for relax in (False, True):
                _outcome(inst, sol, relax, duals)
        for inst in self.INSTANCES[:10]:
            clear_exact(inst)
            clear_heuristic(inst)
        assert len(seen) > 500
        for prob, x0 in seen:
            assert x0 is not None
            assert np.all(prob.lb <= x0) and np.all(x0 <= prob.ub)
        seen.clear()
        for inst, sol, _ in cases[:100]:
            _outcome(inst, sol, relax=False)
        assert seen and all(x0 is None for _, x0 in seen)

    def test_meets_the_rows_where_the_duals_fit_the_bounds(self, monkeypatch):
        # the multipliers meet the stationarity rows, and each loss slack
        # covers its row within its cap while the prices stay inside the
        # interval, so relaxed pricing starts feasible wherever the clip
        # moved no price beyond round-off
        cases = list(_pricing_cases(self.INSTANCES))
        seen = _spy_pricing_qps(monkeypatch)
        checked = 0
        for inst, sol, duals in cases:
            seen.clear()
            _outcome(inst, sol, relax=True, duals=duals)
            if not seen:  # answered by the pinned prices: the QPs' own start
                _outcome(inst, sol, relax=True, duals=duals, price=_by_qps)
            if not seen:  # decided by the price bounds, before any QP
                continue
            prob, x0 = seen[0]
            if np.max(np.abs(x0[:len(duals.y_eq)] - duals.y_eq)) <= 1e-12:
                assert rows_hold(prob, x0)
                checked += 1
        assert checked > 400

    @staticmethod
    def _accepted_leaf_pricing(monkeypatch, inst):
        """(phase-1 flags, problem, start) of the QPs of the accepted
        leaf's strict pricing in ``clear_exact(inst)``."""
        runs = _phase1_runs(monkeypatch)
        seen = _spy_pricing_qps(monkeypatch)
        strict = []

        def spy(model, x, relax_losses, deadline, duals):
            assert duals is not None
            runs.clear()
            seen.clear()
            out = solve_qpprice(model, x, relax_losses, deadline, duals)
            if not seen:  # answered by the pinned prices: their QPs' start
                qp_prices(model, x, relax_losses, deadline, duals)
            if not relax_losses:
                strict.append((list(runs), *seen[0]))
            return out

        monkeypatch.setattr(driver, "solve_qpprice", spy)
        assert clear_exact(inst).status == "optimal"
        return strict[-1]

    @pytest.mark.parametrize("make", [f3, ramp_fixture])
    def test_accepted_leaf_runs_no_phase_one(self, monkeypatch, make):
        # congestion on f3; on ramp_fixture the ramp rows bind at both
        # hours: the binding rows' multipliers start where the master has them
        inst = make()
        runs, prob, x0 = self._accepted_leaf_pricing(monkeypatch, inst)
        assert runs == [False]
        assert np.any(x0[len(build_model(inst).eq_keys):] > 0.0)

    def test_phase_one_only_for_a_broken_no_loss_row(self, monkeypatch):
        # the accepted leaf {c, d} of appendix_a: the node pass pins its
        # every binary, and on the empty curve the pinned welfare QP's
        # clearing multiplier is degenerate; its node prices X at 0, at
        # which seller c (limit 3) loses and buyer d (limit 4) does not,
        # so only c's no-loss row breaks
        runs, prob, x0 = self._accepted_leaf_pricing(monkeypatch, appendix_a())
        assert runs == [True]
        assert x0[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(prob.lb <= x0) and np.all(x0 <= prob.ub)
        assert np.max(np.abs(prob.A_eq @ x0 - prob.b_eq), initial=0.0) <= 1e-12
        assert np.flatnonzero(prob.A_in @ x0 > prob.b_in).tolist() == [0]

    def test_matches_the_cold_start(self, monkeypatch):
        # the same prices and verdicts as pricing with no start and no row test
        cases = list(_pricing_cases(self.INSTANCES))
        started = [
            _outcome(inst, sol, relax, duals)
            for inst, sol, duals in cases for relax in (False, True)
        ]
        without_row_test(monkeypatch)
        cold = [_outcome(inst, sol, relax) for inst, sol, _ in cases for relax in (False, True)]
        verdicts = [isinstance(out, str) for out in cold]
        assert 100 < sum(verdicts) < len(verdicts) - 100
        for a, b in zip(started, cold):
            if isinstance(b, str):
                assert a == b
                continue
            assert a[0].keys() == b[0].keys()
            assert max(abs(a[0][k] - b[0][k]) for k in b[0]) <= 1e-9
            assert a[1] == pytest.approx(b[1], abs=1e-9)


def _bits(out):
    """A pricing's prices as bytes, in order, or the message of its
    PriceInfeasible."""
    if isinstance(out, PriceInfeasible):
        return str(out)
    return list(out.pi), np.array(list(out.pi.values())).tobytes()


def _either(price, *args):
    try:
        return price(*args)
    except PriceInfeasible as exc:
        return exc


class TestPinnedPrices:
    """Where the fill bounds pin every price and the QPs' start holds their
    rows, pricing answers with those prices and builds no QP
    (``pricing._PriceQps.pinned_prices``); its answers are the QPs'."""

    @staticmethod
    def _books():
        yield from (("paradox", bench_instance("paradox", s)) for s in range(1000, 1020))
        yield from (("day-book", bench_instance("day-book", s)) for s in range(3000, 3020))
        yield from (("random", random_instance(s)) for s in range(50))
        yield from (("fixture", parse_instance(path.read_text()))
                    for path in sorted(FIXTURES.glob("*.json")))

    def test_every_clears_pricing_call_gets_the_qps_outcome(self, monkeypatch):
        calls = []

        def spy(model, x, relax_losses=False, deadline=None, duals=None):
            calls.append((family, model, x, relax_losses, duals))
            return solve_qpprice(model, x, relax_losses, deadline, duals)

        monkeypatch.setattr(driver, "solve_qpprice", spy)  # the oracle's pricing too
        for family, inst in self._books():
            clear_exact(inst)
            clear_heuristic(inst)
            try:
                verify.oracle_clear(inst)
            except (PriceInfeasible, TooLarge):
                pass
        monkeypatch.undo()
        seen = _spy_pricing_qps(monkeypatch)
        answered = {}
        for family, model, x, relax, duals in calls:
            args = (model, x, relax, None, duals)
            seen.clear()
            pinned = _either(solve_qpprice, *args)
            quiet = not seen  # no QP built
            seen.clear()
            assert _bits(pinned) == _bits(_either(qp_prices, *args))
            try:
                qps = pricing._PriceQps(model, x, relax, duals)
            except PriceInfeasible:  # the fill bounds cross: no QP on either path
                assert quiet and not seen
                continue
            prob, x0 = seen[0]
            holds = rows_hold(prob, qp._clipped(prob, x0))
            assert quiet == (qps.pinned and holds)
            if family == "paradox":
                # the partly executed segment pins each hour's price
                assert qps.pinned
            answered[family] = answered.get(family, 0) + quiet
        assert answered["paradox"] > 60 and answered["random"] > 60
        assert answered["day-book"] < 20 and answered["fixture"] == 0

    @staticmethod
    def _seller(limit):
        """One area and hour with a sloped curve, where the fill of segment
        1 pins the price, and an executed seller block of limit ``limit``."""
        inst = make_instance({("X", 0): [[20, 10], [80, -10]]},
                             blocks=[block("s", "X", limit, [-1])])
        return inst, build_model(inst)

    @pytest.mark.parametrize("loss", [3e-8, 1e-6])
    def test_a_loss_beyond_feas_tol_goes_to_the_qps(self, monkeypatch, loss):
        # the seller loses ``loss`` at the pinned price 50: above FEAS_TOL,
        # so the start breaks its no-loss row and the pinned path defers.
        # 3e-8 is within the row test's margin, so phase 1 decides, and its
        # artificial stays below INFEAS_TOL: the price stands, with its
        # loss; 1e-6 the row test refutes
        inst, model = self._seller(50.0 + loss)
        sol = PrimalSolution(selection=BidSelection(blocks={"s": 1}, flex={}),
                             delta={1: 0.5}, flows={})
        x = point(model, sol)
        assert inst.segments[1].price_at(0.5) == 50.0
        qps = pricing._PriceQps(model, x, False, None)
        assert qps.pinned and qps.pinned_prices() is None
        seen = _spy_pricing_qps(monkeypatch)
        runs = _phase1_runs(monkeypatch)
        out = _either(solve_qpprice, model, x)
        assert len(seen) == 1
        if loss < tolerances.INFEAS_TOL:
            assert runs == [True]
            assert out.pi == {("X", 0): 50.0}
            assert total_loss(inst, sol.selection, out) == pytest.approx(loss, rel=1e-6)
        else:
            assert runs == [] and isinstance(out, PriceInfeasible)
        assert _bits(out) == _bits(_either(qp_prices, model, x))

    def test_bounds_crossed_by_round_off_pin_the_midpoint(self, monkeypatch):
        # segment 1 nearly full and segment 2 nearly empty pin the price at
        # 50 plus and minus 2e-8: the bounds cross by less than INFEAS_TOL,
        # the price sits at their midpoint, and the pinned path returns it
        inst = make_instance({("X", 0): [[49.9, 10], [50, 0], [50.1, -10]]})
        model = build_model(inst)
        fills = {1: 1.0 - 2e-7, 2: 2e-7}
        high, low = (inst.segments[k].price_at(z) for k, z in fills.items())
        assert 1e-9 < high - low < tolerances.INFEAS_TOL
        sol = PrimalSolution(selection=BidSelection(blocks={}, flex={}), delta=fills, flows={})
        x = point(model, sol)
        seen = _spy_pricing_qps(monkeypatch)
        for relax in (False, True):
            out = solve_qpprice(model, x, relax)
            assert not seen
            assert out.pi == {("X", 0): 0.5 * (high + low)}
            assert _bits(out) == _bits(qp_prices(model, x, relax))
            assert len(seen) == 1
            seen.clear()


class TestDecidedByBounds:
    @pytest.mark.parametrize("relax", [False, True])
    @pytest.mark.parametrize("executed", [0, 1])
    def test_runs_no_qp_and_keeps_the_verdict(self, monkeypatch, relax, executed):
        # half-full segments pin R at 25 and S at 70 while the flow sits
        # strictly inside its limits: the price-difference row asks for
        # equal prices, which the bounds rule out
        inst = make_instance(
            {("R", 0): [[0, 0], [10, 0], [40, -30], [100, -30]],
             ("S", 0): [[0, 30], [40, 30], [100, 0]]},
            [connector("c1", "R", "S", [-100], [100])],
            blocks=[block("b", "S", 90, [1])],
        )
        assert [inst.segments[k].price_at(0.5) for k in (1, 3)] == [25.0, 70.0]
        sol = PrimalSolution(selection=BidSelection(blocks={"b": executed}, flex={}),
                             delta={1: 0.5, 3: 0.5}, flows={("c1", 0): 5.0})
        # solve_qp's row test refutes the first pricing QP with no
        # iteration and no phase 1; without it, phase 1 gives the same verdict
        seen = _spy_pricing_qps(monkeypatch)
        runs = _phase1_runs(monkeypatch)
        with pytest.raises(PriceInfeasible) as decided:
            qpprice(build_model(inst), sol, relax_losses=relax)
        assert len(seen) == 1 and runs == []
        without_row_test(monkeypatch)
        with pytest.raises(PriceInfeasible) as solved:
            qpprice(build_model(inst), sol, relax_losses=relax)
        assert len(seen) == 2 and runs == [True]
        assert str(decided.value) == str(solved.value)


class TestLinprogCrossCheck:
    def test_min_loss_and_verdicts_agree_with_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        verdicts = {"priced": 0, "no strict price": 0}
        for seed in range(50):
            inst = random_instance(seed)
            sol = _fixflow(inst)
            ref = min_loss_lp(optimize, inst, sol, strict=False)
            try:
                prices = qpprice(build_model(inst), sol, relax_losses=True)
                total = total_loss(inst, sol.selection, prices)
            except PriceInfeasible:
                total = None
            if ref is None:
                assert total is None, seed
            else:
                assert total == pytest.approx(ref, abs=1e-7), seed
            strict_ref = min_loss_lp(optimize, inst, sol, strict=True) is not None
            try:
                qpprice(build_model(inst), sol)
                strict = True
            except PriceInfeasible:
                strict = False
            assert strict == strict_ref, seed
            verdicts["priced" if strict else "no strict price"] += 1
        assert min(verdicts.values()) > 0


class TestClampPrices:
    def test_inside_interval_untouched(self):
        inst = f3()
        out = qpprice(build_model(inst), _fixflow(inst))
        clamped, warnings = clamp_prices(out, inst)
        assert warnings == []
        assert clamped["R", 0] == out["R", 0]

    def test_area_interval_clamps_and_warns(self):
        # flat zero curve: every price supports it; min-norm picks 0,
        # below the area floor of 20
        inst = make_instance(
            {("X", 0): [[20, 0], [50, 0]]},
            area_intervals={"X": {"lower": 20, "upper": 50}},
        )
        sol = _fixflow(inst)
        out = qpprice(build_model(inst), sol)
        assert out["X", 0] == pytest.approx(0.0, abs=1e-6)
        clamped, warnings = clamp_prices(out, inst)
        assert clamped["X", 0] == pytest.approx(20.0, abs=1e-12)
        assert warnings
