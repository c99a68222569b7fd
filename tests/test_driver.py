import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from daclear import driver, master, qp
from daclear.cli import run
from daclear.core import PrimalSolution, welfare_of
from daclear.cuts import LossSets, loss_sets, no_good_cut
from daclear.driver import ClearOptions, clear_exact, clear_heuristic
from daclear.errors import PriceInfeasible, TimeLimit
from daclear.io import parse_instance, serialize_instance
from daclear.pricing import solve_qpprice
from daclear.verify import (
    check_bid_prices,
    check_filling,
    check_flow_price,
    oracle_clear,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

from helpers import (
    appendix_a,
    f2,
    f3,
    make_instance,
    block,
    diamond,
    expiring_clock,
    paradox_book,
    ramp_fixture,
    random_instance,
)


class TestExact:
    def test_appendix_a(self):
        inst = appendix_a()
        res = clear_exact(inst)
        assert res.status == "optimal"
        assert res.mode == "exact"
        assert res.welfare == pytest.approx(2.0, abs=1e-9)
        assert res.bound == pytest.approx(2.0, abs=1e-9)
        assert res.gap == pytest.approx(0.0, abs=1e-9)
        assert res.prices["X", 0] == pytest.approx(3.0, abs=1e-6)
        assert res.prbs == (("block", "a"),)
        assert len(res.iterations) == 2

    def test_f3_values(self):
        inst = f3()
        res = clear_exact(inst)
        assert res.solution.flows["c1", 0] == pytest.approx(20.0, abs=1e-6)
        assert res.prices["R", 0] == pytest.approx(10.0, abs=1e-6)
        assert res.prices["S", 0] == pytest.approx(40.0, abs=1e-6)

    def test_infeasible(self):
        # demand-only curve with nothing to supply it and mandatory volume
        inst = make_instance(
            {("X", 0): [[0, 5], [100, 5]]},
        )
        res = clear_exact(inst)
        # full curtailment keeps it feasible: all demand shed
        assert res.status == "optimal"
        assert res.welfare == pytest.approx(0.0, abs=1e-9)

    def test_solution_checks_pass(self):
        for inst in (appendix_a(), f2(), f3(), ramp_fixture(), diamond()):
            res = clear_exact(inst)
            assert res.status == "optimal"
            assert check_filling(inst, res.solution.delta, res.prices).passed
            assert check_flow_price(inst, res.solution.flows, res.prices).passed
            assert check_bid_prices(inst, res.solution.selection, res.prices).passed


class TestHeuristic:
    def test_appendix_a_agrees_with_exact(self):
        inst = appendix_a()
        res = clear_heuristic(inst)
        assert res.mode == "heuristic"
        assert res.welfare == pytest.approx(2.0, abs=1e-9)
        # dual bound is the cut-free master optimum
        assert res.bound == pytest.approx(3.0, abs=1e-9)
        assert res.gap > 0

    def test_first_iteration_log(self):
        inst = appendix_a()
        res = clear_heuristic(inst)
        first = res.iterations[0]
        assert first.master_objective == pytest.approx(3.0, abs=1e-9)
        assert first.cuts_added >= 1
        assert first.loss_blocks

    def test_never_beats_exact(self):
        losses = 0
        for seed in range(20):
            inst = random_instance(seed)
            h = clear_heuristic(inst)
            e = clear_exact(inst)
            assert h.welfare <= e.welfare + 1e-7
            if h.welfare < e.welfare - 1e-7:
                losses += 1
        # agreement is typical on small instances
        assert losses <= 10

    def test_welfare_matches_solution(self):
        for seed in range(10):
            inst = random_instance(seed)
            res = clear_heuristic(inst)
            if res.solution is not None:
                assert res.welfare == pytest.approx(
                    welfare_of(inst, res.solution), abs=1e-9
                )


class TestAgainstOracle:
    def test_exact_matches_oracle(self):
        for seed in range(20, 35):
            inst = random_instance(seed)
            o = oracle_clear(inst)
            e = clear_exact(inst)
            assert e.welfare == pytest.approx(o.welfare, abs=1e-7)


class TestLimits:
    def test_time_limit_zero(self):
        inst = random_instance(7)
        res = clear_exact(inst, ClearOptions(time_limit=0.0))
        assert res.status in ("limit", "optimal")
        if res.status == "limit":
            assert res.bound >= res.welfare - 1e-9

    def test_exact_time_limit_zero_has_no_solution(self):
        res = clear_exact(appendix_a(), ClearOptions(time_limit=0.0))
        assert res.status == "limit"
        assert res.solution is None
        assert res.prices is None
        assert res.gap == float("inf")

    def test_heuristic_time_limit_zero(self):
        res = clear_heuristic(appendix_a(), ClearOptions(time_limit=0.0))
        assert res.status == "limit"
        assert res.solution is None
        assert res.prices is None

    def test_leaf_test_honours_the_deadline(self, monkeypatch):
        # the deadline passes at each possible tick of the QP clock, inside
        # the master's node solves or inside the leaf test's FixFlow and
        # pricing solves; either way the clear ends with a valid bound
        inst = diamond()
        optimum = clear_exact(inst).welfare
        frozen = SimpleNamespace(monotonic=lambda: 0.0)
        monkeypatch.setattr(driver, "time", frozen)
        monkeypatch.setattr(master, "time", frozen)
        in_leaf_test = []
        for name in ("solve_fixflow", "solve_qpprice"):
            def timed(*args, _real=getattr(driver, name), _name=name):
                try:
                    return _real(*args)
                except TimeLimit:
                    in_leaf_test.append(_name)
                    raise
            monkeypatch.setattr(driver, name, timed)
        for ticks in range(60):
            for clear in (clear_exact, clear_heuristic):
                monkeypatch.setattr(qp, "time", expiring_clock(ticks))
                res = clear(inst, ClearOptions(time_limit=1.0))
                if res.status != "limit":
                    assert res.welfare == pytest.approx(optimum, abs=1e-9)
                    continue
                assert res.solution is None
                if clear is clear_exact:
                    assert res.bound >= optimum - 1e-9
        assert {"solve_fixflow", "solve_qpprice"} <= set(in_leaf_test)

    def test_heuristic_cap_ends_the_clear(self, monkeypatch, tmp_path, capsys):
        # six buyer blocks that any selection of clears: 64 selections
        # outnumber heuristic mode's cap of 10 x 6 tests, and every leaf
        # fails with its one no-good cut, so the cap ends the clear
        inst = make_instance(
            {("X", 0): [[0, 100], [50, 100], [50, -100], [100, -100]]},
            blocks=[block(f"b{i}", "X", 60 + i, [1 + i]) for i in range(6)],
        )
        cap = 10 * len(inst.blocks)

        def failed(instance, model, selection, x, duals, deadline):
            return x, PrimalSolution(selection, {}, {}), None, {}

        def one_no_good(instance, model, fills, *args):
            return LossSets(), [no_good_cut(model, fills.selection)]

        monkeypatch.setattr(driver, "_check_leaf", failed)
        monkeypatch.setattr(driver, "_leaf_cuts", one_no_good)
        res = clear_heuristic(inst)
        assert res.status == "limit"
        assert len(res.iterations) == cap
        assert all(rec.cuts_added == 1 for rec in res.iterations)
        assert res.solution is None and res.prices is None
        path = tmp_path / "six_blocks.json"
        path.write_text(serialize_instance(inst))
        assert run(["clear", "--instance", str(path), "--mode", "heuristic"]) == 3
        assert json.loads(capsys.readouterr().out)["status"] == "limit"


def _fixture(name):
    return parse_instance((FIXTURES / f"{name}.json").read_text())


def _count(monkeypatch, name):
    calls = []
    real = getattr(driver, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(driver, name, counted)
    return calls


class TestOneTree:
    def test_no_price_support_in_one_master_call(self, monkeypatch):
        # every tested leaf gets a no-good cut inside the one tree
        inst = _fixture("no_price_support")
        for clear in (clear_exact, clear_heuristic):
            calls = _count(monkeypatch, "solve_master")
            res = clear(inst)
            assert res.status == "infeasible"
            assert len(res.iterations) == 12
            assert len(calls) == 1

    def test_appendix_a_in_one_master_call(self, monkeypatch):
        for clear in (clear_exact, clear_heuristic):
            calls = _count(monkeypatch, "solve_master")
            res = clear(appendix_a())
            assert res.welfare == pytest.approx(2.0, abs=1e-9)
            assert [rec.master_objective for rec in res.iterations] == pytest.approx([3.0, 2.0])
            assert len(calls) == 1

    def test_exact_runs_no_heuristic(self, monkeypatch):
        calls = _count(monkeypatch, "clear_heuristic")
        for inst in (appendix_a(), f3(), _fixture("no_price_support")):
            clear_exact(inst)
        assert calls == []

    def test_exact_bound_is_the_accepted_leaf(self):
        res = clear_exact(f3())
        assert res.status == "optimal"
        assert res.bound == res.iterations[-1].master_objective


class TestCandidatesWithoutPrices:
    def test_no_supported_selection_is_infeasible(self):
        # no selection has a price in the interval, even with bid losses
        inst = _fixture("no_price_support")
        for res in (clear_exact(inst), clear_heuristic(inst)):
            assert res.status == "infeasible"
            assert res.solution is None
            assert all(rec.cuts_added == 1 for rec in res.iterations)
        with pytest.raises(PriceInfeasible):
            oracle_clear(inst)

    def test_exact_goes_on_when_relaxed_pricing_fails(self):
        # one failed candidate has no price even with bid losses, so the
        # record's loss sets stay empty and a no-good cut removes it
        inst = _fixture("exact_log_pricing_fails")
        res = clear_exact(inst)
        assert res.status == "optimal"
        assert res.welfare == pytest.approx(oracle_clear(inst).welfare, abs=1e-7)
        assert check_filling(inst, res.solution.delta, res.prices).passed
        assert check_flow_price(inst, res.solution.flows, res.prices).passed
        assert check_bid_prices(inst, res.solution.selection, res.prices).passed
        failed = [rec for rec in res.iterations if rec.cuts_added]
        assert any(not rec.loss_blocks and not rec.loss_flex for rec in failed)


def _spy_pricing(monkeypatch, check=None):
    """Record (relax_losses, priced) per pricing call of the leaf test;
    ``check`` runs after each call that finds prices."""
    calls = []

    def spy(model, x, relax_losses, deadline, duals):
        try:
            out = solve_qpprice(model, x, relax_losses, deadline, duals)
        except PriceInfeasible:
            calls.append((relax_losses, False))
            raise
        calls.append((relax_losses, True))
        if check is not None:
            check(model, x, relax_losses)
        return out

    monkeypatch.setattr(driver, "solve_qpprice", spy)
    return calls


class TestLeafTest:
    def test_strict_pricing_decides_and_relaxed_explains(self, monkeypatch):
        # the first leaf lacks loss-free prices: strict, then relaxed
        # pricing for its loss sets; the second passes on one strict QP
        for clear in (clear_heuristic, clear_exact):
            calls = _spy_pricing(monkeypatch)
            res = clear(appendix_a())
            assert res.welfare == pytest.approx(2.0, abs=1e-9)
            assert calls == [(False, False), (True, True), (False, True)]
            assert res.iterations[0].loss_blocks

    def test_passing_leaf_is_priced_once(self, monkeypatch):
        calls = _spy_pricing(monkeypatch)
        res = clear_heuristic(f3())
        assert len(res.iterations) == 1 and not res.iterations[0].cuts_added
        assert calls == [(False, True)]

    @pytest.mark.parametrize("clear", [clear_exact, clear_heuristic])
    def test_relaxed_pricing_only_after_failed_strict(self, monkeypatch, clear):
        # per tested leaf one strict call, and a relaxed one exactly when
        # the strict call found no loss-free prices
        for seed in range(40, 60):
            calls = _spy_pricing(monkeypatch)
            res = clear(paradox_book(seed))
            expected = []
            for relax, priced in calls:
                if not relax:
                    expected += [False] if priced else [False, True]
            assert [relax for relax, _ in calls] == expected
            assert expected.count(False) == len(res.iterations)

    @pytest.mark.parametrize("make", [random_instance, paradox_book])
    def test_strict_prices_leave_no_loss_sets(self, monkeypatch, make):
        # loss-free prices make the least relaxed loss 0, so a leaf with
        # strict prices needs no relaxed pricing to find its loss sets
        checked = []

        def check(model, x, relax_losses):
            if not relax_losses:
                relaxed = solve_qpprice(model, x, True)
                solution = model.primal(model.selection_at(x), x)
                assert loss_sets(inst, solution, relaxed).empty
                checked.append(1)

        solved = 0
        for seed in range(800, 860):
            inst = make(seed)
            for clear in (clear_exact, clear_heuristic):
                _spy_pricing(monkeypatch, check)
                solved += clear(inst).solution is not None
        # at least every accepted leaf was checked
        assert len(checked) >= solved > 0
