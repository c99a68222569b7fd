from pathlib import Path
from types import SimpleNamespace

import pytest

from daclear import master, qp
from daclear.cuts import no_good_cut
from daclear.errors import TimeLimit
from daclear.io import parse_instance
from daclear.master import solve_master
from daclear.model import build_model

from helpers import (
    appendix_a, block, expiring_clock, flexbid, make_instance, paradox_book, random_instance,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestApppendixA:
    def test_cut_free_optimum_takes_all_four(self):
        inst = appendix_a()
        res = solve_master(inst, build_model(inst))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-9)
        assert res.solution.selection.blocks == {"a": 1, "b": 1, "c": 1, "d": 1}

    def test_respects_no_good_cut(self):
        # the test rejects the four-block leaf; the same tree goes on to {c, d}
        inst = appendix_a()
        tested = []

        def reject_all_four(leaf):
            tested.append(leaf.solution.selection.executed_blocks())
            if len(tested) == 1:
                return [no_good_cut(inst, leaf.solution.selection)]
            return ()

        res = solve_master(inst, build_model(inst), reject_all_four)
        assert tested == [["a", "b", "c", "d"], ["c", "d"]]
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert set(res.solution.selection.executed_blocks()) == {"c", "d"}

    def test_stop_returns_limit(self):
        inst = appendix_a()
        res = solve_master(inst, build_model(inst), lambda leaf: None)
        assert res.status == "limit"
        assert res.solution is None
        assert res.bound == pytest.approx(3.0, abs=1e-9)

    def test_bound_dominates_objective(self):
        inst = appendix_a()
        res = solve_master(inst, build_model(inst))
        assert res.bound >= res.objective - 1e-9


class TestBranching:
    def test_links_enforced(self):
        inst = make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]]},
            blocks=[block("p", "X", 80, [6]), block("q", "X", 10, [6])],
            links=[("q", "p")],
        )
        res = solve_master(inst, build_model(inst))
        sel = res.solution.selection
        assert sel.link_consistent(inst.links)

    def test_flex_single_hour(self):
        inst = make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]],
             ("X", 1): [[0, 10], [60, 10], [60, -10], [100, -10]]},
            hours=2,
            flex=[flexbid("f", "X", 90, 5)],
        )
        res = solve_master(inst, build_model(inst))
        hours = res.solution.selection.executed_flex()
        assert len(hours) <= 1
        # the cheaper-supply hour wins
        assert res.solution.selection.flex.get("f") == 0

    def test_matches_relaxation_enumeration(self):
        from daclear.verify import _relaxations

        for seed in range(8):
            inst = random_instance(seed)
            relaxed = _relaxations(inst, build_model(inst))
            best = max((objective for objective, _, _ in relaxed), default=None)
            res = solve_master(inst, build_model(inst))
            if best is None:
                assert res.status == "infeasible"
            else:
                assert res.objective == pytest.approx(best, abs=1e-6)


def _no_fixings(monkeypatch):
    """Presolve fixes no binary for the rest of the test."""
    monkeypatch.setattr(master, "_presolve_fixings", lambda instance: {})


class TestPresolve:
    def test_always_loss_block_fixed_out(self, monkeypatch):
        # flat zero curve, pure demand block priced below any feasible price
        inst = make_instance(
            {("X", 0): [[0, 20], [50, 20], [50, -20], [100, -20]]},
            blocks=[block("junk", "X", 1.0, [5])],
        )
        with_p = solve_master(inst, build_model(inst))
        _no_fixings(monkeypatch)
        without = solve_master(inst, build_model(inst))
        assert with_p.objective == pytest.approx(without.objective, abs=1e-9)
        assert with_p.solution.selection.blocks["junk"] == 0

    def test_presolve_never_changes_clearing_welfare(self, monkeypatch):
        from daclear.driver import clear_exact

        instances = [random_instance(seed) for seed in range(10)]
        presolved = [clear_exact(inst) for inst in instances]
        _no_fixings(monkeypatch)
        for inst, a in zip(instances, presolved):
            b = clear_exact(inst)
            assert a.status == b.status
            if a.status == "optimal":
                assert a.welfare == pytest.approx(b.welfare, abs=1e-7)

    def test_presolve_only_tightens_master(self, monkeypatch):
        instances = [random_instance(seed) for seed in range(10)]
        presolved = [solve_master(inst, build_model(inst)) for inst in instances]
        _no_fixings(monkeypatch)
        for inst, a in zip(instances, presolved):
            b = solve_master(inst, build_model(inst))
            if a.status == b.status == "optimal":
                assert a.objective <= b.objective + 1e-7


def _count_master_qps(monkeypatch):
    statuses = []
    solve = master.solve_qp

    def spy(prob, *args, **kwargs):
        sol = solve(prob, *args, **kwargs)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(master, "solve_qp", spy)
    return statuses


class TestNodeSolves:
    def test_infeasible_child_skips_its_qp(self, monkeypatch):
        # the 15 MW block fills the curve's 10 MW at the root; its child
        # with the block executed cannot clear, which row bounds show
        inst = make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]]},
            blocks=[block("big", "X", 90, [15])],
        )
        statuses = _count_master_qps(monkeypatch)
        pruned = solve_master(inst, build_model(inst))
        pruned_statuses = list(statuses)
        statuses.clear()
        monkeypatch.setattr(master, "infeasible_by_bounds", lambda prob: False)
        solved = solve_master(inst, build_model(inst))
        assert statuses == ["optimal", "optimal", "infeasible"]
        assert pruned_statuses == ["optimal", "optimal"]
        assert pruned.nodes == solved.nodes == 3
        assert pruned.objective == solved.objective
        assert pruned.bound == solved.bound
        assert pruned.solution.selection == solved.solution.selection

    def test_integral_root_runs_no_pinned_resolve(self, monkeypatch):
        inst = random_instance(0)
        statuses = _count_master_qps(monkeypatch)
        res = solve_master(inst, build_model(inst))
        assert res.status == "optimal" and res.nodes == 1
        assert statuses == ["optimal"]


def _offset_binary(monkeypatch, offset):
    """Spy on the master's QP solves; in the first solution the last
    column, a binary, moves ``offset`` from its 0/1 value into [0, 1]."""
    calls = []
    solve = master.solve_qp

    def spy(prob, *args, **kwargs):
        sol = solve(prob, *args, **kwargs)
        if not calls:
            j = len(prob.c) - 1
            assert sol.x[j] in (0.0, 1.0)
            sol.x[j] = abs(sol.x[j] - offset)
        calls.append(prob)
        return sol

    monkeypatch.setattr(master, "solve_qp", spy)
    return calls


class TestNearlyIntegralNodes:
    """A node whose binaries sit within round-off (``qp.END_TOL``) of 0/1
    is its own leaf; one further off branches."""

    def _instance(self):
        # the 5 MW block fits the curve's 10 MW, so the root takes it whole
        return make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]]},
            blocks=[block("b", "X", 90, [5])],
        )

    def test_round_off_offset_is_its_own_leaf(self, monkeypatch):
        inst = self._instance()
        exact = solve_master(inst, build_model(inst))
        calls = _offset_binary(monkeypatch, 1e-15)
        res = solve_master(inst, build_model(inst))
        assert res.nodes == 1 and len(calls) == 1
        assert res.objective == exact.objective
        assert res.solution.selection.blocks == {"b": 1}

    def test_larger_offset_branches(self, monkeypatch):
        inst = self._instance()
        exact = solve_master(inst, build_model(inst))
        calls = _offset_binary(monkeypatch, 1e-9)
        res = solve_master(inst, build_model(inst))
        j = len(calls[0].c) - 1
        assert res.nodes == len(calls) == 3
        assert [(child.lb[j], child.ub[j]) for child in calls[1:]] == [(0.0, 0.0), (1.0, 1.0)]
        assert res.objective == pytest.approx(exact.objective, abs=1e-9)
        assert res.solution.selection == exact.solution.selection


class TestLimits:
    def test_time_limit_returns_limit_status(self):
        inst = random_instance(3)
        res = solve_master(inst, build_model(inst), time_limit=0.0)
        assert res.status in ("limit", "optimal")
        if res.status == "limit":
            assert res.bound is not None

    def test_interrupted_node_keeps_its_bound(self, monkeypatch):
        # the deadline passes inside a node's QP, at each possible tick
        inst = appendix_a()
        optimum = solve_master(inst, build_model(inst)).objective
        monkeypatch.setattr(master, "time", SimpleNamespace(monotonic=lambda: 0.0))
        limits = 0
        for ticks in range(40):
            monkeypatch.setattr(qp, "time", expiring_clock(ticks))
            res = solve_master(inst, build_model(inst), time_limit=1.0)
            if res.status == "optimal":
                assert res.objective == pytest.approx(optimum, abs=1e-9)
                continue
            assert res.status == "limit"
            assert res.bound >= optimum - 1e-9
            limits += 1
        assert limits >= 10

    def test_interrupted_leaf_test_keeps_the_leaf(self):
        # the test's own solves pass the deadline: the leaf goes back on
        # the heap, so its objective is still the bound
        inst = appendix_a()
        optimum = solve_master(inst, build_model(inst)).objective

        def test(leaf):
            raise TimeLimit("leaf test passed its deadline")

        res = solve_master(inst, build_model(inst), test)
        assert res.status == "limit"
        assert res.solution is None
        assert res.bound == pytest.approx(optimum, abs=1e-9)
        assert res.bound >= optimum


class TestStarts:
    def test_root_qp_starts_balanced(self, monkeypatch):
        # every clearing row of this book balances along its own curve, so
        # the root QP starts feasible and phase 1 has nothing to do
        inst = parse_instance((FIXTURES / "no_price_support.json").read_text())
        runs = []
        phase1 = qp._phase1

        def spy(prob, x0, deadline=None):
            out = phase1(prob, x0, deadline)
            runs.append(out[2])
            return out

        monkeypatch.setattr(qp, "_phase1", spy)
        res = solve_master(inst, build_model(inst))
        assert res.status == "optimal"
        assert runs[0] == 0

    def test_feasible_children_skip_phase_one(self, monkeypatch):
        # children start from their parent's optimum and working set: phase
        # 1 runs for one only where that parametric start falls back
        from daclear.driver import clear_exact

        calls = {"phase 1": 0, "fallback": 0}
        children = []
        phase1, warm_start, solve = qp._phase1, qp._warm_start, master.solve_qp

        def phase1_spy(prob, x0, deadline=None):
            calls["phase 1"] += 1
            return phase1(prob, x0, deadline)

        def warm_start_spy(*args):
            out = warm_start(*args)
            calls["fallback"] += out is None
            return out

        def solve_spy(prob, *args, **kwargs):
            calls.update({"phase 1": 0, "fallback": 0})
            sol = solve(prob, *args, **kwargs)
            if kwargs.get("start") is not None and sol.status == "optimal":
                children.append(dict(calls))
            return sol

        monkeypatch.setattr(qp, "_phase1", phase1_spy)
        monkeypatch.setattr(qp, "_warm_start", warm_start_spy)
        monkeypatch.setattr(master, "solve_qp", solve_spy)
        for seed in range(40):
            assert clear_exact(paradox_book(seed)).status in ("optimal", "infeasible")
        assert all(c["phase 1"] == c["fallback"] for c in children)
        assert len(children) >= 150
        assert sum(c["fallback"] for c in children) <= 0.1 * len(children)
