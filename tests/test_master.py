import dataclasses
import itertools
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import numpy as np

from daclear import driver, master, qp
from daclear.core import BidSelection
from daclear.cuts import LossSets, bid_cut, no_good_cut
from daclear.errors import TimeLimit
from daclear.io import parse_instance
from daclear.master import _with_cuts, solve_master
from daclear.model import balanced_start, build_model
from daclear.verify import check_links

from helpers import (
    appendix_a, block, expiring_clock, flexbid, make_instance, paradox_book, random_instance,
    executed_bids, step_book, without_node_pass, without_row_test,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestApppendixA:
    def test_cut_free_optimum_takes_all_four(self):
        inst = appendix_a()
        res = solve_master(build_model(inst))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-9)
        assert res.selection.blocks == {"a": 1, "b": 1, "c": 1, "d": 1}

    def test_respects_no_good_cut(self):
        # the test rejects the four-block leaf; the same tree goes on to {c, d}
        inst = appendix_a()
        model = build_model(inst)
        tested = []

        def reject_all_four(leaf):
            tested.append(executed_bids(leaf.selection)[0])
            if len(tested) == 1:
                return [no_good_cut(model, leaf.selection)]
            return ()

        res = solve_master(model, reject_all_four)
        assert tested == [["a", "b", "c", "d"], ["c", "d"]]
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert res.selection.executed_keys() == [("block", "c"), ("block", "d")]

    def test_bound_dominates_objective(self):
        inst = appendix_a()
        res = solve_master(build_model(inst))
        assert res.bound >= res.objective - 1e-9


class TestBranching:
    def test_links_enforced(self):
        inst = make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]]},
            blocks=[block("p", "X", 80, [6]), block("q", "X", 10, [6])],
            links=[("q", "p")],
        )
        res = solve_master(build_model(inst))
        sel = res.selection
        assert check_links(inst, sel).passed

    def test_flex_single_hour(self):
        inst = make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]],
             ("X", 1): [[0, 10], [60, 10], [60, -10], [100, -10]]},
            hours=2,
            flex=[flexbid("f", "X", 90, 5)],
        )
        res = solve_master(build_model(inst))
        hours = executed_bids(res.selection)[1]
        assert len(hours) <= 1
        # the cheaper-supply hour wins
        assert res.selection.flex.get("f") == 0

    def test_matches_relaxation_enumeration(self):
        from daclear.verify import _relaxations

        for seed in range(8):
            inst = random_instance(seed)
            relaxed = _relaxations(inst, build_model(inst))
            best = max((objective for objective, *_ in relaxed), default=None)
            res = solve_master(build_model(inst))
            if best is None:
                assert res.status == "infeasible"
            else:
                assert res.objective == pytest.approx(best, abs=1e-6)


def _unfixed(model):
    """``model`` without its presolve fixings."""
    return dataclasses.replace(model, fixed_cols=())


class TestPresolve:
    def test_always_loss_block_fixed_out(self):
        # flat zero curve, pure demand block priced below any feasible price
        inst = make_instance(
            {("X", 0): [[0, 20], [50, 20], [50, -20], [100, -20]]},
            blocks=[block("junk", "X", 1.0, [5])],
        )
        model = build_model(inst)
        assert model.fixed_cols == (model.bin_col["block", "junk"],)
        with_p = solve_master(model)
        without = solve_master(_unfixed(model))
        assert with_p.objective == pytest.approx(without.objective, abs=1e-9)
        assert with_p.selection.blocks["junk"] == 0

    def test_presolve_never_changes_clearing_welfare(self, monkeypatch):
        instances = [random_instance(seed) for seed in range(10)]
        presolved = [driver.clear_exact(inst) for inst in instances]
        build = driver.build_model
        monkeypatch.setattr(driver, "build_model", lambda inst: _unfixed(build(inst)))
        for inst, a in zip(instances, presolved):
            b = driver.clear_exact(inst)
            assert a.status == b.status
            if a.status == "optimal":
                assert a.welfare == pytest.approx(b.welfare, abs=1e-7)

    def test_presolve_only_tightens_master(self):
        for seed in range(10):
            model = build_model(random_instance(seed))
            a, b = solve_master(model), solve_master(_unfixed(model))
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
        # the 15 MW block cannot clear against the curve's 10 MW, which one
        # row shows: the node pass fixes it at 0 before the root's QP, so
        # the tree is one node and no child exists.  Without the pass the
        # root takes the block in part, and its child with the block
        # executed ends at solve_qp's row test: no parametric pass, no
        # balanced start, no iteration.  Without the row test too, that
        # child falls back and phase 1 decides it alike.  The root starts
        # from a balanced point every time
        inst = make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]]},
            blocks=[block("big", "X", 90, [15])],
        )
        statuses = _count_master_qps(monkeypatch)
        starts = []  # 0 per parametric pass, 1 per balanced start
        balanced, warm_start = master.balanced_start, qp._warm_start
        monkeypatch.setattr(master, "balanced_start",
                            lambda *args: starts.append(1) or balanced(*args))
        monkeypatch.setattr(qp, "_warm_start", lambda *args: starts.append(0) or warm_start(*args))
        fixed = solve_master(build_model(inst))
        assert statuses == ["optimal"] and starts == [1]
        assert fixed.nodes == 1
        statuses.clear()
        starts.clear()
        without_node_pass(monkeypatch)
        pruned = solve_master(build_model(inst))
        assert statuses == ["optimal", "optimal", "infeasible"]
        assert starts == [1, 0]  # the root, then the feasible child's parametric pass
        statuses.clear()
        starts.clear()
        without_row_test(monkeypatch)
        solved = solve_master(build_model(inst))
        assert statuses == ["optimal", "optimal", "infeasible"]
        assert starts == [1, 0, 0, 1]
        assert pruned.nodes == solved.nodes == 3
        assert pruned.objective == solved.objective
        assert pruned.bound == solved.bound
        assert pruned.selection == solved.selection
        # the one-node tree reaches the same optimum by another path
        assert fixed.objective == pytest.approx(pruned.objective, rel=1e-12)
        assert fixed.bound == pytest.approx(pruned.bound, rel=1e-12)
        assert fixed.selection == pruned.selection

    def test_leaf_under_its_own_cut_is_decided_alike(self, monkeypatch):
        # a rejected leaf breaks the cuts that reject it.  A leaf whose node
        # pins every binary is dropped: under those cuts the row test
        # refutes its node, with no QP.  A leaf with a binary free in its
        # box goes back, and its node, whose own optimum breaks a new cut,
        # falls back from its parametric start and is decided as a cold
        # solve decides it
        from daclear.driver import clear_exact

        solves, cut_probs = [], []
        solve, with_cuts = master.solve_qp, master._with_cuts

        def spy(node, *args, start=None, **kwargs):
            sol = solve(node, *args, start=start, **kwargs)
            solves.append((node, args, start, kwargs, sol))
            return sol

        monkeypatch.setattr(master, "solve_qp", spy)
        monkeypatch.setattr(
            master, "_with_cuts", lambda *args: cut_probs.append(with_cuts(*args)) or cut_probs[-1]
        )
        refuted, resolved, results = 0, 0, []
        for seed in range(10):
            inst = paradox_book(seed)
            solves.clear()
            cut_probs.clear()
            results.append(clear_exact(inst))
            if not cut_probs:
                continue
            final, bins = cut_probs[-1], slice(build_model(inst).n, None)
            for node, args, start, kwargs, sol in solves:
                if sol.status == "optimal" and (node.lb[bins] == node.ub[bins]).all():
                    if not qp.rows_hold(final, sol.x):
                        assert qp._row_test(final.with_bounds(node.lb, node.ub)) is not None
                        refuted += 1
                if start is not None and not qp.rows_hold(node, start.x):
                    assert solve(node, *args, **kwargs).status == sol.status
                    resolved += 1
        assert refuted >= 5 and resolved >= 1
        monkeypatch.setattr(master, "solve_qp", solve)
        again = [clear_exact(paradox_book(seed)) for seed in range(10)]
        for one, other in zip(results, again):
            assert one.status == other.status and one.welfare == other.welfare
            assert one.solution == other.solution
            assert len(one.iterations) == len(other.iterations)

    def test_pinned_rejected_leaf_is_not_solved_again(self, monkeypatch):
        # exact mode rejects a leaf with a no-good cut that the leaf breaks,
        # so a leaf whose node pins every binary is not pushed back: no
        # master QP is a pinned node that a cut row refutes.  Over paradox
        # books 0-9 the trees take 51 nodes; 6 rejected leaves among them
        # pin every binary and are not solved again
        nodes, refuted_at_cuts = [], []
        where = {}  # the first binary column and the first cut row
        solve_tree, solve = driver.solve_master, master.solve_qp

        def tree_spy(model, *args, **kwargs):
            res = solve_tree(model, *args, **kwargs)
            nodes.append(res.nodes)
            return res

        def spy(node, *args, **kwargs):
            sol = solve(node, *args, **kwargs)
            bins = slice(where["bins"], None)
            if sol.status == "infeasible" and (node.lb[bins] == node.ub[bins]).all():
                refuted_at_cuts.extend(i for i in sol.certificate["in"] if i >= where["cuts"])
            return sol

        monkeypatch.setattr(driver, "solve_master", tree_spy)
        monkeypatch.setattr(master, "solve_qp", spy)
        for seed in range(10):
            inst = paradox_book(seed)
            model = build_model(inst)
            where.update(bins=model.n, cuts=len(model.master().b_in))
            assert driver.clear_exact(inst).status == "optimal"
        assert nodes == [3, 5, 3, 3, 8, 7, 7, 5, 7, 3]
        assert refuted_at_cuts == []

    def test_integral_root_runs_no_pinned_resolve(self, monkeypatch):
        inst = random_instance(0)
        statuses = _count_master_qps(monkeypatch)
        res = solve_master(build_model(inst))
        assert res.status == "optimal" and res.nodes == 1
        assert statuses == ["optimal"]


class TestNodePass:
    """Before a node's QP, the master fixes each free binary whose other
    value the row test would refute over the node's box
    (``master._fix_binaries``)."""

    # a 10 MW curve and a block of 10 MW plus 5e-8: the block's row breaks
    # by less than INFEAS_TOL, so solve_qp takes the block executed as
    # feasible, and the pass must not fix it at 0, as a threshold without
    # the INFEAS_TOL relaxation would
    NEAR_TIE = make_instance(
        {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]]},
        blocks=[block("tie", "X", 90, [10 + 5e-8])],
    )

    def test_fixings_hold_in_every_feasible_selection(self, monkeypatch):
        # at every node the master visits, a binary fixed at v takes the
        # value v in every selection within the node's binary bounds whose
        # pinned relaxation solve_qp finds feasible
        from daclear.driver import clear_exact, clear_heuristic

        passes = []
        fix = master._fix_binaries

        def spy(prob, binary_rows, lb, ub):
            out = fix(prob, binary_rows, lb, ub)
            passes.append((prob, np.arange(prob.n)[binary_rows[0]], lb, ub, out.lb, out.ub))
            return out

        monkeypatch.setattr(master, "_fix_binaries", spy)
        instances = [paradox_book(seed) for seed in range(20)]
        instances += [random_instance(seed) for seed in range(50)] + [self.NEAR_TIE]
        for inst in instances:
            clear_exact(inst)
            clear_heuristic(inst)
        feasible = {}  # (problem, pinned values) -> whether solve_qp finds it feasible
        checked = 0
        for prob, cols, lb, ub, fixed_lb, fixed_ub in passes:
            free = cols[lb[cols] < ub[cols]]
            fixed = free[fixed_lb[free] == fixed_ub[free]]
            if not len(fixed):
                continue
            for values in itertools.product((0.0, 1.0), repeat=len(free)):
                pin_lb, pin_ub = lb.copy(), ub.copy()
                pin_lb[free] = pin_ub[free] = values
                key = id(prob), tuple(pin_lb[cols]), tuple(pin_ub[cols])
                if key not in feasible:
                    sol = qp.solve_qp(prob.with_bounds(pin_lb, pin_ub))
                    feasible[key] = sol.status != "infeasible"
                if feasible[key]:
                    at = dict(zip(free.tolist(), values))
                    assert all(at[j] == fixed_lb[j] for j in fixed.tolist())
                    checked += 1
        assert checked >= 100

    def test_same_leaves_with_fewer_nodes(self, monkeypatch):
        # the pass only removes values no feasible selection takes, so the
        # clears test the same leaves in the same order, in fewer nodes
        instances = [paradox_book(seed) for seed in range(20)]
        instances += [random_instance(seed) for seed in range(50)]
        leaves, nodes = [], []
        check_leaf, solve = driver._check_leaf, driver.solve_master

        def leaf_spy(instance, model, selection, *args):
            leaves[-1].append(selection)
            return check_leaf(instance, model, selection, *args)

        def master_spy(*args, **kwargs):
            res = solve(*args, **kwargs)
            nodes.append(res.nodes)
            return res

        monkeypatch.setattr(driver, "_check_leaf", leaf_spy)
        monkeypatch.setattr(driver, "solve_master", master_spy)

        def clears():
            out = []
            for inst in instances:
                for clear in (driver.clear_exact, driver.clear_heuristic):
                    leaves.append([])
                    res = clear(inst)
                    selection = None if res.solution is None else res.solution.selection
                    out.append((res.status, selection, leaves[-1], res.iterations))
            return out

        passed = clears()
        with_pass = sum(nodes)
        nodes.clear()
        without_node_pass(monkeypatch)
        for one, other in zip(passed, clears()):
            assert one[:3] == other[:3]
            assert len(one[3]) == len(other[3])
            for a, b in zip(one[3], other[3]):
                assert a.master_objective == pytest.approx(b.master_objective, rel=1e-12)
                assert (a.loss_blocks, a.loss_flex, a.curtailment_areas, a.cuts_added) == (
                    b.loss_blocks, b.loss_flex, b.curtailment_areas, b.cuts_added)
        assert with_pass < sum(nodes)

    def test_the_row_test_reads_the_pass_activities(self, monkeypatch):
        # a node whose last pass ran on its box carries that pass's
        # activities, which are the box's, and the row test reads them
        # instead of computing them again
        computed, handed = [], []
        lowest, row_test = qp._lowest_activity, qp._row_test

        def activity_spy(prob, lb, ub):
            computed.append(1)
            return lowest(prob, lb, ub)

        def row_test_spy(prob):
            if prob._box_activity is None:
                return row_test(prob)
            before = len(computed)
            cert = row_test(prob)
            assert len(computed) == before
            low, row = lowest(prob, prob.lb, prob.ub)
            assert np.array_equal(prob._box_activity[0], low) and prob._box_activity[1] == row
            assert prob.with_bounds(prob.lb, prob.ub)._box_activity is None
            handed.append(cert)
            return cert

        monkeypatch.setattr(master, "_lowest_activity", activity_spy)
        monkeypatch.setattr(qp, "_lowest_activity", activity_spy)
        monkeypatch.setattr(qp, "_row_test", row_test_spy)
        for inst in [paradox_book(seed) for seed in range(10)] + [random_instance(0)]:
            solve_master(build_model(inst))
        assert len(handed) > 10 and any(cert is not None for cert in handed)


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
    """A node whose binaries sit within round-off (``tolerances.ROUND_TOL``) of 0/1
    is its own leaf; one further off branches."""

    def _instance(self):
        # the 5 MW block fits the curve's 10 MW, so the root takes it whole
        return make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]]},
            blocks=[block("b", "X", 90, [5])],
        )

    def test_round_off_offset_is_its_own_leaf(self, monkeypatch):
        inst = self._instance()
        exact = solve_master(build_model(inst))
        calls = _offset_binary(monkeypatch, 1e-15)
        res = solve_master(build_model(inst))
        assert res.nodes == 1 and len(calls) == 1
        assert res.objective == exact.objective
        assert res.selection.blocks == {"b": 1}

    def test_larger_offset_branches(self, monkeypatch):
        inst = self._instance()
        exact = solve_master(build_model(inst))
        calls = _offset_binary(monkeypatch, 1e-9)
        res = solve_master(build_model(inst))
        j = len(calls[0].c) - 1
        assert res.nodes == len(calls) == 3
        assert [(child.lb[j], child.ub[j]) for child in calls[1:]] == [(0.0, 0.0), (1.0, 1.0)]
        assert res.objective == pytest.approx(exact.objective, abs=1e-9)
        assert res.selection == exact.selection


class TestLimits:
    def test_time_limit_returns_limit_status(self):
        inst = random_instance(3)
        res = solve_master(build_model(inst), deadline=time.monotonic())
        assert res.status in ("limit", "optimal")
        if res.status == "limit":
            assert res.bound is not None

    def test_interrupted_node_keeps_its_bound(self, monkeypatch):
        # the deadline passes inside a node's QP, at each possible tick
        inst = appendix_a()
        optimum = solve_master(build_model(inst)).objective
        monkeypatch.setattr(master, "time", SimpleNamespace(monotonic=lambda: 0.0))
        limits = 0
        for ticks in range(40):
            monkeypatch.setattr(qp, "time", expiring_clock(ticks))
            res = solve_master(build_model(inst), deadline=1.0)
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
        optimum = solve_master(build_model(inst)).objective

        def test(leaf):
            raise TimeLimit("leaf test passed its deadline")

        res = solve_master(build_model(inst), test)
        assert res.status == "limit"
        assert res.selection is None
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
        res = solve_master(build_model(inst))
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
        for seed in range(80):
            assert clear_exact(paradox_book(seed)).status in ("optimal", "infeasible")
        assert all(c["phase 1"] == c["fallback"] for c in children)
        assert len(children) >= 150
        assert sum(c["fallback"] for c in children) <= 0.1 * len(children)


def _reject_first_leaves(model, count):
    """A leaf test that rejects the first ``count`` leaves, each with its
    own no-good cut over ``model``'s binaries, and accepts the next."""
    tested = []

    def test(leaf):
        tested.append(leaf)
        if len(tested) > count:
            return ()
        return [no_good_cut(model, leaf.selection)]

    return test


class TestFactorCache:
    """Node QPs share their problem's factor cache (``QpProblem.factors``),
    and the master hands it on to each longer cut problem."""

    def test_results_do_not_depend_on_the_cache(self, monkeypatch):
        # every master, a cut problem included, bit for bit as without a
        # cache; rejecting the first leaf leaves 61 of the 80 feasible
        instances = [paradox_book(seed) for seed in range(40)]
        instances += [random_instance(seed) for seed in range(40)]

        def solve_all():
            out = []
            for inst in instances:
                model = build_model(inst)
                res = solve_master(model, _reject_first_leaves(model, 1))
                point = None if res.selection is None else model.primal(res.selection, res.x)
                out.append((res.status, res.objective, res.bound, res.nodes, point))
            return out

        cached = solve_all()
        monkeypatch.setattr(qp, "FACTOR_CACHE_SIZE", 0)
        assert solve_all() == cached
        assert sum(r[0] == "optimal" for r in cached) >= 60

    def test_cut_problems_of_one_base_keep_their_own_factors(self):
        # two cut problems built from one base put different rows at the
        # cut's index; neither may see the other's factorizations
        inst = appendix_a()
        model = build_model(inst)
        base = model.master()
        k = len(base.b_in)
        # no-good cuts whose rows both enter working sets
        selections = [
            BidSelection(blocks=dict(zip("abcd", bits)), flex={})
            for bits in ((1, 0, 0, 1), (1, 0, 1, 1))
        ]
        probs = [
            _with_cuts(base, [no_good_cut(model, sel)], model)
            for sel in selections
        ]
        assert probs[0].factors is not probs[1].factors
        for prob in probs:
            assert qp.solve_qp(prob, x0=balanced_start(model, prob)).status == "optimal"
        rng = np.random.default_rng(5)
        for prob in probs:
            assert any(k in rows for rows, _ in prob.factors)
            for (rows, free), cached in prob.factors.items():
                K = np.concatenate((prob.A_eq, prob.A_in[list(rows)]))
                fresh = qp._Factor(K, np.frombuffer(free, dtype=bool).nonzero()[0], prob.d)
                g, r = rng.standard_normal(prob.n), rng.standard_normal(len(K))
                assert cached.rank == fresh.rank
                assert (cached.curv is None) == (fresh.curv is None)
                pairs = [(cached.free, fresh.free), (cached.Z, fresh.Z),
                         (cached.lstsq(g), fresh.lstsq(g)),
                         (cached.least_norm(r), fresh.least_norm(r)),
                         *zip(cached.curv or (), fresh.curv or ())]
                assert all(np.array_equal(a, b) for a, b in pairs)

    def test_cut_problems_take_over_the_cache(self, monkeypatch):
        # each problem the master builds under new cuts starts from the
        # cache of the one before it
        caches = []
        with_cuts = master._with_cuts

        def spy(prob, *args):
            caches.append(prob.factors)
            return with_cuts(prob, *args)

        monkeypatch.setattr(master, "_with_cuts", spy)
        solved = []
        solve = master.solve_qp
        monkeypatch.setattr(
            master, "solve_qp", lambda prob, **kw: solved.append(prob) or solve(prob, **kw)
        )
        inst = appendix_a()
        model = build_model(inst)
        solve_master(model, _reject_first_leaves(model, 2))
        assert len(caches) == 2
        assert all(prob.factors is caches[0] for prob in solved)


class TestMilpCrossCheck:
    """Past the oracle's cap the master is checked against HiGHS: on step
    books every segment is flat or vertical, so the master is a MILP."""

    SEEDS = range(24)

    @staticmethod
    def _milp(prob, n_cont):
        """HiGHS's optimum of prob with its columns from n_cont on binary,
        or None when it has none."""
        optimize = pytest.importorskip("scipy.optimize")
        integrality = np.zeros(prob.n)
        integrality[n_cont:] = 1
        res = optimize.milp(
            -prob.c, integrality=integrality, bounds=optimize.Bounds(prob.lb, prob.ub),
            constraints=[
                optimize.LinearConstraint(prob.A_eq, prob.b_eq, prob.b_eq),
                optimize.LinearConstraint(prob.A_in, -np.inf, prob.b_in),
            ],
            options={"mip_rel_gap": 1e-12},
        )
        assert res.status in (0, 2)  # optimal or infeasible
        return -res.fun if res.status == 0 else None

    @staticmethod
    def _random_cuts(inst, model, leaf, rng):
        """The leaf's no-good cut, a bid cut on 2-4 of its executed blocks
        and a no-good cut on a random selection."""
        selection = leaf.selection
        cuts = [no_good_cut(model, selection)]
        executed = executed_bids(selection)[0]
        if len(executed) >= 2:
            size = int(rng.integers(2, min(4, len(executed)) + 1))
            chosen = rng.choice(executed, size=size, replace=False)
            cuts.append(bid_cut(LossSets(tuple(("block", b) for b in sorted(chosen)))))
        other = {b.id: int(rng.random() < 0.5) for b in inst.blocks}
        cuts.append(no_good_cut(model, BidSelection(blocks=other, flex={})))
        return cuts

    @pytest.mark.parametrize("presolve", [True, False], ids=["presolve", "no-fixings"])
    def test_master_matches_milp(self, presolve):
        pytest.importorskip("scipy.optimize")
        for seed in self.SEEDS:
            model = build_model(step_book(seed))
            prob = model.master()  # the reference leaves the fixed columns free
            if not presolve:
                model = _unfixed(model)
            assert 12 < prob.n - model.n <= 20 and not prob.d.any()
            res = solve_master(model)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(self._milp(prob, model.n), rel=1e-7)

    @pytest.mark.parametrize("presolve", [True, False], ids=["presolve", "no-fixings"])
    def test_master_matches_milp_under_random_cuts(self, presolve):
        # three rounds of cuts per book; the accepted leaf is the optimum
        # of the master with every cut added as a row
        pytest.importorskip("scipy.optimize")
        statuses = set()
        for seed in self.SEEDS:
            inst = step_book(seed)
            model = build_model(inst)
            if not presolve:
                model = _unfixed(model)
            rng = np.random.default_rng(seed)
            rounds, added = [], []

            def test(leaf):
                rounds.append(leaf)
                if len(rounds) > 3:
                    return ()
                cuts = self._random_cuts(inst, model, leaf, rng)
                added.extend(cuts)
                return cuts

            res = solve_master(model, test)
            ref = self._milp(_with_cuts(model.master(), added, model), model.n)
            statuses.add(res.status)
            if ref is None:
                assert res.status == "infeasible"
            else:
                assert res.status == "optimal"
                assert res.objective == pytest.approx(ref, rel=1e-7)
        assert "optimal" in statuses
