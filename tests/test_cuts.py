import itertools

import pytest

from daclear import driver, master
from daclear.core import BidSelection
from daclear.cuts import (
    bid_cut,
    curtailment_cut,
    curtailment_violations,
    loss_sets,
    no_good_cut,
)
from daclear.errors import EmptyLossSets
from daclear.master import solve_master
from daclear.model import build_model
from daclear.verify import _all_selections, _relaxations, oracle_clear

from helpers import (
    appendix_a, block, cut_activity, fixflow, flexbid, make_instance, paradox_book, qpprice,
    random_instance,
)


def _appendix_a_relaxed():
    inst = appendix_a()
    model = build_model(inst)
    res = solve_master(model)
    sol = fixflow(model, model.primal(res.selection, res.x), res.duals)
    out = qpprice(model, sol, relax_losses=True)
    return inst, sol, out


class TestLossSets:
    def test_appendix_a_relaxed_losses(self):
        inst, sol, out = _appendix_a_relaxed()
        ls = loss_sets(inst, sol, out)
        # at least one executed bid loses money at every uniform price
        assert not ls.empty
        assert set(ls.blocks) <= {"a", "b", "c", "d"}

    def test_no_losses_gives_empty(self):
        from daclear.driver import clear_exact

        inst = appendix_a()
        res = clear_exact(inst)
        out = qpprice(build_model(inst), res.solution, relax_losses=True)
        assert loss_sets(inst, res.solution, out).empty


class TestBidCut:
    def test_excludes_exactly_supersets(self):
        inst, sol, out = _appendix_a_relaxed()
        ls = loss_sets(inst, sol, out)
        cut = bid_cut(ls)
        members = [key[1] for key, _ in cut.coeffs]
        # brute force over all 16 block selections
        for bits in itertools.product((0, 1), repeat=4):
            sel = BidSelection(
                blocks=dict(zip(("a", "b", "c", "d"), bits)), flex={}
            )
            keeps_all = all(sel.blocks[m] == 1 for m in members)
            assert (cut_activity(inst, cut, sel) > cut.rhs) == keeps_all

    def test_empty_raises(self):
        from daclear.cuts import LossSets

        with pytest.raises(EmptyLossSets):
            bid_cut(LossSets())


class TestNoGoodCut:
    def test_excludes_only_that_selection(self):
        inst = appendix_a()
        target = BidSelection(blocks={"a": 1, "b": 0, "c": 1, "d": 1}, flex={})
        cut = no_good_cut(build_model(inst), target)
        for bits in itertools.product((0, 1), repeat=4):
            sel = BidSelection(
                blocks=dict(zip(("a", "b", "c", "d"), bits)), flex={}
            )
            excluded = cut_activity(inst, cut, sel) > cut.rhs
            assert excluded == (sel.blocks == target.blocks)

    def test_flex_hours_are_distinct_atoms(self):
        inst = make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]],
             ("X", 1): [[0, 10], [50, 10], [50, -10], [100, -10]]},
            hours=2,
            flex=[flexbid("f", "X", 90, 5)],
        )
        target = BidSelection(blocks={}, flex={"f": 0})
        cut = no_good_cut(build_model(inst), target)
        assert cut_activity(inst, cut, target) > cut.rhs
        for hour in (1, None):
            other = BidSelection(blocks={}, flex={"f": hour})
            assert cut_activity(inst, cut, other) <= cut.rhs

    def test_excludes_only_its_selection_with_links_and_flex_hours(self):
        # three blocks with q linked to p, two 2-hour flex bids: 8 x 9
        # selections, the 2 x 9 that break the link included
        inst = make_instance(
            {("X", 0): [[0, 20], [100, -20]], ("X", 1): [[0, 20], [100, -20]]},
            hours=2,
            blocks=[block("p", "X", 80, [4, 6]), block("q", "X", 30, [-3, 2]),
                    block("r", "X", 50, [0, -5])],
            links=[("q", "p")],
            flex=[flexbid("f", "X", 60, 3), flexbid("g", "X", 5, -4)],
        )
        model = build_model(inst)
        selections = list(_all_selections(inst))
        assert len(selections) == 72
        for target in selections:
            cut = no_good_cut(model, target)
            assert [key for key, _ in cut.coeffs] == list(model.bin_keys)
            for sel in selections:
                assert (cut_activity(inst, cut, sel) > cut.rhs) == (sel == target)


class TestCurtailment:
    def _curtailing_instance(self):
        # demand-only curve with 3 inelastic units, block supply of only 2:
        # curtailment is unavoidable, and an executed demand block in the
        # same area and hour violates the priority rule
        return make_instance(
            {("X", 0): [[0, 4], [80, 3]]},
            blocks=[block("gen", "X", 5, [-2]), block("buy", "X", 95, [1])],
        )

    def test_violation_detected(self):
        inst = self._curtailing_instance()
        model = build_model(inst)
        res = solve_master(model)
        sol = fixflow(model, model.primal(res.selection, res.x), res.duals)
        if sol.selection.blocks.get("buy") != 1:
            pytest.skip("master did not execute the block")
        viol = curtailment_violations(inst, sol)
        assert ("X", 0) in viol
        assert "buy" in viol["X", 0].blocks

    def test_cut_forms(self):
        inst = self._curtailing_instance()
        model = build_model(inst)
        res = solve_master(model)
        sol = fixflow(model, model.primal(res.selection, res.x), res.duals)
        viol = curtailment_violations(inst, sol)
        if not viol:
            pytest.skip("no violation to cut")
        heur = curtailment_cut(viol["X", 0])
        exact = no_good_cut(model, sol.selection)
        assert cut_activity(inst, heur, sol.selection) > heur.rhs
        assert cut_activity(inst, exact, sol.selection) > exact.rhs

    def test_compliant_solution_clean(self):
        from daclear.driver import clear_exact

        inst = self._curtailing_instance()
        res = clear_exact(inst)
        assert curtailment_violations(inst, res.solution) == {}

    def test_oracle_rejects_a_priced_candidate_for_curtailment(self):
        # the best candidate {gen, buy} has loss-free prices and fails
        # only the curtailment check; the oracle rejects it and accepts
        # {gen}, the exact clear's selection
        inst = self._curtailing_instance()
        model = build_model(inst)
        _, _, x, duals = max(_relaxations(inst, model), key=lambda rec: rec[0])
        _, fills, prices, curt = driver._check_leaf(
            inst, model, model.selection_at(x), x, duals, None)
        assert fills.selection.blocks == {"gen": 1, "buy": 1}
        assert prices is not None and list(curt) == [("X", 0)]
        res = oracle_clear(inst)
        assert [(obj, sel.blocks, passed) for obj, sel, passed in res.frontier] == [
            (pytest.approx(165.0), {"gen": 1, "buy": 1}, False),
            (pytest.approx(150.0), {"gen": 1, "buy": 0}, True),
        ]
        assert res.solution.selection == driver.clear_exact(inst).solution.selection


class TestLeafTestCuts:
    def test_repeated_curtailment_sets_give_one_row(self, monkeypatch):
        # the demand block outranks curtailment in both hours: two
        # violations with the same loss sets, so the same cut row
        inst = make_instance(
            {("X", 0): [[0, 4], [80, 3]], ("X", 1): [[0, 4], [80, 3]]},
            hours=2,
            blocks=[block("gen", "X", 5, [-2, -2]), block("buy", "X", 95, [1, 1])],
        )
        rows = []
        with_cuts = master._with_cuts

        def spy(prob, cuts, *args):
            rows.append(len(cuts))
            return with_cuts(prob, cuts, *args)

        monkeypatch.setattr(master, "_with_cuts", spy)
        res = driver.clear_heuristic(inst)
        first = res.iterations[0]
        assert first.curtailment_areas == (("X", 0), ("X", 1))
        assert first.cuts_added == 1
        assert rows == [1]
        assert res.solution.selection.blocks == {"gen": 1, "buy": 0}

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_cuts_exclude_their_leaf_and_no_later_one(self, monkeypatch, mode):
        # each cut a leaf test returns is violated by its own leaf, and
        # every leaf tested later in the clear meets it: a waiting leaf
        # that a later cut excludes is not tested (in heuristic mode this
        # happens on paradox_book(747) and random_instance(748))
        check_leaf, leaf_cuts = driver._check_leaf, driver._leaf_cuts
        tested = []  # (selection, cuts) per tested leaf

        def check_spy(instance, model, selection, *args):
            tested.append((selection, []))
            return check_leaf(instance, model, selection, *args)

        def cuts_spy(*args):
            sets, cuts = leaf_cuts(*args)
            tested[-1][1].extend(cuts)
            return sets, cuts

        monkeypatch.setattr(driver, "_check_leaf", check_spy)
        monkeypatch.setattr(driver, "_leaf_cuts", cuts_spy)
        clear = driver.clear_exact if mode == "exact" else driver.clear_heuristic
        n_cuts = 0
        for seed in range(700, 760):
            for inst in (random_instance(seed), paradox_book(seed)):
                tested.clear()
                clear(inst)
                earlier = []
                for selection, cuts in tested:
                    for cut in earlier:
                        assert cut_activity(inst, cut, selection) <= cut.rhs
                    for cut in cuts:
                        assert cut_activity(inst, cut, selection) > cut.rhs
                    earlier += cuts
                n_cuts += len(earlier)
        assert n_cuts >= 40
