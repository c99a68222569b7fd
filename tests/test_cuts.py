import itertools

import pytest

from daclear.core import BidSelection
from daclear.cuts import (
    CutPool,
    bid_cut,
    curtailment_cut,
    curtailment_violations,
    loss_sets,
    no_good_cut,
)
from daclear.errors import EmptyLossSets
from daclear.master import solve_master
from daclear.model import build_model
from daclear.pricing import solve_fixflow, solve_qpprice

from helpers import appendix_a, make_instance, block, flexbid


def _appendix_a_relaxed():
    inst = appendix_a()
    res = solve_master(inst, build_model(inst))
    sol = solve_fixflow(inst, build_model(inst), res.solution)
    out = solve_qpprice(inst, build_model(inst), sol, relax_losses=True)
    return inst, sol, out


class TestLossSets:
    def test_appendix_a_relaxed_losses(self):
        inst, sol, out = _appendix_a_relaxed()
        ls = loss_sets(inst, sol, out.prices)
        # at least one executed bid loses money at every uniform price
        assert not ls.empty
        assert set(ls.blocks) <= {"a", "b", "c", "d"}

    def test_no_losses_gives_empty(self):
        from daclear.driver import clear_exact

        inst = appendix_a()
        res = clear_exact(inst)
        out = solve_qpprice(inst, build_model(inst), res.solution, relax_losses=True)
        assert loss_sets(inst, res.solution, out.prices).empty


class TestBidCut:
    def test_excludes_exactly_supersets(self):
        inst, sol, out = _appendix_a_relaxed()
        ls = loss_sets(inst, sol, out.prices)
        cut = bid_cut(ls)
        members = [key[1] for key, _ in cut.coeffs]
        # brute force over all 16 block selections
        for bits in itertools.product((0, 1), repeat=4):
            sel = BidSelection(
                blocks=dict(zip(("a", "b", "c", "d"), bits)), flex={}
            )
            keeps_all = all(sel.blocks[m] == 1 for m in members)
            assert cut.satisfied(sel) == (not keeps_all)

    def test_empty_raises(self):
        from daclear.cuts import LossSets

        with pytest.raises(EmptyLossSets):
            bid_cut(LossSets(blocks=(), flex=()))


class TestNoGoodCut:
    def test_excludes_only_that_selection(self):
        inst = appendix_a()
        target = BidSelection(blocks={"a": 1, "b": 0, "c": 1, "d": 1}, flex={})
        cut = no_good_cut(inst, target, kind="no-good")
        for bits in itertools.product((0, 1), repeat=4):
            sel = BidSelection(
                blocks=dict(zip(("a", "b", "c", "d"), bits)), flex={}
            )
            assert cut.satisfied(sel) == (sel.blocks != target.blocks)

    def test_flex_hours_are_distinct_atoms(self):
        inst = make_instance(
            {("X", 0): [[0, 10], [50, 10], [50, -10], [100, -10]],
             ("X", 1): [[0, 10], [50, 10], [50, -10], [100, -10]]},
            hours=2,
            flex=[flexbid("f", "X", 90, 5)],
        )
        target = BidSelection(blocks={}, flex={"f": 0})
        cut = no_good_cut(inst, target, kind="no-good")
        assert not cut.satisfied(target)
        assert cut.satisfied(BidSelection(blocks={}, flex={"f": 1}))
        assert cut.satisfied(BidSelection(blocks={}, flex={"f": None}))


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
        res = solve_master(inst, build_model(inst))
        sol = solve_fixflow(inst, build_model(inst), res.solution)
        if sol.selection.blocks.get("buy") != 1:
            pytest.skip("master did not execute the block")
        viol = curtailment_violations(inst, sol)
        assert ("X", 0) in viol
        assert "buy" in viol["X", 0].blocks

    def test_cut_forms(self):
        inst = self._curtailing_instance()
        res = solve_master(inst, build_model(inst))
        sol = solve_fixflow(inst, build_model(inst), res.solution)
        viol = curtailment_violations(inst, sol)
        if not viol:
            pytest.skip("no violation to cut")
        heur = curtailment_cut(viol["X", 0])
        exact = no_good_cut(inst, sol.selection, kind="curtailment")
        assert not heur.satisfied(sol.selection)
        assert not exact.satisfied(sol.selection)

    def test_compliant_solution_clean(self):
        from daclear.driver import clear_exact

        inst = self._curtailing_instance()
        res = clear_exact(inst)
        assert curtailment_violations(inst, res.solution) == {}


class TestCutPool:
    def test_deduplicates(self):
        inst = appendix_a()
        sel = BidSelection(blocks={"a": 1, "b": 1, "c": 1, "d": 1}, flex={})
        pool = CutPool()
        c = no_good_cut(inst, sel, kind="no-good")
        assert pool.add(c)
        assert not pool.add(no_good_cut(inst, sel, kind="no-good"))
        assert len(pool) == 1
