import numpy as np
import pytest

from daclear import relaxation
from daclear.core import BidSelection, PrimalSolution, clearing_residuals, welfare_of
from daclear.errors import UnknownId
from daclear.model import build_model
from daclear.qp import multipliers, solve_qp
from daclear.relaxation import solve_relaxation
from daclear.verify import _all_selections, _relaxations

from helpers import (
    appendix_a,
    model_maps,
    selection_terms,
    check_kkt,
    empty_selection,
    f2,
    f3,
    make_instance,
    block,
    pinned_relaxation,
    ramp_fixture,
    random_instance,
)


def _sel(blocks=None, flex=None):
    return BidSelection(blocks=dict(blocks or {}), flex=dict(flex or {}))


def _relax(inst, selection):
    pinned, model = pinned_relaxation(inst, selection)
    objective, x, duals = solve_relaxation(pinned, model)
    return objective, model.primal(selection, x), duals


@pytest.fixture
def solves(monkeypatch):
    """(problem, solution) of every QP the relaxation solves."""
    seen = []

    def spy(prob, x0=None):
        seen.append((prob, solve_qp(prob, x0=x0)))
        return seen[-1][1]

    monkeypatch.setattr(relaxation, "solve_qp", spy)
    return seen


class TestCheckSelection:
    def test_unknown_block(self):
        inst = appendix_a()
        with pytest.raises(UnknownId):
            welfare_of(inst, PrimalSolution(_sel({"zzz": 1}), {}, {}))
        with pytest.raises(UnknownId):
            clearing_residuals(inst, PrimalSolution(_sel({"zzz": 1}), {}, {}))

    def test_link_violation(self):
        # the oracle enumerates a selection that breaks a link, but the
        # model's link rows make its relaxation infeasible, so it never
        # ranks it
        inst = make_instance(
            {("X", 0): [[0, 10], [100, -10]]},
            blocks=[block("p", "X", 50, [5]), block("q", "X", 50, [5])],
            links=[("q", "p")],
        )
        blocks = [dict(sel.blocks) for sel in _all_selections(inst)]
        assert blocks == [{"p": 0, "q": 0}, {"p": 0, "q": 1}, {"p": 1, "q": 0}, {"p": 1, "q": 1}]
        model = build_model(inst)
        ranked = [dict(model.selection_at(x).blocks) for _, _, x, _ in _relaxations(inst, model)]
        assert ranked == [{"p": 0, "q": 0}, {"p": 1, "q": 0}, {"p": 1, "q": 1}]


class TestAssemble:
    def test_appendix_a_dimensions(self):
        inst = appendix_a()
        pinned, model = pinned_relaxation(inst, _sel({"c": 1, "d": 1}))
        # the model's columns, then one pinned column per block
        assert pinned.n == model.n + 4
        assert list(pinned.lb[model.n:]) == [0.0, 0.0, 1.0, 1.0]
        assert np.array_equal(pinned.ub[model.n:], pinned.lb[model.n:])
        # flat curve: one balance row
        assert pinned.A_eq.shape[0] == len(model.eq_keys) == 1

    def test_block_quantities_enter_the_rows(self):
        # the volume and welfare of the pinned columns are what core derives
        # from the bids on its own
        checked = 0
        for seed in range(20):
            inst = random_instance(seed)
            for sel in _all_selections(inst):
                pinned, model = pinned_relaxation(inst, sel)
                terms = selection_terms(inst, sel)
                x = pinned.lb[model.n:]
                assert np.array_equal(pinned.ub[model.n:], x)
                assert pinned.A_eq[:, model.n:] @ x == pytest.approx(
                    [terms.volume.get(key, 0.0) for key in model.eq_keys], abs=1e-9
                )
                assert pinned.c[model.n:] @ x == pytest.approx(terms.constant, abs=1e-9)
                checked += 1
        assert checked > 200


class TestSolveRelaxation:
    def test_appendix_a_cd(self):
        inst = appendix_a()
        objective, primal, _ = _relax(inst, _sel({"c": 1, "d": 1}))
        assert objective == pytest.approx(2.0, abs=1e-9)
        res = clearing_residuals(inst, primal)
        assert max(abs(r) for r in res.values()) <= 1e-9

    def test_infeasible_selection_is_none(self):
        inst = appendix_a()
        # d alone injects +2 into a flat zero curve with no counterparty
        d_only = _sel({"a": 0, "b": 0, "c": 0, "d": 1})
        assert solve_relaxation(*pinned_relaxation(inst, d_only)) is None
        # so the oracle never ranks it
        model = build_model(inst)
        assert d_only not in [model.selection_at(x) for _, _, x, _ in _relaxations(inst, model)]

    def test_two_area_flow_uncongested(self, solves):
        inst = f2()
        _, primal, _ = _relax(inst, empty_selection(inst))
        assert primal.flows["c1", 0] == pytest.approx(30.0, abs=1e-7)
        # the clearing rows' multipliers are the areas' prices (R, then S)
        [(prob, sol)] = solves
        assert multipliers(prob, sol).y_eq == pytest.approx([10.0, 10.0], abs=1e-7)

    def test_two_area_flow_congested(self, solves):
        inst = f3()
        _, primal, _ = _relax(inst, empty_selection(inst))
        assert primal.flows["c1", 0] == pytest.approx(20.0, abs=1e-7)
        [(prob, sol)] = solves
        mult = multipliers(prob, sol)
        assert mult.y_eq == pytest.approx([10.0, 40.0], abs=1e-7)
        # capacity multiplier equals the price spread
        _, model = pinned_relaxation(inst, empty_selection(inst))
        assert mult.nu_upper[model_maps(model).flow_col["c1", 0]] == pytest.approx(30.0, abs=1e-6)

    def test_ramp_limits_bind(self):
        inst = ramp_fixture()
        _, primal, _ = _relax(inst, empty_selection(inst))
        f0 = primal.flows["c1", 0]
        f1 = primal.flows["c1", 1]
        assert abs(f0 - inst.interconnectors[0].initial_flow) <= 6.0 + 1e-7
        assert abs(f1 - f0) <= 6.0 + 1e-7

    def test_objective_equals_welfare_of_primal(self):
        # welfare_of and clearing_residuals derive the selection's volume
        # from the bids (``core._executed``), not through the master's columns
        checked = 0
        for seed in range(20):
            inst = random_instance(seed)
            model = build_model(inst)
            for objective, _, x, _ in _relaxations(inst, model):
                primal = model.primal(model.selection_at(x), x)
                # the oracle's relaxation is the one this file's helper pins
                assert _relax(inst, primal.selection)[0] == objective
                assert objective == pytest.approx(welfare_of(inst, primal), abs=1e-7)
                res = clearing_residuals(inst, primal)
                assert max(abs(r) for r in res.values()) <= 1e-6
                checked += primal.selection != empty_selection(inst)
        assert checked > 100

    def test_kkt_residual_small(self, solves):
        inst = f3()
        _relax(inst, empty_selection(inst))
        for seed in range(5):
            inst = random_instance(seed)
            list(_relaxations(inst, build_model(inst)))
        # the spy also sees the selections that solve_qp's row test refutes
        optimal = [(prob, sol) for prob, sol in solves if sol.status == "optimal"]
        assert 20 < len(optimal) < len(solves)
        for prob, sol in optimal:
            assert check_kkt(prob, sol).max_residual <= 1e-8

    def test_one_area_solved_by_its_start(self, solves):
        # without flows, filling the curve in merit order up to the selling
        # block is the optimum: the QP confirms it without an iteration
        inst = make_instance(
            {("X", 0): [[0, 30], [20, 20], [50, 5], [100, -10]]},
            blocks=[block("s", "X", 10, [-2])],
        )
        _, primal, _ = _relax(inst, _sel({"s": 1}))
        [(prob, sol)] = solves
        assert sol.iterations == 0
        # 12 MW of net demand: four fifths of the 15 MW segment from 100 to 50
        assert primal.delta == pytest.approx({0: 0.8, 1: 0.0, 2: 0.0}, abs=1e-12)
        assert multipliers(prob, sol).y_eq == pytest.approx([60.0], abs=1e-9)
        assert check_kkt(prob, sol).max_residual <= 1e-8
