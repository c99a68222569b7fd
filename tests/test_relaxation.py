import numpy as np
import pytest

from daclear import relaxation
from daclear.core import BidSelection, clearing_residuals, welfare_of
from daclear.errors import InfeasibleSelection, LinkViolation, UnknownId
from daclear.relaxation import assemble_qprelax, check_selection, solve_relaxation
from daclear.qp import solve_qp

from helpers import (
    appendix_a,
    f2,
    f3,
    make_instance,
    block,
    connector,
    ramp_fixture,
    random_instance,
)


def _sel(inst, blocks=None, flex=None):
    return BidSelection(blocks=dict(blocks or {}), flex=dict(flex or {}))


class TestCheckSelection:
    def test_unknown_block(self):
        inst = appendix_a()
        with pytest.raises(UnknownId):
            check_selection(inst, _sel(inst, {"zzz": 1}))

    def test_link_violation(self):
        inst = make_instance(
            {("X", 0): [[0, 10], [100, -10]]},
            blocks=[block("p", "X", 50, [5]), block("q", "X", 50, [5])],
            links=[("q", "p")],
        )
        with pytest.raises(LinkViolation):
            check_selection(inst, _sel(inst, {"p": 0, "q": 1}))
        check_selection(inst, _sel(inst, {"p": 1, "q": 1}))


class TestAssemble:
    def test_appendix_a_dimensions(self):
        inst = appendix_a()
        prob, layout, terms = assemble_qprelax(inst, _sel(inst, {"c": 1, "d": 1}))
        assert len(layout.seg_ids) + len(layout.flow_keys) == len(prob.c)
        assert prob.A_eq.shape[0] == len(layout.eq_keys)
        # flat curve: one balance row, rhs reflects executed block quantities
        assert len(layout.eq_keys) == 1

    def test_block_quantities_enter_rhs(self):
        inst = appendix_a()
        _, _, terms_empty = assemble_qprelax(inst, _sel(inst))
        _, _, terms_cd = assemble_qprelax(inst, _sel(inst, {"c": 1, "d": 1}))
        assert terms_cd.volume[("X", 0)] == pytest.approx(0.0)
        assert terms_empty.volume.get(("X", 0), 0.0) == pytest.approx(0.0)
        _, _, terms_d = assemble_qprelax(inst, _sel(inst, {"d": 1}))
        assert terms_d.volume[("X", 0)] == pytest.approx(2.0)


class TestSolveRelaxation:
    def test_appendix_a_cd(self):
        inst = appendix_a()
        out = solve_relaxation(inst, _sel(inst, {"c": 1, "d": 1}))
        assert out.objective == pytest.approx(2.0, abs=1e-9)
        res = clearing_residuals(inst, out.primal)
        assert max(abs(r) for r in res.values()) <= 1e-9

    def test_infeasible_selection_raises(self):
        inst = appendix_a()
        # d alone injects +2 into a flat zero curve with no counterparty
        with pytest.raises(InfeasibleSelection):
            solve_relaxation(inst, _sel(inst, {"d": 1}))

    def test_two_area_flow_uncongested(self):
        inst = f2()
        out = solve_relaxation(inst, inst.empty_selection())
        assert out.flows["c1", 0] == pytest.approx(30.0, abs=1e-7)
        assert out.prices["R", 0] == pytest.approx(10.0, abs=1e-7)
        assert out.prices["S", 0] == pytest.approx(10.0, abs=1e-7)

    def test_two_area_flow_congested(self):
        inst = f3()
        out = solve_relaxation(inst, inst.empty_selection())
        assert out.flows["c1", 0] == pytest.approx(20.0, abs=1e-7)
        assert out.prices["R", 0] == pytest.approx(10.0, abs=1e-7)
        assert out.prices["S", 0] == pytest.approx(40.0, abs=1e-7)
        # capacity multiplier equals the price spread
        assert out.certificate.mu_upper["c1", 0] == pytest.approx(30.0, abs=1e-6)

    def test_ramp_limits_bind(self):
        inst = ramp_fixture()
        out = solve_relaxation(inst, inst.empty_selection())
        f0 = out.flows["c1", 0]
        f1 = out.flows["c1", 1]
        assert abs(f0 - inst.interconnectors[0].initial_flow) <= 6.0 + 1e-7
        assert abs(f1 - f0) <= 6.0 + 1e-7

    def test_objective_equals_welfare_of_primal(self):
        for seed in range(10):
            inst = random_instance(seed)
            sel = inst.empty_selection()
            try:
                out = solve_relaxation(inst, sel)
            except InfeasibleSelection:
                continue
            assert out.objective == pytest.approx(
                welfare_of(inst, out.primal), abs=1e-7
            )
            res = clearing_residuals(inst, out.primal)
            assert max(abs(r) for r in res.values()) <= 1e-6

    def test_kkt_residual_small(self):
        inst = f3()
        out = solve_relaxation(inst, inst.empty_selection())
        assert out.kkt_residual <= 1e-8

    def test_one_area_solved_by_its_start(self, monkeypatch):
        # without flows, filling the curve in merit order up to the selling
        # block is the optimum: the QP confirms it without an iteration
        inst = make_instance(
            {("X", 0): [[0, 30], [20, 20], [50, 5], [100, -10]]},
            blocks=[block("s", "X", 10, [-2])],
        )
        sols = []

        def spy(prob, x0=None):
            sols.append(solve_qp(prob, x0=x0))
            return sols[-1]

        monkeypatch.setattr(relaxation, "solve_qp", spy)
        out = solve_relaxation(inst, _sel(inst, {"s": 1}))
        assert [sol.iterations for sol in sols] == [0]
        # 12 MW of net demand: four fifths of the 15 MW segment from 100 to 50
        assert out.delta == pytest.approx({0: 0.8, 1: 0.0, 2: 0.0}, abs=1e-12)
        assert out.prices["X", 0] == pytest.approx(60.0, abs=1e-9)
        assert out.kkt_residual <= 1e-8
