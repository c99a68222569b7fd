"""The clearing set-up is built from per-model arrays: its arrays equal,
bit for bit, those that loops over the instance built entry by entry
(``helpers.reference_model``, ``reference_price_rows`` and
``reference_fixflow_problem``)."""

import json
from pathlib import Path

import numpy as np
import pytest

from daclear import driver, pricing
from daclear.errors import PriceInfeasible
from daclear.io import parse_instance, serialize_instance
from daclear.model import build_model

from helpers import (
    bench_instance, diamond, model_maps, qp_prices, ramp_fixture, random_instance,
    reference_fixflow_problem, reference_model, reference_price_rows, rescaled,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PROBLEM_ARRAYS = ("c", "d", "A_eq", "b_eq", "A_in", "b_in", "lb", "ub")


@pytest.fixture(scope="module")
def books():
    out = [random_instance(seed) for seed in range(50)]
    out += [parse_instance(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    out += [bench_instance("paradox", seed) for seed in range(1000, 1020)]
    out += [bench_instance("day-book", seed) for seed in range(3000, 3020)]
    # books whose model units are not 1
    out += [ramp_fixture(), diamond()]
    for family, seed, factor in (("paradox", 1000, 1000.0), ("day-book", 3000, 1000.0),
                                 ("day-book", 3001, 1024.0)):
        doc = json.loads(serialize_instance(bench_instance(family, seed)))
        out.append(parse_instance(json.dumps(rescaled(doc, factor, factor))))
    return out


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def test_model_arrays_equal_the_loop_built_ones(books):
    for inst in books:
        model, ref = build_model(inst), reference_model(inst)
        for name in ("c", "d", "lb", "ub", "A_eq", "b_eq", "A_in", "b_in", "bin_A_eq",
                     "vertical"):
            assert _bits(getattr(model, name)) == _bits(getattr(ref, name)), name
        for name in ("seg_ids", "book_ids", "flow_keys", "eq_keys", "ramp_keys", "bin_keys",
                     "bin_col"):
            assert getattr(model, name) == getattr(ref, name), name
        maps = model_maps(model)
        assert (maps.seg_col, maps.flow_col, maps.eq_row) == (
            ref.seg_col, ref.flow_col, ref.eq_row)
        for got, want in zip(model.flow_rows, ref.flow_rows):
            assert _bits(got) == _bits(want)
        assert len(model.row_segs) == len(ref.row_segs)
        for (cols, spans), (ref_cols, ref_spans) in zip(model.row_segs, ref.row_segs):
            assert cols == ref_cols.tolist() and _bits(np.array(spans)) == _bits(ref_spans)
        prob = model.master()
        for name in PROBLEM_ARRAYS:
            assert _bits(getattr(prob, name)) == _bits(ref.master[name]), name
        # the model's arrays are read-only views of the master's (by their
        # base, as a book may leave the model no column to share)
        assert model.A_eq.base is prob.A_eq.base is not None
        assert not model.A_eq.flags.writeable


def test_every_master_column_has_a_row_entry_or_an_objective(books):
    # a segment without quantity, a flat extension to the price interval or
    # a flat step, would be a column that nothing moves: it gets none
    flat = 0
    for inst in books:
        model = build_model(inst)
        prob = model.master()
        rows = np.concatenate((prob.A_eq, prob.A_in))
        assert np.all((rows != 0.0).any(axis=0) | (prob.c != 0.0) | (prob.d != 0.0))
        flat += len(model.book_ids) - len(model.seg_ids)
    assert flat == 763  # columns that the model once gave them


def _leaf_calls(monkeypatch, books):
    """(fixflow, pricing): the arguments of every FixFlow and pricing call
    in exact and heuristic clears of ``books``."""
    fixflows, prices = [], []
    fix, price = driver.solve_fixflow, driver.solve_qpprice

    def fix_spy(model, x, duals, deadline=None):
        fixflows.append((inst, model, x, duals))
        return fix(model, x, duals, deadline)

    def price_spy(model, x, relax_losses=False, deadline=None, duals=None):
        prices.append((inst, model, x, relax_losses))
        return price(model, x, relax_losses, deadline, duals)

    monkeypatch.setattr(driver, "solve_fixflow", fix_spy)
    monkeypatch.setattr(driver, "solve_qpprice", price_spy)
    for inst in books:  # the book each spied call belongs to
        driver.clear_exact(inst)
        driver.clear_heuristic(inst)
    monkeypatch.undo()
    return fixflows, prices


def _first_problem(monkeypatch, call):
    """The first QpProblem that ``call()`` hands to ``pricing.solve_qp``
    (None when it hands none), and its outcome or exception."""
    seen = []
    solve = pricing.solve_qp

    def spy(prob, *args, **kwargs):
        seen.append(prob)
        return solve(prob, *args, **kwargs)

    monkeypatch.setattr(pricing, "solve_qp", spy)
    try:
        out = call()
    except PriceInfeasible as exc:
        out = exc
    monkeypatch.undo()
    return (seen[0] if seen else None), out


def test_pricing_and_fixflow_problems_equal_the_loop_built_ones(monkeypatch, books):
    fixflows, prices = _leaf_calls(monkeypatch, books)
    assert len(prices) > 300 and sum(relax for *_, relax in prices) > 100
    fixed = 0
    for instance, model, x, duals in fixflows:
        solution = model.primal(model.selection_at(x), x)
        ref = reference_fixflow_problem(instance, model, solution, duals)
        prob, _ = _first_problem(
            monkeypatch, lambda: pricing.solve_fixflow(model, x, duals)
        )
        assert (prob is None) == (ref is None)
        if prob is not None:
            fixed += 1
            for name in PROBLEM_ARRAYS:
                assert _bits(getattr(prob, name)) == _bits(getattr(ref, name)), name
    assert fixed > 100
    # each priced leaf, and the same leaf with its fills drawn at random
    # among empty, full and fractional, which the fill conditions often
    # refute before any QP; priced by the QPs (``qp_prices``), also where
    # the prices that the fills pin would answer without them
    rng = np.random.default_rng(31)
    cases = []
    for instance, model, x, relax in prices:
        cases.append((instance, model, x, relax))
        drawn = x.copy()
        n_seg = len(model.seg_ids)
        drawn[:n_seg] = rng.choice([0.0, 1.0, 0.5, 1e-8], size=n_seg) + rng.uniform(0, 1e-9, n_seg)
        cases.append((instance, model, drawn, relax))
    refuted = 0
    for instance, model, x, relax in cases:
        solution = model.primal(model.selection_at(x), x)
        prob, out = _first_problem(
            monkeypatch, lambda: qp_prices(model, x, relax)
        )
        try:
            ref = reference_price_rows(instance, model, solution, relax)
        except PriceInfeasible:
            # the fill conditions alone refute it, before any QP
            assert prob is None and isinstance(out, PriceInfeasible)
            refuted += 1
            continue
        got = (prob.lb, prob.ub, prob.A_eq, prob.b_eq, prob.A_in, prob.b_in)
        for name, a, b in zip(("lb", "ub", "A_eq", "b_eq", "A_in", "b_in"), got, ref):
            assert _bits(a) == _bits(b), name
    assert 100 < refuted < len(cases) - 400
