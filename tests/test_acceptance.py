"""End-to-end acceptance suite.

Each test prints a single PASS line when its criterion holds (run with
pytest -s to see them).
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from daclear.core import (
    PriceVector,
    PrimalSolution,
    clearing_residuals,
    presolve_price_bounds,
    surplus_report,
    welfare_of,
)
from daclear import driver
from daclear.driver import clear_exact, clear_heuristic
from daclear.master import solve_master
from daclear.model import build_model
from daclear.qp import QpProblem, solve_qp
from daclear.verify import (
    _flow_general,
    check_bid_prices,
    check_filling,
    check_flow_price,
    oracle_clear,
)

from helpers import (
    appendix_a, check_filling_gamma, check_kkt, diamond, executed_bids, f3, fixflow, flow_fast_path,
    qpprice, ramp_fixture, random_instance, total_loss,
)

SUITE_SIZE = 200
SUITE_EXPECTED = Path(__file__).resolve().parent / "data" / "suite_expected.json"


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _run_suite():
    t0 = time.monotonic()
    rows = []
    for seed in range(SUITE_SIZE):
        inst = random_instance(seed)
        rows.append(
            {
                "instance": inst,
                "oracle": oracle_clear(inst),
                "exact": clear_exact(inst),
                "heuristic": clear_heuristic(inst),
            }
        )
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def suite():
    """Shared 200-instance randomized run used by criteria 3, 4 and 10 and
    by the recorded-outcome check."""
    return _run_suite()


def _outcome(result):
    """Status, executed bids and welfare of one clear, as JSON data."""
    sel = None if result.solution is None else result.solution.selection
    blocks, flex = (None, None) if sel is None else executed_bids(sel)
    return {
        "status": result.status,
        "blocks": blocks,
        "flex": None if flex is None else [list(x) for x in flex],
        "welfare": result.welfare if math.isfinite(result.welfare) else None,
    }


def _suite_outcomes(rows):
    return [
        {"seed": seed, "exact": _outcome(row["exact"]), "heuristic": _outcome(row["heuristic"])}
        for seed, row in enumerate(rows)
    ]


def test_suite_matches_recorded_outcomes(suite):
    """Both modes reproduce the recorded statuses and selections exactly,
    and the recorded welfare within 1e-9, on every suite seed."""
    rows, _ = suite
    expected = json.loads(SUITE_EXPECTED.read_text())
    observed = _suite_outcomes(rows)
    assert len(observed) == len(expected)
    for got, want in zip(observed, expected):
        for mode in ("exact", "heuristic"):
            g, w = got[mode], want[mode]
            context = (got["seed"], mode)
            assert (g["status"], g["blocks"], g["flex"]) == (
                w["status"], w["blocks"], w["flex"]
            ), context
            if w["welfare"] is None:
                assert g["welfare"] is None, context
            else:
                assert g["welfare"] == pytest.approx(w["welfare"], abs=1e-9), context


def test_criterion_1_golden_fixture():
    t0 = time.monotonic()
    res = clear_exact(appendix_a())
    elapsed = time.monotonic() - t0
    assert res.status == "optimal"
    assert res.solution.selection.executed_keys() == [("block", "c"), ("block", "d")]
    assert res.prices["X", 0] == pytest.approx(3.0, abs=1e-9)
    assert res.welfare == pytest.approx(2.0, abs=1e-9)
    assert elapsed < 1.0
    _ok(1, f"golden 4-bid fixture in {elapsed:.3f}s")


def test_criterion_2_intermediate_steps():
    inst = appendix_a()
    model = build_model(inst)
    cut_free = solve_master(model)
    assert cut_free.objective == pytest.approx(3.0, abs=1e-9)
    assert executed_bids(cut_free.selection)[0] == ["a", "b", "c", "d"]

    res = clear_exact(inst)
    assert sum(rec.cuts_added for rec in res.iterations) >= 1

    full = fixflow(model, model.primal(cut_free.selection, cut_free.x), cut_free.duals)
    relaxed = qpprice(model, full, relax_losses=True)
    loss = total_loss(inst, full.selection, relaxed)
    assert loss > 0
    _ok(2, f"cut-free objective 3, cuts fired, relaxed loss {loss:.3f}")


def test_criterion_3_oracle_equivalence(suite):
    """Exact mode reaches the oracle's welfare on every suite seed, and its
    solution passes the solution checkers, all inside 300 s.

    Independent of the clear: the checkers (``check_filling``,
    ``check_flow_price``, ``check_bid_prices`` and ``clearing_residuals``),
    written from the instance, so a wrong acceptance would show; and the
    oracle's enumeration and ranking of every selection.  Not independent:
    the oracle decides each candidate with the clear's own leaf check
    (``driver._check_leaf``: FixFlow, strict pricing and the curtailment
    check), so the welfare comparison checks the search, not the verdicts.
    The price verdicts have their own check against HiGHS
    (``test_verify.py``, ``test_every_candidates_price_verdict_agrees_with_highs``);
    the curtailment verdict has none."""
    rows, elapsed = suite
    for row in rows:
        inst, o, e = row["instance"], row["oracle"], row["exact"]
        assert e.welfare == pytest.approx(o.welfare, abs=1e-7)
        sol, prices = e.solution, e.prices
        assert check_filling(inst, sol.delta, prices, tol=1e-6).passed
        assert check_flow_price(inst, sol.flows, prices, tol=1e-6).passed
        assert check_bid_prices(inst, sol.selection, prices, tol=1e-6).passed
        res = clearing_residuals(inst, sol)
        assert max(abs(r) for r in res.values()) <= 1e-6
    assert elapsed < 300.0
    _ok(3, f"{len(rows)} instances, oracle == exact, all checks, {elapsed:.1f}s")


def test_criterion_4_heuristic_dominance(suite):
    rows, _ = suite
    optimal = 0
    gaps = []
    for row in rows:
        h, e = row["heuristic"], row["exact"]
        assert h.welfare <= e.welfare + 1e-9
        gap = (e.welfare - h.welfare) / max(1.0, abs(e.welfare))
        gaps.append(gap)
        if gap <= 1e-9:
            optimal += 1
    frac = optimal / len(rows)
    _ok(4, f"heuristic <= exact; fraction optimal {frac:.2%}, "
           f"mean gap {np.mean(gaps):.3e}")


def test_criterion_5_congestion_fixture():
    inst = f3()
    res = clear_exact(inst)
    assert res.solution.flows["c1", 0] == pytest.approx(20.0, abs=1e-6)
    assert res.prices["R", 0] == pytest.approx(10.0, abs=1e-6)
    assert res.prices["S", 0] == pytest.approx(40.0, abs=1e-6)
    rep = surplus_report(inst, res.solution, res.prices)
    assert rep.congestion["c1", 0] == pytest.approx(600.0, abs=1e-6)
    _ok(5, "congested pair: prices 10/40, flow 20, rent 600")


def test_criterion_6_ramp_reflection():
    inst = ramp_fixture()
    res = clear_exact(inst)
    f0, f1 = res.solution.flows["c1", 0], res.solution.flows["c1", 1]
    assert abs(f1 - f0) == pytest.approx(6.0, abs=1e-6)  # ramp binds
    d0 = res.prices["S", 0] - res.prices["R", 0]
    d1 = res.prices["S", 1] - res.prices["R", 1]
    assert abs(d0) > 1e-3
    assert d0 == pytest.approx(-d1, abs=1e-6)
    _ok(6, f"ramp binding, price spreads {d0:.2f} / {d1:.2f} reflect")


def test_criterion_7_flow_symmetry():
    inst = diamond()
    res = clear_exact(inst)
    flows = res.solution.flows
    top = flows["RA", 0]
    assert top == pytest.approx(flows["AS", 0], abs=1e-6)
    assert top == pytest.approx(flows["RB", 0], abs=1e-6)
    assert top == pytest.approx(flows["BS", 0], abs=1e-6)
    assert top == pytest.approx(50.0, abs=1e-6)

    # rerouting everything over one path changes no fill, hence no welfare
    rerouted = PrimalSolution(
        selection=res.solution.selection,
        delta=res.solution.delta,
        flows={("RA", 0): 100.0, ("AS", 0): 100.0, ("RB", 0): 0.0, ("BS", 0): 0.0},
    )
    resid = clearing_residuals(inst, rerouted)
    assert max(abs(r) for r in resid.values()) <= 1e-9
    assert welfare_of(inst, rerouted) == pytest.approx(
        welfare_of(inst, res.solution), abs=1e-9
    )
    _ok(7, "symmetric routes split 50/50, welfare route-invariant")


def test_criterion_8_checker_cross_validation():
    rng = np.random.default_rng(2026)
    fill_samples = 0
    seed = 0
    while fill_samples < 1000:
        inst = random_instance(seed)
        seed += 1
        for _ in range(20):
            delta = {s.id: float(rng.uniform(-0.1, 1.1)) for s in inst.segments}
            prices = PriceVector(pi={
                (a, t): float(rng.uniform(inst.interval.lower, inst.interval.upper))
                for a in inst.areas for t in range(inst.hours)
            })
            a = check_filling(inst, delta, prices).passed
            b = check_filling_gamma(inst, delta, prices).passed
            assert a == b
            fill_samples += 1

    flow_samples = 0
    seed = 0
    while flow_samples < 1000:
        inst = random_instance(seed)
        seed += 1
        conns = [c for c in inst.interconnectors if c.ramp_rate is None]
        if not conns:
            continue
        for _ in range(25):
            flows = {}
            for c in conns:
                for t in range(inst.hours):
                    lo, hi = c.lower[t], c.upper[t]
                    flows[c.id, t] = (
                        float(rng.uniform(lo, hi))
                        if rng.random() < 0.7
                        else float(rng.choice([lo, hi]))
                    )
            prices = PriceVector(pi={
                (a, t): float(rng.uniform(inst.interval.lower, inst.interval.upper))
                for a in inst.areas for t in range(inst.hours)
            })
            for c in conns:
                fast = not flow_fast_path(inst, c, flows, prices, 1e-6)
                general = not _flow_general(inst, c, flows, prices, 1e-6)
                assert fast == general
                flow_samples += 1
    _ok(8, f"{fill_samples} fill samples and {flow_samples} flow samples agree")


def _random_qp(rng, n, box_only=False):
    d = -rng.uniform(0.0, 2.0, size=n)
    d[rng.random(n) < 0.3] = 0.0
    c = rng.uniform(-5, 5, size=n)
    lb = rng.uniform(-4, -1, size=n)
    ub = rng.uniform(1, 4, size=n)
    if box_only:
        m_eq = m_in = 0
    else:
        m_eq = int(rng.integers(0, min(n, 3) + 1))
        m_in = int(rng.integers(0, 4))
    return QpProblem(
        c=c, d=d,
        A_eq=rng.uniform(-2, 2, size=(m_eq, n)), b_eq=rng.uniform(-3, 3, size=m_eq),
        A_in=rng.uniform(-2, 2, size=(m_in, n)), b_in=rng.uniform(0, 5, size=m_in),
        lb=lb, ub=ub,
    )


def test_criterion_9_qp_property_suite():
    rng = np.random.default_rng(99)
    solved = 0
    for _ in range(1000):
        prob = _random_qp(rng, int(rng.integers(1, 21)))
        sol = solve_qp(prob)
        again = solve_qp(prob)
        assert sol.status == again.status
        if sol.status == "optimal":
            assert np.array_equal(sol.x, again.x)
            assert check_kkt(prob, sol).max_residual <= 1e-8
            solved += 1
    assert solved >= 500

    # box-only problems are separable: per-axis fine grids are an exact
    # stand-in for the full grid
    grid_checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        prob = _random_qp(rng, n, box_only=True)
        sol = solve_qp(prob)
        assert sol.status == "optimal"
        best = 0.0
        for j in range(n):
            xs = np.linspace(prob.lb[j], prob.ub[j], 5001)
            best += float(np.max(prob.c[j] * xs + 0.5 * prob.d[j] * xs * xs))
        assert sol.objective == pytest.approx(best, abs=1e-4)
        grid_checked += 1
    _ok(9, f"{solved} optimal solves, KKT <= 1e-8, {grid_checked} grid matches")


def test_criterion_10_presolve_soundness(suite, monkeypatch):
    rows, _ = suite
    build = driver.build_model
    monkeypatch.setattr(driver, "build_model", lambda inst: replace(build(inst), fixed_cols=()))
    fixings_checked = 0
    for row in rows:
        inst, o = row["instance"], row["oracle"]
        bounds = presolve_price_bounds(inst)
        for key, price in o.prices.pi.items():
            assert bounds[key].contains(price, tol=1e-6)
        e = row["exact"]
        plain = clear_exact(inst)
        assert plain.status == e.status
        if e.status == "optimal":
            assert e.welfare == pytest.approx(plain.welfare, abs=1e-7)
            fixings_checked += 1
    _ok(10, f"bounds contain oracle prices, {fixings_checked} fixing checks clean")


if __name__ == "__main__":
    # rewrite the recorded suite outcomes: PYTHONPATH=src python tests/test_acceptance.py
    SUITE_EXPECTED.parent.mkdir(exist_ok=True)
    lines = [json.dumps(entry) for entry in _suite_outcomes(_run_suite()[0])]
    SUITE_EXPECTED.write_text("[\n" + ",\n".join(lines) + "\n]\n")
