"""Tests of the benchmark itself: generator, tracer and failure accounting.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import types
from pathlib import Path

import pytest

import generate
import run
import tracing

MODS = run._import_program()


@pytest.mark.parametrize("family", generate.FAMILIES)
def test_generator_is_byte_identical_per_seed(family):
    assert generate.instance_text(family, 7) == generate.instance_text(family, 7)
    assert generate.instance_text(family, 7) != generate.instance_text(family, 8)


def test_small_suite_reproduces_baseline_qp_counts():
    """Seeds 0-49 take 729 / 349 / 736 QP solves in exact / heuristic / oracle."""
    pool = [run.load_instance(MODS, "small-suite", s) for s in range(50)]
    counts = {}
    for mode in ("exact", "heuristic", "oracle"):
        with tracing.Tracer() as tracer:
            tracer.clear = ("clear", 0, mode)
            for inst in pool:
                run.clear_once(MODS, mode, inst)
        counts[mode] = sum(1 for s in tracer.spans if s.name == "qp.solve_qp")
    assert counts == {"exact": 729, "heuristic": 349, "oracle": 736}


def _span(parent, start, end):
    return tracing.Span("x.f", "x", ("clear", 0, "exact"), parent, start, end)


def test_self_time_subtracts_child_coverage_once():
    spans = [
        _span(-1, 0.0, 10.0),
        _span(0, 1.0, 3.0),
        _span(0, 2.0, 4.0),    # overlaps its sibling: [1, 4] is covered once
        _span(1, 1.5, 2.5),    # grandchild: not part of the root's coverage
        _span(0, 8.0, 12.0),   # clipped to the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10.0 - 3.0 - 2.0, 2.0 - 1.0, 2.0, 1.0, 4.0])


def test_tracer_rebinds_every_import_site_and_restores():
    import daclear.master
    import daclear.pricing
    import daclear.qp

    original = daclear.qp.solve_qp
    with tracing.Tracer() as tracer:
        assert daclear.master.solve_qp is not original
        assert daclear.pricing.solve_qp is not original
        tracer.clear = ("clear", 0, "heuristic")
        run.clear_once(MODS, "heuristic", run.load_instance(MODS, "day-book", 1))
    assert daclear.master.solve_qp is original and daclear.qp.solve_qp is original
    sites = {s.site for s in tracer.spans if s.name == "qp.solve_qp"}
    assert {"master", "pricing"} <= sites
    assert all(s.parent >= 0 for s in tracer.spans if s.name == "qp.solve_qp")


def test_missing_function_reads_absent_not_zero(monkeypatch):
    layers = dict(tracing.LAYERS)
    layers["relaxation"] = ("daclear.relaxation", ("solve_relaxation_gone",))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    with tracing.Tracer() as tracer:
        pass
    metrics = tracing.layer_metrics(tracer, [])
    assert tracer.absent == ["relaxation.solve_relaxation_gone"]
    assert metrics["relaxation.solves"] is None
    assert metrics["qp.relaxation.solves"] is None
    assert metrics["qp.solves"] == 0


def test_price_infeasible_is_counted_not_fatal():
    from daclear.errors import PriceInfeasible

    def raising_exact(instance, options):
        raise PriceInfeasible("no loss-free supporting price")

    real = MODS["driver"]
    driver = types.SimpleNamespace(
        ClearOptions=real.ClearOptions, clear_exact=raising_exact,
        clear_heuristic=real.clear_heuristic,
    )
    mods = {**MODS, "driver": driver}
    pool = [run.load_instance(mods, "paradox", s) for s in range(3)]
    clears = run.clear_stream(mods, "paradox", pool, first=0, count=3)
    check = run.check_all(mods, pool, clears)
    assert [r.error for r in clears if r.mode == "exact"] == ["PriceInfeasible"] * 3
    assert all(r.ok for r in clears if r.mode != "exact")
    assert check["correct"]
    line = json.loads(run.result_line(check["correct"], clears, {}, run.unit_of))
    assert (line["attempted"], line["failed"]) == (9, 3)
    metrics = run.end_to_end("paradox", clears, setup_s=1.0)
    assert metrics["failed_share"] == pytest.approx(3 / 9)
    assert metrics["exact.clears_per_s"] == 0.0


def test_reference_units_divide_cpu_time():
    clears = [
        run.Clear(0, 0, "exact", 0.3, cpu_seconds=0.2, ref_seconds=0.002, result=object()),
        run.Clear(1, 1, "exact", 0.5, cpu_seconds=0.4, ref_seconds=0.001, result=object()),
        run.Clear(2, 2, "exact", 0.1, cpu_seconds=0.1, ref_seconds=0.001, error="PriceInfeasible"),
    ]
    m = run.mode_metrics(clears, "exact")
    # the failed clear reads +inf
    assert m["exact.clear_ref.p50"] == pytest.approx(400.0)
    assert m["exact.clear_s.p50"] == pytest.approx(0.5)
    assert m["exact.samples"] == 3
    assert run.Reference()() > 0.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
