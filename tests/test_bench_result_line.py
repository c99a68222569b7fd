"""The benchmark's last output line is one strict JSON result.

``bench/run.py`` runs in this process on a one-second stream of each
gated workload, untraced and traced.  Its results file is not written."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main adds src and bench
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    for var in run.BLAS_ENV:  # main sets them; restored afterwards
        monkeypatch.setenv(var, str(run.BLAS_THREADS))
    monkeypatch.setattr(
        run, "write_results", lambda stem, payload: run.RESULTS_DIR / f"{stem}.json"
    )
    return run


@pytest.mark.parametrize("trace, metrics", [(0, 4), (1, 40)])
@pytest.mark.parametrize("workload", ["paradox", "day-book"])
def test_last_line_is_a_correct_result_with_finite_metrics(
    bench_run, capsys, workload, trace, metrics
):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    assert bench_run.main(argv) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_refuse)
    assert result["correct"] is True
    assert len(result["metrics"]) == metrics
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
