"""The benchmark's tracer (``bench/tracing.py``) still finds every function
it wraps: a traced metric of a function that is gone reads ``null``."""

import importlib
from pathlib import Path

from daclear import verify

from helpers import appendix_a

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_traced_function(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    with tracing.Tracer() as tracer:
        verify.oracle_clear(appendix_a())
    assert tracer.absent == []
    names = {(s.name, s.site) for s in tracer.spans}
    assert ("relaxation.solve_relaxation", "verify") in names
    assert ("qp.solve_qp", "relaxation") in names
