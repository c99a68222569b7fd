"""Span tracing installed from outside the program.

The tracer wraps the public functions of each ``daclear`` layer.  It finds
every ``daclear.*`` module attribute that holds one of those functions,
including names a module imported with ``from .qp import solve_qp``, and
rebinds it to a wrapper.  Each call records a span: name, start, end,
parent span and the clear it belongs to.  Nothing in ``src/`` changes, and
``uninstall`` puts every original binding back.

A function that no longer exists is recorded as absent, and the metrics
of its layer read ``None`` rather than 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# layer -> (defining module, public functions wrapped)
LAYERS = {
    "qp": ("daclear.qp", ("solve_qp",)),
    "master": ("daclear.master", ("solve_master",)),
    "pricing": ("daclear.pricing", ("solve_fixflow", "solve_qpprice")),
    "cuts": ("daclear.cuts", (
        "loss_sets", "curtailment_violations", "bid_cut", "no_good_cut",
        "curtailment_cut",
    )),
    "driver": ("daclear.driver", ("clear_exact", "clear_heuristic")),
    "relaxation": ("daclear.relaxation", ("solve_relaxation",)),
    "verify": ("daclear.verify", (
        "oracle_clear", "check_filling", "check_flow_price", "check_bid_prices",
    )),
    "core": ("daclear.core", ("presolve_price_bounds",)),
    "io": ("daclear.io", (
        "parse_instance", "serialize_instance", "solution_to_doc", "dump_document",
    )),
}


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    site: str  # module whose binding was called, e.g. "master" for master.solve_qp
    clear: Optional[tuple]  # (kind, instance index, mode) active at call time
    parent: int  # index of the enclosing span, -1 at the top
    start: float = 0.0
    end: float = 0.0
    error: Optional[str] = None  # exception type name when the call raised
    info: Optional[dict] = None


def _qp_info(args, kwargs, result):
    prob = args[0]
    x0 = kwargs.get("x0", args[2] if len(args) > 2 else None)
    rows = len(prob.b_eq) + len(prob.b_in)
    rows += int(np.isfinite(prob.lb).sum() + np.isfinite(prob.ub).sum())
    return {
        "cols": prob.n, "rows": rows, "cold": x0 is None,
        "status": result.status, "iterations": result.iterations,
    }


_INFO = {
    "qp.solve_qp": _qp_info,
    "master.solve_master": lambda a, k, r: {"nodes": r.nodes},
    "verify.oracle_clear": lambda a, k, r: {"price_tests": len(r.frontier or ())},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.clear: Optional[tuple] = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------
    def install(self) -> "Tracer":
        for layer, (modname, names) in LAYERS.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.extend(f"{layer}.{n}" for n in names)
                continue
            for fname in names:
                original = getattr(module, fname, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                self._rebind(f"{layer}.{fname}", original)
        return self

    def _rebind(self, name, original):
        for modname, module in list(sys.modules.items()):
            if modname != "daclear" and not modname.startswith("daclear."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    site = modname.rpartition(".")[2]
                    setattr(module, attr, self._wrap(original, name, site))
                    self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, site):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, site, self.clear, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def is_absent(self, layer: str) -> bool:
        return any(name.startswith(layer + ".") for name in self.absent)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class _Agg:
    calls: int = 0
    total: float = 0.0
    max_s: float = 0.0
    errors: dict = field(default_factory=lambda: defaultdict(int))


def aggregate(spans: list[Span], kind: str) -> dict:
    """Totals per name and per (name, site) over spans of one context kind."""
    out: dict = defaultdict(_Agg)
    for s in spans:
        if s.clear is None or s.clear[0] != kind:
            continue
        dur = s.end - s.start
        for key in (s.name, (s.name, s.site)):
            agg = out[key]
            agg.calls += 1
            agg.total += dur
            agg.max_s = max(agg.max_s, dur)
            if s.error:
                agg.errors[s.error] += 1
    return out


# per-layer metrics printed by a traced run: (name, unit, better)
PER_LAYER = (
    ("qp.solves", "count", "lower"),
    ("qp.solve_s", "s", "lower"),
    ("qp.ms_per_solve", "ms", "lower"),
    ("qp.iterations", "count", "lower"),
    ("qp.cold_share", "ratio", "lower"),
    ("qp.not_optimal", "count", "lower"),
    ("qp.cols.mean", "count", "lower"),
    ("qp.rows.mean", "count", "lower"),
    ("qp.solve_ms.max", "ms", "lower"),
    ("qp.master.solves", "count", "lower"),
    ("qp.master.solve_s", "s", "lower"),
    ("qp.pricing.solves", "count", "lower"),
    ("qp.pricing.solve_s", "s", "lower"),
    ("qp.relaxation.solves", "count", "lower"),
    ("qp.relaxation.solve_s", "s", "lower"),
    ("master.calls", "count", "lower"),
    ("master.self_s", "s", "lower"),
    ("master.nodes", "count", "lower"),
    ("master.qp_per_node", "ratio", "lower"),
    ("driver.iterations", "count", "lower"),
    ("driver.self_s", "s", "lower"),
    ("driver.exact_warm_s", "s", "lower"),
    ("driver.master_useful_ratio", "ratio", "higher"),
    ("cuts.added", "count", "lower"),
    ("cuts.s", "s", "lower"),
    ("pricing.fixflow.calls", "count", "lower"),
    ("pricing.fixflow.self_s", "s", "lower"),
    ("pricing.qpprice.calls", "count", "lower"),
    ("pricing.qpprice.self_s", "s", "lower"),
    ("pricing.qpprice.infeasible", "count", "lower"),
    ("relaxation.solves", "count", "lower"),
    ("relaxation.self_s", "s", "lower"),
    ("verify.oracle.price_tests", "count", "lower"),
    ("verify.oracle.useful_ratio", "ratio", "higher"),
    ("verify.check_s", "s", "lower"),
    ("core.presolve_s", "s", "lower"),
    ("io.parse_s", "s", "lower"),
    ("io.dump_s", "s", "lower"),
    ("trace.overhead.exact.clears_per_s", "1/s", "higher"),
    ("trace.overhead.heuristic.clears_per_s", "1/s", "higher"),
)
_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def unit_of(name: str) -> str:
    return _UNITS.get(name, "")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, clears) -> dict:
    """Per-layer metrics from the tracer's spans and the traced clears.

    ``clears`` are the benchmark's records (``mode``, ``ok``, ``result``).
    Metrics of a layer with an absent function are ``None``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    in_clear = [s.clear is not None and s.clear[0] == "clear" for s in spans]
    A = aggregate(spans, "clear")
    C = aggregate(spans, "check")
    IO = aggregate(spans, "io")

    def total(agg, *names):
        return sum(agg[n].total for n in names if n in agg)

    def calls(agg, *names):
        return sum(agg[n].calls for n in names if n in agg)

    def self_s(*names):
        return sum(own for s, own, c in zip(spans, selfs, in_clear) if c and s.name in names)

    qp_info = [s.info for s, c in zip(spans, in_clear)
               if c and s.name == "qp.solve_qp" and s.info is not None]
    n_qp = len(qp_info)
    done = [r for r in clears if r.ok]
    loops = [r for r in done if r.mode in ("exact", "heuristic")]
    iterations = [rec for r in loops for rec in r.result.iterations]
    master_calls = calls(A, "master.solve_master")
    nodes = sum(s.info["nodes"] for s, c in zip(spans, in_clear)
                if c and s.name == "master.solve_master" and s.info is not None)
    warm = sum(s.end - s.start for s, c in zip(spans, in_clear)
               if c and s.name == "driver.clear_heuristic" and s.parent >= 0
               and spans[s.parent].name == "driver.clear_exact")
    cut_names = tuple(f"cuts.{n}" for n in LAYERS["cuts"][1])
    cuts_s = sum(s.end - s.start for s, c in zip(spans, in_clear)
                 if c and s.name in cut_names
                 and (s.parent < 0 or spans[s.parent].name not in cut_names))
    price_tests = calls(A, ("pricing.solve_qpprice", "verify"))
    oracle_done = sum(1 for r in done if r.mode == "oracle")
    qpprice = A.get("pricing.solve_qpprice")

    m = {
        "qp.solves": n_qp,
        "qp.solve_s": total(A, "qp.solve_qp"),
        "qp.ms_per_solve": 1000.0 * _ratio(total(A, "qp.solve_qp"), n_qp),
        "qp.iterations": sum(i["iterations"] for i in qp_info),
        "qp.cold_share": _ratio(sum(1 for i in qp_info if i["cold"]), n_qp),
        "qp.not_optimal": sum(1 for i in qp_info if i["status"] != "optimal"),
        "qp.cols.mean": _ratio(sum(i["cols"] for i in qp_info), n_qp),
        "qp.rows.mean": _ratio(sum(i["rows"] for i in qp_info), n_qp),
        "qp.solve_ms.max": 1000.0 * A["qp.solve_qp"].max_s if "qp.solve_qp" in A else 0.0,
    }
    for site in ("master", "pricing", "relaxation"):
        key = ("qp.solve_qp", site)
        m[f"qp.{site}.solves"] = calls(A, key)
        m[f"qp.{site}.solve_s"] = total(A, key)
    m.update({
        "master.calls": master_calls,
        "master.self_s": self_s("master.solve_master"),
        "master.nodes": nodes,
        "master.qp_per_node": _ratio(calls(A, ("qp.solve_qp", "master")), nodes),
        "driver.iterations": len(iterations),
        "driver.self_s": self_s("driver.clear_exact", "driver.clear_heuristic"),
        "driver.exact_warm_s": warm,
        "driver.master_useful_ratio": _ratio(len(loops), master_calls),
        "cuts.added": sum(rec.cuts_added for rec in iterations),
        "cuts.s": cuts_s,
        "pricing.fixflow.calls": calls(A, "pricing.solve_fixflow"),
        "pricing.fixflow.self_s": self_s("pricing.solve_fixflow"),
        "pricing.qpprice.calls": calls(A, "pricing.solve_qpprice"),
        "pricing.qpprice.self_s": self_s("pricing.solve_qpprice"),
        "pricing.qpprice.infeasible":
            qpprice.errors.get("PriceInfeasible", 0) if qpprice else 0,
        "relaxation.solves": calls(A, "relaxation.solve_relaxation"),
        "relaxation.self_s": self_s("relaxation.solve_relaxation"),
        "verify.oracle.price_tests": price_tests,
        "verify.oracle.useful_ratio": _ratio(oracle_done, price_tests),
        "verify.check_s": total(C, *(f"verify.{n}" for n in
                                     ("check_filling", "check_flow_price", "check_bid_prices"))),
        "core.presolve_s": total(A, "core.presolve_price_bounds"),
        "io.parse_s": total(IO, "io.parse_instance"),
        "io.dump_s": total(C, "io.solution_to_doc", "io.dump_document"),
    })
    absent = {layer for layer in LAYERS if tracer.is_absent(layer)}
    for name in m:
        parts = name.split(".")
        if parts[0] in absent or (parts[0] == "qp" and parts[1] in absent):
            m[name] = None
    return m
