"""Command-line entry points: clear, verify, oracle."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import io
from .core import (
    Instance,
    PriceVector,
    PrimalSolution,
    clearing_residuals,
    welfare_of,
)
from .cuts import curtailment_violations
from .driver import ClearOptions, ClearingResult, clear_exact, clear_heuristic
from .errors import (
    ModelError,
    OutputError,
    PriceInfeasible,
    SchemaError,
    SolverFailure,
    UnknownId,
)
from .tolerances import CHECK_TOL, DEFAULT_GAP
from .verify import (
    check_bid_prices,
    check_bounds,
    check_filling,
    check_flow_price,
    check_links,
    oracle_clear,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_INPUT = 4
EXIT_SOLVER = 5
EXIT_OUTPUT = 6


def _load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError("$", f"cannot read {path}: {exc.strerror}") from None
    return io.parse_instance(text)


def _result_doc(instance: Instance, result: ClearingResult) -> dict:
    """Output document; a welfare, bound or gap that is not finite (no
    candidate yet, or a master stopped before its root) is written as null."""
    scores = {
        name: value if math.isfinite(value) else None
        for name, value in (
            ("welfare", result.welfare), ("bound", result.bound), ("gap", result.gap)
        )
    }
    fields = dict(
        status=result.status,
        mode=result.mode,
        **scores,
        prbs=[list(p) for p in result.prbs],
        warnings=list(result.warnings),
        iterations=[io.record_doc(rec) for rec in result.iterations],
    )
    if result.solution is None:
        return {"selection": None, "delta": None, "flows": None, "prices": None, **fields}
    return io.solution_to_doc(instance, result.solution, result.prices, **fields)


def _emit(doc: dict, out: str | None) -> None:
    text = io.dump_document(doc)
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cmd_clear(args) -> int:
    instance = _load_instance(args.instance)
    options = ClearOptions(abs_gap=args.abs_gap, time_limit=args.time_limit)
    solver = clear_exact if args.mode == "exact" else clear_heuristic
    result = solver(instance, options)
    if result.status == "infeasible":
        print("error: no feasible clearing exists under the given cuts", file=sys.stderr)
        return EXIT_INFEASIBLE
    _emit(_result_doc(instance, result), args.out)
    return EXIT_LIMIT if result.status == "limit" else EXIT_OK


def _cmd_oracle(args) -> int:
    instance = _load_instance(args.instance)
    result = oracle_clear(instance)
    _emit(_result_doc(instance, result), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    """Check a solution document and write the report: one entry and one
    part of ``pass`` per ``ConditionReport`` in ``reports``, besides the
    balance residual, curtailment priority and welfare."""
    instance = _load_instance(args.instance)
    try:
        text = Path(args.solution).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError("$", f"cannot read {args.solution}: {exc.strerror}") from None
    selection, delta, flows, price_map = io.parse_solution(text)
    solution = PrimalSolution(selection=selection, delta=delta, flows=flows)
    if price_map is None:
        raise SchemaError("$.prices", "verification needs prices")
    _check_ids(instance, selection, flows, price_map)
    for key in ((a, t) for a in instance.areas for t in range(instance.hours)):
        if key not in price_map:
            raise SchemaError("$.prices", f"no price for area {key[0]!r}, hour {key[1]}")
    prices = PriceVector(pi=price_map)

    residuals = clearing_residuals(instance, solution)
    balance = max(abs(v) for v in residuals.values())
    reports = {
        "bounds": check_bounds(instance, delta, flows, tol=args.tol),
        "filling": check_filling(instance, delta, prices, tol=args.tol),
        "flow_price": check_flow_price(instance, flows, prices, tol=args.tol),
        "bid_prices": check_bid_prices(instance, selection, prices, tol=args.tol),
        "links": check_links(instance, selection),
    }
    curt = curtailment_violations(instance, solution, tol=args.tol)
    doc = {
        "pass": balance <= args.tol and all(r.passed for r in reports.values()) and not curt,
        "clearing_balance_residual": balance,
        **{name: {"pass": r.passed, "violations": [io.record_doc(v) for v in r.violations]}
           for name, r in reports.items()},
        "curtailment_priority": {
            "pass": not curt,
            "violations": [
                {"area": a, "hour": t, "blocks": list(s.blocks),
                 "flex": [list(x) for x in s.flex]}
                for (a, t), s in sorted(curt.items())
            ],
        },
        "welfare": welfare_of(instance, solution),
    }
    _emit(doc, getattr(args, "out", None))
    return EXIT_OK


def _check_ids(instance: Instance, selection, flows, prices) -> None:
    """UnknownId for a selection, flow or price entry that names a bid,
    interconnector, area or hour the instance lacks."""
    for bid in selection.blocks:
        if ("block", bid) not in instance.bid_terms:
            raise UnknownId(f"unknown block id {bid!r}")
    for fid in selection.flex:
        if fid not in instance.flex_by_id:
            raise UnknownId(f"unknown flex id {fid!r}")
    hours = range(instance.hours)
    interconnectors = {c.id for c in instance.interconnectors}
    for cid, t in flows:
        if cid not in interconnectors or t not in hours:
            raise UnknownId(f"flow on unknown interconnector {cid!r} or hour {t}")
    for a, t in prices:
        if a not in instance.areas or t not in hours:
            raise UnknownId(f"price for unknown area {a!r} or hour {t}")


def _non_negative(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daclear",
        description="Day-ahead market clearing with linear price guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_clear = sub.add_parser("clear", help="clear an instance")
    p_clear.add_argument("--instance", required=True)
    p_clear.add_argument("--mode", choices=("heuristic", "exact"), default="exact")
    p_clear.add_argument("--time-limit", type=_non_negative, default=None)
    p_clear.add_argument("--abs-gap", type=_non_negative, default=DEFAULT_GAP)
    p_clear.add_argument("--out", default=None)
    p_clear.set_defaults(func=_cmd_clear)

    p_verify = sub.add_parser("verify", help="check a solution document")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--solution", required=True)
    p_verify.add_argument("--tol", type=_non_negative, default=CHECK_TOL)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force clearing of a small instance")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SolverFailure as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PriceInfeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


def main() -> None:
    sys.exit(run())
