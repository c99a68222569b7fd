"""Clearing benchmark: seeded instance streams cleared in a closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload paradox --seed 1 --seconds 45 --trace 0

One client in one process clears instance after instance, each in every
mode the workload names.  A run clears a fixed number of instances, the
number this workload clears in about ``--seconds`` on a 2-CPU host, so a
seed always gives the same clears and the same failures; a run that is
still going at ``GUARD`` times ``--seconds`` stops early.  Instance ``i``
of a run is the workload family's instance at seed ``--seed * 1000 + i``,
so runs with different seeds clear disjoint instances.  The program only
sees the parsed documents: every instance is generated, serialized with
``daclear.io.serialize_instance`` and parsed back before it is cleared.

``--trace 0`` times the clears untraced and prints the end-to-end metrics.
Each clear is timed in wall time and in CPU time of this process, and
right before each instance a fixed piece of reference work
(``Reference``) is timed in CPU time too.  The gated latencies are the
median of clear CPU time divided by the reference's CPU time, in
reference units: the host's speed drifts by a tenth or more within a
minute, because other tenants share its cores and caches, and the
reference moves with it while the program does not change it.  Wall and
CPU seconds are printed alongside.
``--trace 1`` clears a fixed prefix of the stream twice, untraced and then
with spans recorded around every layer's public functions (see
``tracing.py``), and prints the per-layer metrics and the tracing overhead.

Every output is checked: the price/fill, flow/price and no-loss checkers
at 1e-6, clearing residuals at 1e-6, heuristic welfare not above exact,
and exact equal to the oracle where the oracle runs.  Exceptions,
unexpected statuses and failed checks count as failed clears; the run
goes on.  A table goes to standard output, a results file to
``bench/results/``, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    modes: tuple  # modes each instance is cleared in
    per_s: float  # instances per requested second in an untraced run
    trace_per_s: float  # instances per requested second in a traced run


# BENCHMARK.json declares day-book and paradox.  small-suite runs the same
# way, but its instances range from one area and hour to two areas and
# three hours, so a run's medians move by about a quarter from seed to
# seed; it is kept for inspection and for the generator check in the tests.
WORKLOADS = {
    "small-suite": Workload(("exact", "heuristic", "oracle"), 4.0, 1.0),
    "day-book": Workload(("exact", "heuristic"), 2.2, 0.8),
    "paradox": Workload(("exact", "heuristic", "oracle"), 4.6, 2.0),
}
GUARD = 1.5  # a run stops early at GUARD * --seconds
SEED_STRIDE = 1000  # instance seeds of one run: seed * SEED_STRIDE + i
DIGEST_PREFIX = 40  # digests cover the first instances only
SETUP_REPS = 5
WARMUP_SEED = 0
CLEAR_TIME_LIMIT_S = 30.0  # a clear that reaches it counts as failed
TOL = 1e-6
P95_MIN_SAMPLES = 200

# End-to-end metrics in the JSON result line.  Every other end-to-end
# metric is printed and written to the results file only: throughput is a
# mean that the few instances with many cut rounds dominate, so it varies
# too much across seeds to bound; wall and CPU seconds move with the
# host's speed; oracle metrics exist on some workloads only; welfare
# gap and failed share are often exactly 0.
GATED = ("setup_s", "exact.clear_ref.p50", "heuristic.clear_ref.p50", "peak_rss_mb")
UNITS = {
    "setup": "s", "clears_per_s": "1/s", "clear_s": "s", "clear_cpu_s": "s",
    "clear_ref": "ref", "reference": "s",
    "welfare_gap": "ratio", "failed_share": "ratio", "peak_rss_mb": "MB",
}
EXPECTED_STATUS = {"exact": "optimal", "heuristic": "feasible", "oracle": "optimal"}


@dataclass
class Clear:
    index: int
    seed: int
    mode: str
    seconds: float  # wall time
    cpu_seconds: float = 0.0  # CPU time of this process
    ref_seconds: float = 0.0  # CPU time of the reference work before the instance
    result: object = None
    error: Optional[str] = None  # exception type, status or failed check

    @property
    def ok(self) -> bool:
        return self.error is None


# -- environment -------------------------------------------------------------


def _limit_blas_threads() -> None:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def _blas_runtime_threads() -> Optional[int]:
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_threads": _blas_runtime_threads(),
    }


# -- reference work ----------------------------------------------------------


class Reference:
    """Fixed numpy and interpreter work that measures the host's speed.

    Small dense solves, a dict-heavy loop, allocating and sorting a few
    thousand small objects and one mid-size matrix product: the QP
    engine's mix of compute and memory traffic, so that a neighbour that
    slows the caches slows this work as it slows a clear.  It uses nothing
    of ``daclear``, so no change to the program moves it.
    """

    SOLVES = 30
    SIZE = 12
    LOOP = 150
    OBJECTS = 4000
    WIDE = 300

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20120319)
        eye = self.SIZE * np.eye(self.SIZE)
        self.mats = [rng.standard_normal((self.SIZE, self.SIZE)) + eye
                     for _ in range(self.SOLVES)]
        self.rhs = rng.standard_normal(self.SIZE)
        self.keys = [(i, float(x)) for i, x in enumerate(rng.standard_normal(self.OBJECTS))]
        self.wide = rng.standard_normal((self.WIDE, self.WIDE))
        self.np = np

    def __call__(self) -> float:
        """CPU seconds of one pass."""
        np = self.np
        c0 = time.process_time()
        acc = 0.0
        table: dict = {}
        for m in self.mats:
            x = np.linalg.solve(m, self.rhs)
            r = m @ x - self.rhs
            acc += float(np.dot(r, r)) + float(np.max(np.abs(x)))
            for i in range(self.LOOP):
                table[i % 37] = table.get(i % 37, 0.0) + i * acc
        objs = sorted(((k, v, [v, k]) for k, v in self.keys), key=lambda t: t[1])
        acc += sum(t[0] for t in {k: t for k, _, t in objs}.values())
        acc += float((self.wide @ self.wide[:, :20]).sum())
        return time.process_time() - c0


# -- set-up ------------------------------------------------------------------


def _import_program():
    """Import ``daclear`` from this checkout's ``src``; None when it is missing."""
    src = ROOT / "src"
    if not (src / "daclear" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    mods = {
        name: importlib.import_module(f"daclear.{name}")
        for name in ("io", "driver", "verify", "core")
    }
    if not Path(mods["io"].__file__).resolve().is_relative_to(src.resolve()):
        return None
    return mods


def load_instance(mods, family: str, seed: int):
    """Generated document -> Instance -> canonical text -> Instance."""
    import generate

    io = mods["io"]
    return io.parse_instance(io.serialize_instance(
        io.parse_instance(generate.instance_text(family, seed))))


def clear_once(mods, mode: str, instance):
    """One clear through the module attribute, so a tracer's rebinding applies."""
    if mode == "oracle":
        return mods["verify"].oracle_clear(instance)
    options = mods["driver"].ClearOptions(time_limit=CLEAR_TIME_LIMIT_S)
    solver = mods["driver"].clear_exact if mode == "exact" else mods["driver"].clear_heuristic
    return solver(instance, options)


def setup(mods, family: str, first: int, size: int) -> tuple[list, float]:
    """Prepare the instance pool and warm up; returns (pool, median rep seconds).

    Each repetition generates and round-trips the whole pool and clears the
    warm-up instance once in every mode, so lazy first-call costs are paid
    before any clear is timed.
    """
    reps = []
    pool = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pool = [load_instance(mods, family, first + i) for i in range(size)]
        warm = load_instance(mods, family, WARMUP_SEED)
        for mode in WORKLOADS[family].modes:
            try:
                clear_once(mods, mode, warm)
            except Exception:
                pass  # a failing warm-up instance still warms the code paths
        reps.append(time.perf_counter() - t0)
    return pool, statistics.median(reps)


# -- clearing and checking ---------------------------------------------------


def clear_stream(mods, family, pool, first, count, deadline=None, tracer=None,
                 reference=None):
    """Clear the first ``count`` pool instances in order, every mode.

    Stops early, after a whole instance, once ``deadline`` has passed.
    With a ``reference``, it runs right before every instance's clears.
    """
    out = []
    for i in range(count):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        ref_s = reference() if reference is not None else 0.0
        for mode in WORKLOADS[family].modes:
            if tracer is not None:
                tracer.clear = ("clear", i, mode)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rec = Clear(i, first + i, mode, 0.0, result=clear_once(mods, mode, pool[i]))
            except Exception as exc:  # counted, reported with its seed; the run goes on
                rec = Clear(i, first + i, mode, 0.0, error=type(exc).__name__)
            rec.cpu_seconds = time.process_time() - c0
            rec.seconds = time.perf_counter() - t0
            rec.ref_seconds = ref_s
            if tracer is not None:
                tracer.clear = None
            out.append(rec)
    return out


def check_clear(mods, instance, rec: Clear) -> None:
    """Mark ``rec`` failed when its status or any solution check is wrong."""
    if not rec.ok:
        return
    res = rec.result
    if res.status != EXPECTED_STATUS[rec.mode]:
        rec.error = f"status:{res.status}"
        return
    verify, core = mods["verify"], mods["core"]
    sol, prices = res.solution, res.prices
    try:
        checks = {
            "filling": verify.check_filling(instance, sol.delta, prices, tol=TOL).passed,
            "flow-price": verify.check_flow_price(instance, sol.flows, prices, tol=TOL).passed,
            "bid-prices": verify.check_bid_prices(instance, sol.selection, prices, tol=TOL).passed,
            "residuals": max(
                (abs(r) for r in core.clearing_residuals(instance, sol).values()), default=0.0
            ) <= TOL,
        }
    except Exception as exc:
        rec.error = f"check-raised:{type(exc).__name__}"
        return
    bad = [name for name, passed in checks.items() if not passed]
    if bad:
        rec.error = "check:" + ",".join(bad)


def check_instance(recs: dict) -> list[str]:
    """Cross-mode checks on one instance; returns the failed check names."""
    bad = []
    e, h, o = recs.get("exact"), recs.get("heuristic"), recs.get("oracle")
    if e and h and e.ok and h.ok and h.result.welfare > e.result.welfare + 1e-9:
        bad.append("heuristic-above-exact")
    if e and o and e.ok and o.ok and abs(e.result.welfare - o.result.welfare) > 1e-7:
        bad.append("exact-not-oracle")
    return bad


def check_all(mods, pool, clears, tracer=None) -> dict:
    """Run every check; digest the output documents of the first instances."""
    io = mods["io"]
    by_instance: dict = {}
    for rec in clears:
        if tracer is not None:
            tracer.clear = ("check", rec.index, rec.mode)
        check_clear(mods, pool[rec.index], rec)
        by_instance.setdefault(rec.index, {})[rec.mode] = rec
    disagreements = []
    for idx, recs in by_instance.items():
        for name in check_instance(recs):
            disagreements.append({"seed": next(iter(recs.values())).seed, "check": name})
            for rec in recs.values():
                if rec.ok:
                    rec.error = f"check:{name}"
    digest = hashlib.sha256()
    digested = 0
    for rec in clears:
        if rec.index >= DIGEST_PREFIX:
            continue
        if tracer is not None:
            tracer.clear = ("check", rec.index, rec.mode)
        res = rec.result
        if res is not None and res.solution is not None:
            doc = io.solution_to_doc(
                pool[rec.index], res.solution, res.prices,
                status=res.status, mode=res.mode, welfare=res.welfare,
            )
            text = io.dump_document(doc)
        else:
            text = f"{rec.mode} {rec.seed} {rec.error}\n"
        digest.update(text.encode())
        digested += 1
    if tracer is not None:
        tracer.clear = None
    # an exception or an unexpected status is a failed clear; only a
    # solution that fails a check is a wrong output
    wrong = [r for r in clears if r.error and r.error.startswith("check")]
    return {
        "correct": not wrong,
        "disagreements": disagreements,
        "digest": digest.hexdigest(),
        "digest_clears": digested,
    }


# -- metrics -----------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed clears enter as +inf."""
    ordered = sorted(values)
    k = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[k]


def mode_metrics(clears: list[Clear], mode: str) -> dict:
    recs = [r for r in clears if r.mode == mode]
    if not recs:
        return {}
    busy = sum(r.seconds for r in recs)
    done = sum(1 for r in recs if r.ok)
    times = [r.seconds if r.ok else math.inf for r in recs]
    # a failed clear reads +inf in the medians, as a clear that missed
    # every limit; without a reference the reference units are undefined
    cpu = [r.cpu_seconds if r.ok else math.inf for r in recs]
    refs = [r.cpu_seconds / r.ref_seconds if r.ok else math.inf
            for r in recs if r.ref_seconds > 0]
    out = {
        f"{mode}.clears_per_s": done / busy if busy > 0 else 0.0,
        f"{mode}.clear_s.p50": statistics.median(times),
        f"{mode}.clear_cpu_s.p50": statistics.median(cpu),
        f"{mode}.clear_ref.p50": statistics.median(refs) if refs else None,
        f"{mode}.samples": len(recs),
    }
    if len(recs) >= P95_MIN_SAMPLES:
        out[f"{mode}.clear_s.p95"] = _percentile(times, 0.95)
    return out


def welfare_gap(clears: list[Clear]) -> Optional[float]:
    pairs: dict = {}
    for r in clears:
        if r.ok and r.mode in ("exact", "heuristic"):
            pairs.setdefault(r.index, {})[r.mode] = r.result.welfare
    gaps = [
        (p["exact"] - p["heuristic"]) / max(1.0, abs(p["exact"]))
        for p in pairs.values() if len(p) == 2
    ]
    return statistics.fmean(gaps) if gaps else None


def end_to_end(family, clears, setup_s, import_s=None) -> dict:
    m = {"setup_s": setup_s, "setup.import_s": import_s}
    refs = [r.ref_seconds for r in clears if r.ref_seconds > 0]
    m["reference.cpu_s.p50"] = statistics.median(refs) if refs else None
    for mode in WORKLOADS[family].modes:
        m.update(mode_metrics(clears, mode))
    m["heuristic.welfare_gap"] = welfare_gap(clears)
    failed = sum(1 for r in clears if not r.ok)
    m["failed_share"] = failed / len(clears) if clears else 0.0
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def unit_of(name: str) -> str:
    for key, unit in UNITS.items():
        if key in name:
            return unit
    if name.endswith(".samples"):
        return "count"
    return ""


# -- output ------------------------------------------------------------------


def print_table(title: str, metrics: dict, units) -> None:
    print(f"\n{title}")
    width = max((len(k) for k in metrics), default=10)
    for name, value in metrics.items():
        if value is None:
            shown = "absent" if units(name) != "ratio" else "n/a"
        elif isinstance(value, float):
            shown = f"{value:.6g}"
        else:
            shown = str(value)
        print(f"  {name:<{width}}  {shown:>14}  {units(name)}")


def print_environment(env: dict) -> None:
    blas = env["blas"]
    print(f"environment: nproc={env['nproc']} usable={env['cpus_usable']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"blas={blas.get('name')} {blas.get('version')} threads={env['blas_threads']}")


def write_results(stem: str, payload: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return path


def failures(clears: list[Clear]) -> list[dict]:
    return [{"seed": r.seed, "mode": r.mode, "error": r.error} for r in clears if not r.ok]


def result_line(correct, clears, metrics: dict, units) -> str:
    failed = sum(1 for r in clears if not r.ok)
    return json.dumps({
        "correct": bool(correct),
        "attempted": len(clears),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units(name)} for name, value in metrics.items()
        },
    })


# -- runs --------------------------------------------------------------------


def run_untraced(mods, args, pool, first, setup_s, import_s, env) -> int:
    start = time.perf_counter()
    clears = clear_stream(mods, args.workload, pool, first, len(pool),
                          deadline=start + GUARD * args.seconds, reference=Reference())
    measured = time.perf_counter() - start
    check = check_all(mods, pool, clears)
    metrics = end_to_end(args.workload, clears, setup_s, import_s)
    print_table(f"end-to-end  workload={args.workload} seed={args.seed} "
                f"instances={clears[-1].index + 1 if clears else 0} "
                f"measured={measured:.1f}s", metrics, unit_of)
    fails = failures(clears)
    if clears[-1].index + 1 < len(pool):
        print(f"\n  stopped early at {GUARD} x {args.seconds:g} s: "
              f"{clears[-1].index + 1} of {len(pool)} instances cleared")
    print(f"\n  failed clears: {len(fails)} of {len(clears)}")
    for f in fails:
        print(f"    seed {f['seed']} {f['mode']}: {f['error']}")
    print(f"  digest (first {DIGEST_PREFIX} instances, {check['digest_clears']} clears): "
          f"{check['digest']}")
    stem = f"{args.workload}-seed{args.seed}-trace0"
    path = write_results(stem, {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "metrics": metrics, "failures": fails, **check,
        "clears": [[r.seed, r.mode, r.seconds, r.cpu_seconds, r.ref_seconds, r.error]
                   for r in clears],
    })
    print(f"  results: {path.relative_to(ROOT)}")
    gated = {name: metrics[name] for name in GATED}
    print(result_line(check["correct"], clears, gated, unit_of))
    return 0


def run_traced(mods, args, pool, first, env) -> int:
    import tracing

    count = len(pool)
    plain = clear_stream(mods, args.workload, pool, first, count)
    tracer = tracing.Tracer()
    with tracer:
        tracer.clear = ("io", -1, "")
        io = mods["io"]
        for inst in pool:
            io.parse_instance(io.serialize_instance(inst))
        tracer.clear = None
        traced = clear_stream(mods, args.workload, pool, first, count, tracer=tracer)
        check = check_all(mods, pool, traced, tracer=tracer)
    check_all(mods, pool, plain)
    metrics = tracing.layer_metrics(tracer, traced)
    for mode in ("exact", "heuristic"):
        metrics[f"trace.overhead.{mode}.clears_per_s"] = (
            mode_metrics(traced, mode).get(f"{mode}.clears_per_s", 0.0)
            - mode_metrics(plain, mode).get(f"{mode}.clears_per_s", 0.0)
        )
    units = tracing.unit_of
    print_table(f"per-layer  workload={args.workload} seed={args.seed} "
                f"instances={count} spans={len(tracer.spans)}", metrics, units)
    if tracer.absent:
        print(f"  absent functions: {', '.join(tracer.absent)}")
    print(f"  digest (first {DIGEST_PREFIX} instances, {check['digest_clears']} clears): "
          f"{check['digest']}")
    stem = f"{args.workload}-seed{args.seed}-trace1"
    write_results(f"{stem}.spans", {"spans": [
        [s.name, s.site, s.clear, s.parent, s.start, s.end, s.error] for s in tracer.spans
    ]})
    path = write_results(stem, {
        "workload": args.workload, "seed": args.seed, "instances": count,
        "environment": env, "metrics": metrics, "absent": tracer.absent,
        "failures": failures(traced), **check,
    })
    print(f"  results: {path.relative_to(ROOT)}")
    print(result_line(check["correct"], traced, metrics, units))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _limit_blas_threads()
    t0 = time.perf_counter()
    mods = _import_program()
    if mods is None:
        print(f"error: no daclear sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    env = environment()
    print_environment(env)
    first = args.seed * SEED_STRIDE
    work = WORKLOADS[args.workload]
    size = max(1, round(args.seconds * (work.trace_per_s if args.trace else work.per_s)))
    pool, rep_s = setup(mods, args.workload, first, size)
    setup_s = import_s + rep_s
    if args.trace:
        return run_traced(mods, args, pool, first, env)
    return run_untraced(mods, args, pool, first, setup_s, import_s, env)


if __name__ == "__main__":
    sys.exit(main())
