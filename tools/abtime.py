"""CPU time per clear of two checkouts, interleaved in one process.

    python tools/abtime.py BASE HEAD --family paradox --first 1000 --count 110

BASE and HEAD are checkout roots (directories holding ``src/daclear``).
Each side's package is copied into a temporary directory under a name of
its own and imported from there, so both live in this one process.  Every
instance of the family (``bench/generate.py``, seeds ``first`` to
``first + count - 1``) is parsed by each side and cleared by both in each
mode, ``--repeat`` times, and the side that goes first alternates from one
instance to the next.  Per mode the script prints each side's median CPU
milliseconds per clear (over instances, of each instance's median clear),
then the same median of the CPU a clear spends outside ``solve_qp`` (each
side's ``solve_qp`` is wrapped where ``master`` and ``pricing`` call it and
timed with ``time.process_time``, wrapper included) and of the CPU it
spends in the master's root QP (the ``master.solve_qp`` calls without a
parametric ``start``), the same median of the number of ``solve_qp`` calls
pricing makes per clear and of the number of working-set factorizations
(``qp._factor`` calls) per clear, counts that repeat exactly from run to
run, so that a kernel change can show equal work at lower cost, the
median over instances of the HEAD/BASE ratio, the number of instances
whose status or selection differ between the sides, and the largest
relative welfare difference and the largest absolute price and flow
differences between them, which round-off alone makes nonzero.

Clears of one tree in separate processes can differ by more than half in
speed on a shared host; interleaved in one process, both sides see the
same host, so the ratio resolves differences of a few percent.  BLAS runs
on one thread, as in ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
MODES = ("exact", "heuristic")


class QpClock:
    """CPU seconds spent in ``solve_qp`` where the modules it wraps call it
    (``total``), and in the calls of the first module's ``solve_qp`` that
    pass no ``start`` (``root``: the master's root QP, when the first
    module is ``master``), and the number of calls per module (``calls``,
    in the order of the modules)."""

    def __init__(self, *modules):
        self.total = 0.0
        self.root = 0.0
        self.calls = [0] * len(modules)
        for i, module in enumerate(modules):
            module.solve_qp = self._wrap(module.solve_qp, i)

    def _wrap(self, solve, i):
        def timed(*args, **kwargs):
            self.calls[i] += 1
            start = time.process_time()
            try:
                return solve(*args, **kwargs)
            finally:
                spent = time.process_time() - start
                self.total += spent
                if i == 0 and kwargs.get("start") is None:
                    self.root += spent

        return timed


class CallCount:
    """The number of calls of ``module.name`` (``count``), which it wraps."""

    def __init__(self, module, name):
        self.count = 0
        call = getattr(module, name)

        def counted(*args, **kwargs):
            self.count += 1
            return call(*args, **kwargs)

        setattr(module, name, counted)


def load_side(checkout: Path, name: str, tmp: Path):
    """``checkout``'s ``src/daclear``, copied to ``tmp/name`` and imported
    as the package ``name`` (``tmp`` must be on ``sys.path``), replacing
    any earlier import under that name; (io, driver, clock, factors) with a
    ``QpClock`` on its ``master`` and ``pricing`` modules and a
    ``CallCount`` of its ``qp._factor``."""
    shutil.copytree(
        Path(checkout) / "src" / "daclear", tmp / name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    importlib.invalidate_caches()
    clock = QpClock(*(importlib.import_module(f"{name}.{m}") for m in ("master", "pricing")))
    factors = CallCount(importlib.import_module(f"{name}.qp"), "_factor")
    return (importlib.import_module(f"{name}.io"), importlib.import_module(f"{name}.driver"),
            clock, factors)


def _clear(driver, mode, instance):
    """(cpu seconds, outcome, (welfare, prices, flows)) of one clear; the
    outcome is its status and selection, and prices and flows are dicts,
    or None without a solution."""
    solver = driver.clear_exact if mode == "exact" else driver.clear_heuristic
    start = time.process_time()
    result = solver(instance)
    cpu = time.process_time() - start
    selection = result.solution and result.solution.selection
    # compared by their dicts: the two sides' selection classes differ
    chosen = selection and (selection.blocks, selection.flex)
    prices = result.prices and result.prices.pi
    flows = result.solution and result.solution.flows
    return cpu, (result.status, chosen), (result.welfare, prices, flows)


def _relative(a: float, b: float) -> float:
    """|a - b| over the larger of 1, |a| and |b|; 0 when a == b (also
    both -inf, a clear without a solution), inf when only one is finite."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _largest_gap(a, b) -> float:
    """The largest |a[k] - b[k]| over the keys of the dicts a and b (0 when
    they are empty, or both None), inf when their keys differ."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    if a.keys() != b.keys():
        return math.inf
    return max((abs(a[k] - b[k]) for k in a), default=0.0)


def compare(base: Path, head: Path, family: str, seeds, modes=MODES, repeat: int = 3) -> dict:
    """Per mode: (base ms, head ms, median head/base ratio, instances whose
    status or selection differ, largest relative welfare difference,
    largest absolute price difference, largest absolute flow difference,
    base ms outside ``solve_qp``, head ms outside it, base ms in the
    master's root QP, head ms in it, base pricing ``solve_qp`` calls per
    clear, head calls, base ``_factor`` calls per clear, head calls)."""
    sys.path.insert(0, str(ROOT / "bench"))
    import generate

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = [load_side(base, "abtime_base", Path(tmp)),
                     load_side(head, "abtime_head", Path(tmp))]
        finally:
            sys.path.remove(tmp)
        texts = [generate.instance_text(family, seed) for seed in seeds]
        out = {}
        for mode in modes:
            times, out_times, root_times, counts, factor_counts = (([], []) for _ in range(5))
            differ, welfare, price, flow = 0, 0.0, 0.0, 0.0
            for i, text in enumerate(texts):
                instances = [io.parse_instance(text) for io, *_ in sides]
                order = (0, 1) if i % 2 == 0 else (1, 0)
                runs, outside, root, priced, factored = (([], []) for _ in range(5))
                outcome, values = [None, None], [None, None]
                for _ in range(repeat):
                    for side in order:
                        _, driver, clock, factors = sides[side]
                        in_qp, in_root, in_pricing = clock.total, clock.root, clock.calls[1]
                        in_factor = factors.count
                        cpu, outcome[side], values[side] = _clear(driver, mode, instances[side])
                        runs[side].append(cpu)
                        outside[side].append(cpu - (clock.total - in_qp))
                        root[side].append(clock.root - in_root)
                        priced[side].append(clock.calls[1] - in_pricing)
                        factored[side].append(factors.count - in_factor)
                differ += outcome[0] != outcome[1]
                (w0, p0, f0), (w1, p1, f1) = values
                welfare = max(welfare, _relative(w0, w1))
                price = max(price, _largest_gap(p0, p1))
                flow = max(flow, _largest_gap(f0, f1))
                for side in (0, 1):
                    times[side].append(statistics.median(runs[side]))
                    out_times[side].append(statistics.median(outside[side]))
                    root_times[side].append(statistics.median(root[side]))
                    counts[side].append(statistics.median(priced[side]))
                    factor_counts[side].append(statistics.median(factored[side]))
            ratios = [h / b for b, h in zip(*times) if b > 0.0]
            out[mode] = (
                1e3 * statistics.median(times[0]),
                1e3 * statistics.median(times[1]),
                statistics.median(ratios),
                differ,
                welfare,
                price,
                flow,
                1e3 * statistics.median(out_times[0]),
                1e3 * statistics.median(out_times[1]),
                1e3 * statistics.median(root_times[0]),
                1e3 * statistics.median(root_times[1]),
                statistics.median(counts[0]),
                statistics.median(counts[1]),
                statistics.median(factor_counts[0]),
                statistics.median(factor_counts[1]),
            )
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--family", default="paradox")
    parser.add_argument("--first", type=int, default=1000)
    parser.add_argument("--count", type=int, default=110)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--modes", nargs="+", choices=MODES, default=list(MODES))
    args = parser.parse_args(argv)
    seeds = range(args.first, args.first + args.count)
    print(f"{args.family} seeds {seeds.start}-{seeds.stop - 1}, {args.repeat} repeats")
    print(f"base {args.base.resolve()}\nhead {args.head.resolve()}")
    print(f"{'mode':10s} {'base ms':>9s} {'head ms':>9s} {'base out':>9s} {'head out':>9s}"
          f" {'base root':>9s} {'head root':>9s} {'base pqps':>9s} {'head pqps':>9s}"
          f" {'base fact':>9s} {'head fact':>9s}"
          f" {'head/base':>9s} {'differ':>6s} {'welfare':>8s} {'price':>8s} {'flow':>8s}")
    results = compare(args.base, args.head, args.family, seeds, args.modes, args.repeat)
    for mode, (base_ms, head_ms, ratio, differ, welfare, price, flow, *qp_ms) in results.items():
        (base_out, head_out, base_root, head_root,
         base_priced, head_priced, base_factored, head_factored) = qp_ms
        print(f"{mode:10s} {base_ms:9.3f} {head_ms:9.3f} {base_out:9.3f} {head_out:9.3f}"
              f" {base_root:9.3f} {head_root:9.3f} {base_priced:9.2f} {head_priced:9.2f}"
              f" {base_factored:9.2f} {head_factored:9.2f}"
              f" {ratio:9.3f} {differ:6d} {welfare:8.1e} {price:8.1e} {flow:8.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
