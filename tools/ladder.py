"""The scale ladder: seeded multi-area, 24-hour books cleared in exact mode.

    python tools/ladder.py --rungs 3x12x10 3x24x12 --seeds 1 2 3 > records.jsonl

A rung is named by its layout, areas x hours x blocks.  The ``scale``
family draws a rung's book at a seed from one ``default_rng(seed)`` stream
with the curve helpers of ``bench/generate.py``, which it loads by path
and does not change:

- areas ``A0, A1, ...``; per area ``bias = U(-8, 8)``, and per hour the
  level ``bias + 10 sin(2 pi (t - 6) / 24)``;
- per (area, hour), with probability 0.5 ``_elastic_curve(rng,
  max_nodes=3)`` shifted by the level, otherwise ``_step_curve(rng,
  level)``;
- a chain of interconnectors ``c0, c1, ...`` from ``A(k)`` to ``A(k+1)``,
  each with ATC ``+-U(10, 30)`` per hour, ramp ``U(4, 12)`` and initial
  flow ``U(-4, 4)``, drawn in that order;
- blocks alternating in sign, starting negative, with quantities
  ``sign U(3, 15)`` per hour, zeroed where ``rng.random(hours) < 0.25``
  (``q[0] = 8 sign`` when all are zero), an area ``rng.choice(areas)`` and
  a limit ``U(20, 80) + U(0, 1e-3)``;
- no flex bids and no links, on the price interval (0, 100).

Each book is cleared once in exact mode with a per-clear time limit of
``TIME_LIMIT`` (120 s), and the script prints one JSON record per clear:

- the rung, seed and the model's segment, flow, binary and master columns;
- whether the convex market (every block rejected) has a price in the
  interval (``convex_price``);
- status, CPU (``time.process_time``) and wall seconds of the clear;
- tested leaves, and the failed ones by reason: curtailment, or no price
  (a leaf that fails both counts under curtailment);
- node QP solves (``MasterResult.nodes``, the row test's refutations
  included) and ``qp._Factor`` constructions;
- welfare and bound, None where they are not finite;
- the root-QP probe: ``model.master()`` solved once from the clipped
  origin and once from ``model.balanced_start``, each on a fresh factor
  cache, with phase-1 and phase-2 iterations and CPU seconds.

All counts repeat exactly for a seed when the clear ends inside its limit;
times do not.  BLAS runs on one thread, as in ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from daclear import driver, qp  # noqa: E402
from daclear.driver import ClearOptions, clear_exact  # noqa: E402
from daclear.io import parse_instance  # noqa: E402
from daclear.model import balanced_start, build_model  # noqa: E402
from daclear.qp import solve_qp  # noqa: E402
from daclear.relaxation import solve_relaxation  # noqa: E402

RUNGS = ("3x12x10", "3x24x12", "4x24x20", "6x24x40")
TIME_LIMIT = 120.0


@functools.cache
def _generate():
    """``bench/generate.py``, loaded once, by path."""
    spec = importlib.util.spec_from_file_location("bench_generate", ROOT / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate


def scale(rung: str, seed: int) -> dict:
    """The ``scale`` family's instance document of ``rung`` at ``seed``."""
    g = _generate()
    n_areas, hours, n_blocks = map(int, rung.split("x"))
    rng = np.random.default_rng(seed)
    areas = [f"A{i}" for i in range(n_areas)]
    curves = {}
    for a in areas:
        bias = rng.uniform(-8.0, 8.0)
        for t in range(hours):
            level = bias + 10.0 * math.sin(2.0 * math.pi * (t - 6) / 24.0)
            if rng.random() < 0.5:
                curves[a, t] = [[p, q + level] for p, q in g._elastic_curve(rng, max_nodes=3)]
            else:
                curves[a, t] = g._step_curve(rng, level)
    conns = []
    for k, (src, snk) in enumerate(zip(areas, areas[1:])):
        atc = rng.uniform(10.0, 30.0, size=hours)
        ramp = float(rng.uniform(4.0, 12.0))
        initial = float(rng.uniform(-4.0, 4.0))
        conns.append(g._connector(f"c{k}", src, snk, -atc, atc, ramp=ramp, initial=initial))
    blocks = []
    for i in range(n_blocks):
        sign = 1.0 if i % 2 else -1.0
        q = sign * rng.uniform(3.0, 15.0, size=hours)
        q[rng.random(hours) < 0.25] = 0.0
        if not np.any(q):
            q[0] = 8.0 * sign
        area = str(rng.choice(areas))
        blocks.append(g._block(f"b{i}", area, rng.uniform(20.0, 80.0) + rng.uniform(0, 1e-3), q))
    return g._doc(curves, conns, hours=hours, areas=areas, blocks=blocks)


def book(rung: str, seed: int):
    """The ``scale`` family's instance of ``rung`` at ``seed``."""
    return parse_instance(json.dumps(scale(rung, seed), sort_keys=True))


def layout(model) -> dict:
    """The model's segment, flow, binary and master column counts."""
    seg, flow, binary = len(model.seg_ids), len(model.flow_keys), len(model.bin_keys)
    return {"segments": seg, "flows": flow, "binaries": binary, "columns": seg + flow + binary}


def convex_price(instance, model) -> bool:
    """Whether the convex market, every block rejected, has a price in the
    interval: its relaxation, the master with every binary pinned at 0,
    clears and passes strict pricing (``driver._check_leaf``)."""
    prob = model.master()
    lb, ub = prob.lb.copy(), prob.ub.copy()
    lb[model.n:] = ub[model.n:] = 0.0
    relaxed = solve_relaxation(prob.with_bounds(lb, ub), model)
    if relaxed is None:
        return False
    _, x, duals = relaxed
    return driver._check_leaf(
        instance, model, model.selection_at(x), x, duals, None)[2] is not None


class _Counts:
    """Counts ``qp._Factor`` constructions, phase-1 iterations and CPU
    seconds, and the last ``solve_master`` result, by rebinding those
    names in ``qp`` and ``driver`` while it is entered."""

    def __enter__(self):
        self.factors, self.phase1_iterations, self.phase1_s, self.master = 0, 0, 0.0, None
        factor, phase1, solve = qp._Factor, qp._phase1, driver.solve_master
        self._saved = factor, phase1, solve

        def counted_factor(*args):
            self.factors += 1
            return factor(*args)

        def timed_phase1(*args, **kwargs):
            start = time.process_time()
            try:
                out = phase1(*args, **kwargs)
            finally:
                self.phase1_s += time.process_time() - start
            self.phase1_iterations += out[2]
            return out

        def kept_master(*args, **kwargs):
            self.master = solve(*args, **kwargs)
            return self.master

        qp._Factor, qp._phase1, driver.solve_master = counted_factor, timed_phase1, kept_master
        return self

    def __exit__(self, *exc):
        qp._Factor, qp._phase1, driver.solve_master = self._saved


def probe(model) -> dict:
    """The root-QP probe: the master problem solved cold (from the clipped
    origin) and from ``balanced_start``, each on a fresh factor cache."""
    out = {}
    for name in ("cold", "balanced"):
        prob = model.master()
        x0 = None if name == "cold" else balanced_start(model, prob)
        with _Counts() as counts:
            start = time.process_time()
            sol = solve_qp(prob, x0=x0)
            total = time.process_time() - start
        out[name] = {
            "status": sol.status,
            "phase1_iterations": counts.phase1_iterations,
            "phase2_iterations": sol.iterations - counts.phase1_iterations,
            "phase1_s": round(counts.phase1_s, 4),
            "phase2_s": round(total - counts.phase1_s, 4),
        }
    return out


def _finite(v: float):
    return v if math.isfinite(v) else None


def record(rung: str, seed: int) -> dict:
    """One clear's record (see the module docstring)."""
    instance = book(rung, seed)
    model = build_model(instance)
    out = {"rung": rung, "seed": seed, **layout(model),
           "convex_price": convex_price(instance, model)}
    with _Counts() as counts:
        cpu, wall = time.process_time(), time.perf_counter()
        result = clear_exact(instance, ClearOptions(time_limit=TIME_LIMIT))
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    failed = [it for it in result.iterations if it.cuts_added]
    curtailment = sum(1 for it in failed if it.curtailment_areas)
    out.update({
        "status": result.status, "cpu_s": round(cpu, 3), "wall_s": round(wall, 3),
        "tested_leaves": len(result.iterations),
        "failed_curtailment": curtailment, "failed_no_price": len(failed) - curtailment,
        "nodes": counts.master.nodes if counts.master is not None else None,
        "factors": counts.factors,
        "welfare": _finite(result.welfare), "bound": _finite(result.bound),
        "probe": probe(model),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", nargs="+", default=list(RUNGS), metavar="AxHxB")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = parser.parse_args(argv)
    for rung in args.rungs:
        for seed in args.seeds:
            rec = record(rung, seed)
            print(json.dumps(rec, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
