"""Digests of the CLI's output over the comparison set.

Runs ``clear --mode exact``, ``clear --mode heuristic`` and ``oracle``
in-process through ``daclear.cli.run`` on every instance of the set:
small-suite seeds 0-199, paradox seeds 1000-1109 and day-book seeds
3000-3109 from ``bench/generate.py``, then the instances in ``fixtures/``.
Each document that ``clear --mode exact`` writes is also checked by
``verify``, right after it, so the checkers' reports are digested too,
then a copy of it whose prices in the book's first area are each raised
by 1.0 (``verify-shifted``), and then a copy of it whose fills are each
raised by 0.5 and flows by 100.0 (``verify-moved``), so that failing
reports and their violation lists, the bounds check's included, are
digested as well.  It prints one line per run:

    family seed command exit-code sha256(stdout) sha256(stderr)

and, before an instance's runs, one line for the instance document as
``daclear.io.serialize_instance`` writes the book it parses to:

    family seed serialize sha256(serialize_instance(parse_instance(text)))

Two trees behave the same on the set when their outputs diff empty:

    python tools/digests.py > before.txt   # in one tree
    python tools/digests.py > after.txt    # in the other
    diff before.txt after.txt

Each run hashes the package under its own checkout's ``src``, which it
puts first on ``sys.path``, whatever ``PYTHONPATH`` or the current
directory holds.

BLAS runs on one thread, as in ``tools/abtime.py``: a threaded matrix
product may round differently, so two trees' digests compare without
pinning it by hand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {
    "small-suite": range(0, 200),
    "paradox": range(1000, 1110),
    "day-book": range(3000, 3110),
}
COMMANDS = {
    "clear-exact": ("clear", "--mode", "exact"),
    "clear-heuristic": ("clear", "--mode", "heuristic"),
    "oracle": ("oracle",),
}


def generated():
    """(family, seed, instance text) for each generated instance of the set."""
    sys.path.insert(0, str(ROOT / "bench"))
    import generate

    for family, seeds in SEEDS.items():
        for seed in seeds:
            yield family, str(seed), generate.instance_text(family, seed)


def fixtures():
    """(family, name, instance text) for each instance in ``fixtures/``."""
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        yield "fixture", path.stem, path.read_text(encoding="utf-8")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shifted(solution: str, instance: str) -> str:
    """The solution document ``solution`` with each price in the first
    area of the instance document ``instance`` raised by 1.0."""
    area = json.loads(instance)["areas"][0]["id"]
    doc = json.loads(solution)
    for entry in doc["prices"] or ():
        if entry["area"] == area:
            entry["price"] += 1.0
    return json.dumps(doc)


def moved(solution: str) -> str:
    """The solution document ``solution`` with each fill raised by 0.5
    and each flow by 100.0."""
    doc = json.loads(solution)
    doc["delta"] = {sid: fill + 0.5 for sid, fill in (doc["delta"] or {}).items()}
    for entry in doc["flows"] or ():
        entry["flow"] += 100.0
    return json.dumps(doc)


def digest_lines(instances):
    """One digest line per instance of ``instances`` as written again
    (``serialize``) and per command and instance, and three per document
    that ``clear-exact`` wrote, ``verify`` of it and of its ``shifted``
    and ``moved`` copies, from the ``daclear`` of this script's own
    checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    from daclear.cli import run
    from daclear.io import parse_instance, serialize_instance

    def digest(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        return code, out.getvalue(), f"{_sha(out.getvalue())} {_sha(err.getvalue())}"

    with tempfile.TemporaryDirectory() as tmp:
        path, solution = Path(tmp) / "instance.json", Path(tmp) / "solution.json"
        for family, seed, text in instances:
            path.write_text(text, encoding="utf-8")
            yield f"{family} {seed} serialize {_sha(serialize_instance(parse_instance(text)))}"
            for name, argv in COMMANDS.items():
                code, out, digests = digest([*argv, "--instance", str(path)])
                yield f"{family} {seed} {name} {code} {digests}"
                if name == "clear-exact" and out:
                    for check, doc in (("verify", out), ("verify-shifted", shifted(out, text)),
                                       ("verify-moved", moved(out))):
                        solution.write_text(doc, encoding="utf-8")
                        code, _, digests = digest(
                            ["verify", "--instance", str(path), "--solution", str(solution)])
                        yield f"{family} {seed} {check} {code} {digests}"


def main() -> int:
    for line in digest_lines([*generated(), *fixtures()]):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
