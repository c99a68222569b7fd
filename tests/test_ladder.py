"""``tools/ladder.py`` draws the scale ladder's books and writes one record
per exact clear; its rungs' layouts and the smallest rung's seed-1 record
are pinned here."""

import importlib.util
import json
from pathlib import Path

import pytest

from daclear.model import build_model

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ladder)


@pytest.mark.parametrize("rung, counts", [
    ("3x12x10", (55, 24, 10, 89)),
    ("3x24x12", (109, 48, 12, 169)),
    ("4x24x20", (148, 72, 20, 240)),
    ("6x24x40", (218, 120, 40, 378)),
])
def test_rung_layouts(rung, counts):
    # seed 1; with a column per segment, flat ones included, the master had
    # 171, 331, 460 and 707 columns
    layout = ladder.layout(build_model(ladder.book(rung, 1)))
    assert tuple(layout.values()) == counts
    assert list(layout) == ["segments", "flows", "binaries", "columns"]


def test_smallest_rung_seed_1_record(capsys):
    assert ladder.main(["--rungs", "3x12x10", "--seeds", "1"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert record["cpu_s"] >= 0.0 and record["wall_s"] >= 0.0
    probe = {name: {k: v for k, v in run.items() if not k.endswith("_s")}
             for name, run in record.pop("probe").items()}
    assert probe == {
        "cold": {"status": "optimal", "phase1_iterations": 91, "phase2_iterations": 119},
        "balanced": {"status": "optimal", "phase1_iterations": 0, "phase2_iterations": 93},
    }
    assert record.pop("welfare") == record.pop("bound") == pytest.approx(47894.9907045, abs=1e-6)
    for key in ("cpu_s", "wall_s"):
        del record[key]
    assert record == {
        "rung": "3x12x10", "seed": 1, "segments": 55, "flows": 24, "binaries": 10,
        "columns": 89, "convex_price": True, "status": "optimal", "tested_leaves": 1,
        "failed_curtailment": 0, "failed_no_price": 0, "nodes": 1, "factors": 89,
    }
