"""``tools/abtime.py`` clears the same instances with two checkouts in one
process; against itself, both sides agree on every outcome."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_checkout_against_itself(capsys):
    spec = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
    abtime = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abtime)
    results = abtime.compare(ROOT, ROOT, "paradox", range(1000, 1002), repeat=1)
    assert list(results) == ["exact", "heuristic"]
    for base_ms, head_ms, ratio, differ in results.values():
        assert base_ms > 0.0 and head_ms > 0.0
        assert math.isfinite(ratio) and ratio > 0.0
        assert differ == 0
    assert abtime.main([str(ROOT), str(ROOT), "--count", "1", "--repeat", "1",
                        "--modes", "exact"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "paradox seeds 1000-1000, 1 repeats"
    assert lines[-1].split()[0] == "exact" and lines[-1].split()[-1] == "0"
