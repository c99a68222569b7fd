"""``tools/abtime.py`` clears the same instances with two checkouts in one
process; against itself, both sides agree on every outcome and welfare."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
abtime = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(abtime)


def test_checkout_against_itself(capsys):
    results = abtime.compare(ROOT, ROOT, "paradox", range(1000, 1002), repeat=1)
    assert list(results) == ["exact", "heuristic"]
    for base_ms, head_ms, ratio, differ, welfare in results.values():
        assert base_ms > 0.0 and head_ms > 0.0
        assert math.isfinite(ratio) and ratio > 0.0
        assert differ == 0 and welfare == 0.0
    assert abtime.main([str(ROOT), str(ROOT), "--count", "1", "--repeat", "1",
                        "--modes", "exact"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "paradox seeds 1000-1000, 1 repeats"
    assert lines[-2].split()[-2:] == ["differ", "welfare"]
    assert lines[-1].split()[0] == "exact" and lines[-1].split()[-2:] == ["0", "0.0e+00"]


class _OtherSelection:
    """A selection class of another checkout: equal dicts, other type."""

    def __init__(self, blocks, flex):
        self.blocks, self.flex = blocks, flex


def _driver(selection, welfare, status="optimal"):
    result = SimpleNamespace(
        status=status, welfare=welfare,
        solution=selection and SimpleNamespace(selection=selection),
    )
    return SimpleNamespace(clear_exact=lambda instance: result)


def test_round_off_is_no_change_of_outcome():
    # the same selection from two checkouts' classes, with welfare apart
    # by round-off: the outcomes agree, and the welfare difference is
    # reported on its own
    base = abtime._clear(_driver(SimpleNamespace(blocks={"b": 1}, flex={}), 137.1246361550629),
                         "exact", None)
    head = abtime._clear(_driver(_OtherSelection({"b": 1}, {}), 137.1246361550634), "exact", None)
    assert base[1] == head[1]
    assert 0.0 < abtime._relative(base[2], head[2]) < 1e-14
    other = abtime._clear(_driver(_OtherSelection({"b": 0}, {}), 137.1246361550634), "exact", None)
    none = abtime._clear(_driver(None, -math.inf, "infeasible"), "exact", None)
    assert other[1] != base[1] and none[1] != base[1]
    assert abtime._relative(none[2], none[2]) == 0.0
    assert abtime._relative(none[2], base[2]) == math.inf
    assert abtime._relative(0.5, 0.25) == 0.25
