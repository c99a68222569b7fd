"""``tools/abtime.py`` clears the same instances with two checkouts in one
process; against itself, both sides agree on every outcome, welfare,
price and flow."""

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
    for base_ms, head_ms, ratio, differ, welfare, price, flow, *outside in results.values():
        assert base_ms > 0.0 and head_ms > 0.0
        assert math.isfinite(ratio) and ratio > 0.0
        assert differ == 0 and welfare == 0.0 and price == 0.0 and flow == 0.0
        # each side's CPU outside solve_qp, and in the master's root QP, is
        # part of its total
        assert 0.0 < outside[0] <= base_ms and 0.0 < outside[1] <= head_ms
        assert 0.0 < outside[2] <= base_ms and 0.0 < outside[3] <= head_ms
        # pricing's solve_qp calls and the factorizations per clear repeat
        # exactly
        assert outside[4] == outside[5] >= 0
        assert outside[6] == outside[7] > 0
    # day-book has flows to compare
    results = abtime.compare(ROOT, ROOT, "day-book", range(3000, 3001), ["exact"], repeat=1)
    assert results["exact"][3:7] == (0, 0.0, 0.0, 0.0)
    assert abtime.main([str(ROOT), str(ROOT), "--count", "1", "--repeat", "1",
                        "--modes", "exact"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "paradox seeds 1000-1000, 1 repeats"
    assert lines[-2].split()[1:5] == ["base", "ms", "head", "ms"]
    assert lines[-2].split()[5:9] == ["base", "out", "head", "out"]
    assert lines[-2].split()[9:13] == ["base", "root", "head", "root"]
    assert lines[-2].split()[13:17] == ["base", "pqps", "head", "pqps"]
    assert lines[-2].split()[17:21] == ["base", "fact", "head", "fact"]
    assert lines[-2].split()[-4:] == ["differ", "welfare", "price", "flow"]
    assert lines[-1].split()[0] == "exact"
    base_ms, head_ms, base_out, head_out = map(float, lines[-1].split()[1:5])
    assert 0.0 < base_out <= base_ms and 0.0 < head_out <= head_ms
    base_root, head_root = map(float, lines[-1].split()[5:7])
    assert 0.0 < base_root <= base_ms and 0.0 < head_root <= head_ms
    base_priced, head_priced = map(float, lines[-1].split()[7:9])
    assert base_priced == head_priced >= 0.0
    base_factored, head_factored = map(float, lines[-1].split()[9:11])
    assert base_factored == head_factored > 0.0
    assert lines[-1].split()[-4:] == ["0", "0.0e+00", "0.0e+00", "0.0e+00"]


def test_qp_clock_times_only_the_wrapped_solves():
    # the clock adds the CPU of each wrapped call, and nothing else
    module = SimpleNamespace(solve_qp=lambda prob, **kw: sum(i * i for i in range(prob)))
    clock = abtime.QpClock(module)
    assert clock.total == 0.0
    assert module.solve_qp(200000, x0=None) == sum(i * i for i in range(200000))
    assert clock.total > 0.0


def test_qp_clock_roots_are_the_first_modules_solves_without_start():
    work = lambda prob, **kw: sum(i * i for i in range(prob))  # noqa: E731
    master, pricing = SimpleNamespace(solve_qp=work), SimpleNamespace(solve_qp=work)
    clock = abtime.QpClock(master, pricing)
    master.solve_qp(200000, x0=None, start=object())
    pricing.solve_qp(200000, x0=None)
    assert clock.total > 0.0 and clock.root == 0.0
    master.solve_qp(200000, x0=None, start=None)
    assert 0.0 < clock.root < clock.total


def test_call_count_counts_the_wrapped_calls():
    module = SimpleNamespace(_factor=lambda K: 2 * K)
    factors = abtime.CallCount(module, "_factor")
    assert factors.count == 0
    assert module._factor(3) == 6 and module._factor(4) == 8
    assert factors.count == 2


def test_qp_clock_counts_each_modules_solves():
    master, pricing = SimpleNamespace(solve_qp=lambda prob, **kw: prob), SimpleNamespace(
        solve_qp=lambda prob, **kw: -prob)
    clock = abtime.QpClock(master, pricing)
    assert clock.calls == [0, 0]
    assert pricing.solve_qp(3, x0=None) == -3
    pricing.solve_qp(4, x0=None)
    master.solve_qp(5, x0=None, start=object())
    assert clock.calls == [1, 2]


class _OtherSelection:
    """A selection class of another checkout: equal dicts, other type."""

    def __init__(self, blocks, flex):
        self.blocks, self.flex = blocks, flex


def _driver(selection, welfare, status="optimal", flow=1.0):
    result = SimpleNamespace(
        status=status, welfare=welfare,
        solution=selection and SimpleNamespace(selection=selection, flows={("c", 0): flow}),
        prices=selection and SimpleNamespace(pi={("X", 0): 3.0}),
    )
    return SimpleNamespace(clear_exact=lambda instance: result)


def test_round_off_is_no_change_of_outcome():
    # the same selection from two checkouts' classes, with welfare apart
    # by round-off: the outcomes agree, and the welfare difference is
    # reported on its own
    base = abtime._clear(_driver(SimpleNamespace(blocks={"b": 1}, flex={}), 137.1246361550629),
                         "exact", None)
    head = abtime._clear(_driver(_OtherSelection({"b": 1}, {}), 137.1246361550634,
                                 flow=1.0 + 2**-40), "exact", None)
    assert base[1] == head[1]
    assert 0.0 < abtime._relative(base[2][0], head[2][0]) < 1e-14
    (_, p0, f0), (_, p1, f1) = base[2], head[2]
    assert abtime._largest_gap(p0, p1) == 0.0 and abtime._largest_gap(f0, f1) == 2**-40
    other = abtime._clear(_driver(_OtherSelection({"b": 0}, {}), 137.1246361550634), "exact", None)
    none = abtime._clear(_driver(None, -math.inf, "infeasible"), "exact", None)
    assert other[1] != base[1] and none[1] != base[1]
    assert abtime._relative(none[2][0], none[2][0]) == 0.0
    assert abtime._relative(none[2][0], base[2][0]) == math.inf
    assert abtime._relative(0.5, 0.25) == 0.25
    # prices and flows of a clear without a solution agree only with another
    assert abtime._largest_gap(none[2][1], none[2][1]) == 0.0
    assert abtime._largest_gap(none[2][2], f0) == math.inf
    assert abtime._largest_gap({}, {}) == 0.0 and abtime._largest_gap({"a": 1.0}, {}) == math.inf
