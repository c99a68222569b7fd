import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from daclear.cli import _result_doc, run
from daclear.driver import clear_heuristic
from daclear.errors import SolverFailure
from daclear.io import dump_document, serialize_instance

from helpers import (
    REPEATED_KEYS, appendix_a, bench_instance, bench_text, block, connector, f3, flexbid,
    make_instance, mutated_document, ramp_fixture, random_instance, repeated_key_documents,
    rescaled,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "appendix_a.json"
NO_PRICE_SUPPORT = ROOT / "fixtures" / "no_price_support.json"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


class TestClear:
    def test_exact_appendix_a(self, capsys):
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        assert doc["welfare"] == pytest.approx(2.0)
        assert doc["prices"] == [{"area": "X", "hour": 0, "price": 3.0}]

    def test_heuristic_mode(self, capsys):
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE),
                         "--mode", "heuristic")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "heuristic"
        assert doc["bound"] == pytest.approx(3.0)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = _write(tmp_path, "inst.json", serialize_instance(random_instance(4)))
        outs = set()
        for _ in range(3):
            code, out = _run(capsys, "clear", "--instance", path)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE),
                         "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["status"] == "optimal"

    def test_time_limit_exit_code(self, capsys, tmp_path):
        path = _write(tmp_path, "inst.json", serialize_instance(random_instance(9)))
        code, out = _run(capsys, "clear", "--instance", path,
                         "--time-limit", "0")
        assert code in (0, 3)

    def test_time_limit_document_is_strict_json(self, capsys):
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE),
                         "--time-limit", "0")
        assert code == 3
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["status"] == "limit"
        assert doc["welfare"] is None
        assert doc["bound"] is None
        assert doc["gap"] is None

    def test_heuristic_time_limit_writes_limit_document(self, capsys):
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE),
                         "--mode", "heuristic", "--time-limit", "0")
        assert code == 3
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["status"] == "limit"
        assert doc["mode"] == "heuristic"
        assert doc["welfare"] is None
        assert doc["selection"] is None

    def test_exact_time_limit_writes_limit_document(self, capsys):
        # an exact limit result carries no solution, as a heuristic one does
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE),
                         "--mode", "exact", "--time-limit", "0")
        assert code == 3
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["status"] == "limit"
        assert doc["mode"] == "exact"
        assert doc["welfare"] is None
        assert doc["gap"] is None
        assert doc["selection"] is None

    @pytest.mark.parametrize("argv", [
        ("clear",), ("clear", "--mode", "heuristic"), ("oracle",),
    ])
    def test_no_price_support_exit_code(self, capsys, argv):
        code, out = _run(capsys, argv[0], "--instance", str(NO_PRICE_SUPPORT), *argv[1:])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("clear", "--mode", "exact"), ("clear", "--mode", "heuristic"), ("oracle",),
    ])
    def test_zero_bid_book_without_price_support_exit_code(self, capsys, tmp_path, argv):
        # the fixture without its blocks and flex bids: its convex market has
        # no price in [0, 100].  Heuristic mode's cap is then one test, which
        # must not end the clear with limit before the master finds that the
        # first leaf's no-good cut leaves no selection
        doc = {**json.loads(NO_PRICE_SUPPORT.read_text()), "blocks": [], "flex": []}
        path = _write(tmp_path, "no_bids.json", json.dumps(doc))
        code, out = _run(capsys, argv[0], "--instance", path, *argv[1:])
        assert code == 2
        assert out == ""

    def test_unbounded_limit_with_solution_is_strict_json(self):
        # a result with a solution but no finite bound or gap: both are
        # written as null
        inst = appendix_a()
        result = replace(clear_heuristic(inst), status="limit",
                         bound=float("inf"), gap=float("nan"))
        doc = json.loads(dump_document(_result_doc(inst, result)),
                         parse_constant=_reject_constant)
        assert doc["welfare"] == pytest.approx(2.0)
        assert doc["bound"] is None
        assert doc["gap"] is None

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_a_book_times_100_clears_and_verifies(self, capsys, tmp_path, mode):
        # day-book 7001 with every price and quantity times 100: model
        # units bring it back to the book's own magnitudes, so it clears,
        # and its document passes verify at the default --tol
        doc = json.loads(serialize_instance(bench_instance("day-book", 7001)))
        path = _write(tmp_path, "inst.json", json.dumps(rescaled(doc, 100.0, 100.0)))
        code, out = _run(capsys, "clear", "--instance", path, "--mode", mode)
        assert code == 0
        assert json.loads(out)["status"] == ("optimal" if mode == "exact" else "feasible")
        sol = _write(tmp_path, "sol.json", out)
        code, out = _run(capsys, "verify", "--instance", path, "--solution", sol)
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestOracle:
    def test_matches_clear(self, capsys):
        code_o, out_o = _run(capsys, "oracle", "--instance", str(FIXTURE))
        code_c, out_c = _run(capsys, "clear", "--instance", str(FIXTURE))
        assert code_o == code_c == 0
        a, b = json.loads(out_o), json.loads(out_c)
        assert a["welfare"] == pytest.approx(b["welfare"], abs=1e-9)

    def test_too_large_is_input_error(self, capsys, tmp_path):
        inst = make_instance(
            {("X", 0): [[0, 50], [50, 50], [50, -50], [100, -50]]},
            blocks=[block(f"b{i}", "X", 50 + i, [1]) for i in range(20)],
        )
        path = _write(tmp_path, "big.json", serialize_instance(inst))
        code, _ = _run(capsys, "oracle", "--instance", path)
        assert code == 4


class TestVerify:
    def test_good_solution_passes(self, capsys, tmp_path):
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE))
        sol = _write(tmp_path, "sol.json", out)
        code, out = _run(capsys, "verify", "--instance", str(FIXTURE),
                         "--solution", sol)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_tampered_prices_fail_without_error(self, capsys, tmp_path):
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE))
        doc = json.loads(out)
        doc["prices"][0]["price"] = 97.0
        sol = _write(tmp_path, "sol.json", json.dumps(doc))
        code, out = _run(capsys, "verify", "--instance", str(FIXTURE),
                         "--solution", sol)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is False

    def _verify_doc(self, capsys, tmp_path, inst, doc, *argv):
        path = _write(tmp_path, "inst.json", serialize_instance(inst))
        sol = _write(tmp_path, "sol.json", json.dumps(doc))
        code, out = _run(capsys, "verify", "--instance", path, "--solution", sol, *argv)
        assert code == 0
        return json.loads(out)

    @staticmethod
    def _doc(inst, delta, flows=(), prices=(), blocks=None):
        spans = [s for s in inst.segments if s.quantity_span]
        return {
            "selection": {"blocks": blocks or {}, "flex": {}},
            "delta": {str(s.id): v for s, v in zip(spans, delta)},
            "flows": [{"interconnector": c, "hour": t, "flow": f} for c, t, f in flows],
            "prices": [{"area": a, "hour": t, "price": p} for a, t, p in prices],
        }

    def test_tol_reaches_curtailment_priority(self, capsys, tmp_path):
        # the curtailed demand segment is filled to 1 - 5e-5 while the
        # demand block d runs: a curtailment violation at 1e-6 only
        inst = make_instance({("X", 0): [[0, 10], [50, 10]]},
                             blocks=[block("s", "X", 10, [-12]), block("d", "X", 80, [2])])
        doc = self._doc(inst, [1 - 5e-5], prices=[("X", 0, 50.0)], blocks={"s": 1, "d": 1})
        strict = self._verify_doc(capsys, tmp_path, inst, doc)
        assert strict["curtailment_priority"]["pass"] is False
        assert strict["pass"] is False
        loose = self._verify_doc(capsys, tmp_path, inst, doc, "--tol", "1e-3")
        assert loose["clearing_balance_residual"] == pytest.approx(5e-4)
        for check in ("bounds", "filling", "flow_price", "bid_prices", "curtailment_priority"):
            assert loose[check]["pass"] is True, check
        assert loose["pass"] is True

    def test_child_without_its_parent_fails(self, capsys, tmp_path):
        # a 20 MW supply step at 5; child q runs without its parent p, and
        # every other check passes with the curve balancing q at fill 0.75
        inst = make_instance({("X", 0): [[5, 0], [5, -20]]},
                             blocks=[block("p", "X", 80, [5]), block("q", "X", 10, [5])],
                             links=[("q", "p")])
        prices = [("X", 0, 5.0)]
        doc = self._verify_doc(capsys, tmp_path, inst,
                               self._doc(inst, [0.75], prices=prices, blocks={"p": 0, "q": 1}))
        assert doc["links"] == {"pass": False, "violations": [
            {"location": ["q", "p"], "amount": 1.0, "condition": "link"}]}
        assert doc["clearing_balance_residual"] == 0.0
        for check in ("bounds", "filling", "flow_price", "bid_prices", "curtailment_priority"):
            assert doc[check]["pass"] is True, check
        assert doc["pass"] is False
        doc = self._verify_doc(capsys, tmp_path, inst,
                               self._doc(inst, [0.5], prices=prices, blocks={"p": 1, "q": 1}))
        assert doc["links"] == {"pass": True, "violations": []}
        assert doc["pass"] is True

    def _two_area(self, ramp=None):
        """20 MW of supply at 10 in R, 20 MW of demand at 60 in S, and a
        connector R -> S bounded to [-5, 5]."""
        return make_instance(
            {("R", 0): [[10, 0], [10, -20]], ("S", 0): [[60, 20], [60, 0]]},
            [connector("c", "R", "S", [-5], [5], ramp=ramp)],
        )

    def test_flow_beyond_its_bound_fails(self, capsys, tmp_path):
        # flow 8 balances both areas for welfare 600; clear finds 450 at flow 5
        inst = self._two_area()
        prices = [("R", 0, 10.0), ("S", 0, 60.0)]
        doc = self._verify_doc(capsys, tmp_path, inst,
                               self._doc(inst, [0.6, 0.4], [("c", 0, 8.0)], prices))
        assert doc["bounds"] == {"pass": False, "violations": [
            {"location": ["c", 0], "amount": 3.0, "condition": "flow-bound"}]}
        assert doc["clearing_balance_residual"] == 0.0
        assert doc["pass"] is False
        doc = self._verify_doc(capsys, tmp_path, inst,
                               self._doc(inst, [0.75, 0.25], [("c", 0, 5.0)], prices))
        assert doc["pass"] is True
        assert doc["welfare"] == pytest.approx(450.0)

    def test_ramp_from_the_initial_flow_fails(self, capsys, tmp_path):
        # flow 5 is inside [-5, 5] but 3 MW beyond the ramp rate 2 from flow 0
        inst = self._two_area(ramp=2.0)
        doc = self._verify_doc(capsys, tmp_path, inst, self._doc(
            inst, [0.75, 0.25], [("c", 0, 5.0)], [("R", 0, 10.0), ("S", 0, 60.0)]))
        assert doc["bounds"] == {"pass": False, "violations": [
            {"location": ["c", 0, "fwd"], "amount": 3.0, "condition": "ramp"}]}
        assert doc["flow_price"]["pass"] is True
        assert doc["pass"] is False

    def test_fill_outside_the_unit_interval_fails(self, capsys, tmp_path):
        # the 20 MW supply segment filled to -0.5 sells 30 MW to the block
        inst = make_instance({("X", 0): [[10, 0], [10, -20]]},
                             blocks=[block("d", "X", 80, [30])])
        doc = self._verify_doc(capsys, tmp_path, inst, self._doc(
            inst, [-0.5], prices=[("X", 0, 10.0)], blocks={"d": 1}))
        seg = next(s for s in inst.segments if s.quantity_span)
        assert doc["bounds"] == {"pass": False, "violations": [
            {"location": ["X", 0, seg.id], "amount": 0.5, "condition": "fill-bound"}]}
        assert doc["clearing_balance_residual"] == 0.0
        assert doc["pass"] is False

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_clear_output_passes_on_every_fixture(self, capsys, tmp_path, mode):
        verified = 0
        for path in sorted((ROOT / "fixtures").glob("*.json")):
            code, out = _run(capsys, "clear", "--instance", str(path), "--mode", mode)
            if code == 2:  # no selection has loss-free prices: no document
                continue
            assert code == 0
            sol = _write(tmp_path, "sol.json", out)
            code, out = _run(capsys, "verify", "--instance", str(path), "--solution", sol)
            assert code == 0
            doc = json.loads(out)
            assert doc["bounds"]["pass"] is True, path.name
            assert doc["pass"] is True, path.name
            verified += 1
        assert verified == 2

    def test_nan_price_is_input_error(self, capsys, tmp_path):
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE))
        doc = json.loads(out)
        doc["prices"][0]["price"] = float("nan")
        sol = _write(tmp_path, "sol.json", json.dumps(doc))
        code, out = _run(capsys, "verify", "--instance", str(FIXTURE),
                         "--solution", sol)
        assert code == 4
        assert out == ""


    def test_second_spelling_of_a_segment_id_is_input_error(self, capsys, tmp_path):
        # zeroing segment 1's fill fails the document; "01" once gave the
        # fill back, after "1", and the document passed
        path = _write(tmp_path, "inst.json", serialize_instance(bench_instance("day-book", 3000)))
        code, out = _run(capsys, "clear", "--instance", path)
        doc = json.loads(out)
        fill, doc["delta"]["1"] = doc["delta"]["1"], 0.0
        assert 0.0 < fill < 1.0
        for extra, want in (({}, 0), ({"01": fill}, 4)):
            delta = {**doc["delta"], **extra}
            sol = _write(tmp_path, "sol.json", json.dumps({**doc, "delta": delta}))
            code, out = _run(capsys, "verify", "--instance", path, "--solution", sol)
            assert code == want
            if want == 0:
                assert json.loads(out)["pass"] is False
            else:
                assert out == ""

    def _verify_edited(self, capsys, tmp_path, edit):
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE))
        doc = json.loads(out)
        edit(doc)
        sol = _write(tmp_path, "sol.json", json.dumps(doc))
        code = run(["verify", "--instance", str(FIXTURE), "--solution", sol])
        return code, capsys.readouterr()

    def _verify_prices(self, capsys, tmp_path, prices):
        return self._verify_edited(capsys, tmp_path, lambda doc: doc.update(prices=prices))

    def _assert_unknown_id(self, code, captured, named):
        assert code == 4
        assert captured.out == ""
        assert "unknown" in captured.err and named in captured.err

    def test_unknown_interconnector_flow_is_input_error(self, capsys, tmp_path):
        flow = {"interconnector": "nope", "hour": 0, "flow": 1e6}
        code, captured = self._verify_edited(
            capsys, tmp_path, lambda doc: doc["flows"].append(flow))
        self._assert_unknown_id(code, captured, "'nope'")

    @pytest.mark.parametrize("area, named", [("ZZ", "'ZZ'"), ("X", "hour 7")])
    def test_unknown_area_hour_price_is_input_error(self, capsys, tmp_path, area, named):
        price = {"area": area, "hour": 7, "price": 3.0}
        code, captured = self._verify_edited(
            capsys, tmp_path, lambda doc: doc["prices"].append(price))
        self._assert_unknown_id(code, captured, named)

    @pytest.mark.parametrize("kind, value", [("blocks", 0), ("flex", None)])
    def test_unknown_selection_id_is_input_error(self, capsys, tmp_path, kind, value):
        code, captured = self._verify_edited(
            capsys, tmp_path, lambda doc: doc["selection"][kind].update(nope=value))
        self._assert_unknown_id(code, captured, "'nope'")

    @pytest.mark.parametrize("hour", [-1, 2])
    def test_flex_in_an_unknown_hour_is_input_error(self, capsys, tmp_path, hour):
        inst = make_instance(
            {("X", t): [[0, 10], [50, 10], [50, -10], [100, -10]] for t in range(2)},
            hours=2, flex=[flexbid("f", "X", 90, 5)],
        )
        path = _write(tmp_path, "instance.json", serialize_instance(inst))
        code, out = _run(capsys, "clear", "--instance", path)
        assert code == 0
        doc = json.loads(out)
        doc["selection"]["flex"]["f"] = hour
        sol = _write(tmp_path, "sol.json", json.dumps(doc))
        code = run(["verify", "--instance", path, "--solution", sol])
        self._assert_unknown_id(code, capsys.readouterr(), f"'f' executed in unknown hour {hour}")

    def test_missing_price_is_input_error(self, capsys, tmp_path):
        code, captured = self._verify_prices(capsys, tmp_path, [])
        assert code == 4
        assert captured.out == ""
        assert "$.prices" in captured.err
        assert "'X', hour 0" in captured.err

    @pytest.mark.parametrize("first", [False, True])
    def test_repeated_price_is_input_error(self, capsys, tmp_path, first):
        # a second price for X/0, after or before the clear's own: either
        # order is the same input error, at the later entry
        extra = {"area": "X", "hour": 0, "price": 99.0}

        def edit(doc):
            doc["prices"].insert(0 if first else len(doc["prices"]), extra)

        code, captured = self._verify_edited(capsys, tmp_path, edit)
        assert code == 4
        assert captured.out == ""
        assert "repeated entry for area 'X' hour 0" in captured.err

    def test_prices_must_be_a_list(self, capsys, tmp_path):
        code, captured = self._verify_prices(capsys, tmp_path, 5)
        assert code == 4
        assert captured.out == ""
        assert "$.prices" in captured.err


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _ = _run(capsys, "clear", "--instance", "/nonexistent.json")
        assert code == 4

    def test_malformed_json(self, capsys, tmp_path):
        path = _write(tmp_path, "bad.json", "{not json")
        code, _ = _run(capsys, "clear", "--instance", path)
        assert code == 4

    def test_schema_error(self, capsys, tmp_path):
        path = _write(tmp_path, "bad.json", json.dumps({"hours": 1}))
        code, _ = _run(capsys, "clear", "--instance", path)
        assert code == 4

    @pytest.mark.parametrize("name", sorted(repeated_key_documents()))
    def test_repeated_key_in_an_instance(self, capsys, tmp_path, name):
        path = _write(tmp_path, "inst.json", repeated_key_documents()[name])
        code = run(["clear", "--instance", path])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert f"a key is repeated within one object: '{REPEATED_KEYS[name]}'" in captured.err

    @pytest.mark.parametrize("option", ["--abs-gap", "--time-limit"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "x"])
    def test_option_must_be_finite_and_non_negative(self, capsys, option, value):
        code = run(["clear", "--instance", str(FIXTURE), f"{option}={value}"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert option in captured.err

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_verify_tol_must_be_finite_and_non_negative(self, capsys, value):
        # with --tol inf every check passes, whatever the prices
        code = run(["verify", "--instance", str(FIXTURE), "--solution", str(FIXTURE),
                    f"--tol={value}"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_non_numeric_flow_bound(self, capsys, tmp_path):
        doc = json.loads(serialize_instance(f3()))
        doc["interconnectors"][0]["upper"][0] = "x"
        path = _write(tmp_path, "bad.json", json.dumps(doc))
        code = run(["clear", "--instance", path])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "$.interconnectors[0].upper[0]" in captured.err

    @pytest.mark.parametrize("command", ["clear", "oracle"])
    def test_no_areas(self, capsys, tmp_path, command):
        doc = json.loads(FIXTURE.read_text())
        doc["areas"], doc["curves"], doc["blocks"] = [], [], []
        path = _write(tmp_path, "bad.json", json.dumps(doc))
        code = run([command, "--instance", path])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "$.areas" in captured.err

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_huge_block_quantity_is_input_error(self, capsys, tmp_path, mode):
        # finite, but beyond tolerances.MAX_MAGNITUDE: the clear's sums overflowed
        # to a NaN in the result, and writing it raised ValueError
        doc = json.loads(bench_text("paradox", 1001))
        next(b for b in doc["blocks"] if b["id"] == "s1")["quantities"][1] = 1e308
        path = _write(tmp_path, "inst.json", json.dumps(doc))
        code = run(["clear", "--instance", path, "--mode", mode])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "$.blocks[2].quantities[1]: magnitude above" in captured.err

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_huge_curve_quantity_is_input_error(self, capsys, tmp_path, mode):
        # the QP's eigenvalue solve raised LinAlgError on this curve node
        doc = json.loads(bench_text("small-suite", 2))
        doc["curves"][1]["nodes"][0][1] = 1e308
        path = _write(tmp_path, "inst.json", json.dumps(doc))
        code = run(["clear", "--instance", path, "--mode", mode])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "$.curves[1].nodes[0][1]: magnitude above" in captured.err


EXIT_CODES = {0, 2, 3, 4, 5, 6}  # the README's table


def test_mutated_documents_end_in_documented_exit_codes(capsys, tmp_path):
    # seeded edits of the fixtures and a few generated books
    # (helpers.mutated_document): every command ends in a documented exit
    # code without raising, every document it writes is strict JSON, and
    # every document of a clear that exits 0 passes verify
    sources = [p.read_text() for p in sorted((ROOT / "fixtures").glob("*.json"))]
    sources += [bench_text(family, seed) for family, seeds in (
        ("paradox", (1000, 1001)), ("day-book", (3000, 3001)), ("small-suite", (0, 1, 2, 3)))
        for seed in seeds]
    rng = np.random.default_rng(5)
    inst, sol = str(tmp_path / "inst.json"), str(tmp_path / "sol.json")
    codes = []
    for i in range(300):
        Path(inst).write_text(mutated_document(sources[i % len(sources)], rng))
        for argv in (["clear", "--mode", "exact"], ["clear", "--mode", "heuristic"], ["oracle"]):
            code, out = _run(capsys, *argv, "--instance", inst)
            codes.append(code)
            assert code in EXIT_CODES, (i, argv)
            if out:
                json.loads(out, parse_constant=_reject_constant)
            if argv[0] == "clear" and code == 0:
                Path(sol).write_text(out)
                code, out = _run(capsys, "verify", "--instance", inst, "--solution", sol)
                assert code == 0, (i, argv)
                assert json.loads(out, parse_constant=_reject_constant)["pass"] is True, (i, argv)
    # the edits reach the solver, not only the parser
    assert codes.count(0) >= 100 and codes.count(4) >= 300


@pytest.mark.parametrize("command", ["clear", "oracle", "verify"])
@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_out_is_output_error(capsys, tmp_path, command, target):
    # a missing directory, or a directory: a typed error and exit code 6,
    # not a traceback
    argv = [command, "--instance", str(FIXTURE)]
    if command == "verify":
        code, out = _run(capsys, "clear", "--instance", str(FIXTURE))
        argv += ["--solution", _write(tmp_path, "sol.json", out)]
    out = tmp_path / target
    code = run(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_solver_failure_exit_code(capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise SolverFailure("phase-1 subproblem did not converge")

    monkeypatch.setattr("daclear.qp._phase1", stalled)
    code = run(["clear", "--instance", str(FIXTURE)])
    err = capsys.readouterr().err
    assert code == 5
    assert "phase-1" in err


@pytest.mark.parametrize("status", ["infeasible", "unbounded"])
def test_verify_flow_price_lp_failure_exit_code(capsys, monkeypatch, tmp_path, status):
    # the flow-price LP always has a solution; a subproblem that ends
    # otherwise is a solver failure, not a violation of infinite amount
    from daclear import verify

    path = _write(tmp_path, "inst.json", serialize_instance(ramp_fixture()))
    code, out = _run(capsys, "clear", "--instance", path)
    sol = _write(tmp_path, "sol.json", out)
    solve_qp = verify.solve_qp
    monkeypatch.setattr(verify, "solve_qp", lambda prob: replace(solve_qp(prob), status=status))
    code = run(["verify", "--instance", path, "--solution", sol])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert f"unexpected flow-price LP status {status!r} on 'c1'" in captured.err


def test_svd_non_convergence_exit_code(capsys, monkeypatch):
    # LAPACK fails on NaN entries, as it may on a matrix it cannot
    # decompose; np.linalg.svd would raise LinAlgError, which no exit code
    # names
    from daclear import qp

    svd_f = qp.svd_f
    monkeypatch.setattr(qp, "svd_f", lambda K, signature: svd_f(np.full_like(K, np.nan),
                                                                signature=signature))
    with pytest.warns(RuntimeWarning, match="invalid value"):
        code = run(["clear", "--instance", str(FIXTURE)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert "the SVD of a working set did not converge" in captured.err


def test_python_m_daclear(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "daclear", "clear", "--instance", str(FIXTURE)],
        capture_output=True, env=env, check=False,
    )
    code, out = _run(capsys, "clear", "--instance", str(FIXTURE))
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()
