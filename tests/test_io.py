import dataclasses
import json
from pathlib import Path

import pytest

from daclear.core import Instance
from daclear.errors import NonMonotoneCurve, SchemaError, ValidationError
from daclear.io import (
    _FIELDS,
    parse_instance,
    parse_solution,
    serialize_instance,
    solution_to_doc,
)
from daclear.driver import clear_exact
from daclear.tolerances import MAX_MAGNITUDE

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "appendix_a.json"

from helpers import (
    REPEATED_KEYS, appendix_a, bench_instance, f2, f3, ramp_fixture, random_instance,
    repeated_key_documents,
)


class TestParseInstance:
    def test_appendix_a_fixture_file(self):
        inst = parse_instance(FIXTURE.read_text())
        assert inst.areas == ("X",)
        assert inst.hours == 1
        assert len(inst.blocks) == 4

    def test_missing_field_path(self):
        with pytest.raises(SchemaError) as exc:
            parse_instance(json.dumps({"price_interval": {"lower": 0, "upper": 5}}))
        assert "$." in str(exc.value)

    def test_bad_type_path(self):
        doc = json.loads(FIXTURE.read_text())
        doc["blocks"][0]["limit_price"] = "one"
        with pytest.raises(SchemaError) as exc:
            parse_instance(json.dumps(doc))
        assert "blocks[0]" in str(exc.value)

    def test_infinite_flow_bound_is_rejected(self):
        doc = json.loads(serialize_instance(f2()))
        doc["interconnectors"][0]["upper"][0] = float("inf")
        with pytest.raises(SchemaError):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("entry", ["x", None, "-1", True])
    def test_flow_bound_entry_must_be_a_number(self, side, entry):
        doc = json.loads(serialize_instance(f2()))
        doc["interconnectors"][0][side][0] = entry
        with pytest.raises(SchemaError) as exc:
            parse_instance(json.dumps(doc))
        assert f"$.interconnectors[0].{side}[0]" in str(exc.value)

    @pytest.mark.parametrize("value", [MAX_MAGNITUDE * (1 + 1e-15), 1e308, 10**400])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_magnitude_above_the_bound_is_rejected(self, value, sign):
        # the curve node quantities are at the bound, and the flow bound
        # beyond it; an integer too large for a float is rejected alike
        doc = json.loads(serialize_instance(f2()))
        for curve in doc["curves"]:
            curve["nodes"] = [[0, MAX_MAGNITUDE], [50, -MAX_MAGNITUDE]]
        parse_instance(json.dumps(doc))
        doc["interconnectors"][0]["upper"][0] = sign * value
        with pytest.raises(SchemaError) as exc:
            parse_instance(json.dumps(doc))
        assert exc.value.path == "$.interconnectors[0].upper[0]"

    @pytest.mark.parametrize("pair", [["a", 7], [None, "a"], ["a", ["b"]]])
    def test_link_entries_must_be_block_ids(self, pair):
        doc = json.loads(FIXTURE.read_text())
        doc["links"] = [pair]
        with pytest.raises(SchemaError) as exc:
            parse_instance(json.dumps(doc))
        assert "$.links[0]" in str(exc.value)

    @pytest.mark.parametrize(
        "extra, where",
        [
            ({"area": "Y", "hour": 0}, "$.curves[1].area"),
            ({"area": "X", "hour": 1}, "$.curves[1].hour"),
            ({"area": "X", "hour": -1}, "$.curves[1].hour"),
            ({"area": "X", "hour": 0}, "$.curves[1]"),
        ],
        ids=["unknown-area", "hour-past-end", "negative-hour", "repeated"],
    )
    def test_stray_curve_entry_is_rejected(self, extra, where):
        doc = json.loads(FIXTURE.read_text())
        doc["curves"].append({**extra, "nodes": [[0.0, 1.0], [5.0, 1.0]]})
        with pytest.raises(SchemaError) as exc:
            parse_instance(json.dumps(doc))
        assert where in str(exc.value)

    @pytest.mark.parametrize("name", sorted(repeated_key_documents()))
    def test_repeated_key_is_rejected(self, name):
        # as in a solution document: the decoder keeps no value of the two,
        # and the message names the key
        with pytest.raises(SchemaError) as exc:
            parse_instance(repeated_key_documents()[name])
        assert str(exc.value) == f"$: a key is repeated within one object: '{REPEATED_KEYS[name]}'"

    def test_no_areas_is_rejected(self):
        doc = json.loads(FIXTURE.read_text())
        doc["areas"], doc["curves"], doc["blocks"] = [], [], []
        with pytest.raises(SchemaError) as exc:
            parse_instance(json.dumps(doc))
        assert "$.areas" in str(exc.value)

    def test_round_trip_preserves_semantics(self):
        for seed in range(6):
            inst = random_instance(seed)
            text = serialize_instance(inst)
            again = parse_instance(text)
            assert serialize_instance(again) == text
            assert again.areas == inst.areas
            assert again.hours == inst.hours
            assert len(again.segments) == len(inst.segments)

    @pytest.mark.parametrize("family, seeds", [
        ("small-suite", range(200)), ("paradox", range(1000, 1110)), ("day-book", range(3000, 3110)),
    ])
    def test_a_book_made_in_code_reads_back_as_written(self, family, seeds):
        # each comparison book made again through Instance(...) from its
        # fields: the writer writes its nodes, so the document reads back
        # as the same book, with the same net curves and segment ids
        for seed in seeds:
            book = bench_instance(family, seed)
            made = Instance(**{f.name: getattr(book, f.name) for f in dataclasses.fields(book)})
            again = parse_instance(serialize_instance(made))
            assert again == made, seed
            assert again.curves == made.curves == book.curves, seed

    def test_a_book_checks_its_curves_when_made(self):
        inst = f2()
        with pytest.raises(NonMonotoneCurve):
            dataclasses.replace(inst, nodes={**inst.nodes, ("R", 0): ((0.0, 0.0), (10.0, 5.0))})
        with pytest.raises(ValidationError, match="missing net curve"):
            dataclasses.replace(inst, nodes={("S", 0): inst.nodes["S", 0]})
        with pytest.raises(ValidationError, match="unknown area or hour"):
            dataclasses.replace(inst, nodes={**inst.nodes, ("R", 1): ((0.0, 0.0),)})

    def test_record_errors_come_before_curve_errors(self):
        # a document with a bad block and a curve whose nodes are not
        # monotone: io reports the block, as it reads the records before
        # the book builds its curves
        doc = json.loads(serialize_instance(f2()))
        doc["curves"][0]["nodes"] = [[0.0, 0.0], [10.0, 5.0]]
        with pytest.raises(NonMonotoneCurve):
            parse_instance(json.dumps(doc))
        doc["blocks"] = [{"id": "b", "area": "R", "limit_price": "one", "quantities": [1.0]}]
        with pytest.raises(SchemaError) as exc:
            parse_instance(json.dumps(doc))
        assert exc.value.path == "$.blocks[0].limit_price"

    def test_field_table_names_each_record_field(self):
        for cls, readers in _FIELDS.items():
            assert set(readers) == {f.name for f in dataclasses.fields(cls)}, cls.__name__

    @pytest.mark.parametrize("name", ["no_price_support", "exact_log_pricing_fails"])
    def test_written_fixture_round_trips_byte_for_byte(self, name):
        # both were written by serialize_instance; appendix_a.json is hand-written
        text = (FIXTURE.parent / f"{name}.json").read_text()
        assert serialize_instance(parse_instance(text)) == text

    def test_interconnector_ramp_rate_is_read_first(self):
        # a bad ramp rate is reported before the missing id, as the table
        # lists an interconnector's fields
        doc = json.loads(serialize_instance(f2()))
        del doc["interconnectors"][0]["id"]
        doc["interconnectors"][0]["ramp_rate"] = "fast"
        with pytest.raises(SchemaError) as exc:
            parse_instance(json.dumps(doc))
        assert exc.value.path == "$.interconnectors[0].ramp_rate"


class TestSolutionDocs:
    def test_round_trip(self):
        inst = f3()
        res = clear_exact(inst)
        text = json.dumps(solution_to_doc(inst, res.solution, res.prices))
        sel, delta, flows, prices = parse_solution(text)
        assert sel.blocks == res.solution.selection.blocks
        for k, v in res.solution.flows.items():
            assert flows[k] == v
        for k, v in res.prices.pi.items():
            assert prices[k] == v

    def test_delta_keys_survive(self):
        inst = ramp_fixture()
        res = clear_exact(inst)
        text = json.dumps(solution_to_doc(inst, res.solution, res.prices))
        _, delta, _, _ = parse_solution(text)
        for k, v in res.solution.delta.items():
            assert delta[k] == v

    @pytest.mark.parametrize("field, entry, where", [
        ("prices", {"area": "R", "hour": 0, "price": 99.0}, "$.prices[2]"),
        ("flows", {"interconnector": "c1", "hour": 0, "flow": 0.0}, "$.flows[1]"),
    ])
    def test_repeated_hourly_entry_is_rejected(self, field, entry, where):
        # whichever entry comes first, the second one for (name, hour) is
        # the error: the appended one, then the one it displaced to index 1
        inst = f3()
        res = clear_exact(inst)
        doc = solution_to_doc(inst, res.solution, res.prices)
        doc[field].append(entry)
        with pytest.raises(SchemaError) as exc:
            parse_solution(json.dumps(doc))
        assert exc.value.path == where
        doc[field].insert(0, doc[field].pop())
        with pytest.raises(SchemaError) as exc:
            parse_solution(json.dumps(doc))
        assert exc.value.path == f"$.{field}[1]"

    @pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0", "1.0", "-0"])
    def test_segment_id_has_one_spelling(self, key):
        # no key here is an id as str() writes it; int() reads all but
        # "1.0", so a second spelling of an id that the document also
        # holds would replace its fill
        inst = ramp_fixture()
        res = clear_exact(inst)
        doc = solution_to_doc(inst, res.solution, res.prices)
        doc["delta"][key] = 0.5
        with pytest.raises(SchemaError) as exc:
            parse_solution(json.dumps(doc))
        assert exc.value.path == f"$.delta.{key}"

    def test_repeated_segment_id_is_rejected(self):
        inst = ramp_fixture()
        res = clear_exact(inst)
        text = json.dumps(solution_to_doc(inst, res.solution, res.prices))
        first = text.index('"delta": {') + len('"delta": {')
        with pytest.raises(SchemaError, match="repeated"):
            parse_solution(text[:first] + '"0": 0.0, ' + text[first:])

    @pytest.mark.parametrize("field, where", [
        ("delta", "$.delta.0"), ("flows", "$.flows[0].flow"), ("prices", "$.prices[0].price"),
    ])
    def test_magnitude_above_the_bound_is_rejected(self, field, where):
        inst = f3()
        res = clear_exact(inst)
        doc = solution_to_doc(inst, res.solution, res.prices)
        if field == "delta":
            doc["delta"]["0"] = 2 * MAX_MAGNITUDE
        else:
            doc[field][0][field[:-1]] = -2 * MAX_MAGNITUDE
        with pytest.raises(SchemaError) as exc:
            parse_solution(json.dumps(doc))
        assert exc.value.path == where

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_block_value_is_rejected(self, value):
        inst = appendix_a()
        res = clear_exact(inst)
        doc = solution_to_doc(inst, res.solution, res.prices)
        bid = sorted(doc["selection"]["blocks"])[0]
        doc["selection"]["blocks"][bid] = value
        with pytest.raises(SchemaError) as exc:
            parse_solution(json.dumps(doc))
        assert exc.value.path == f"$.selection.blocks.{bid}"


def _json_dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


class TestWriter:
    """``io._dump`` writes the bytes of ``json.dumps(doc, sort_keys=True,
    indent=2, allow_nan=False)`` and fails as it does."""

    @staticmethod
    def _bench_docs():
        import importlib.util

        path = Path(__file__).resolve().parent.parent / "bench" / "generate.py"
        spec = importlib.util.spec_from_file_location("bench_generate", path)
        generate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generate)
        for family in ("small-suite", "paradox", "day-book"):
            for seed in range(50):
                yield json.loads(generate.instance_text(family, seed))

    def test_instances_and_generated_documents(self):
        from daclear.io import _dump

        fixtures = sorted(FIXTURE.parent.glob("*.json"))
        assert len(fixtures) == 3
        for path in fixtures:
            inst = parse_instance(path.read_text())
            assert serialize_instance(inst) == _json_dump(json.loads(serialize_instance(inst)))
            doc = json.loads(path.read_text())
            assert _dump(doc) == _json_dump(doc)
        for doc in self._bench_docs():
            assert _dump(doc) == _json_dump(doc)

    def test_cli_clear_and_verify_outputs(self, tmp_path, capsys):
        from daclear.cli import run

        verified = 0
        for path in sorted(FIXTURE.parent.glob("*.json")):
            for mode in ("exact", "heuristic"):
                out = tmp_path / f"{path.stem}-{mode}.json"
                if run(["clear", "--mode", mode, "--instance", str(path), "--out", str(out)]):
                    continue  # no solution: the error goes to stderr
                text = out.read_text()
                assert text == _json_dump(json.loads(text))
                capsys.readouterr()
                run(["verify", "--instance", str(path), "--solution", str(out)])
                report = capsys.readouterr().out
                assert report == _json_dump(json.loads(report))
                verified += 1
        assert verified == 4

    def test_crafted_documents(self):
        import numpy as np

        from daclear.io import _dump

        docs = [
            {"esc\"\\\n\t\u0001": ["é", "☃", "😀", ""], "": {}},
            {"nested": [[], {}, [[]], {"a": {}}, [{}]], "z": (1, 2.5, (), (None,))},
            [-0.0, 0.0, 1e-320, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-7, 123456789.0],
            [True, False, None, 0, -1, 2**70],
            {"b": np.float64(0.1), "a": [np.float64(-0.0), np.float64(1e300)]},
            [], {}, (), "plain", 3, -0.0, None, True,
        ]
        for doc in docs:
            assert _dump(doc) == _json_dump(doc)

    @pytest.mark.parametrize("doc", [
        float("nan"), [float("inf")], {"x": -float("inf")}, {(1, 2): 3}, {1: "a", "b": 2},
        "np.int64", [object()], {"a": {1, 2}},
    ])
    def test_fails_as_json_does(self, doc):
        import numpy as np

        from daclear.io import _dump

        if doc == "np.int64":
            doc = [np.int64(3)]
        with pytest.raises(Exception) as expected:
            _json_dump(doc)
        with pytest.raises(Exception) as got:
            _dump(doc)
        assert got.type is expected.type

    def test_keys_must_be_strings(self):
        # json writes an int or float key as a string; every document the
        # program writes has string keys, and the writer takes no other
        from daclear.io import _dump

        for key in (1, 2.5, None, True):
            with pytest.raises(TypeError):
                _dump({key: 0})
