"""JSON documents for instances and clearing solutions.

Serialization is canonical (sorted keys, shortest round-trip floats), so
identical inputs always produce byte-identical output: the bytes of
``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``, from a
small writer (``_dump``), as ``json`` indents in pure Python.  It is also
strict: a non-finite number raises ``ValueError`` instead of being written
as ``NaN`` or ``Infinity``, and parsing rejects those constants with a
``SchemaError``, as it does a number of magnitude above ``MAX_MAGNITUDE``
and, in an instance or a solution document alike, a key repeated within
one object.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from math import inf
from typing import Any, Optional

from .core import (
    BidSelection,
    BlockBid,
    FlexBid,
    Instance,
    Interconnector,
    PriceInterval,
    PriceVector,
    PrimalSolution,
)
from .errors import SchemaError
from .tolerances import MAX_MAGNITUDE


_SENTINEL = object()


def _number(val, path) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(path, "expected a number")
    if abs(val) > MAX_MAGNITUDE:
        raise SchemaError(path, f"magnitude above {MAX_MAGNITUDE:g}")
    return float(val)


def _numbers(obj, key, path) -> tuple[float, ...]:
    return tuple(
        _number(v, f"{path}.{key}[{j}]") for j, v in enumerate(_get(obj, key, list, path))
    )


def _get(obj, key, kind, path, default=_SENTINEL):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        if default is not _SENTINEL:
            return default
        raise SchemaError(f"{path}.{key}", "missing required field")
    val = obj[key]
    if kind is float:
        return _number(val, f"{path}.{key}")
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise SchemaError(f"{path}.{key}", "expected an integer")
        return val
    if not isinstance(val, kind):
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}")
    return val


def _real_or_null(obj, key, path) -> Optional[float]:
    if _get(obj, key, object, path, default=None) is None:
        return None
    return _get(obj, key, float, path)


def _real_or_zero(obj, key, path) -> float:
    return _get(obj, key, float, path, default=0.0)


# Each instance record's document fields, in the order they are read (an
# interconnector's ramp rate first), and the reader of each: a kind that
# ``_get`` checks, or a function of (object, key, path).
_FIELDS = {
    PriceInterval: {"lower": float, "upper": float},
    BlockBid: {"id": str, "area": str, "limit_price": float, "quantities": _numbers},
    FlexBid: {"id": str, "area": str, "limit_price": float, "quantity": float},
    Interconnector: {"ramp_rate": _real_or_null, "id": str, "source": str, "sink": str,
                     "lower": _numbers, "upper": _numbers, "initial_flow": _real_or_zero},
}


def _record(cls, obj, path):
    """The ``cls`` record that the document object ``obj`` at ``path`` holds."""
    values = {}
    for key, read in _FIELDS[cls].items():
        values[key] = _get(obj, key, read, path) if isinstance(read, type) else read(obj, key, path)
    return cls(**values)


def _records(cls, doc, key) -> tuple:
    """The ``cls`` records of the document's optional list ``key``."""
    entries = _get(doc, key, list, "$", default=[])
    return tuple([_record(cls, entry, f"$.{key}[{i}]") for i, entry in enumerate(entries)])


def record_doc(record) -> dict:
    """A dataclass record's fields by name, as its document writes them."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _nodes(raw, path):
    if not isinstance(raw, list):
        raise SchemaError(path, "expected a list of [price, quantity] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}[{i}]", "expected a [price, quantity] pair")
        out.append((_number(pair[0], f"{path}[{i}][0]"), _number(pair[1], f"{path}[{i}][1]")))
    return tuple(out)


def _reject_constant(name):
    raise SchemaError("$", f"non-finite number {name} is not allowed")


def _load(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_distinct_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None


def _distinct_keys(pairs) -> dict:
    """A document's JSON object: a repeated key is a SchemaError that names
    the first key to repeat."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise SchemaError("$", f"a key is repeated within one object: {key!r}")
    return out


def parse_instance(text: str) -> Instance:
    """The book that the instance document ``text`` holds.  This reads the
    document and checks what it holds (``SchemaError``); the book then
    checks itself when made (``Instance.validate``), its curves included."""
    doc = _load(text)
    interval = _record(PriceInterval, _get(doc, "price_interval", dict, "$"), "$.price_interval")
    hours = _get(doc, "hours", int, "$")
    if hours <= 0:
        raise SchemaError("$.hours", "must be positive")

    areas = []
    area_intervals = {}
    for i, entry in enumerate(_get(doc, "areas", list, "$")):
        path = f"$.areas[{i}]"
        aid = _get(entry, "id", str, path)
        areas.append(aid)
        sub = _get(entry, "price_interval", dict, path, default=None)
        if sub is not None:
            area_intervals[aid] = _record(PriceInterval, sub, f"{path}.price_interval")
    if not areas:
        raise SchemaError("$.areas", "must name at least one area")

    nodes = {}
    for i, entry in enumerate(_get(doc, "curves", list, "$")):
        path = f"$.curves[{i}]"
        a = _get(entry, "area", str, path)
        t = _get(entry, "hour", int, path)
        if a not in areas:
            raise SchemaError(f"{path}.area", f"unknown area {a!r}")
        if not 0 <= t < hours:
            raise SchemaError(f"{path}.hour", f"hour {t} is outside 0..{hours - 1}")
        if (a, t) in nodes:
            raise SchemaError(path, f"repeated curve for area {a!r} hour {t}")
        nodes[a, t] = _nodes(_get(entry, "nodes", list, path), f"{path}.nodes")
    for a in areas:
        for t in range(hours):
            if (a, t) not in nodes:
                raise SchemaError("$.curves", f"missing curve for area {a!r} hour {t}")

    blocks = _records(BlockBid, doc, "blocks")
    links = []
    for i, entry in enumerate(_get(doc, "links", list, "$", default=[])):
        path = f"$.links[{i}]"
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, str) for v in entry)
        ):
            raise SchemaError(path, "expected a [child, parent] pair of block ids")
        links.append(tuple(entry))

    return Instance(
        interval=interval,
        hours=hours,
        areas=tuple(areas),
        area_intervals=area_intervals,
        nodes=nodes,
        blocks=blocks,
        links=tuple(links),
        flex_bids=_records(FlexBid, doc, "flex"),
        interconnectors=_records(Interconnector, doc, "interconnectors"),
    )


def _dump(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)`` and a
    newline, byte for byte, for str keys and str, int, float (numpy's too),
    bool, None, list, tuple and dict values; ValueError on a non-finite
    float and TypeError on anything else, non-str keys too."""
    parts = []
    _write(doc, parts, "\n")
    return "".join(parts) + "\n"


def _write(value: Any, parts: list, newline: str) -> None:
    """Append ``value``'s JSON text to ``parts``, ``newline`` starting a line
    at its indent; a finite float item is written in place."""
    if isinstance(value, (dict, list, tuple)):
        is_dict = isinstance(value, dict)
        if not value:
            parts.append("{}" if is_dict else "[]")
            return
        inner = newline + "  "
        sep = ("{" if is_dict else "[") + inner
        for item in sorted(value.items()) if is_dict else value:
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                sep += encode_basestring_ascii(key) + ": "
            parts.append(sep)
            sep = "," + inner
            if type(item) is float and item - item == 0.0:
                parts.append(float.__repr__(item))
            else:
                _write(item, parts, inner)
        parts.append(newline + ("}" if is_dict else "]"))
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value or value in (inf, -inf):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        parts.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def serialize_instance(instance: Instance) -> str:
    """The instance document of ``instance``: its curves as their nodes
    (``Instance.nodes``), so that ``parse_instance`` reads back the book."""
    doc = {
        "price_interval": record_doc(instance.interval),
        "hours": instance.hours,
        "areas": [
            {
                "id": a,
                **(
                    {"price_interval": record_doc(instance.area_intervals[a])}
                    if a in instance.area_intervals
                    else {}
                ),
            }
            for a in instance.areas
        ],
        "curves": [
            {
                "area": a,
                "hour": t,
                "nodes": [list(pq) for pq in instance.nodes[a, t]],
            }
            for a in instance.areas
            for t in range(instance.hours)
        ],
        "blocks": [record_doc(b) for b in instance.blocks],
        "links": [list(pair) for pair in instance.links],
        "flex": [record_doc(f) for f in instance.flex_bids],
        "interconnectors": [record_doc(c) for c in instance.interconnectors],
    }
    return _dump(doc)


def selection_from_doc(doc, path="$.selection") -> BidSelection:
    blocks_doc = _get(doc, "blocks", dict, path, default={})
    flex_doc = _get(doc, "flex", dict, path, default={})
    blocks = {}
    for bid, val in blocks_doc.items():
        if isinstance(val, bool) or val not in (0, 1):
            raise SchemaError(f"{path}.blocks.{bid}", "expected 0 or 1")
        blocks[bid] = int(val)
    flex = {}
    for fid, hour in flex_doc.items():
        if hour is not None and (isinstance(hour, bool) or not isinstance(hour, int)):
            raise SchemaError(f"{path}.flex.{fid}", "expected an hour index or null")
        flex[fid] = hour
    return BidSelection(blocks=blocks, flex=flex)


def solution_to_doc(
    instance: Instance,
    solution: PrimalSolution,
    prices: Optional[PriceVector],
    **extra,
) -> dict:
    doc = {
        "selection": {
            "blocks": {b: int(v) for b, v in sorted(solution.selection.blocks.items())},
            "flex": {f: v for f, v in sorted(solution.selection.flex.items())},
        },
        "delta": {str(sid): val for sid, val in sorted(solution.delta.items())},
        "flows": [
            {"interconnector": cid, "hour": t, "flow": val}
            for (cid, t), val in sorted(solution.flows.items())
        ],
        "prices": (
            [
                {"area": a, "hour": t, "price": val}
                for (a, t), val in sorted(prices.pi.items())
            ]
            if prices is not None
            else None
        ),
    }
    doc.update(extra)
    return doc


def parse_solution(text: str) -> tuple[BidSelection, dict, dict, Optional[dict]]:
    """Returns (selection, delta by segment id, flows, prices or None)."""
    doc = _load(text)
    selection = selection_from_doc(_get(doc, "selection", dict, "$"))
    delta_doc = _get(doc, "delta", dict, "$", default={})
    delta = {}
    for key, val in delta_doc.items():
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):  # one spelling per id: str(int(key))
            raise SchemaError(f"$.delta.{key}", "expected a canonical integer segment id")
        delta[int(key)] = _number(val, f"$.delta.{key}")
    flows = _hourly(_get(doc, "flows", list, "$", default=[]), "$.flows", "interconnector", "flow")
    prices_doc = _get(doc, "prices", list, "$", default=None)
    prices = None if prices_doc is None else _hourly(prices_doc, "$.prices", "area", "price")
    return selection, delta, flows, prices


def _hourly(entries, path, name, value) -> dict:
    """{(name, hour): value} of the entries of the list at ``path``; a
    repeated (name, hour) is a SchemaError at its second entry."""
    out = {}
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        key = _get(entry, name, str, here), _get(entry, "hour", int, here)
        if key in out:
            raise SchemaError(here, f"repeated entry for {name} {key[0]!r} hour {key[1]}")
        out[key] = _get(entry, value, float, here)
    return out


def dump_document(doc: dict) -> str:
    return _dump(doc)
