"""JSON instance and report formats.

Files use 1-based bin indices and ``"p/q"`` rational strings; the library
is 0-based internally. Canonical serialization (sorted keys, items by id,
profits by (item, bin), zero profits dropped) makes round-trips
byte-stable.

The canonical text is exactly ``json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False)`` followed by a newline, the same characters and the
same exceptions. :func:`dumps_canonical` writes it itself because
``json.dumps`` takes its C encoder only without ``indent``: with it, json
runs a pure-Python generator per container. That, with Fraction's regex
parser and an f-string per field name, made the JSON round trip of a
120-item, 16-bin instance take longer than solving it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from math import inf
from pathlib import Path
from typing import Any, Callable

from .errors import ValidationError
from .filling import FillStep
from .model import (
    Assignment,
    Group,
    Instance,
    Item,
    parse_rational,
    render_rational,
)
from .pipeline import SolveReport


def _field_rational(doc: Any, array: str, k: int, key: str) -> Fraction:
    """``doc`` read as a rational, or ValidationError naming ``array[k].key``."""
    # A float is no exact rational: 0.3333333333333333 would load as
    # 3333333333333333/10**16, not the 1/3 it stands for.
    if isinstance(doc, float):
        raise ValidationError(
            f'{array}[{k}].{key}: expected a "p/q" string or an integer, got {doc!r}'
        )
    try:
        return parse_rational(doc)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{array}[{k}].{key}: {exc}") from None


def _field_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field}: expected an integer, got {value!r}")
    return value


def instance_to_dict(inst: Instance) -> dict:
    return {
        "m": inst.m,
        "items": [
            {"id": it.id, "size": render_rational(it.size)}
            for it in sorted(inst.items, key=lambda it: it.id)
        ],
        "groups": [sorted(g.members) for g in inst.groups],
        "profits": [
            {"item": i, "bin": j + 1, "value": render_rational(p)}
            for (i, j), p in sorted(inst.profits.items())
            if p != 0  # Fraction.__eq__ has a fast path for an int
        ],
    }


def instance_from_dict(doc: Any) -> Instance:
    if not isinstance(doc, dict):
        raise ValidationError("document: expected a JSON object")
    m = _field_int(doc.get("m"), "m")
    items_doc = doc.get("items")
    if not isinstance(items_doc, list):
        raise ValidationError("items: expected an array")
    items = []
    for k, entry in enumerate(items_doc):
        if not isinstance(entry, dict):
            raise ValidationError(f"items[{k}]: expected an object")
        # A field's name is built only for its error message.
        item_id = entry.get("id")
        if type(item_id) is not int:
            item_id = _field_int(item_id, f"items[{k}].id")
        size = _field_rational(entry.get("size"), "items", k, "size")
        items.append(Item(id=item_id, size=size))
    groups_doc = doc.get("groups")
    if not isinstance(groups_doc, list):
        raise ValidationError("groups: expected an array of arrays")
    groups = []
    for k, members in enumerate(groups_doc):
        if not isinstance(members, list):
            raise ValidationError(f"groups[{k}]: expected an array of item ids")
        groups.append(
            Group(
                id=k,
                members=tuple(
                    sorted(
                        i if type(i) is int else _field_int(i, f"groups[{k}][{p}]")
                        for p, i in enumerate(members)
                    )
                ),
            )
        )
    profits: dict[tuple[int, int], Fraction] = {}
    seen: set[tuple[int, int]] = set()
    profits_doc = doc.get("profits", [])
    if not isinstance(profits_doc, list):
        raise ValidationError("profits: expected an array")
    for k, entry in enumerate(profits_doc):
        if not isinstance(entry, dict):
            raise ValidationError(f"profits[{k}]: expected an object")
        item_id = entry.get("item")
        if type(item_id) is not int:
            item_id = _field_int(item_id, f"profits[{k}].item")
        bin_index = entry.get("bin")
        if type(bin_index) is not int:
            bin_index = _field_int(bin_index, f"profits[{k}].bin")
        value = _field_rational(entry.get("value"), "profits", k, "value")
        key = (item_id, bin_index - 1)
        if key in seen:
            raise ValidationError(
                f"profits[{k}]: duplicate entry for item {item_id}, bin {bin_index}"
            )
        seen.add(key)
        if value != 0:
            profits[key] = value
    return Instance(m=m, items=tuple(items), groups=tuple(groups), profits=profits)


def _float_text(x: float) -> str:
    """json's spelling of a float (``allow_nan``): repr, or NaN and ±Infinity."""
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key: Any) -> str:
    """json's conversion of a dict key: a str (a subclass too) as it is."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


# The text of each exact scalar type; a subclass (an IntEnum, say) is
# written as its base type, as json writes it.
_ATOMS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _none: "null",
}


def _write(o: Any, indent: str, out: list[str], open_ids: set[int]) -> None:
    """Append ``o``'s text to ``out``.

    ``indent`` is the newline and indentation that start ``o``'s closing
    bracket's line, and ``open_ids`` holds the containers written around it.
    """
    atom = _ATOMS.get(type(o))
    if atom is not None:
        out.append(atom(o))
        return
    if isinstance(o, (dict, list, tuple)):
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        if id(o) in open_ids:
            raise ValueError("Circular reference detected")
        open_ids.add(id(o))
        inner = indent + "  "
        if isinstance(o, dict):
            sep = "{" + inner
            for key, value in sorted(o.items()):
                key = key if type(key) is str else _key_text(key)
                out.append(f"{sep}{encode_basestring(key)}: ")
                _write(value, inner, out, open_ids)
                sep = "," + inner
            out.append(indent + "}")
        else:
            sep = "[" + inner
            for value in o:
                out.append(sep)
                _write(value, inner, out, open_ids)
                sep = "," + inner
            out.append(indent + "]")
        open_ids.discard(id(o))
        return
    for base in (str, int, float):
        if isinstance(o, base):
            out.append(_ATOMS[base](o))
            return
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps_canonical(doc: Any) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`` and a
    newline, the same text and the same errors, written in one recursive pass
    (json's own indented encoder is its slower pure-Python one)."""
    out: list[str] = []
    _write(doc, "\n", out, set())
    out.append("\n")
    return "".join(out)


def load_instance(path: str | Path) -> Instance:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"document: invalid JSON ({exc})") from None
    return instance_from_dict(doc)


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_canonical(instance_to_dict(inst)), encoding="utf-8")


def assignment_to_bins(assignment: Assignment) -> list[list[int]]:
    return [sorted(b) for b in assignment.bins]


def report_to_dict(report: SolveReport, assignment: Assignment) -> dict:
    return {
        "selected_groups": [g + 1 for g in report.selected_groups],
        "group_lp_value": render_rational(report.group_lp_value),
        "fractional_value": render_rational(report.fractional_value),
        "rounded_profit": render_rational(report.rounded_profit),
        "final_profit": render_rational(report.final_profit),
        "satisfied_profit": render_rational(report.satisfied_profit),
        "upper_bound": render_rational(report.upper_bound),
        "certificates": dict(report.certificates),
        "stage_seconds": dict(report.stage_seconds),
        "bins": assignment_to_bins(assignment),
    }


def fill_step_to_dict(step: FillStep) -> dict:
    out = {
        "kind": step.kind,
        "bins": [j + 1 for j in step.bins],
        "evicted": list(step.evicted),
        "profit_before": render_rational(step.profit_before),
        "profit_after": render_rational(step.profit_after),
    }
    if step.counts is not None:
        out["overfull_count"], out["semi_vacant_count"] = step.counts
    return out
