"""JSON instance and report formats.

Files use 1-based bin indices and ``"p/q"`` rational strings; the library
is 0-based internally. Canonical serialization (sorted keys, items by id,
profits by (item, bin), zero profits dropped) makes round-trips
byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import ValidationError
from .filling import FillStep
from .model import (
    Assignment,
    Group,
    Instance,
    Item,
    ZERO,
    parse_rational,
    render_rational,
)
from .pipeline import SolveReport


def _field_rational(doc: Any, field: str) -> Fraction:
    # A float is no exact rational: 0.3333333333333333 would load as
    # 3333333333333333/10**16, not the 1/3 it stands for.
    if isinstance(doc, float):
        raise ValidationError(f'{field}: expected a "p/q" string or an integer, got {doc!r}')
    try:
        return parse_rational(doc)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{field}: {exc}") from None


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
            if p != ZERO
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
        item_id = _field_int(entry.get("id"), f"items[{k}].id")
        size = _field_rational(entry.get("size"), f"items[{k}].size")
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
                    sorted(_field_int(i, f"groups[{k}][{p}]") for p, i in enumerate(members))
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
        item_id = _field_int(entry.get("item"), f"profits[{k}].item")
        bin_index = _field_int(entry.get("bin"), f"profits[{k}].bin")
        value = _field_rational(entry.get("value"), f"profits[{k}].value")
        key = (item_id, bin_index - 1)
        if key in seen:
            raise ValidationError(
                f"profits[{k}]: duplicate entry for item {item_id}, bin {bin_index}"
            )
        seen.add(key)
        if value != ZERO:
            profits[key] = value
    return Instance(m=m, items=tuple(items), groups=tuple(groups), profits=profits)


def dumps_canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


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
