"""End-to-end solver: group selection, LP extraction, rounding, filling.

Stage chain and the exact inequalities it certifies:

1. Select groups with the reserved-capacity submodular search over the
   group LP value; the selection occupies at most half the bins.
2. Extract a saturated optimal fractional solution for the selected items;
   its value equals the selected groups' LP value.
3. Round to an almost feasible assignment worth at least the fractional
   value.
4. Fill: repair into a feasible assignment keeping at least half of that.

Together: final profit >= half the selected LP value, which is at least a
third of the best LP value reachable with the full capacity, giving a 1/6
worst-case ratio against the true optimum on instances whose groups each
occupy at most half the capacity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import InvariantViolated, NotAlmostFeasible, PreconditionViolated, UnsaturatedInput
from .filling import FillStep, make_feasible_traced
from .lp_oracle import LpOracle
from .model import Assignment, Instance, validate_instance
from .rounding import round_to_assignment
from .submodular import GroundElement, maximize_with_reserve


@dataclass(frozen=True)
class SolveReport:
    """Per-stage values plus exact-inequality certificates.

    ``fill_steps`` is the filling stage's trace: one
    :class:`~groupgap.filling.FillStep` per move or reinsertion, in the
    order they ran. The ``--json`` document leaves it out; ``groupgap solve
    --trace`` prints it on stderr.

    ``stage_seconds`` times the four stages (``select``, ``lp``, ``round``,
    ``fill``) and ``bound``, the upper-bound LP over all items. Its
    ``total`` runs from the start of ``select`` to the end of ``fill``: it
    excludes ``bound``, the certificates and the set-up before the search
    (validation and the oracle's tables).
    """

    selected_groups: tuple[int, ...]
    group_lp_value: Fraction
    fractional_value: Fraction
    rounded_profit: Fraction
    final_profit: Fraction
    satisfied_profit: Fraction
    upper_bound: Fraction
    certificates: Mapping[str, bool]
    stage_seconds: Mapping[str, float]
    fill_steps: tuple[FillStep, ...]

    def all_certified(self) -> bool:
        return all(self.certificates.values())


def upper_bound(inst: Instance) -> Fraction:
    """LP value over all items: relaxes integrality and the group coupling,
    so it upper-bounds the true optimum. Raises ``ValidationError`` on an
    invalid instance (the group-size cap is not needed)."""
    validate_instance(inst)
    return LpOracle(inst).value(inst.item_ids)


def _group_units(oracle: LpOracle) -> Callable[[Iterable[int]], int]:
    """``oracle.group_value`` as an int, in units of ``1 / oracle.cost_den``.

    Every call still goes through ``oracle.group_value``; only its result
    is rescaled, by a positive constant, so the selection search compares
    ints where it compared Fractions and chooses the same set.
    """
    den = oracle.cost_den

    def units(group_ids: Iterable[int]) -> int:
        value = oracle.group_value(group_ids)
        return value.numerator * (den // value.denominator)

    return units


def solve(inst: Instance) -> tuple[Assignment, SolveReport]:
    """Run the full pipeline: the feasible assignment and its report.

    Requires strict validation (every group's size at most ``m/2``).
    """
    validate_instance(inst, strict=True)
    oracle = LpOracle(inst)
    units = inst._units
    scale, den = units.scale, units.profit_den

    t0 = time.perf_counter()
    ground = [GroundElement(g.id, inst.group_size(g.id)) for g in inst.groups]
    selected = maximize_with_reserve(_group_units(oracle), ground, Fraction(inst.m))
    t1 = time.perf_counter()

    selected_items = inst.group_items(selected)
    psi_star = oracle.value(selected_items)
    x = oracle.solution(selected_items)
    t2 = time.perf_counter()

    # The stages' input errors cannot come from a strictly valid instance:
    # here they are bugs in the stage before, so they leave as internal ones.
    try:
        rounded = round_to_assignment(inst, x)
        rounded_units = units.earned(rounded)
        t3 = time.perf_counter()

        final, trace = make_feasible_traced(inst, rounded)
        final_units = units.earned(final)
        t4 = time.perf_counter()
    except (PreconditionViolated, NotAlmostFeasible, UnsaturatedInput) as exc:
        raise InvariantViolated(f"{type(exc).__name__}: {exc}") from exc

    placed = final.placed_items()
    satisfied = inst.group_items(g.id for g in inst.groups if set(g.members) <= placed)
    profit = units.profits.get
    satisfied_units = sum(
        profit((i, j), 0) for j, b in enumerate(final.bins) for i in b if i in satisfied
    )

    t5 = time.perf_counter()
    bound = oracle.value(inst.item_ids)
    t6 = time.perf_counter()
    certificates = {
        "selected_size_within_half": 2 * units.load(selected_items) <= inst.m * scale,
        "fractional_matches_group_lp": x.value == psi_star,
        "rounded_at_least_fractional": units.at_least(rounded_units, x.value),
        "final_at_least_half_rounded": 2 * final_units >= rounded_units,
        "final_at_least_half_group_lp": units.at_least(2 * final_units, psi_star),
        "final_feasible": all(units.load(b) <= scale for b in final.bins),
        "selected_groups_packed": placed == selected_items,
        "satisfied_equals_final": satisfied_units == final_units,
    }
    report = SolveReport(
        selected_groups=tuple(sorted(selected)),
        group_lp_value=psi_star,
        fractional_value=x.value,
        rounded_profit=Fraction(rounded_units, den),
        final_profit=Fraction(final_units, den),
        satisfied_profit=Fraction(satisfied_units, den),
        upper_bound=bound,
        certificates=certificates,
        stage_seconds={
            "select": t1 - t0,
            "lp": t2 - t1,
            "round": t3 - t2,
            "fill": t4 - t3,
            "bound": t6 - t5,
            "total": t4 - t0,
        },
        fill_steps=trace,
    )
    return final, report
