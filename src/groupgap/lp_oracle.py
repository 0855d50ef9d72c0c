"""Exact LP values over item subsets, via an equivalent transportation problem.

The assignment LP restricted to an item subset S maximizes sum(x_ij * p_ij)
subject to sum_j(x_ij) <= 1 per item and sum_i(x_ij * s_i) <= 1 per bin.
Substituting y_ij = x_ij * s_i (the bin capacity item i actually occupies)
turns this into a transportation problem: item i supplies s_i units, every
bin accepts one unit, and a unit of i in bin j is worth p_ij / s_i. After
clearing denominators the transportation problem is an integer min-cost
flow whose optimum is attained at integral flows, so mapping the solution
back yields the exact rational LP optimum.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from ._flow import transport
from .errors import InsufficientCapacity
from .model import ONE, ZERO, FractionalSolution, Instance


class LpOracle:
    """Memoizing evaluator of the restricted-LP value for one instance.

    Values are cached per item-id set, since the submodular search issues
    many repeated queries; :meth:`value` writes that memo, so one oracle
    serves one instance in one thread.

    The integer tables of the transportation network are built once per
    instance: ``scale`` is the lcm of every item-size denominator, item i
    supplies ``shat[i] = s_i * scale`` units, and each arc (i, j) with
    p_ij > 0 costs ``-(p_ij / shat[i]) * cost_den``, where ``cost_den`` is
    the lcm of the denominators of all those unit profits. A query then only
    filters and copies ints. Against a table built for the queried subset
    alone, every capacity and every cost is multiplied by one positive
    constant each, so Bellman-Ford's strict comparisons pick the same paths
    and the flows and values come out the same.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._memo: dict[frozenset[int], Fraction] = {}
        scale = lcm(*(it.size.denominator for it in inst.items))
        shat = {it.id: int(it.size * scale) for it in inst.items}
        units = {
            i: [(j, inst.profit(i, j) / supply) for j in range(inst.m) if inst.profit(i, j) > ZERO]
            for i, supply in shat.items()
        }
        cost_den = lcm(*(unit.denominator for row in units.values() for _j, unit in row))
        self._scale = scale
        self._shat = shat
        self._cost_den = cost_den
        # Per item, (bin, integer arc cost) in ascending bin order.
        self._arcs = {
            i: [(j, -int(unit * cost_den)) for j, unit in row] for i, row in units.items()
        }

    def value(self, item_ids: Iterable[int]) -> Fraction:
        """Optimal LP value with all items outside the subset forced to 0."""
        key = frozenset(item_ids)
        cached = self._memo.get(key)
        if cached is None:
            cached, _y = self._transport(self._known(key), [ONE] * self.inst.m)
            self._memo[key] = cached
        return cached

    def group_value(self, group_ids: Iterable[int]) -> Fraction:
        """LP value of the union of the given groups' items."""
        group_ids = tuple(group_ids)
        try:
            items = self.inst.group_items(group_ids)
        except KeyError:
            unknown = sorted(set(group_ids) - self.inst.group_map.keys())
            raise ValueError(f"unknown group ids: {unknown}") from None
        return self.value(items)

    def value_with_capacities(self, item_ids: Iterable[int], caps: Sequence[Fraction]) -> Fraction:
        """LP value with per-bin residual capacities; used as a search bound.

        ``caps`` holds one capacity >= 0 per bin; any other shape raises
        ``ValueError``.
        """
        caps = list(caps)
        if len(caps) != self.inst.m or any(cap < ZERO for cap in caps):
            raise ValueError(
                f"expected {self.inst.m} bin capacities, each >= 0; got {caps}"
            )
        val, _y = self._transport(self._known(item_ids), caps)
        return val

    def solution(self, item_ids: Iterable[int]) -> FractionalSolution:
        """An optimal fractional solution in which every item is fully assigned.

        The transportation optimum may leave zero-profit fractions unassigned;
        a post-pass distributes each item's remainder into bins with residual
        capacity (items by ascending id, bins by ascending index). Such flow
        is always profit-neutral at an optimum, so the value is preserved.
        """
        items = self._known(item_ids)
        total = sum((self.inst.size(i) for i in items), ZERO)
        if total > self.inst.m:
            raise InsufficientCapacity(
                f"selected items have total size {total} > total capacity {self.inst.m}"
            )
        # Every cap is 1, so the flows are in units of 1/scale and item i
        # supplies shat[i] of them.
        value, y = self._transport(items, [ONE] * self.inst.m)
        scale, shat = self._scale, self._shat
        used = [0] * self.inst.m
        assigned = {i: 0 for i in items}
        for (i, j), units in y.items():
            used[j] += units
            assigned[i] += units
        for i in items:
            rem = shat[i] - assigned[i]
            for j in range(self.inst.m):
                if rem == 0:
                    break
                take = min(rem, scale - used[j])
                if take > 0:
                    y[(i, j)] = y.get((i, j), 0) + take
                    used[j] += take
                    rem -= take
            assert rem == 0, "saturation must succeed when total size <= m"
        x = FractionalSolution(
            entries={(i, j): Fraction(units, shat[i]) for (i, j), units in y.items() if units > 0},
            value=value,
        )
        assert x.recompute_value(self.inst) == value, "saturation pass must be profit-neutral"
        return x

    def _known(self, item_ids: Iterable[int]) -> list[int]:
        """The distinct ids in ascending order; ``ValueError`` names any unknown one."""
        items = sorted(set(item_ids))
        unknown = [i for i in items if i not in self._shat]
        if unknown:
            raise ValueError(f"unknown item ids: {unknown}")
        return items

    def _transport(self, items: list[int], caps: list[Fraction]):
        """Solve the transportation problem; returns (value, flows).

        Flows are keyed (item id, bin index) in units of 1/(scale * c) bin
        capacity. The network comes from the per-instance tables: item i
        supplies ``shat[i] * c`` units and bin j accepts ``caps[j] * scale *
        c``, where ``c = lcm(scale, cap denominators) // scale`` is 1 unless
        ``caps`` has denominators that ``scale`` lacks. The value is read off
        the integer flow cost, which is ``-value * cost_den * c``. Arcs run
        to the bins with a positive cap, items ascending, then bins
        ascending: the order that Bellman-Ford's tie-breaks depend on.
        """
        if not items:
            return ZERO, {}
        c = lcm(self._scale, *(cap.denominator for cap in caps)) // self._scale
        live = [cap > ZERO for cap in caps]
        arcs = [(k, j, cost) for k, i in enumerate(items) for j, cost in self._arcs[i] if live[j]]
        supply = [self._shat[i] * c for i in items]
        demand = [int(cap * self._scale * c) for cap in caps]
        _flow, cost, flows = transport(supply, demand, arcs, stop_on_nonnegative=True)
        y = {(items[k], j): units for (k, j, _cost), units in zip(arcs, flows) if units > 0}
        return Fraction(-cost, self._cost_den * c), y
