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

from ._flow import FlowNetwork
from .errors import InsufficientCapacity
from .model import ONE, ZERO, FractionalSolution, Instance


class LpOracle:
    """Memoizing evaluator of the restricted-LP value for one instance.

    Values are cached per item-id set, since the submodular search issues
    many repeated queries; :meth:`value` writes that memo, so one oracle
    serves one instance in one thread.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self._memo: dict[frozenset[int], Fraction] = {}

    def value(self, item_ids: Iterable[int]) -> Fraction:
        """Optimal LP value with all items outside the subset forced to 0."""
        key = frozenset(item_ids)
        cached = self._memo.get(key)
        if cached is None:
            cached, _y, _n = self._transport(sorted(key), [ONE] * self.inst.m)
            self._memo[key] = cached
        return cached

    def group_value(self, group_ids: Iterable[int]) -> Fraction:
        """LP value of the union of the given groups' items."""
        return self.value(self.inst.group_items(group_ids))

    def value_with_capacities(self, item_ids: Iterable[int], caps: Sequence[Fraction]) -> Fraction:
        """LP value with per-bin residual capacities; used as a search bound."""
        val, _y, _n = self._transport(sorted(set(item_ids)), list(caps))
        return val

    def solution(self, item_ids: Iterable[int]) -> FractionalSolution:
        """An optimal fractional solution in which every item is fully assigned.

        The transportation optimum may leave zero-profit fractions unassigned;
        a post-pass distributes each item's remainder into bins with residual
        capacity (items by ascending id, bins by ascending index). Such flow
        is always profit-neutral at an optimum, so the value is preserved.
        """
        items = sorted(set(item_ids))
        total = sum((self.inst.size(i) for i in items), ZERO)
        if total > self.inst.m:
            raise InsufficientCapacity(
                f"selected items have total size {total} > total capacity {self.inst.m}"
            )
        value, y, n_scale = self._transport(items, [ONE] * self.inst.m)
        shat = {i: int(self.inst.size(i) * n_scale) for i in items}
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
                avail = n_scale - used[j]
                take = min(rem, avail)
                if take > 0:
                    y[(i, j)] = y.get((i, j), 0) + take
                    used[j] += take
                    rem -= take
            assert rem == 0, "saturation must succeed when total size <= m"
        entries = {
            (i, j): Fraction(units, shat[i]) for (i, j), units in y.items() if units > 0
        }
        saturated_value = sum(
            (f * self.inst.profit(i, j) for (i, j), f in entries.items()), ZERO
        )
        assert saturated_value == value, "saturation pass must be profit-neutral"
        return FractionalSolution(entries=entries, value=value)

    def _transport(self, items: list[int], caps: list[Fraction]):
        """Solve the transportation problem; returns (value, flows, scale).

        Flows are keyed (item id, bin index) in units of 1/scale bin capacity.
        """
        inst = self.inst
        if not items:
            return ZERO, {}, 1
        n_scale = 1
        for i in items:
            n_scale = lcm(n_scale, inst.size(i).denominator)
        for c in caps:
            n_scale = lcm(n_scale, c.denominator)
        shat = {i: int(inst.size(i) * n_scale) for i in items}

        support = []
        cost_den = 1
        for i in items:
            for j in range(inst.m):
                p = inst.profit(i, j)
                if p > ZERO and caps[j] > ZERO:
                    unit = p / shat[i]
                    support.append((i, j, unit))
                    cost_den = lcm(cost_den, unit.denominator)

        n_items = len(items)
        idx = {i: 1 + k for k, i in enumerate(items)}
        src = 0
        bin_node = 1 + n_items
        sink = bin_node + inst.m
        net = FlowNetwork(sink + 1)
        for i in items:
            net.add_edge(src, idx[i], shat[i], 0)
        edge_ids: dict[tuple[int, int], int] = {}
        for i, j, unit in support:
            cost = -int(unit * cost_den)
            edge_ids[(i, j)] = net.add_edge(idx[i], bin_node + j, shat[i], cost)
        for j in range(inst.m):
            net.add_edge(bin_node + j, sink, int(caps[j] * n_scale), 0)
        net.run(src, sink, stop_on_nonnegative=True)

        y: dict[tuple[int, int], int] = {}
        value = ZERO
        for (i, j), e in edge_ids.items():
            units = net.flow_on(e)
            if units > 0:
                y[(i, j)] = units
                value += Fraction(units, shat[i]) * inst.profit(i, j)
        return value, y, n_scale

