"""Exact LP values over item subsets, via an equivalent transportation problem.

The assignment LP restricted to an item subset S maximizes sum(x_ij * p_ij)
subject to sum_j(x_ij) <= 1 per item and sum_i(x_ij * s_i) <= 1 per bin.
Substituting y_ij = x_ij * s_i (the bin capacity item i actually occupies)
turns this into a transportation problem: item i supplies s_i units, every
bin accepts one unit, and a unit of i in bin j is worth p_ij / s_i. After
clearing denominators the transportation problem is an integer min-cost
flow whose optimum is attained at integral flows, so mapping the solution
back yields the exact rational LP optimum.

Closed form. For every item set, the LP value is at most the sum of each
item's largest profit max_j p_ij, since sum_j(x_ij) <= 1, and equality
forces every item with a positive profit wholly into a bin where that
profit is attained. Where each such item has one strictly most profitable
bin and those bins hold all of them whole, that assignment is feasible,
so it is the unique optimum: every exact solver, the cold and the warm
successive shortest paths included, returns exactly that flow.
:meth:`LpOracle._closed_form` writes it down without a network: the same
units and the same flows, in the same order, as a transport solve. Items
without a positive profit have no arc and ship nothing either way. Other
sets, a tie for an item's best profit or an overflowing best bin, are
solved as below.

Warm start. Next to the memo of values, the oracle keeps the optimal
flows of the last ``_FLOWS_KEPT`` sets it solved. On a miss for S,
:meth:`LpOracle.value` looks for the largest of those sets that is a
non-empty proper subset B of S holding at least half of S's items
(``2 * |B| >= |S|``) and re-optimises from B's flow
(:func:`._flow.reoptimize`): ``value(S) = value(B) - cost / cost_den``,
where the re-optimisation's cost is never positive (a positive one raises
``InvariantViolated``). With no such B, S is solved cold from the zero
flow. The half rule is a property of the query, not a setting: a warm run
needs fewer augmenting paths, but each one reroutes through the preloaded
flow and scans more of the network, so the saving shrinks as the share of
new items grows. Warming from any subset made vod 36/6/12 solves (the
benchmark's oracle-heavy workload) about 16% slower than warming only from
half-size ones. Keeping only the latest flows bounds their memory and
the base search's scan on the selection's long fallback search.

Why nothing downstream can change: the LP optimum value is unique even
where the optimal flow is not, so a warm value equals the cold one and the
selection search, which reads only values, makes the same choices.
:meth:`LpOracle.solution`, the one caller that reads a flow, reuses the
kept flow only when that flow was solved cold or in closed form, and is
then byte-identical to a fresh cold solve; otherwise it takes the closed
form or solves cold itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from ._flow import reoptimize, transport
from .errors import InsufficientCapacity, InvariantViolated
from .model import ZERO, FractionalSolution, Instance


# How many of the latest solved sets keep their optimal flow. Every
# measured branch-and-bound search fits (the most is 714 solves, uniform
# 120 items / 32 groups / 16 bins, seed 2); the guess-greedy fallback's
# tens of thousands of solves would otherwise hold a flow dict apiece.
_FLOWS_KEPT = 1024


class _Flow(NamedTuple):
    """An optimal flow, as ``_transport`` returns it, and whether it is the
    cold solve's flow: solved from the zero flow, or in closed form."""

    units: dict[tuple[int, int], int]
    cold: bool


class LpOracle:
    """Memoizing evaluator of the restricted-LP value for one instance.

    Values are cached per item-id set, since the submodular search issues
    many repeated queries, and so are the optimal flows of the latest
    solves; :meth:`value` writes both, so one oracle serves one instance in
    one thread. A miss is answered in closed form where every item with a
    positive profit fits its unique most profitable bin; otherwise it is
    re-optimised from the largest kept proper subset holding at least half
    of its items, or solved cold when there is none (see the module
    docstring). Either way the value is the LP optimum. A closed-form flow
    is kept as a cold one, since it is the cold solve's flow.
    :meth:`solution` reuses a kept flow only if it was solved cold.

    The integer tables of the transportation network are built once per
    instance: ``scale`` is the lcm of every item-size denominator, item i
    supplies ``shat[i] = s_i * scale`` units, and each arc (i, j) with
    p_ij > 0 costs ``-(p_ij / shat[i]) * cost_den``, where ``cost_den`` is
    the lcm of the denominators of all those unit profits. The build uses
    integers only: with p_ij = num / den in lowest terms and
    ``g = gcd(num, shat[i])``, the unit profit in lowest terms is
    ``(num / g) / (den * shat[i] / g)``, so no rational is ever multiplied
    or divided (profits may be ints too). Every query (:meth:`value`,
    :meth:`solution`) goes through one solve path, :meth:`_transport`,
    which only copies ints and reuses the per-instance demand list. Against
    a table built for the queried subset alone, every capacity and every
    cost is multiplied by one positive constant each, so Bellman-Ford's
    strict comparisons pick the same paths and the flows and values come
    out the same. The build also records each item's most profitable bin,
    if unique, for the closed form; it reads each profit once, in the same
    loop.

    The LP value is ``-cost / cost_den``, so the memo and the warm-start
    gains are ints in units of ``1 / cost_den``; a Fraction is built only
    where :meth:`value` returns. The read-only :attr:`cost_den` lets a
    caller take values in those units as well.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        # LP values in units of 1 / cost_den, as ints.
        self._memo: dict[frozenset[int], int] = {}
        # The flows of the last _FLOWS_KEPT sets solved, oldest first.
        self._flows: dict[frozenset[int], _Flow] = {}
        scale = lcm(*(it.size.denominator for it in inst.items))
        shat = {it.id: it.size.numerator * (scale // it.size.denominator) for it in inst.items}
        # Per item, (bin, num, den): the unit profit p_ij / shat[i] in lowest
        # terms, for the bins with p_ij > 0 in ascending order. p_ij's own
        # terms are lowest, so only shat[i] can share a factor with its
        # numerator. Alongside, in ``top``, each item's most profitable bin
        # with p_ij's own num and den, or None on a tie for it or with no
        # p_ij > 0. Fraction's numerator and denominator are properties, so
        # each is read once.
        profit = inst.profits.get
        units = {}
        top = {}
        for i, supply in shat.items():
            row = units[i] = []
            best, best_num, best_den, unique = None, 0, 1, False
            for j in range(inst.m):
                p = profit((i, j))
                if p is None:
                    continue
                num = p.numerator
                if num > 0:
                    den = p.denominator
                    g = gcd(num, supply)
                    row.append((j, num // g, den * (supply // g)))
                    ahead = num * best_den - best_num * den
                    if ahead > 0:
                        best, best_num, best_den, unique = j, num, den, True
                    elif ahead == 0:
                        unique = False
            top[i] = (best, best_num, best_den) if unique else None
        cost_den = lcm(*(den for row in units.values() for _j, _num, den in row))
        self._scale = scale
        self._shat = shat
        self._cost_den = cost_den
        # Each bin's capacity of 1, in units of 1 / scale: the demands of
        # every query.
        self._demand = [scale] * inst.m
        # Per item, (bin, integer arc cost) in ascending bin order.
        self._arcs = {
            i: [(j, -num * (cost_den // den)) for j, num, den in row] for i, row in units.items()
        }
        # Per item, (bin, p_ij * cost_den) for its unique most profitable bin j,
        # or None: what the closed form of :meth:`_closed_form` ships and earns.
        self._top = {
            i: None if best is None else (best[0], best[1] * (cost_den // best[2]))
            for i, best in top.items()
        }

    @property
    def cost_den(self) -> int:
        """The common denominator of every LP value: ``value(S) * cost_den``
        is an int for every item set S."""
        return self._cost_den

    def value(self, item_ids: Iterable[int]) -> Fraction:
        """Optimal LP value with all items outside the subset forced to 0."""
        key = frozenset(item_ids)
        units = self._memo.get(key)
        if units is None:
            items = self._known(key)
            solved = self._closed_form(items)
            base = None if solved is not None else self._base(key)
            if solved is not None:
                units, y = solved
            elif base is None:
                units, y = self._transport(items)
            else:
                gain, y = self._transport(items, start=self._flows[base].units)
                if gain < 0:
                    raise InvariantViolated(
                        f"warm LP value fell by {Fraction(-gain, self._cost_den)}"
                        " below a subset's value"
                    )
                units = self._memo[base] + gain
            self._memo[key] = units
            self._flows[key] = _Flow(y, base is None)
            if len(self._flows) > _FLOWS_KEPT:
                del self._flows[next(iter(self._flows))]
        return Fraction(units, self._cost_den)

    def _base(self, key: frozenset[int]) -> frozenset[int] | None:
        """The largest set with a kept flow that is a proper subset of ``key``
        holding at least half its items, the first solved among equals."""
        best = None
        for other in self._flows:
            if 2 * len(other) >= len(key) and (best is None or len(other) > len(best)):
                if other < key:
                    best = other
        return best

    def group_value(self, group_ids: Iterable[int]) -> Fraction:
        """LP value of the union of the given groups' items."""
        group_ids = tuple(group_ids)
        try:
            items = self.inst.group_items(group_ids)
        except KeyError:
            unknown = sorted(set(group_ids) - self.inst.group_map.keys())
            raise ValueError(f"unknown group ids: {unknown}") from None
        return self.value(items)

    def solution(self, item_ids: Iterable[int]) -> FractionalSolution:
        """An optimal fractional solution in which every item is fully assigned.

        The transportation optimum may leave zero-profit fractions unassigned;
        a post-pass distributes each item's remainder into bins with residual
        capacity (items by ascending id, bins by ascending index). Such flow
        is always profit-neutral at an optimum, so the value is preserved.
        The optimum is a copy of the kept flow if :meth:`value` solved this
        set cold or in closed form and its flow is still kept; otherwise it
        is the closed form where that applies, and a cold solve where not.
        All three are the same flow, so the result never depends on earlier
        queries.
        """
        items = self._known(item_ids)
        total = sum((self.inst.size(i) for i in items), ZERO)
        if total > self.inst.m:
            raise InsufficientCapacity(
                f"selected items have total size {total} > total capacity {self.inst.m}"
            )
        # Every cap is 1, so the flows are in units of 1/scale and item i
        # supplies shat[i] of them.
        key = frozenset(items)
        kept = self._flows.get(key)
        if kept is not None and kept.cold:
            units, y = self._memo[key], dict(kept.units)
        else:
            units, y = self._closed_form(items) or self._transport(items)
        value = Fraction(units, self._cost_den)
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
            if rem != 0:
                raise InvariantViolated(f"saturation left {rem} units of item {i} unassigned")
        x = FractionalSolution(
            entries={(i, j): Fraction(units, shat[i]) for (i, j), units in y.items() if units > 0},
            value=value,
        )
        if x.recompute_value(self.inst) != value:
            raise InvariantViolated("saturation pass changed the LP value")
        return x

    def _known(self, item_ids: Iterable[int]) -> list[int]:
        """The distinct ids in ascending order; ``ValueError`` names any unknown one."""
        items = sorted(set(item_ids))
        unknown = [i for i in items if i not in self._shat]
        if unknown:
            raise ValueError(f"unknown item ids: {unknown}")
        return items

    def _closed_form(self, items: list[int]) -> tuple[int, dict[tuple[int, int], int]] | None:
        """The optimum of ``items`` as ``_transport`` returns it, or
        None where the closed form does not apply.

        It applies when every item with a positive profit has a unique most
        profitable bin and those bins hold all such items whole: each item
        then ships its whole supply to that bin, the unique optimum (see the
        module docstring). Items without a positive profit ship nothing.
        """
        top, arcs, shat, scale = self._top, self._arcs, self._shat, self._scale
        load = [0] * self.inst.m
        units = 0
        y = {}
        for i in items:
            best = top[i]
            if best is None:
                if arcs[i]:  # two bins tie for the item's best profit
                    return None
                continue
            j, earned = best
            supply = shat[i]
            load[j] += supply
            if load[j] > scale:
                return None
            units += earned
            y[(i, j)] = supply
        return units, y

    def _transport(
        self, items: list[int], start: dict[tuple[int, int], int] | None = None
    ) -> tuple[int, dict[tuple[int, int], int]]:
        """Solve the transportation problem; returns (units, flows).

        The value is ``units / cost_den``. Flows are keyed (item id, bin
        index) in units of 1/scale bin capacity. The network comes from the
        per-instance tables as they are: item i supplies ``shat[i]`` units
        and every bin accepts ``scale``. Arcs run items ascending, then bins
        ascending: the order that Bellman-Ford's tie-breaks depend on.

        With ``start``, the optimal flows of a subset of ``items``, the
        problem is re-optimised from those flows and the value returned is
        the gain over theirs.
        """
        if not items:
            return 0, {}
        supply = [self._shat[i] for i in items]
        arcs = [(k, j, cost) for k, i in enumerate(items) for j, cost in self._arcs[i]]
        if start is None:
            _flow, cost, flows = transport(supply, self._demand, arcs)
        else:
            preload = [start.get((items[k], j), 0) for k, j, _cost in arcs]
            _flow, cost, flows = reoptimize(supply, self._demand, arcs, preload)
        y = {(items[k], j): units for (k, j, _cost), units in zip(arcs, flows) if units > 0}
        return -cost, y
