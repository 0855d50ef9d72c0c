"""Exact LP values over item subsets, via an equivalent transportation problem.

The assignment LP restricted to an item subset S maximizes sum(x_ij * p_ij)
subject to sum_j(x_ij) <= 1 per item and sum_i(x_ij * s_i) <= 1 per bin.
Substituting y_ij = x_ij * s_i (the bin capacity item i actually occupies)
turns this into a transportation problem: item i supplies s_i units, every
bin accepts one unit, and a unit of i in bin j is worth p_ij / s_i. After
clearing denominators the transportation problem is an integer min-cost
flow whose optimum is attained at integral flows, so mapping the solution
back yields the exact rational LP optimum.

Replay. Successive shortest paths from the zero flow (the cold solve)
finds each augmenting path with a full Bellman-Ford search, and most of
them are the direct path source -> item -> bin -> sink.
:meth:`LpOracle._replay` takes those first paths without a search, by
:func:`._flow.replay` over the instance's arcs sorted once by (cost, bin,
item): it ships each queried item not yet shipped whole to its most
profitable bin (the lowest on a tie), and stops before an arc into a full
bin or after shipping an item in part. The argument that each step is the
path Bellman-Ford takes is in the :mod:`._flow` docstring; items sort by
id, which is their position in the network. Where the replay ships every
item with a positive profit whole, it is the cold solve's optimum: the
same units and the same flows, in the same order. That covers every set
whose items each fit into one of their most profitable bins. Items
without a positive profit have no arc and ship nothing either way.

Memo. Every LP value is kept as an int in units of ``1 / cost_den``, and
:meth:`LpOracle._value_units` is the one read of it: it looks the set up,
solves a miss and keeps its value and flow. The selection search reads
those ints directly; :meth:`LpOracle.value` wraps them in a Fraction for
every other caller.

Warm start. Next to the memo of values, the oracle keeps the optimal
flows of the last ``_FLOWS_KEPT`` sets it solved. A miss for S that the
replay does not finish leaves some items unshipped: those with a positive
profit that it did not ship whole. S is then re-optimised from the flow
of a kept base B (a warm :func:`._flow.resume`), ``value(S) = value(B) -
cost / cost_den``, when B is the largest kept non-empty proper subset of
S such that

- B holds at least half of S's items (``2 * |B| >= |S|``), and
- B lacks fewer of S's items than the replay left unshipped
  (``|S| - |B| < unshipped``).

Otherwise the cold solve goes on from the replayed flow (a cold
:func:`._flow.resume`) to its own flows. Either way
:meth:`LpOracle._transport` makes the one ``resume`` call, ``warm``
exactly when there is a base. A warm re-optimisation's cost, or a
continued run's, that loses value raises ``InvariantViolated``. Both
rules are properties of the query, not settings. A warm run needs fewer
augmenting paths, but each one reroutes through the start flow and scans
more of the network, so the saving shrinks as the share of new items
grows: without the half rule, vod 36/6/12 solves (the benchmark's
oracle-heavy workload) ran 116.76 Bellman-Ford searches each instead of
106.58 (:meth:`LpOracle._base` lists the counts). And each item still to
ship takes an augmenting path: an unshipped one in a continued run, one
that B lacks in a warm run. Where B lacks as many items, the continued
run takes no more paths, each scanning less, and its flow is cold, so
:meth:`LpOracle.solution` can reuse it. Keeping only the latest flows
bounds their memory and the base search's scan on the selection's long
fallback search.

Why nothing downstream can change: the LP optimum value is unique even
where the optimal flow is not, so a warm value equals the cold one and the
selection search, which reads only values, makes the same choices.
:meth:`LpOracle.solution`, the one caller that reads a flow, reuses the
kept flow only when that flow was solved cold, and is then byte-identical
to a fresh cold solve; otherwise it solves cold itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from ._flow import replay, resume
from .errors import InvariantViolated, PreconditionViolated
from .model import ZERO, FractionalSolution, Instance


# How many of the latest solved sets keep their optimal flow; the
# guess-greedy fallback's tens of thousands of solves would otherwise hold
# a flow dict apiece. The branch-and-bound's searches measured fit:
# generator seed 1 needs 142 solves on uniform 240 items / 64 groups / 24
# bins and 110 on uniform 200 / 48 / 20, so the selected set's flow is
# still kept when :meth:`LpOracle.solution` asks for it (which reuses it
# only if it was solved cold). A warm start's base is found among these
# sets; :meth:`LpOracle._base` says why the search's node is not passed
# instead.
_FLOWS_KEPT = 1024


class _Flow(NamedTuple):
    """An optimal flow, as ``_transport`` returns it, and whether it is the
    cold solve's flow: replayed and continued, not re-optimised."""

    units: dict[tuple[int, int], int]
    cold: bool


class LpOracle:
    """Memoizing evaluator of the restricted-LP value for one instance.

    Values are cached per item-id set, since the submodular search issues
    many repeated queries, and so are the optimal flows of the latest
    solves; :meth:`_value_units` writes both, so one oracle serves one
    instance in one thread. A miss starts with the replay of the cold
    solve's first augmenting paths, which answers it where every item with
    a positive profit ships whole to a most profitable bin. Otherwise it is
    re-optimised from the largest kept proper subset that holds at least
    half of its items and lacks fewer of them than the replay left
    unshipped, or the cold solve goes on from the replay when there is none
    (see the module docstring). Either way the value is the LP optimum.
    :meth:`solution` reuses a kept flow only if it was solved cold.

    The integer tables of the transportation network are built once per
    instance, from the instance's integer view (``model._Units``): sizes
    over ``scale``, the lcm of every item-size denominator, and profits
    over ``profit_den``, the lcm of every profit denominator. Item i
    supplies ``shat[i] = s_i * scale`` units, and each arc (i, j) with
    p_ij > 0 costs ``-(p_ij / shat[i]) * cost_den``, where ``cost_den`` is
    the lcm of the denominators of all those unit profits. The build uses
    integers only: with ``P = p_ij * profit_den`` and
    ``g = gcd(P, profit_den * shat[i])``, the unit profit in lowest terms
    is ``(P / g) / (profit_den * shat[i] / g)``, so no rational is ever
    multiplied or divided. Every query (:meth:`_value_units`, which
    :meth:`value` wraps, and :meth:`solution`) goes through one solve
    path, :meth:`_optimum`: the replay, then :meth:`_transport` where
    needed, which only copies ints and reuses the per-instance demand
    list. Against a table built for the queried subset alone, every
    capacity and every cost is multiplied by one positive constant each,
    so Bellman-Ford's strict comparisons pick the same paths and the flows
    and values come out the same; so do the replay's, which compares costs
    and ids only.

    The LP value is ``-cost / cost_den``, so the memo and the warm-start
    gains are ints in units of ``1 / cost_den``. :meth:`_value_units` is
    the one read of the memo: it returns that int, and the selection search
    calls it directly, since only comparisons of values scaled by one
    positive constant steer the search. :meth:`value` wraps it in a
    Fraction for every other caller.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        # LP values in units of 1 / cost_den, as ints.
        self._memo: dict[frozenset[int], int] = {}
        # The flows of the last _FLOWS_KEPT sets solved, oldest first.
        self._flows: dict[frozenset[int], _Flow] = {}
        view = inst._units
        scale, shat = view.scale, view.sizes
        # Per item, (bin, num, den): the unit profit p_ij / shat[i] in lowest
        # terms, for the bins with p_ij > 0 in ascending order.
        profit = view.profits.get
        units = {}
        for i, supply in shat.items():
            row = units[i] = []
            den = view.profit_den * supply
            for j in range(inst.m):
                num = profit((i, j), 0)
                if num > 0:
                    g = gcd(num, den)
                    row.append((j, num // g, den // g))
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
        # Every arc as (cost, bin, item), ascending: the walk of
        # :meth:`_replay`. Queried items are ascending ids, so sorting by id
        # sorts by their position in the network too.
        self._order = sorted((cost, j, i) for i, row in self._arcs.items() for j, cost in row)

    def value(self, item_ids: Iterable[int]) -> Fraction:
        """Optimal LP value with all items outside the subset forced to 0."""
        return Fraction(self._value_units(item_ids), self._cost_den)

    def _value_units(self, item_ids: Iterable[int]) -> int:
        """:meth:`value` as an int in units of ``1 / _cost_den``: the memo's
        own entry, so the selection search reads it with no Fraction built.
        A miss is solved by :meth:`_optimum`, and its value and flow kept."""
        key = frozenset(item_ids)
        units = self._memo.get(key)
        if units is None:
            units, y, cold = self._optimum(self._known(key), key)
            self._memo[key] = units
            self._flows[key] = _Flow(y, cold)
            if len(self._flows) > _FLOWS_KEPT:
                del self._flows[next(iter(self._flows))]
        return units

    def _optimum(
        self, items: list[int], key: frozenset[int] | None = None
    ) -> tuple[int, dict[tuple[int, int], int], bool]:
        """(units, flows, cold): the optimum of ``items``, the one path of
        every query. The replay, where it finishes; otherwise re-optimised
        from the base of ``key`` (:meth:`_value_units`'s misses) if there
        is one, and else the cold solve continued from the replay. ``cold``
        is False only for the re-optimised flow."""
        units, y, unshipped = self._replay(items)
        if not unshipped:
            return units, y, True
        base = None if key is None else self._base(key, unshipped)
        if base is not None:
            units, y = self._memo[base], self._flows[base].units
        gain, y = self._transport(items, y, warm=base is not None)
        if gain < 0:
            raise InvariantViolated(
                f"LP value fell by {Fraction(-gain, self._cost_den)} below"
                f" the {'subset' if base is not None else 'replayed'} flow's"
            )
        return units + gain, y, base is None

    def _base(self, key: frozenset[int], unshipped: int) -> frozenset[int] | None:
        """The largest set with a kept flow that is a proper subset of ``key``,
        holds at least half its items and lacks fewer of them than
        ``unshipped``, the first solved among equals.

        Bellman-Ford searches per solve, with every output the same, on the
        benchmark's search-heavy, oracle-heavy and tail-heavy workloads at
        seed 1 (their first 100, 50 and 50 instances), then uniform
        60/16/10, 120/32/16 and 200/48/20 and vod 120/24/16 at generator
        seeds 1-3:

        - both rules: 8.00, 106.58, 98.24, 63.33, 138.00, 332.00, 346.67;
        - without the half rule: 8.05, 116.76, and 358.67 on vod
          120/24/16, the rest the same;
        - without the remainder rule: 8.83, 107.82, 117.40, 80.00, 163.67,
          360.67, 348.67;
        - without a warm start: 8.00, 101.78, 99.12, 64.00, 157.67, 526.33,
          401.67.

        The scan is kept rather than the selection search handing over its
        node A for a query A + e. On the same shapes the scan found A for
        207 of the search's 265 warm starts. Taking A alone left every
        output the same, ran 105.04 searches on oracle-heavy and 335.00 on
        uniform 200/48/20 and the same elsewhere, and the kept flows are
        needed either way.
        """
        least = max((len(key) + 1) // 2, len(key) - unshipped + 1)
        if least >= len(key):
            return None
        best = None
        for other in self._flows:
            if len(other) >= least and (best is None or len(other) > len(best)):
                if other < key:
                    best = other
        return best

    def group_value(self, group_ids: Iterable[int]) -> Fraction:
        """LP value of the union of the given groups' items.

        The selection search does not call it (it reads
        :meth:`_value_units` of the union), but ``groupgap oracle`` does,
        and the traced benchmark (``perfbench/tracing.py``) times it.
        """
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
        The optimum is a copy of the kept flow if :meth:`_value_units`
        solved this set cold and its flow is still kept; otherwise it is a
        cold solve: the replay and, where it stops short, its continuation.
        Both are the same flow, so the result never depends on earlier
        queries.
        """
        items = self._known(item_ids)
        total = sum((self.inst.size(i) for i in items), ZERO)
        if total > self.inst.m:
            raise PreconditionViolated(
                f"selected items have total size {total} > total capacity {self.inst.m}"
            )
        # Every cap is 1, so the flows are in units of 1/scale and item i
        # supplies shat[i] of them.
        key = frozenset(items)
        kept = self._flows.get(key)
        if kept is not None and kept.cold:
            units, y = self._memo[key], dict(kept.units)
        else:
            units, y, _cold = self._optimum(items)
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

    def _replay(self, items: list[int]) -> tuple[int, dict[tuple[int, int], int], int]:
        """:func:`._flow.replay` of a cold solve of ``items``, over the
        per-instance sorted arcs: (units, flows, unshipped), flows in
        ``_transport``'s order. ``unshipped`` counts the items with a
        positive profit that it did not ship whole; at 0 the flows are the
        optimum."""
        arcs, shat = self._arcs, self._shat
        left = {i: shat[i] for i in items if arcs[i]}
        _flow, cost, shipped, stop = replay(left, list(self._demand), self._order)
        y = {(i, j): units for i, (j, units) in sorted(shipped.items())}
        return -cost, y, 0 if stop is None else len(left)

    def _transport(
        self, items: list[int], start: dict[tuple[int, int], int], warm: bool
    ) -> tuple[int, dict[tuple[int, int], int]]:
        """Solve the transportation problem from the flows ``start``;
        returns (gain, flows).

        The value gained over ``start``'s is ``gain / cost_den``. Flows are
        keyed (item id, bin index) in units of 1/scale bin capacity. The
        network comes from the per-instance tables as they are: item i
        supplies ``shat[i]`` units and every bin accepts ``scale``. Arcs run
        items ascending, then bins ascending: the order that Bellman-Ford's
        tie-breaks depend on.

        One :func:`._flow.resume` call runs it. Unless ``warm``, ``start``
        is a state of the cold solve, such as the empty flow or
        :meth:`_replay`'s, which the solve continues. With ``warm``, it is
        instead the optimal flows of a subset of ``items``, from which the
        problem is re-optimised.
        """
        supply = [self._shat[i] for i in items]
        arcs = [(k, j, cost) for k, i in enumerate(items) for j, cost in self._arcs[i]]
        flows = [start.get((items[k], j), 0) for k, j, _cost in arcs]
        _flow, cost, flows = resume(supply, self._demand, arcs, flows, warm)
        y = {(items[k], j): units for (k, j, _cost), units in zip(arcs, flows) if units > 0}
        return -cost, y
