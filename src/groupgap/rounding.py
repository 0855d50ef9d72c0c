"""Rounding a saturated fractional solution to an almost feasible assignment.

Each bin is split into ranked slots: scanning the items of a bin in
non-increasing size order, fractions fill the current slot up to load 1
before the next slot opens, so every slot but a bin's last carries exactly
one unit of fractional load and slot ranks sort items by size. The slot
graph admits a fractional matching covering every item with weight equal
to the LP objective, hence it also admits an integral matching covering
every item with at least that weight. Reading an assignment off that
matching overflows each bin by at most its rank-1 item.

The matching is a min-cost flow of |items| units, and the flow layer only
maximises profit: it stops at the first augmenting path of cost >= 0.
Lowering every arc's cost by the same ``M`` turns one into the other. On
the network, that is the node potential ``M`` on every slot and on the
sink (the reduced costs of Edmonds and Karp, 1972): every path from the
source to a node v changes cost by the same amount, which depends only on
v. Bellman-Ford compares only paths to the same node, so it finds the same
distances up to that shift, the same parents and the same augmenting
paths, and the replay walks the arcs in the same (cost, slot, item) order.
A source-to-sink path therefore costs its old cost minus ``M``. Its old
cost is at most the sum of the weights it crosses backwards (weights are
profits, so >= 0), and ``M`` is one more than the sum of all weights, so
every such path costs < 0 and the run ships until no path is left: the
same units along the same paths as the unshifted min-cost flow of
|items| units. Most connected components of the slot graph are one item
joined to one slot, which the replay finishes; :func:`~groupgap._flow.transport`
runs each component it leaves unfinished as a network of its own, with the
same ``M`` and the same arc flows, and every source-to-sink path of such a
network is one of the whole network, so it too costs < 0. A smaller ``M``, such as the largest weight, does not do:
a path that undoes a heavy edge can cost up to the sum of the weights.

Each edge's weight is the instance's profit for its item and bin, as an
int over the instance's ``profit_den`` (``model._Units``), not over the
lcm of the denominators of the profits on the graph: any positive common
denominator does. Scaling every weight by c > 0 scales the weight part of
every path's cost by c, and a path's cost to a node v is its weight part
plus a shift part that depends only on v, so every comparison
Bellman-Ford makes, ties included, and the replay's arc order come out
the same; ``M`` is then one more than the scaled sum, so every
source-to-sink path still costs < 0.

Slot loads are ints too, over the lcm of the fractional entries'
denominators, and sizes are compared as ints over the instance's
``scale``. A ``Fraction`` is built only for an edge's public ``load``,
and only where an entry is split across two slots (a whole entry keeps
its own ``Fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._flow import transport
from .errors import InvariantViolated, PreconditionViolated
from .model import Assignment, FractionalSolution, Instance


@dataclass(frozen=True)
class Slot:
    bin: int
    rank: int  # 1-based within the bin


@dataclass(frozen=True)
class SlotEdge:
    item: int
    slot: Slot
    weight: int  # the profit of (item, slot.bin), as an int over the instance's profit_den
    load: Fraction


@dataclass(frozen=True)
class SlotGraph:
    items: tuple[int, ...]  # support items, largest first
    slots: tuple[Slot, ...]
    edges: tuple[SlotEdge, ...]


def build_slot_graph(inst: Instance, x: FractionalSolution) -> SlotGraph:
    """Slot construction over a saturated fractional solution.

    An exactly-full slot opens its successor directly instead of carrying a
    zero-load edge; completeness and weight of the fractional matching are
    unaffected. Size ties among items break by ascending id.
    """
    units = inst._units
    den = lcm(*(f.denominator for f in x.entries.values()))
    totals: dict[int, int] = {}
    # Per bin, item -> (its fraction in units of 1 / den, the fraction).
    per_bin: list[dict[int, tuple[int, Fraction]]] = [{} for _ in range(inst.m)]
    for (i, j), f in x.entries.items():
        frac = f.numerator * (den // f.denominator)
        totals[i] = totals.get(i, 0) + frac
        per_bin[j][i] = (frac, f)
    for i in sorted(totals):
        if totals[i] != den:
            raise PreconditionViolated(
                f"item {i} has assigned fraction {Fraction(totals[i], den)}, expected exactly 1"
            )

    sizes = units.sizes
    order = sorted(totals, key=lambda i: (-sizes[i], i))
    position = {i: k for k, i in enumerate(order)}
    profit = units.profits.get
    slots: list[Slot] = []
    edges: list[SlotEdge] = []

    def add_edge(i: int, slot: Slot, load: Fraction) -> None:
        edges.append(SlotEdge(i, slot, profit((i, slot.bin), 0), load))

    for j, row in enumerate(per_bin):
        if not row:
            continue
        slot = Slot(j, 1)
        slots.append(slot)
        load = 0
        for i in sorted(row, key=position.__getitem__):
            frac, f = row[i]
            take = min(frac, den - load)
            if take == frac:
                add_edge(i, slot, f)
                load += take
                continue
            if take > 0:
                add_edge(i, slot, Fraction(take, den))
            slot = Slot(j, slot.rank + 1)
            slots.append(slot)
            load = frac - take
            add_edge(i, slot, Fraction(load, den))
    return SlotGraph(items=tuple(order), slots=tuple(slots), edges=tuple(edges))


def complete_matching(g: SlotGraph) -> dict[int, Slot]:
    """Max-weight matching of slots that covers every item.

    Solved by the profit-maximising :func:`~groupgap._flow.transport`:
    every item supplies and every slot accepts one unit, and each slot
    edge, in ``g.edges`` order, is an arc of cost ``-(w + M)``, where ``w``
    is its int weight and ``M = 1 + sum(w)`` (see the module docstring for
    why that ships every unit without changing the min-cost flow of that
    many units).
    """
    n = len(g.items)
    shift = 1 + sum(e.weight for e in g.edges)
    item_pos = {i: k for k, i in enumerate(g.items)}
    slot_pos = {s: k for k, s in enumerate(g.slots)}
    arcs = [(item_pos[e.item], slot_pos[e.slot], -e.weight - shift) for e in g.edges]
    flow, _cost, flows = transport([1] * n, [1] * len(g.slots), arcs)
    if flow != n:
        raise InvariantViolated(f"matched only {flow} of {n} items; slot graph invariant broken")
    return {e.item: e.slot for e, units in zip(g.edges, flows) if units > 0}


def round_to_assignment(inst: Instance, x: FractionalSolution) -> Assignment:
    """Convert a saturated fractional solution to an almost feasible assignment.

    The result places exactly the support items, earns at least the
    fractional objective, and overflows each bin by at most the single item
    matched to that bin's first slot.
    """
    g = build_slot_graph(inst, x)
    matching = complete_matching(g)
    bins: list[set[int]] = [set() for _ in range(inst.m)]
    rank_one: dict[int, int] = {}
    for item, slot in matching.items():
        bins[slot.bin].add(item)
        if slot.rank == 1:
            rank_one[slot.bin] = item
    u = Assignment(bins=tuple(frozenset(b) for b in bins))

    if u.placed_items() != x.support_items():
        raise InvariantViolated("rounding did not place exactly the support items")
    units = inst._units
    earned = units.earned(u)
    if not units.at_least(earned, x.value):
        raise InvariantViolated(
            f"rounded profit {Fraction(earned, units.profit_den)} < fractional value {x.value}"
        )
    for j, b in enumerate(u.bins):
        overhang = units.sizes[rank_one[j]] if j in rank_one else 0
        if units.load(b) - overhang > units.scale:
            raise InvariantViolated(f"bin {j} overflows by more than its rank-1 item")
    return u
