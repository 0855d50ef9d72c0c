"""Filling phase: repair an almost feasible assignment into a feasible one.

Bins are classified once by load: overfull (> 1), semi-full (in [1/2, 1])
and semi-vacant (< 1/2); an item is big when its size exceeds 1/2. Each
move takes one overfull bin, splits it into two feasible sides (see
:func:`feasible_partition`; two bigs always end on different sides) and
pairs it with up to two semi-vacant partners. Every move then follows one
rule: it names two outcomes, and the items each outcome leaves in their own
bin, taken over both outcomes, partition the items of the move's bins. So
one outcome leaves at least half their profit in place, and
:meth:`_FillState.choose` applies that one. Items that move to another bin
only add profit; items that no bin holds afterwards are evicted. In
priority order, with the overfull bin's sides A and B:

- keep-better-half (no big): keep side A, or keep side B.
- swap-with-vacant (one big; partner V): keep the big's side and V, or
  keep the other side and move the big's side into V in place of V's
  items.
- move-big-to-vacant (two bigs; partner V with room for big b): keep the
  side without b and V, moving b into V, or keep b's side and move the
  other side into V in place of V's items.
- split-across-vacants (two bigs that fit no partner; partners V1, V2):
  keep A and V1 and move B into V2, or keep B and V2 and move A into V1,
  each in place of the receiving partner's items.

Every evicted item is small: a big item either stays or moves, and a
semi-vacant partner holds only small items. A bin that took part in a move
is resolved and never touched again; semi-full bins are resolved
immediately. When the input occupies at most half the total capacity,
some move always applies while an overfull bin remains, and the evicted
items always fit back somewhere at the end, so the result keeps every
input item and at least half the input profit.

Every load, profit and half test runs on the instance's integer view
(``model._Units``): loads are ints over its ``scale``, so a bin is
overfull when its load exceeds ``scale`` and semi-vacant when twice its
load is below it, an item is big when twice its size exceeds ``scale``,
and profits are ints over its ``profit_den``. A step's profits become
``Fraction``s only in its :class:`FillStep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Sequence

from .errors import InvariantViolated, PreconditionViolated
from .model import ZERO, Assignment, Instance, _well_formed

KEEP_BETTER_HALF = "keep-better-half"
SWAP_WITH_VACANT = "swap-with-vacant"
MOVE_BIG_TO_VACANT = "move-big-to-vacant"
SPLIT_ACROSS_VACANTS = "split-across-vacants"
REINSERT = "reinsert"


@dataclass(frozen=True)
class FillStep:
    """One trace record: a repacking move or a single reinsertion."""

    kind: str
    bins: tuple[int, ...]
    evicted: tuple[int, ...]
    profit_before: Fraction
    profit_after: Fraction
    counts: tuple[int, int] | None = None  # (overfull, semi-vacant) when splitting


def removal_witness(inst: Instance, bin_items: frozenset[int]) -> int | None:
    """Largest item whose removal brings the bin to load <= 1 (ties: lowest id)."""
    units = inst._units
    sizes = units.sizes
    load = units.load(bin_items)
    candidates = [i for i in bin_items if load - sizes[i] <= units.scale]
    if not candidates:
        return None
    return min(candidates, key=lambda i: (-sizes[i], i))


def feasible_partition(
    inst: Instance, bin_items: frozenset[int], witness: int
) -> tuple[frozenset[int], frozenset[int]]:
    """Split a bin's items into two feasible halves, the first holding ``witness``.

    Small items are first-fit packed (largest first, ties by id) onto the
    witness side while it stays within capacity; everything else falls to
    the other side, which is feasible because removing the witness already
    leaves at most one unit. A bin with two big items necessarily ends with
    one on each side.
    """
    if witness not in bin_items:
        raise ValueError(f"witness {witness} not in bin")
    units = inst._units
    sizes, scale = units.sizes, units.scale
    rest = bin_items - {witness}
    rest_load = units.load(rest)
    if rest_load > scale:
        raise PreconditionViolated(
            f"removing {witness} leaves load {Fraction(rest_load, scale)} > 1"
        )
    side_a = {witness}
    size_a = sizes[witness]
    side_b: set[int] = set()
    for i in sorted(rest, key=lambda i: (-sizes[i], i)):
        if 2 * sizes[i] <= scale and size_a + sizes[i] <= scale:
            side_a.add(i)
            size_a += sizes[i]
        else:
            side_b.add(i)
    return frozenset(side_a), frozenset(side_b)


def _reinsert(
    inst: Instance, bins: list[set[int]], loads: list[int], items: Iterable[int]
) -> list[FillStep]:
    """Place items into bins with room, in place; one REINSERT step per item.

    ``loads`` are the bins' loads in units of ``1 / scale``. Items go in by
    descending size (ties by id); each picks the feasible bin maximizing
    its own profit (ties by lowest bin index).
    """
    units = inst._units
    sizes, scale, profit = units.sizes, units.scale, units.profits.get
    steps = []
    for i in sorted(items, key=lambda i: (-sizes[i], i)):
        size = sizes[i]
        best_j = None
        best_profit = None
        for j in range(inst.m):
            if loads[j] + size > scale:
                continue
            p = profit((i, j), 0)
            if best_profit is None or p > best_profit:
                best_j = j
                best_profit = p
        if best_j is None:
            raise InvariantViolated(f"no bin has room for evicted item {i}")
        bins[best_j].add(i)
        loads[best_j] += size
        steps.append(FillStep(REINSERT, (best_j,), (), ZERO, inst.profit(i, best_j)))
    return steps


class _FillState:
    """The bins during filling, with their loads (in units of ``1 / scale``)
    and profits (in units of ``1 / profit_den``) as ints."""

    def __init__(self, inst: Instance, u: Assignment):
        self.inst = inst
        self.units = units = inst._units
        self.sizes, self.scale, self.profit = units.sizes, units.scale, units.profits.get
        self.bins: list[set[int]] = [set(b) for b in u.bins]
        self.loads: list[int] = [units.load(b) for b in self.bins]
        self.resolved: set[int] = set()
        self.evicted: set[int] = set()
        self.trace: list[FillStep] = []
        # Semi-full bins never participate in a move; retire them up front.
        for j, load in enumerate(self.loads):
            if self.scale <= 2 * load and load <= self.scale:
                self.resolved.add(j)

    def overfull(self) -> list[int]:
        return [
            j
            for j, load in enumerate(self.loads)
            if j not in self.resolved and load > self.scale
        ]

    def vacant(self) -> list[int]:
        return [
            j
            for j, load in enumerate(self.loads)
            if j not in self.resolved and 2 * load < self.scale
        ]

    def is_big(self, i: int) -> bool:
        return 2 * self.sizes[i] > self.scale

    def bigs(self, j: int) -> list[int]:
        return sorted(i for i in self.bins[j] if self.is_big(i))

    def bin_profit(self, j: int, items: Iterable[int]) -> int:
        profit = self.profit
        return sum(profit((i, j), 0) for i in items)

    def partition(
        self, j: int, lead: int | None = None
    ) -> tuple[frozenset[int], frozenset[int]]:
        """Bin j's :func:`feasible_partition`, the side holding ``lead`` first."""
        witness = removal_witness(self.inst, frozenset(self.bins[j]))
        if witness is None:
            raise PreconditionViolated(f"bin {j} overflows by more than one item")
        side_a, side_b = feasible_partition(self.inst, frozenset(self.bins[j]), witness)
        return (side_b, side_a) if lead in side_b else (side_a, side_b)

    def evict(self, items: Iterable[int]) -> tuple[int, ...]:
        out = tuple(sorted(items))
        for i in out:
            if self.is_big(i):
                raise InvariantViolated(f"big item {i} evicted; only small items may be")
            self.evicted.add(i)
        return out

    def set_bin(self, j: int, items: Iterable[int]) -> None:
        self.bins[j] = set(items)
        self.loads[j] = self.units.load(self.bins[j])
        if self.loads[j] > self.scale:
            load = Fraction(self.loads[j], self.scale)
            raise InvariantViolated(f"a move left bin {j} at load {load} > 1")

    def choose(
        self,
        kind: str,
        participants: Sequence[int],
        first: Mapping[int, AbstractSet[int]],
        second: Mapping[int, AbstractSet[int]],
        counts: tuple[int, int] | None = None,
    ) -> None:
        """Apply ``first`` or ``second``, whichever leaves more profit in place.

        An outcome maps bins to their new contents; a participant it leaves
        out keeps its own. Its in-place profit is that of the items it
        leaves in their own bin. The two outcomes' in-place items partition
        the participants' items, so ``first`` leaves more exactly when twice
        its in-place profit exceeds the participants' profit (ties go to
        ``second``). The participants' items that no participant holds
        afterwards are evicted.
        """
        bins, bin_profit = self.bins, self.bin_profit
        old = {j: bin_profit(j, bins[j]) for j in participants}
        before = sum(old.values())
        in_place = sum(
            bin_profit(j, bins[j] & first[j]) if j in first else old[j] for j in participants
        )
        outcome = first if 2 * in_place > before else second
        held = set().union(*outcome.values())
        gone = self.evict(i for j in outcome for i in bins[j] if i not in held)
        for j, items in outcome.items():
            self.set_bin(j, items)
        after = sum(bin_profit(j, bins[j]) for j in participants)
        den = self.units.profit_den
        if 2 * after < before:
            raise InvariantViolated(
                f"{kind} kept {Fraction(after, den)} of {Fraction(before, den)}:"
                " less than half the profit"
            )
        self.resolved.update(participants)
        self.trace.append(
            FillStep(
                kind=kind,
                bins=tuple(participants),
                evicted=gone,
                profit_before=Fraction(before, den),
                profit_after=Fraction(after, den),
                counts=counts,
            )
        )


def make_feasible_traced(
    inst: Instance, u: Assignment
) -> tuple[Assignment, tuple[FillStep, ...]]:
    """Repair an almost feasible assignment; returns the result and a step trace.

    Requires an almost feasible input with one bin per instance bin, each
    of the instance's items in at most one of them and no other item,
    whose items total at most half the capacity; outside that regime no profit guarantee exists and the call
    fails fast.
    """
    if not _well_formed(inst, u):
        raise PreconditionViolated(f"input needs {inst.m} bins of its items, each in at most one")
    st = _FillState(inst, u)
    sizes, scale = st.sizes, st.scale
    for j, load in enumerate(st.loads):
        if load > scale and load - max(sizes[i] for i in st.bins[j]) > scale:
            raise PreconditionViolated("input assignment is not almost feasible")
    total = st.units.load(u.placed_items())
    if 2 * total > inst.m * scale:
        raise PreconditionViolated(
            f"placed items total size {Fraction(total, scale)} > half capacity"
            f" {Fraction(inst.m, 2)}"
        )
    start_profit = st.units.earned(u)

    # First the moves needing at most one partner, re-scanned in priority
    # order after every application.
    while True:
        over = st.overfull()
        if not over:
            break
        no_big = [j for j in over if len(st.bigs(j)) == 0]
        if no_big:
            j = no_big[0]
            side_a, side_b = st.partition(j)
            st.choose(KEEP_BETTER_HALF, [j], {j: side_a}, {j: side_b})
            continue
        vac = st.vacant()
        one_big = [j for j in over if len(st.bigs(j)) == 1]
        if one_big and vac:
            j, partner = one_big[0], vac[0]
            big_side, rest = st.partition(j, st.bigs(j)[0])
            st.choose(SWAP_WITH_VACANT, [j, partner], {j: big_side}, {j: rest, partner: big_side})
            continue
        fired = False
        for j in over:
            bigs = st.bigs(j)
            if len(bigs) != 2:
                continue
            for candidate in vac:
                movers = [i for i in bigs if sizes[i] + st.loads[candidate] <= scale]
                if movers:
                    mover_side, other = st.partition(j, movers[0])
                    st.choose(
                        MOVE_BIG_TO_VACANT,
                        [j, candidate],
                        {j: other, candidate: st.bins[candidate] | {movers[0]}},
                        {j: mover_side, candidate: other},
                    )
                    fired = True
                    break
            if fired:
                break
        if not fired:
            break

    # Any surviving overfull bin must hold exactly two bigs, none of which
    # fits a remaining semi-vacant bin; otherwise a move above was missed.
    over = st.overfull()
    vac = st.vacant()
    for j in over:
        if len(st.bigs(j)) != 2:
            raise InvariantViolated(f"overfull bin {j} survived with {len(st.bigs(j))} bigs")
        for i in st.bigs(j):
            for candidate in vac:
                if sizes[i] + st.loads[candidate] <= scale:
                    raise InvariantViolated(f"big {i} fits bin {candidate} but no move fired")

    while True:
        over = st.overfull()
        if not over:
            break
        vac = st.vacant()
        counts = (len(over), len(vac))
        if not len(vac) > 2 * len(over):
            raise InvariantViolated(
                f"semi-vacant surplus guard failed: {len(vac)} <= 2 * {len(over)}"
            )
        j, vac1, vac2 = over[0], vac[0], vac[1]
        side_a, side_b = st.partition(j)
        st.choose(
            SPLIT_ACROSS_VACANTS,
            [j, vac1, vac2],
            {j: side_a, vac2: side_b},
            {j: side_b, vac1: side_a},
            counts,
        )

    st.trace.extend(_reinsert(inst, st.bins, st.loads, st.evicted))

    result = Assignment(bins=tuple(frozenset(b) for b in st.bins))
    if result.placed_items() != u.placed_items():
        raise InvariantViolated("filling changed the set of placed items")
    if any(load > scale for load in st.loads):
        raise InvariantViolated("filling left a bin above load 1")
    if 2 * st.units.earned(result) < start_profit:
        raise InvariantViolated("filling kept less than half the input profit")
    return result, tuple(st.trace)
