"""Core domain types (items, groups, instances, fractional solutions,
assignments), instance validation, and an assignment's feasibility and profit.

All quantities (sizes, profits, loads, objective values) are exact rationals;
no solver path ever touches floating point. The solver's stages compute on
an integer view of each instance instead (:class:`_Units`): sizes over the
lcm of their denominators and profits over the lcm of theirs. Scaling by a
positive constant keeps every sum, comparison and tie exact, so the stages
make the choices the rationals would; a ``Fraction`` is built only where a
value leaves the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, NamedTuple

from .errors import ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a ``"p/q"`` (or plain integer) string.

    Raises ValueError on malformed input, including zero denominators.
    """
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None
    except ValueError:
        raise ValueError(f"malformed rational {text!r}") from None


def render_rational(value: Fraction) -> str:
    """Render a rational in lowest terms, e.g. ``"3/4"`` or ``"5"``."""
    return str(Fraction(value))


@dataclass(frozen=True)
class Item:
    id: int
    size: Fraction


@dataclass(frozen=True)
class Group:
    id: int
    members: tuple[int, ...]


class _Units(NamedTuple):
    """An instance's sizes and profits as exact ints over common denominators.

    Item i's size is ``sizes[i] / scale`` and the profit of (i, j) is
    ``profits[(i, j)] / profit_den`` (a missing pair is 0), where ``scale``
    and ``profit_den`` are the lcm of the size and of the profit
    denominators. A bin's capacity of 1 is ``scale`` units.
    """

    scale: int
    sizes: dict[int, int]
    profit_den: int
    profits: dict[tuple[int, int], int]

    def load(self, item_ids: Iterable[int]) -> int:
        """Total size of the items, in units of ``1 / scale``."""
        sizes = self.sizes
        return sum(sizes[i] for i in item_ids)

    def earned(self, u: Assignment) -> int:
        """``assignment_profit``, in units of ``1 / profit_den``."""
        profit = self.profits.get
        return sum(profit((i, j), 0) for j, b in enumerate(u.bins) for i in b)

    def at_least(self, profit: int, value: Fraction) -> bool:
        """``profit / profit_den >= value``, compared as ints."""
        return profit * value.denominator >= value.numerator * self.profit_den


@dataclass(frozen=True)
class Instance:
    """A grouped assignment instance over ``m`` unit-capacity bins.

    Bin indices are 0-based everywhere inside the library; the file format
    (see :mod:`groupgap.io`) is 1-based. ``profits`` is sparse: a missing
    (item, bin) pair means profit 0. Instances are immutable value objects
    and safe to share across workers.
    """

    m: int
    items: tuple[Item, ...]
    groups: tuple[Group, ...]
    profits: Mapping[tuple[int, int], Fraction]

    @cached_property
    def item_map(self) -> dict[int, Item]:
        return {it.id: it for it in self.items}

    @cached_property
    def group_map(self) -> dict[int, Group]:
        return {g.id: g for g in self.groups}

    @cached_property
    def item_ids(self) -> frozenset[int]:
        return frozenset(it.id for it in self.items)

    def size(self, item_id: int) -> Fraction:
        return self.item_map[item_id].size

    def profit(self, item_id: int, bin_index: int) -> Fraction:
        return self.profits.get((item_id, bin_index), ZERO)

    def group_items(self, group_ids: Iterable[int]) -> frozenset[int]:
        out: set[int] = set()
        for gid in group_ids:
            out.update(self.group_map[gid].members)
        return frozenset(out)

    @cached_property
    def _group_sizes(self) -> dict[int, Fraction]:
        # Summed once per instance: strict validation and the pipeline's
        # selection both read every group's size.
        sizes = self.item_map
        return {
            g.id: sum((sizes[i].size for i in g.members), ZERO) for g in self.groups
        }

    def group_size(self, group_id: int) -> Fraction:
        return self._group_sizes[group_id]

    def total_size(self, item_ids: Iterable[int]) -> Fraction:
        return sum((self.size(i) for i in item_ids), ZERO)

    @cached_property
    def _units(self) -> _Units:
        # Built on the first solver query, not by validation or generation.
        # Sizes and profits are ints or lowest-terms Fractions, so the
        # numerator and the denominator are read as they stand.
        scale = lcm(*(it.size.denominator for it in self.items))
        sizes = {it.id: it.size.numerator * (scale // it.size.denominator) for it in self.items}
        profit_den = lcm(*(p.denominator for p in self.profits.values()))
        profits = {
            key: p.numerator * (profit_den // p.denominator) for key, p in self.profits.items()
        }
        return _Units(scale, sizes, profit_den, profits)


@dataclass(frozen=True)
class FractionalSolution:
    """Sparse feasible point of the assignment LP, with its cached objective.

    ``entries`` maps (item id, bin index) to a fraction in (0, 1].
    """

    entries: Mapping[tuple[int, int], Fraction]
    value: Fraction

    def support_items(self) -> frozenset[int]:
        return frozenset(i for (i, _j) in self.entries)

    def recompute_value(self, inst: Instance) -> Fraction:
        return sum((f * inst.profit(i, j) for (i, j), f in self.entries.items()), ZERO)


@dataclass(frozen=True)
class Assignment:
    """Per-bin item sets; an item in no bin is unassigned."""

    bins: tuple[frozenset[int], ...]

    def placed_items(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.bins:
            out.update(b)
        return frozenset(out)


def _well_formed(inst: Instance, u: Assignment) -> bool:
    """One bin per instance bin, holding only the instance's items, and no
    item placed in two of them."""
    placed = u.placed_items()
    no_repeats = sum(map(len, u.bins)) == len(placed)
    return len(u.bins) == inst.m and no_repeats and placed <= inst.item_ids


def is_feasible(inst: Instance, u: Assignment) -> bool:
    """Well formed, and every bin within capacity."""
    if not _well_formed(inst, u):
        return False
    return all(inst.total_size(b) <= ONE for b in u.bins)


def assignment_profit(inst: Instance, u: Assignment) -> Fraction:
    """Exact total profit of placed items; unassigned items contribute 0."""
    total = ZERO
    for j, bin_items in enumerate(u.bins):
        for i in bin_items:
            total += inst.profit(i, j)
    return total


def _is_int(x: object) -> bool:
    """An int that is not a bool (``True`` is an int equal to 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def validate_instance(inst: Instance, strict: bool = False) -> None:
    """Check all structural invariants of an instance.

    ``strict`` additionally enforces the group-size cap s(G) <= m/2 that the
    end-to-end profit guarantee requires.
    """
    if not _is_int(inst.m) or inst.m < 1:
        raise ValidationError(f"bin count m must be a positive int, got {inst.m!r}")
    seen_items: set[int] = set()
    for it in inst.items:
        # True and 1.0 hash and compare equal to 1, so an id must be an int.
        if not _is_int(it.id):
            raise ValidationError(f"item id {it.id!r} is not an int")
        if it.id in seen_items:
            raise ValidationError(f"duplicate item id {it.id}")
        seen_items.add(it.id)
        # Integer tests on the lowest-terms rational (its denominator is > 0).
        # A size without them (a float, say) is not an exact rational, and a
        # bool, although an int, is no number either (io rejects it too).
        try:
            fits = 0 < it.size.numerator <= it.size.denominator
        except AttributeError:
            fits = None
        if fits is None or isinstance(it.size, bool):
            raise ValidationError(f"item {it.id} has size {it.size!r}, not an int or Fraction")
        if not fits:
            raise ValidationError(f"item {it.id} has size {it.size}, must be in (0, 1]")
    grouped: set[int] = set()
    seen_groups: set[int] = set()
    for g in inst.groups:
        if not _is_int(g.id):
            raise ValidationError(f"group id {g.id!r} is not an int")
        if g.id in seen_groups:
            raise ValidationError(f"duplicate group id {g.id}")
        seen_groups.add(g.id)
        if not g.members:
            raise ValidationError(f"group {g.id} is empty")
        listed: set[int] = set()
        for i in g.members:
            if not _is_int(i):
                raise ValidationError(f"group {g.id} lists item {i!r}, not an int")
            if i not in seen_items:
                raise ValidationError(f"group {g.id} references unknown item {i}")
            if i in listed:
                raise ValidationError(f"group {g.id} lists item {i} twice")
            if i in grouped:
                raise ValidationError(f"item {i} belongs to more than one group")
            listed.add(i)
            grouped.add(i)
    if grouped != seen_items:
        missing = sorted(seen_items - grouped)
        raise ValidationError(f"items {missing} belong to no group")
    for key, p in inst.profits.items():
        if not isinstance(key, tuple) or len(key) != 2:
            raise ValidationError(f"profit key {key!r} is not an (item, bin) pair")
        i, j = key
        if not _is_int(i):
            raise ValidationError(f"profit key {key!r} has item {i!r}, not an int")
        if i not in seen_items:
            raise ValidationError(f"profit entry references unknown item {i}")
        if not _is_int(j):
            raise ValidationError(f"profit for item {i} has bin index {j!r}, not an int")
        if not 0 <= j < inst.m:
            raise ValidationError(
                f"profit for item {i} references bin {j + 1}, valid range is 1..{inst.m}"
            )
        try:
            negative = p.numerator < 0
        except AttributeError:
            negative = None
        if negative is None or isinstance(p, bool):
            raise ValidationError(
                f"profit for item {i} in bin {j + 1} is {p!r}, not an int or Fraction"
            )
        if negative:
            raise ValidationError(f"profit for item {i} in bin {j + 1} is {p}, must be >= 0")
    if strict:
        cap = Fraction(inst.m, 2)
        for g in inst.groups:
            total = inst.group_size(g.id)
            if total > cap:
                raise ValidationError(f"group {g.id} has total size {total} > cap {cap}")
