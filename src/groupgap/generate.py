"""Deterministic instance generators for benchmarks and fuzzing.

Sizes live on a bounded-denominator rational grid so downstream exact
arithmetic stays cheap, and every generated instance passes strict
validation: no group exceeds its share of the capacity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .model import Group, Instance, Item, _is_int

VOD_MIN_SEGMENTS = 2
VOD_MAX_SEGMENTS = 8


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    n: int
    groups: int
    bins: int
    flavor: str = "uniform"
    size_denominator: int = 64
    max_profit: int = 100


def _draw_group_sizes(
    rng: random.Random, count: int, budget: Fraction, den: int
) -> list[Fraction]:
    """Sizes for one group, each in (0, 1], totalling at most ``budget``.

    Draws sequentially, always reserving 1/den for every remaining member.
    """
    if Fraction(count, den) > budget:
        raise ValidationError(
            f"group of {count} items cannot fit budget {budget} at grid 1/{den}"
        )
    sizes = []
    left = budget
    for k in range(count):
        reserve = Fraction(count - k - 1, den)
        max_num = min(den, int((left - reserve) * den))
        num = rng.randint(1, max_num)
        size = Fraction(num, den)
        sizes.append(size)
        left -= size
    return sizes


def _partition_counts(rng: random.Random, n: int, groups: int) -> list[int]:
    if groups > n:
        raise ValidationError(f"cannot split {n} items into {groups} non-empty groups")
    if groups == 1:
        return [n]
    cuts = sorted(rng.sample(range(1, n), groups - 1))
    bounds = [0, *cuts, n]
    return [bounds[k + 1] - bounds[k] for k in range(groups)]


def _vod_counts(rng: random.Random, n: int, groups: int) -> list[int]:
    if not VOD_MIN_SEGMENTS * groups <= n <= VOD_MAX_SEGMENTS * groups:
        raise ValidationError(
            f"vod flavor needs n in [{VOD_MIN_SEGMENTS * groups}, {VOD_MAX_SEGMENTS * groups}], got {n}"
        )
    counts = [VOD_MIN_SEGMENTS] * groups
    for _ in range(n - VOD_MIN_SEGMENTS * groups):
        open_groups = [g for g in range(groups) if counts[g] < VOD_MAX_SEGMENTS]
        counts[rng.choice(open_groups)] += 1
    return counts


def generate(spec: GeneratorSpec) -> Instance:
    """Build a strict-valid instance; identical specs yield identical instances."""
    for field in ("n", "groups", "bins", "size_denominator", "max_profit"):
        value = getattr(spec, field)
        if not _is_int(value):
            raise ValidationError(f"{field} must be an int, got {value!r}")
    if spec.n < 1 or spec.groups < 1 or spec.bins < 1:
        raise ValidationError("n, groups and bins must all be positive")
    if spec.size_denominator < 1 or spec.max_profit < 1:
        raise ValidationError("size_denominator and max_profit must be positive")
    if spec.flavor not in ("uniform", "vod"):
        raise ValidationError(f"unknown flavor {spec.flavor!r}")
    rng = random.Random(spec.seed)
    budget = Fraction(spec.bins, 2)  # strict validation: group size <= m/2

    if spec.flavor == "vod":
        counts = _vod_counts(rng, spec.n, spec.groups)
    else:
        counts = _partition_counts(rng, spec.n, spec.groups)

    ids = list(range(1, spec.n + 1))
    rng.shuffle(ids)
    items: list[Item] = []
    groups: list[Group] = []
    cursor = 0
    for gid, count in enumerate(counts):
        members = ids[cursor : cursor + count]
        cursor += count
        sizes = _draw_group_sizes(rng, count, budget, spec.size_denominator)
        for item_id, size in zip(members, sizes):
            items.append(Item(id=item_id, size=size))
        groups.append(Group(id=gid, members=tuple(sorted(members))))

    profits: dict[tuple[int, int], Fraction] = {}
    if spec.flavor == "vod":
        for gid, g in enumerate(groups):
            home = rng.randrange(spec.bins)
            for i in g.members:
                base = rng.randint(1, spec.max_profit)
                for j in range(spec.bins):
                    profits[(i, j)] = Fraction(base, 2 ** abs(j - home))
    else:
        for item in sorted(items, key=lambda it: it.id):
            home = rng.randrange(spec.bins)
            profits[(item.id, home)] = Fraction(rng.randint(1, spec.max_profit))
            for j in range(spec.bins):
                if j != home and rng.random() < 0.5:
                    profits[(item.id, j)] = Fraction(rng.randint(1, spec.max_profit))

    return Instance(
        m=spec.bins,
        items=tuple(sorted(items, key=lambda it: it.id)),
        groups=tuple(groups),
        profits=profits,
    )
