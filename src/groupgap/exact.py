"""The exact optimum of a desk-scale grouped assignment instance.

``groupgap exact`` and ``solve --exact-compare`` run it. It takes a route of
its own: it enumerates group subsets and branch-and-bounds over item
placements with its own bound, and calls neither the LP oracle nor the flow
solver, so it checks the pipeline rather than repeating it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import LimitExceeded
from .model import ONE, ZERO, Assignment, Instance, validate_instance


# The desk scale solve_exact accepts, and the search nodes it may visit.
_MAX_ITEMS = 12
_MAX_GROUPS = 6
_MAX_BINS = 4
_NODE_BUDGET = 500_000


def solve_exact(inst: Instance, use_pruning: bool = True) -> tuple[Fraction, Assignment]:
    """Exact optimum profit over satisfied group subsets, with a witness.

    Enumerates group subsets by ascending total size (anything above the
    total capacity cannot be fully packed), then branch-and-bounds over
    item placements for each subset. A node's bound is its profit so far
    plus, per unplaced item, the item's largest profit over the bins whose
    residual capacity still holds it (0 if none). Residual capacities only
    shrink along a branch, so every completion puts each unplaced item in
    a bin with at least that room now, and the bound is admissible.
    ``use_pruning=False`` falls back to complete enumeration.

    The limits are fixed: at most 12 items, 6 groups and 4 bins, else
    ``LimitExceeded``; a search that visits more than 500,000 nodes raises
    ``LimitExceeded`` carrying the best value and witness found so far.
    """
    validate_instance(inst, strict=False)
    if len(inst.items) > _MAX_ITEMS:
        raise LimitExceeded(f"{len(inst.items)} items > limit {_MAX_ITEMS}")
    if len(inst.groups) > _MAX_GROUPS:
        raise LimitExceeded(f"{len(inst.groups)} groups > limit {_MAX_GROUPS}")
    if inst.m > _MAX_BINS:
        raise LimitExceeded(f"{inst.m} bins > limit {_MAX_BINS}")

    group_ids = sorted(g.id for g in inst.groups)
    subsets = []
    for r in range(len(group_ids) + 1):
        for combo in combinations(group_ids, r):
            subsets.append((inst.total_size(inst.group_items(combo)), combo))
    subsets.sort(key=lambda t: (t[0], t[1]))

    best_value = ZERO
    best_bins: tuple[frozenset[int], ...] = tuple(frozenset() for _ in range(inst.m))
    nodes = 0

    for total, combo in subsets:
        if total > inst.m:
            break
        items = sorted(
            inst.group_items(combo), key=lambda i: (-inst.size(i), i)
        )
        caps = [ONE] * inst.m
        placement: dict[int, int] = {}

        def dfs(depth: int, profit: Fraction) -> None:
            nonlocal nodes, best_value, best_bins
            nodes += 1
            if nodes > _NODE_BUDGET:
                raise LimitExceeded(
                    f"node budget {_NODE_BUDGET} exhausted",
                    best_value=best_value,
                    best_witness=Assignment(bins=best_bins),
                )
            if depth == len(items):
                if profit > best_value:
                    best_value = profit
                    packed: list[set[int]] = [set() for _ in range(inst.m)]
                    for item, b in placement.items():
                        packed[b].add(item)
                    best_bins = tuple(frozenset(b) for b in packed)
                return
            if use_pruning:
                bound = profit
                for i in items[depth:]:
                    size = inst.size(i)
                    fits = [inst.profit(i, j) for j in range(inst.m) if caps[j] >= size]
                    bound += max(fits, default=ZERO)
                if bound <= best_value:
                    return
            item = items[depth]
            size = inst.size(item)
            for j in range(inst.m):
                if caps[j] >= size:
                    caps[j] -= size
                    placement[item] = j
                    dfs(depth + 1, profit + inst.profit(item, j))
                    del placement[item]
                    caps[j] += size

        dfs(0, ZERO)
    return best_value, Assignment(bins=best_bins)

