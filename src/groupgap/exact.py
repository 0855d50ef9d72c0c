"""Brute-force reference solvers that certify the pipeline at desk scale.

These deliberately take different routes than the production code: the
exact grouped-assignment optimum enumerates group subsets and placements,
pruned by a bound of its own, and the partial-matching value function runs
a bitmask DP rather than a flow computation. Neither calls the LP oracle or
the flow solver, so each side can vouch for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, Mapping

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


def exhaustive_knapsack_max(
    f: Callable[[frozenset[int]], Fraction],
    sizes: Mapping[int, Fraction],
    capacity: Fraction,
) -> Fraction:
    """Exact max of f over subsets within the capacity, by enumeration;
    ``sizes`` maps each element id to its size."""
    if len(sizes) > 20:
        raise LimitExceeded(f"{len(sizes)} elements > enumeration limit 20")
    ids = list(sizes)
    best = f(frozenset())
    for mask in range(1, 1 << len(ids)):
        size = sum(
            (sizes[ids[b]] for b in range(len(ids)) if mask >> b & 1), Fraction(0)
        )
        if size > capacity:
            continue
        val = f(frozenset(ids[b] for b in range(len(ids)) if mask >> b & 1))
        if val > best:
            best = val
    return best


@dataclass(frozen=True)
class WeightedBipartiteGraph:
    """Left/right node counts plus non-negative edge weights (absent = no edge)."""

    left: int
    right: int
    weights: Mapping[tuple[int, int], Fraction]


def _scaled_adjacency(graph: WeightedBipartiteGraph) -> tuple[list[list[tuple[int, int]]], int]:
    den = 1
    for w in graph.weights.values():
        den = lcm(den, Fraction(w).denominator)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.left)]
    for (l, r), w in graph.weights.items():
        adj[l].append((1 << r, int(Fraction(w) * den)))
    return adj, den


def _advance(dp: list[int], adj_l: list[tuple[int, int]]) -> list[int]:
    new = dp[:]
    for mask in range(len(dp)):
        base = dp[mask]
        for rbit, w in adj_l:
            if mask & rbit:
                continue
            cand = base + w
            merged = mask | rbit
            if cand > new[merged]:
                new[merged] = cand
    return new


def matching_value(graph: WeightedBipartiteGraph, left_nodes: Iterable[int]) -> Fraction:
    """Max-weight matching value of the subgraph induced by the left subset.

    Dynamic program over subsets of right nodes; left nodes may stay
    unmatched.
    """
    chosen = sorted(set(left_nodes))
    if len(chosen) > 12:
        raise LimitExceeded(f"{len(chosen)} left nodes > DP limit 12")
    if graph.right > 20:
        raise LimitExceeded(f"{graph.right} right nodes > DP limit 20")
    adj, den = _scaled_adjacency(graph)
    dp = [0] * (1 << graph.right)
    for l in chosen:
        dp = _advance(dp, adj[l])
    return Fraction(max(dp), den)


def matching_value_table(graph: WeightedBipartiteGraph) -> list[Fraction]:
    """Matching values for every left subset, indexed by subset bitmask.

    Shares DP prefixes across subsets, which is much cheaper than one DP
    per subset when the whole table is needed.
    """
    if graph.left > 12:
        raise LimitExceeded(f"{graph.left} left nodes > DP limit 12")
    if graph.right > 20:
        raise LimitExceeded(f"{graph.right} right nodes > DP limit 20")
    adj, den = _scaled_adjacency(graph)
    out: list[Fraction] = [ZERO] * (1 << graph.left)

    def descend(l: int, submask: int, dp: list[int]) -> None:
        if l == graph.left:
            out[submask] = Fraction(max(dp), den)
            return
        descend(l + 1, submask, dp)
        descend(l + 1, submask | (1 << l), _advance(dp, adj[l]))

    descend(0, 0, [0] * (1 << graph.right))
    return out
