"""Brute-force references that the tests check the library against.

They take different routes than the library: the knapsack maximum
enumerates subsets, the partial-matching value function runs a bitmask DP
rather than a flow computation, and the checkers sum loads and fractions
directly. None of them calls the LP oracle or the flow solver, so each side
can vouch for the other.

pytest does not collect this file (its name does not start with ``test_``);
tests import it as ``from reference import ...``, as they import ``conftest``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping

from groupgap.errors import LimitExceeded, ValidationError
from groupgap.model import ONE, ZERO, Assignment, FractionalSolution, Instance, _well_formed


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


def is_almost_feasible(inst: Instance, u: Assignment) -> bool:
    """Well formed, and every bin fits once its single largest item is set aside."""
    if not _well_formed(inst, u):
        return False
    for bin_items in u.bins:
        load = inst.total_size(bin_items)
        if load <= ONE:
            continue
        largest = max(inst.size(i) for i in bin_items)
        if load - largest > ONE:
            return False
    return True


def validate_fractional(inst: Instance, x: FractionalSolution) -> None:
    """Check LP feasibility and the cached objective of a fractional solution."""
    per_item: dict[int, Fraction] = {}
    per_bin: dict[int, Fraction] = {}
    for (i, j), f in x.entries.items():
        if i not in inst.item_map:
            raise ValidationError(f"fractional entry references unknown item {i}")
        if not 0 <= j < inst.m:
            raise ValidationError(f"fractional entry references bin {j} out of range")
        if not ZERO < f <= ONE:
            raise ValidationError(f"fraction for ({i}, {j}) is {f}, must be in (0, 1]")
        per_item[i] = per_item.get(i, ZERO) + f
        per_bin[j] = per_bin.get(j, ZERO) + f * inst.size(i)
    for i, tot in per_item.items():
        if tot > ONE:
            raise ValidationError(f"item {i} has total fraction {tot} > 1")
    for j, load in per_bin.items():
        if load > ONE:
            raise ValidationError(f"bin {j} has fractional load {load} > 1")
    if x.recompute_value(inst) != x.value:
        raise ValidationError("cached fractional value does not match entries")
