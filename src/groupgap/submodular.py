"""Monotone submodular maximization using at most half the knapsack capacity.

:func:`maximize_with_reserve` returns a set of maximum value among those
that fit half the capacity. For any monotone non-negative submodular oracle
whose element sizes are at most half the capacity, that set is worth at
least a third of the optimum over the *full* capacity, while occupying at
most half of it. The other half stays reserved for the downstream rounding
and filling stages.

The maximum comes from a depth-first branch-and-bound that evaluates a
gain only when a bound or a branch needs it. At a node with chosen set A
it drops the candidates that no longer fit and bounds every extension of A
by f(A) plus the fractional knapsack of the candidates' gains in the room
left. A gain f(A' + e) - f(A') taken at an ancestor A' of A bounds the
gain f(A + e) - f(A) from above, so the bound holds on such stale gains
too, because f is monotone and submodular (Nemhauser, Wolsey and Fisher
1978; Minoux's 1978 lazy greedy rests on the same fact). The root
evaluates every candidate. Below it, a node starts from its parent's
gains and, until its bound is at most the best value found, takes the
densest candidate: while that candidate's gain is stale it evaluates
f(A + e) and sorts again; once the gain is exact it branches on e, with
every candidate not yet branched on and its current gain, and then drops
e. Ties on value go to the first set evaluated.

The search and its fallback run in exact integers. Sizes and the half
capacity are multiples of one common unit, the lcm of their denominators,
so :func:`_integer_sizes` scales them to ints once; densities are ordered
by ``gain * (L // size)`` with ``L`` the lcm of those ints, which orders
exactly as ``gain / size``; and a fractional knapsack bound is kept as a
numerator over a denominator, so a prune compares cross-products. Nothing
divides a value, so values may be ints (the pipeline passes LP values in
units of a common denominator) or Fractions: only ``+``, ``-``, ``*`` and
comparisons touch them.

The search has a fixed budget of oracle solves. Past it, the paper's
guess-greedy runs from the search's best set: it enumerates every seed set
of at most :data:`_SEED_SIZE` elements that fits the capacity and every part
of it, then extends the part with a density greedy in the remaining half
capacity. That keeps the 1/3 guarantee with a polynomial number of solves on
every instance. The greedy filters, then takes: each round it drops the
elements that no longer fit and takes the densest of the rest. Room only
shrinks, so this picks exactly what the skip-but-remove greedy of the
analysis picks, without evaluating elements that could never join.

A numeric verifier for the closed-form bound behind that guarantee lives
here as well (:func:`ratio_lower_bound`, :func:`certify_ratio_bound`). It
reads the same seed size as the fallback, so the size the fallback runs
with is the size the verifier certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import exp, lcm
from numbers import Rational
from typing import Callable, Mapping, Sequence

from .errors import InvariantViolated, LimitExceeded, PreconditionViolated

# A set function's exact values: ints or Fractions.
Value = Fraction | int
Oracle = Callable[[frozenset[int]], Value]

DENOMINATOR_GUARD = 1e-9


def _mask_oracle(f: Oracle, ids: Sequence[int]) -> Callable[[int], Value]:
    """Memoized view of ``f`` on bitmasks; bit ``b`` stands for ``ids[b]``.

    The memo stays although the LP oracle keeps one too. The
    branch-and-bound never asks for a set twice, but the guess-greedy's
    parts and greedy runs ask again for sets already seen, and ``f`` is
    called once per set (``test_fallback_guesses_no_seed_above_the_capacity``
    pins the count). Its misses are also what the solve budget counts.
    """
    return cache(lambda mask: f(frozenset(i for b, i in enumerate(ids) if mask >> b & 1)))


def _greedy_mask(
    value: Callable[[int], Value],
    sizes: Sequence[int],
    weight: Sequence[int],
    base_mask: int,
    room: int,
) -> int:
    """Density greedy on top of ``base_mask``, within ``room``: filter, then take.

    ``sizes``, ``weight`` and ``room`` come from :func:`_integer_sizes`.
    Each round keeps only the elements that still fit and takes the one of
    highest marginal density, ties going to the lowest element id. This is
    the skip-but-remove greedy (take the densest remaining element, keep it
    only if it fits) with its skips left out: room only shrinks, so an
    element that does not fit now never will, and skipping it changes
    neither the chosen set nor any other density.
    """
    chosen = 0
    pool = [b for b in range(len(sizes)) if sizes[b] <= room]
    while pool:
        base_val = value(base_mask | chosen)
        best = max(
            pool,
            key=lambda b: ((value(base_mask | chosen | 1 << b) - base_val) * weight[b], -b),
        )
        chosen |= 1 << best
        room -= sizes[best]
        pool = [b for b in pool if b != best and sizes[b] <= room]
    return chosen


# Oracle misses the branch-and-bound may spend before it hands over to the
# guess-greedy. Generator seed 1 needs 142 on uniform 240 items / 64 groups
# / 24 bins and 110 on uniform 200 / 48 / 20, where evaluating every
# fitting candidate at every node needed 2,200 and 1,538.
_SOLVE_BUDGET = 4096

# Seed-set size of the guess-greedy fallback, and the k of the ratio bound:
# `check-lemma4` certifies the 1/3 floor at this value.
_SEED_SIZE = 6


def _knapsack_bound(items: Sequence[tuple[Value, int]], room: int) -> tuple[Value, int]:
    """Fractional knapsack of ``(gain, size)`` pairs given in density order,
    as ``(num, den)``: the bound is ``num / den``, with ``den > 0``.

    Every size must be at most ``room``: the caller keeps only the pairs
    that some set within the room can hold. They are taken whole, in order,
    until one no longer fits; that one is taken in part, which is where
    ``den`` comes from.
    """
    total = 0
    for gain, size in items:
        if size > room:
            return total * size + gain * room, size
        total += gain
        room -= size
    return total, 1


def _branch_and_bound(
    value: Callable[[int], Value], sizes: Sequence[int], weight: Sequence[int], half: int
) -> tuple[int, Value, bool]:
    """Depth-first max of ``value`` over the masks of size at most ``half``.

    ``sizes``, ``weight`` and ``half`` come from :func:`_integer_sizes`.
    Returns the incumbent mask, its value, and whether the search finished
    before the memo missed :data:`_SOLVE_BUDGET` times. A finished search returns the
    first mask in evaluation order whose value is the maximum.
    """
    empty = value(0)
    best_mask, best_val = 0, empty

    def gain(mask: int, val: Value, b: int) -> Value:
        """f(A + b) - f(A) for A = ``mask`` of value ``val``, after the
        budget check; A + b replaces the incumbent only if strictly better."""
        nonlocal best_mask, best_val
        if value.cache_info().misses >= _SOLVE_BUDGET:
            raise LimitExceeded(f"the memo missed {_SOLVE_BUDGET} times")
        grown = value(mask | 1 << b)
        if grown > best_val:
            best_mask, best_val = mask | 1 << b, grown
        return grown - val

    def visit(mask: int, val: Value, room: int, gains: dict[int, Value], stale: set[int]) -> None:
        # gains[b] is f(A + b) - f(A), or for b in stale that gain at an
        # ancestor of A, which bounds it from above (f submodular). The pool
        # is filtered against the room once: the room is fixed at this node.
        pool = [b for b in gains if sizes[b] <= room]
        while pool:
            pool.sort(key=lambda b: (-gains[b] * weight[b], b))
            # f(A ∪ B) <= f(A) + sum of the gains of B (f monotone submodular).
            num, den = _knapsack_bound([(gains[b], sizes[b]) for b in pool], room)
            if val * den + num <= best_val * den:
                return
            b = pool[0]
            if b in stale:
                stale.remove(b)
                gains[b] = gain(mask, val, b)
                continue
            del pool[0]
            child = {c: gains[c] for c in pool}
            visit(mask | 1 << b, val + gains[b], room - sizes[b], child, set(child))

    try:
        root = {b: gain(0, empty, b) for b in range(len(sizes)) if sizes[b] <= half}
        visit(0, empty, half, root, set())
    except LimitExceeded:  # the budget is spent; the incumbent stands
        return best_mask, best_val, False
    return best_mask, best_val, True


def _guess_greedy(
    value: Callable[[int], Value],
    sizes: Sequence[int],
    weight: Sequence[int],
    half: int,
    k: int,
    best_mask: int,
    best_val: Value,
) -> int:
    """The paper's guess-greedy, started from the incumbent ``best_mask``.

    ``sizes``, ``weight`` and ``half`` come from :func:`_integer_sizes`.
    Enumerates every seed of at most ``k`` elements that fits the full
    capacity ``2 * half`` and every part of it that fits ``half``, extends
    the part with the density greedy in the room left (seed elements stay
    in the greedy's base), and keeps a candidate whenever its value is >=
    the incumbent's. Seeds and parts go by (cardinality, lexicographic
    ids). The analysis guesses a seed inside a full-capacity optimum, so a
    seed larger than the capacity is never the one it needs.
    """
    n = len(sizes)
    for seed_card in range(min(k, n) + 1):
        for seed in combinations(range(n), seed_card):
            if sum(sizes[b] for b in seed) > 2 * half:
                continue
            seed_mask = sum(1 << b for b in seed)
            for part_card in range(seed_card + 1):
                for part in combinations(seed, part_card):
                    part_size = sum(sizes[b] for b in part)
                    if part_size > half:
                        continue
                    grown = _greedy_mask(value, sizes, weight, seed_mask, half - part_size)
                    candidate = sum(1 << b for b in part) | grown
                    val = value(candidate)
                    if val >= best_val:
                        best_mask = candidate
                        best_val = val
    return best_mask


def maximize_with_reserve(
    f: Oracle,
    sizes: Mapping[int, Rational],
    capacity: Fraction,
) -> frozenset[int]:
    """Max-value set of size at most ``capacity``/2 under a monotone submodular oracle.

    ``sizes`` maps each element id to its size; ``f`` takes sets of those
    ids. Elements go by ascending id, so bit ``b`` of a mask stands for the
    ``b``-th smallest id.

    A branch-and-bound returns ``max{f(S) : s(S) <= capacity/2}``. Ties on
    value go to the first such set the search evaluates: the root evaluates
    its candidates by ascending id, a node below it evaluates one candidate
    at a time, the densest by its current gain (ties to the lowest id), and
    a set replaces the incumbent only when strictly better. If the search
    spends its solve budget first, the guess-greedy with seed size
    :data:`_SEED_SIZE` runs from the search's best set.

    The branch-and-bound and the fallback work in integers: the sizes and
    ``capacity``/2 are scaled by the lcm of their denominators, and the
    oracle's values are only added, subtracted, multiplied by ints and
    compared, never divided. So an oracle may return ints (say, values in
    units of a common denominator) as well as Fractions, and any positive
    scaling of f selects the same set. A negative or non-finite
    ``capacity``, or an element size that is not a positive int or
    Fraction, raises ``ValueError``.

    Guarantees: the returned set R satisfies s(R) <= capacity/2, checked at
    runtime (``InvariantViolated`` otherwise), and
    3 * f(R) >= max{f(S) : s(S) <= capacity}, certified by the test suite,
    provided f is monotone, non-negative and submodular and every element
    size is at most half the capacity. Exactness relies on submodularity
    too. Deterministic.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    try:
        half = Fraction(capacity) / 2
    except (OverflowError, ValueError):  # an infinite or NaN float
        raise ValueError(f"capacity must be finite, got {capacity!r}") from None
    ids = sorted(sizes)
    for i in ids:
        if isinstance(sizes[i], bool) or not isinstance(sizes[i], Rational):
            raise ValueError(f"element {i} has size {sizes[i]!r}, not an int or Fraction")
        if sizes[i] <= 0:
            raise ValueError(f"element {i} has non-positive size {sizes[i]}")
    for i in ids:
        if sizes[i] > half:
            raise PreconditionViolated(f"element {i} has size {sizes[i]} > half capacity {half}")
    n = len(ids)
    value = _mask_oracle(f, ids)
    units, weight, half_units = _integer_sizes([sizes[i] for i in ids], half)

    best_mask, best_val, finished = _branch_and_bound(value, units, weight, half_units)
    if not finished:
        best_mask = _guess_greedy(
            value, units, weight, half_units, _SEED_SIZE, best_mask, best_val
        )
    result = frozenset(ids[b] for b in range(n) if best_mask >> b & 1)
    if sum(units[b] for b in range(n) if best_mask >> b & 1) > half_units:
        raise InvariantViolated(f"selected set {sorted(result)} exceeds half the capacity")
    return result


def _integer_sizes(
    sizes: Sequence[Rational], half: Fraction
) -> tuple[list[int], list[int], int]:
    """``sizes`` and ``half`` as ints in one unit, with the sizes' density weights.

    The unit is 1 / the lcm of the denominators; scaling every size and the
    room by one positive constant keeps every comparison and every sum
    between them as it was. ``weight[b]`` is ``L // units[b]`` for ``L`` the
    lcm of the scaled sizes, so ``gain * weight[b]`` orders, and ties,
    exactly as ``gain / sizes[b]``.
    """
    unit = lcm(half.denominator, *(size.denominator for size in sizes))

    def scaled(x: Fraction) -> int:
        return x.numerator * (unit // x.denominator)

    units = [scaled(size) for size in sizes]
    common = lcm(*units)
    return units, [common // size for size in units], scaled(half)


def _floor(p_a: float, p_b: float, decay: float) -> float:
    """:func:`ratio_lower_bound`'s bound, given its decay
    ``exp(-(1/2 - s_a) / (1 - s_a - s_b))``: the one place it is written."""
    both = p_a + p_b
    return p_a + (1.0 - both) * (1.0 - decay) - both / _SEED_SIZE


def ratio_lower_bound(p_a: float, p_b: float, s_a: float, s_b: float) -> float:
    """Closed-form bound on the fraction of the optimum one greedy extension keeps.

    ``p_a``/``p_b`` are the two parts' value shares of the optimum, and
    ``s_a``/``s_b`` their sizes as fractions of the capacity; the seeds have
    at most :data:`_SEED_SIZE` elements, as in the fallback. Undefined when
    the sizes sum to (nearly) the whole capacity.
    """
    denom = 1.0 - s_a - s_b
    if denom <= DENOMINATOR_GUARD:
        raise PreconditionViolated(f"1 - s_a - s_b = {denom} <= {DENOMINATOR_GUARD}")
    return _floor(p_a, p_b, exp(-(0.5 - s_a) / denom))


@dataclass(frozen=True)
class GridCheckReport:
    step: float
    min_value: float
    argmin: tuple[float, float, float, float]
    skipped: int
    passed: bool


def _axis(step: float, upper: float) -> list[float]:
    points = [i * step for i in range(int(upper / step) + 1)]
    if points[-1] < upper - 1e-12:
        points.append(upper)
    return points


def certify_ratio_bound(step: float = 1.0 / 64.0) -> GridCheckReport:
    """Grid-certify that max of the two ordered bounds stays >= 1/3.

    The bounds are :func:`ratio_lower_bound`'s at the fallback's seed size
    :data:`_SEED_SIZE`. Sweeps value shares in [0, 1/3] and size shares in
    [0, 1/2] at the given resolution; grid points where the bound is
    undefined are skipped and counted. The two decays are taken once per
    size pair. Passes iff the grid minimum is >= 1/3 - 1e-9.
    """
    if not 0 < step <= 0.125:
        raise ValueError(f"step must be in (0, 1/8], got {step}")
    p_axis = _axis(step, 1.0 / 3.0)
    s_axis = _axis(step, 0.5)
    min_value = float("inf")
    argmin = (0.0, 0.0, 0.0, 0.0)
    skipped = 0
    n_p2 = len(p_axis) ** 2
    for s1 in s_axis:
        for s2 in s_axis:
            denom = 1.0 - s1 - s2
            if denom <= DENOMINATOR_GUARD:
                skipped += n_p2
                continue
            decay1 = exp(-(0.5 - s1) / denom)
            decay2 = exp(-(0.5 - s2) / denom)
            for p1 in p_axis:
                for p2 in p_axis:
                    v1 = _floor(p1, p2, decay1)
                    v2 = _floor(p2, p1, decay2)
                    v = v1 if v1 >= v2 else v2
                    if v < min_value:
                        min_value = v
                        argmin = (p1, p2, s1, s2)
    return GridCheckReport(
        step=step,
        min_value=min_value,
        argmin=argmin,
        skipped=skipped,
        passed=min_value >= 1.0 / 3.0 - 1e-9,
    )
