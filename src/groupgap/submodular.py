"""Monotone submodular maximization using at most half the knapsack capacity.

The search enumerates every candidate seed set of at most ``k`` elements and
every sub-budget part of it, then extends with a density greedy restricted
to the remaining half capacity. For any monotone non-negative submodular
oracle whose element sizes are at most half the capacity, the best set
found is worth at least a third of the optimum over the *full* capacity,
while occupying at most half of it. The other half stays reserved for the
downstream rounding and filling stages.

The greedy filters, then takes: each round it drops the elements that no
longer fit and takes the densest of the rest. Room only shrinks, so this
picks exactly what the skip-but-remove greedy of the analysis picks, without
evaluating elements that could never join.

A numeric verifier for the closed-form bound behind that guarantee lives
here as well (:func:`ratio_lower_bound`, :func:`certify_ratio_bound`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import exp
from typing import Callable, Sequence

from .errors import DegenerateDenominator, ElementTooLarge

Oracle = Callable[[frozenset[int]], Fraction]

DENOMINATOR_GUARD = 1e-9


@dataclass(frozen=True)
class GroundElement:
    id: int
    size: Fraction


@dataclass(frozen=True)
class OptConfig:
    """Search parameters: the seed-set size ``k``.

    The knapsack capacity is not a parameter: it is an argument of
    :func:`maximize_with_reserve`, and the pipeline passes the bin count.
    """

    k: int = 6


def _mask_oracle(f: Oracle, ids: Sequence[int]) -> Callable[[int], Fraction]:
    """Memoized view of ``f`` on bitmasks; bit ``b`` stands for ``ids[b]``."""
    return cache(lambda mask: f(frozenset(i for b, i in enumerate(ids) if mask >> b & 1)))


def _check_elements(elements: Sequence[GroundElement]) -> list[GroundElement]:
    ordered = sorted(elements, key=lambda e: e.id)
    ids = [e.id for e in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("ground element ids must be distinct")
    for e in ordered:
        if e.size <= 0:
            raise ValueError(f"element {e.id} has non-positive size {e.size}")
    return ordered


def _greedy_mask(
    value: Callable[[int], Fraction],
    sizes: Sequence[Fraction],
    base_mask: int,
    room: Fraction,
) -> int:
    """Density greedy on top of ``base_mask``, within ``room``: filter, then take.

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
            key=lambda b: ((value(base_mask | chosen | 1 << b) - base_val) / sizes[b], -b),
        )
        chosen |= 1 << best
        room -= sizes[best]
        pool = [b for b in pool if b != best and sizes[b] <= room]
    return chosen


def density_greedy(
    f: Oracle, elements: Sequence[GroundElement], cap: Fraction
) -> frozenset[int]:
    """Run the density greedy alone; returns the selected element ids."""
    ordered = _check_elements(elements)
    if cap < 0:
        raise ValueError(f"capacity must be non-negative, got {cap}")
    ids = [e.id for e in ordered]
    sizes = [e.size for e in ordered]
    mask = _greedy_mask(_mask_oracle(f, ids), sizes, 0, cap)
    return frozenset(ids[b] for b in range(len(ids)) if mask >> b & 1)


def maximize_with_reserve(
    f: Oracle,
    elements: Sequence[GroundElement],
    capacity: Fraction,
    config: OptConfig = OptConfig(),
) -> frozenset[int]:
    """Best found set of size at most ``capacity``/2 under a monotone oracle.

    Guarantees (certified by the test suite rather than checked at runtime):
    the returned set R satisfies s(R) <= capacity/2 and
    3 * f(R) >= max{f(S) : s(S) <= capacity}, provided f is monotone,
    non-negative and submodular and every element size is at most half the
    capacity. Deterministic: seed sets and sub-budget parts are enumerated
    by (cardinality, lexicographic ids) and a candidate replaces the
    incumbent whenever its value is >= the incumbent's.
    """
    if config.k < 1:
        raise ValueError(f"k must be >= 1, got {config.k}")
    if config.k < 6:
        warnings.warn(
            f"k={config.k} < 6 weakens the 1/3 guarantee; use k>=6 for certified runs",
            stacklevel=2,
        )
    half = capacity / 2
    ordered = _check_elements(elements)
    for e in ordered:
        if e.size > half:
            raise ElementTooLarge(e.id, e.size, half)
    ids = [e.id for e in ordered]
    sizes = [e.size for e in ordered]
    n = len(ids)
    value = _mask_oracle(f, ids)

    best_mask = 0
    best_val = value(0)
    for seed_card in range(min(config.k, n) + 1):
        for seed in combinations(range(n), seed_card):
            seed_mask = 0
            for b in seed:
                seed_mask |= 1 << b
            for part_card in range(seed_card + 1):
                for part in combinations(seed, part_card):
                    part_mask = 0
                    part_size = Fraction(0)
                    for b in part:
                        part_mask |= 1 << b
                        part_size += sizes[b]
                    if part_size > half:
                        continue
                    grown = _greedy_mask(value, sizes, seed_mask, half - part_size)
                    candidate = part_mask | grown
                    val = value(candidate)
                    if val >= best_val:
                        best_mask = candidate
                        best_val = val
    result = frozenset(ids[b] for b in range(n) if best_mask >> b & 1)
    assert sum((sizes[b] for b in range(n) if best_mask >> b & 1), Fraction(0)) <= half
    return result


def ratio_lower_bound(
    p_a: float, p_b: float, s_a: float, s_b: float, k: int = 6
) -> float:
    """Closed-form bound on the fraction of the optimum one greedy extension keeps.

    ``p_a``/``p_b`` are the two parts' value shares of the optimum, and
    ``s_a``/``s_b`` their sizes as fractions of the capacity. Undefined when
    the sizes sum to (nearly) the whole capacity.
    """
    denom = 1.0 - s_a - s_b
    if denom <= DENOMINATOR_GUARD:
        raise DegenerateDenominator(f"1 - s_a - s_b = {denom} <= {DENOMINATOR_GUARD}")
    return (
        p_a
        + (1.0 - p_a - p_b) * (1.0 - exp(-(0.5 - s_a) / denom))
        - (p_a + p_b) / k
    )


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


def certify_ratio_bound(step: float = 1.0 / 64.0, k: int = 6) -> GridCheckReport:
    """Grid-certify that max of the two ordered bounds stays >= 1/3.

    Sweeps value shares in [0, 1/3] and size shares in [0, 1/2] at the given
    resolution; grid points where the bound is undefined are skipped and
    counted. Passes iff the grid minimum is >= 1/3 - 1e-9.
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
                    both = p1 + p2
                    penalty = both / k
                    rest = 1.0 - both
                    v1 = p1 + rest * (1.0 - decay1) - penalty
                    v2 = p2 + rest * (1.0 - decay2) - penalty
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
