"""Monotone submodular maximization using at most half the knapsack capacity.

The search enumerates every candidate seed set of at most ``k`` elements and
every sub-budget part of it, then extends with a density greedy restricted
to the remaining half capacity. For any monotone non-negative submodular
oracle whose element sizes are at most half the capacity, the best set
found is worth at least a third of the optimum over the *full* capacity,
while occupying at most half of it. The other half stays reserved for the
downstream rounding and filling stages.

A numeric verifier for the closed-form bound behind that guarantee lives
here as well (:func:`ratio_lower_bound`, :func:`certify_ratio_bound`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
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
    """Search parameters: seed-set size ``k`` and the knapsack capacity.

    ``capacity`` may be left None when the caller derives it from context
    (the pipeline uses the instance's bin count and rejects any other value).
    """

    k: int = 6
    capacity: Fraction | None = None


class _MaskOracle:
    """Bitmask view of a set-function oracle with per-run memoization."""

    def __init__(self, f: Oracle, ids: Sequence[int]):
        self._f = f
        self._ids = ids
        self._memo: dict[int, Fraction] = {}

    def value(self, mask: int) -> Fraction:
        cached = self._memo.get(mask)
        if cached is None:
            members = frozenset(
                self._ids[b] for b in range(len(self._ids)) if mask >> b & 1
            )
            cached = self._f(members)
            self._memo[mask] = cached
        return cached


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
    oracle: _MaskOracle,
    sizes: Sequence[Fraction],
    n: int,
    base_mask: int,
    cap: Fraction,
) -> int:
    """Density greedy with skip-but-remove semantics, on top of ``base_mask``.

    Each round the element of highest marginal density is removed from the
    candidate pool whether or not it fits; it joins the solution only if it
    does. Ties break toward the lowest element id.
    """
    remaining = list(range(n))
    chosen = 0
    chosen_size = Fraction(0)
    while remaining:
        base_val = oracle.value(base_mask | chosen)
        best = None
        best_density = None
        for b in remaining:
            gain = oracle.value(base_mask | chosen | (1 << b)) - base_val
            density = gain / sizes[b]
            if best_density is None or density > best_density:
                best = b
                best_density = density
        remaining.remove(best)
        if chosen_size + sizes[best] <= cap:
            chosen |= 1 << best
            chosen_size += sizes[best]
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
    oracle = _MaskOracle(f, ids)
    mask = _greedy_mask(oracle, sizes, len(ids), 0, cap)
    return frozenset(ids[b] for b in range(len(ids)) if mask >> b & 1)


def maximize_with_reserve(
    f: Oracle, elements: Sequence[GroundElement], config: OptConfig = OptConfig()
) -> frozenset[int]:
    """Best found set of size at most capacity/2 under a monotone oracle.

    Guarantees (certified by the test suite rather than checked at runtime):
    the returned set R satisfies s(R) <= capacity/2 and
    3 * f(R) >= max{f(S) : s(S) <= capacity}, provided f is monotone,
    non-negative and submodular and every element size is at most half the
    capacity. Deterministic: seed sets and sub-budget parts are enumerated
    by (cardinality, lexicographic ids) and a candidate replaces the
    incumbent whenever its value is >= the incumbent's.
    """
    if config.capacity is None:
        raise ValueError("OptConfig.capacity is required")
    if config.k < 1:
        raise ValueError(f"k must be >= 1, got {config.k}")
    if config.k < 6:
        warnings.warn(
            f"k={config.k} < 6 weakens the 1/3 guarantee; use k>=6 for certified runs",
            stacklevel=2,
        )
    half = config.capacity / 2
    ordered = _check_elements(elements)
    for e in ordered:
        if e.size > half:
            raise ElementTooLarge(e.id, e.size, half)
    ids = [e.id for e in ordered]
    sizes = [e.size for e in ordered]
    n = len(ids)
    oracle = _MaskOracle(f, ids)

    best_mask = 0
    best_val = oracle.value(0)
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
                    grown = _greedy_mask(
                        oracle, sizes, n, seed_mask, half - part_size
                    )
                    candidate = part_mask | grown
                    val = oracle.value(candidate)
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
