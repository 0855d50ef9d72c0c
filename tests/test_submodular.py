import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import pytest

from groupgap import submodular
from groupgap.errors import InvariantViolated, LimitExceeded, PreconditionViolated
from groupgap.submodular import (
    GridCheckReport,
    _SEED_SIZE,
    _branch_and_bound,
    _greedy_mask,
    _guess_greedy,
    _integer_sizes,
    _mask_oracle,
    certify_ratio_bound,
    maximize_with_reserve,
    ratio_lower_bound,
)

from conftest import F, coverage_oracle, modular_oracle, random_ground
from reference import exhaustive_knapsack_max


def modular(values):
    def f(subset):
        return sum((values[i] for i in subset), F(0))

    return f


def size_of(sizes, ids):
    return sum((sizes[i] for i in ids), F(0))


def skip_but_remove_greedy(f, sizes, cap):
    """Reference density greedy: take the densest remaining element (ties to
    the lowest id), keep it if it fits, and never offer it again."""
    remaining = sorted(sizes)
    chosen, used = frozenset(), F(0)
    while remaining:
        base = f(chosen)
        best = max(remaining, key=lambda i: ((f(chosen | {i}) - base) / sizes[i], -i))
        remaining.remove(best)
        if used + sizes[best] <= cap:
            chosen, used = chosen | {best}, used + sizes[best]
    return chosen


def density_greedy(f, sizes, cap):
    """The fallback's density greedy alone, from the empty set within ``cap``."""
    ids = sorted(sizes)
    value = _mask_oracle(f, ids)
    units, weight, room = _integer_sizes([sizes[i] for i in ids], cap)
    mask = _greedy_mask(value, units, weight, 0, room)
    return frozenset(i for b, i in enumerate(ids) if mask >> b & 1)


def guess_greedy(f, sizes, cap, k=_SEED_SIZE):
    """The fallback guess-greedy alone, started from the empty set."""
    ids = sorted(sizes)
    value = _mask_oracle(f, ids)
    units, weight, half = _integer_sizes([sizes[i] for i in ids], cap / 2)
    mask = _guess_greedy(value, units, weight, half, k, 0, value(0))
    return frozenset(i for b, i in enumerate(ids) if mask >> b & 1)


def brute_force_best(f, sizes, cap):
    best = f(frozenset())
    for r in range(1, len(sizes) + 1):
        for combo in combinations(sizes, r):
            if size_of(sizes, combo) <= cap:
                best = max(best, f(frozenset(combo)))
    return best


def test_greedy_empty_ground():
    assert density_greedy(modular({}), {}, F(2)) == frozenset()


def test_greedy_zero_capacity_selects_nothing():
    sizes = {1: F(1, 2), 2: F(1, 4)}
    f = modular({1: F(5), 2: F(3)})
    assert density_greedy(f, sizes, F(0)) == frozenset()


def test_greedy_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        maximize_with_reserve(modular({1: F(1)}), {1: F(0)}, F(1))


def test_greedy_matches_brute_force_on_uniform_sizes():
    sizes = {1: F(1), 2: F(1), 3: F(1)}
    f = modular({1: F(5), 2: F(3), 3: F(2)})
    picked = density_greedy(f, sizes, F(2))
    assert picked == {1, 2}
    assert f(picked) == 8 == brute_force_best(f, sizes, F(2))


def test_greedy_skip_but_remove_trace():
    # highest-density element first; the best-value element is argmax in
    # round two, does not fit, and is removed rather than retried
    sizes = {1: F(3), 2: F(1), 3: F(1)}
    f = modular({1: F(6), 2: F(3), 3: F(2)})
    picked = density_greedy(f, sizes, F(3))
    assert picked == {2, 3}
    assert f(picked) == 5


def test_greedy_respects_capacity():
    rng = random.Random(23)
    for _ in range(40):
        sizes, cap = random_ground(rng)
        f = (modular_oracle if rng.random() < 0.5 else coverage_oracle)(rng, sizes)
        budget = cap * F(rng.randint(1, 4), 8)
        picked = density_greedy(f, sizes, budget)
        assert size_of(sizes, picked) <= budget
        assert picked == skip_but_remove_greedy(f, sizes, budget)


def test_greedy_never_queries_elements_that_no_longer_fit():
    # element 3 never fits in 2; once 1 is taken, 2 (size 3/2) no longer fits
    sizes = {1: F(1), 2: F(3, 2), 3: F(3)}
    values = modular({1: F(5), 2: F(6), 3: F(30)})
    asked = []

    def f(subset):
        asked.append(subset)
        return values(subset)

    assert density_greedy(f, sizes, F(2)) == {1}
    assert set(asked) == {frozenset(), frozenset({1}), frozenset({2})}


def test_greedy_partial_coverage_bound():
    # density greedy plus one best leftover element recovers at least a
    # (1 - e^(-budget/target)) share of any comparably sized set's value
    rng = random.Random(29)
    checked = 0
    for _ in range(60):
        sizes, cap = random_ground(rng)
        f = (modular_oracle if rng.random() < 0.5 else coverage_oracle)(rng, sizes)
        target_set = frozenset(i for i in sizes if rng.random() < 0.5)
        if not target_set:
            continue
        m_star = size_of(sizes, target_set)
        m_star = max(m_star, F(1, 8)) * F(rng.randint(4, 6), 4)
        m_prime = m_star * F(rng.randint(1, 4), 4)
        picked = density_greedy(f, sizes, m_prime)
        lhs = max(float(f(picked) + f(frozenset({i}))) for i in target_set)
        rhs = (1 - math.exp(-float(m_prime / m_star))) * float(f(target_set))
        assert lhs >= rhs - 1e-9
        checked += 1
    assert checked >= 30


def test_maximize_single_element():
    f = modular({7: F(4)})
    assert maximize_with_reserve(f, {7: F(1)}, F(2)) == {7}


def test_maximize_two_unit_elements_takes_one():
    sizes = {1: F(1), 2: F(1)}
    f = modular({1: F(1), 2: F(1)})
    picked = maximize_with_reserve(f, sizes, F(2))
    assert len(picked) == 1
    assert f(picked) == 1
    opt = exhaustive_knapsack_max(f, sizes, F(2))
    assert opt == 2
    assert 3 * f(picked) >= opt


def test_maximize_ratio_and_size_on_random_oracles():
    rng = random.Random(31)
    for _ in range(30):
        sizes, cap = random_ground(rng, n_max=7)
        f = (modular_oracle if rng.random() < 0.5 else coverage_oracle)(rng, sizes)
        picked = maximize_with_reserve(f, sizes, cap)
        assert size_of(sizes, picked) <= cap / 2
        opt = exhaustive_knapsack_max(f, sizes, cap)
        assert 3 * f(picked) >= opt


def test_maximize_deterministic():
    rng = random.Random(37)
    sizes, cap = random_ground(rng, n_max=6)
    f = coverage_oracle(rng, sizes)
    first = maximize_with_reserve(f, sizes, cap)
    second = maximize_with_reserve(f, sizes, cap)
    assert first == second


def test_maximize_rejects_oversized_element():
    with pytest.raises(PreconditionViolated, match=r"^element 1 has size 3/2 > half capacity 1$"):
        maximize_with_reserve(modular({1: F(1)}), {1: F(3, 2)}, F(2))


def test_maximize_requires_capacity():
    sizes = {1: F(1, 2)}
    f = modular({1: F(1)})
    # bad input, not an internal error (InvariantViolated) or an oversized
    # element (PreconditionViolated), with or without elements
    for ground in ({}, sizes):
        with pytest.raises(ValueError):
            maximize_with_reserve(f, ground, F(-2))
    assert maximize_with_reserve(f, {}, F(0)) == frozenset()
    # sizes that are not an int or Fraction, and capacities that are not
    # finite, are named in a ValueError
    with pytest.raises(ValueError, match="0.5"):
        maximize_with_reserve(f, {1: 0.5}, F(2))
    # True is a Rational equal to 1, but not a size
    with pytest.raises(ValueError, match=r"^element 1 has size True, not an int or Fraction$"):
        maximize_with_reserve(f, {1: True}, F(2))
    for capacity in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=str(capacity)):
            maximize_with_reserve(f, sizes, capacity)
    assert maximize_with_reserve(f, sizes, 2.0) == frozenset({1})  # converts exactly


def test_maximize_guards_half_the_capacity(monkeypatch):
    """A search that returns a set over half the capacity."""
    monkeypatch.setattr(submodular, "_branch_and_bound", lambda *args: (0b11, F(0), True))
    message = r"^selected set \[1, 2\] exceeds half the capacity$"
    with pytest.raises(InvariantViolated, match=message):
        maximize_with_reserve(modular({1: F(1), 2: F(1)}), {1: F(1), 2: F(1)}, F(2))


def test_search_is_exact_and_never_below_guess_greedy():
    rng = random.Random(41)
    small_seed_cases = 0
    for _ in range(240):
        sizes, cap = random_ground(rng)
        f = (modular_oracle if rng.random() < 0.5 else coverage_oracle)(rng, sizes)
        value = f(maximize_with_reserve(f, sizes, cap))
        assert value == exhaustive_knapsack_max(f, sizes, cap / 2)
        # k=2 keeps the guess-greedy cheap; the budget test below compares
        # against k=6
        fallback = f(guess_greedy(f, sizes, cap, k=2))
        assert value >= fallback
        # when no set within cap/2 has more than k elements, every such set
        # is its own seed and part, so the guess-greedy is exact as well
        most = max(
            r
            for r in range(len(sizes) + 1)
            for combo in combinations(sizes, r)
            if size_of(sizes, combo) <= cap / 2
        )
        if most <= 2:
            assert fallback == value
            small_seed_cases += 1
    assert small_seed_cases >= 50


def test_search_keeps_the_first_strictly_better_set():
    # {1, 2} and {2, 3} both fit and are both worth 6. The root evaluates
    # {1}, {2} and {3}, all worth 3, and keeps {1}. Element 2 is the
    # densest, so the search visits {2} first and evaluates its densest
    # candidate, 3: {2, 3} beats {1}. The equal {1, 2} is then pruned
    # unevaluated, since its bound 3 + 3 is not above 6, although its mask
    # is lower.
    sizes = {1: F(3), 2: F(1), 3: F(2)}
    f = modular({1: F(3), 2: F(3), 3: F(3)})
    assert maximize_with_reserve(f, sizes, F(8)) == {2, 3}


@pytest.mark.parametrize("budget", [0, 3])
def test_spent_budget_falls_back_to_guess_greedy(monkeypatch, budget):
    monkeypatch.setattr(submodular, "_SOLVE_BUDGET", budget)
    rng = random.Random(43)
    for _ in range(40):
        sizes, cap = random_ground(rng)
        f = (modular_oracle if rng.random() < 0.5 else coverage_oracle)(rng, sizes)
        picked = maximize_with_reserve(f, sizes, cap)
        assert size_of(sizes, picked) <= cap / 2
        fallback = guess_greedy(f, sizes, cap)
        assert f(picked) >= f(fallback)
        if budget == 0:
            # the search stops before its first gain, at the empty set
            assert picked == fallback
        assert 3 * f(picked) >= exhaustive_knapsack_max(f, sizes, cap)


# Fraction twins of the integer search and fallback, kept as the reference.
_SOLVE_BUDGET = 4096


def _knapsack_bound(items: Sequence[tuple[Fraction, Fraction]], room: Fraction) -> Fraction:
    """Fractional knapsack of ``(gain, size)`` pairs given in density order,
    each of size at most ``room``.

    They are taken whole, in order, until one no longer fits; that one is
    taken in part.
    """
    total = Fraction(0)
    for gain, size in items:
        if size > room:
            return total + gain * room / size
        total += gain
        room -= size
    return total


def reference_branch_and_bound(
    value: Callable[[int], Fraction], sizes: Sequence[Fraction], half: Fraction
) -> tuple[int, Fraction, bool]:
    """Depth-first max of ``value`` over the masks of size at most ``half``.

    The root evaluates every candidate. Below it, a node starts from its
    parent's gains as estimates, prunes on their fractional knapsack,
    evaluates the densest candidate while its gain is stale, and branches
    on it once the gain is exact. Returns the incumbent mask, its value, and
    whether the search finished before the memo missed :data:`_SOLVE_BUDGET`
    times. A finished search returns the first mask in evaluation order
    whose value is the maximum.
    """
    empty = value(0)
    best_mask, best_val = 0, empty

    def gain(mask: int, val: Fraction, b: int) -> Fraction:
        nonlocal best_mask, best_val
        if value.cache_info().misses >= _SOLVE_BUDGET:
            raise LimitExceeded("budget spent")
        grown = value(mask | 1 << b)
        if grown > best_val:
            best_mask, best_val = mask | 1 << b, grown
        return grown - val

    def visit(
        mask: int, val: Fraction, room: Fraction, gains: dict[int, Fraction], stale: set[int]
    ) -> None:
        # gains[b] is exact at this node unless b is stale: then it is an
        # ancestor's gain, which bounds it from above (f submodular).
        pool = [b for b in gains if sizes[b] <= room]
        while pool:
            pool.sort(key=lambda b: (-gains[b] / sizes[b], b))
            bound = _knapsack_bound([(gains[b], sizes[b]) for b in pool], room)
            if val + bound <= best_val:
                return
            b = pool.pop(0)
            if b in stale:
                stale.remove(b)
                gains[b] = gain(mask, val, b)
                pool.append(b)
                continue
            child = {c: gains[c] for c in pool}
            visit(mask | 1 << b, val + gains[b], room - sizes[b], child, set(child))

    try:
        root = {b: gain(0, empty, b) for b in range(len(sizes)) if sizes[b] <= half}
        visit(0, empty, half, root, set())
    except LimitExceeded:
        return best_mask, best_val, False
    return best_mask, best_val, True


def reference_greedy_mask(
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


def reference_guess_greedy(
    value: Callable[[int], Fraction],
    sizes: Sequence[Fraction],
    half: Fraction,
    k: int,
    best_mask: int,
    best_val: Fraction,
) -> int:
    """The paper's guess-greedy, started from the incumbent ``best_mask``.

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
            seed_mask = 0
            seed_size = Fraction(0)
            for b in seed:
                seed_mask |= 1 << b
                seed_size += sizes[b]
            if seed_size > 2 * half:
                continue
            for part_card in range(seed_card + 1):
                for part in combinations(seed, part_card):
                    part_mask = 0
                    part_size = Fraction(0)
                    for b in part:
                        part_mask |= 1 << b
                        part_size += sizes[b]
                    if part_size > half:
                        continue
                    grown = reference_greedy_mask(value, sizes, seed_mask, half - part_size)
                    candidate = part_mask | grown
                    val = value(candidate)
                    if val >= best_val:
                        best_mask = candidate
                        best_val = val
    return best_mask


def mixed_ground(rng):
    """Sizes over several denominators, and a capacity whose half may lie
    off their grid; every size fits the half."""
    cap = F(rng.randint(2, 9), rng.choice([1, 1, 3, 7]))
    half = cap / 2
    sizes = {}
    for i in range(1, rng.randint(1, 9) + 1):
        den = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        num = rng.randint(1, max(1, int(half * den)))
        sizes[i] = min(F(num, den), half)
    return sizes, cap


def int_oracle(rng, sizes):
    """A modular or coverage oracle with int values, often tied."""
    top = rng.choice([2, 5, 30])
    if rng.random() < 0.5:
        values = {i: rng.randint(0, top) for i in sizes}
        return lambda subset: sum(values[i] for i in subset)
    universe = range(rng.randint(2, 8))
    weights = [rng.randint(0, top) for _ in universe]
    covers = {i: [u for u in universe if rng.random() < 0.4] for i in sizes}
    return lambda subset: sum(weights[u] for u in {u for i in subset for u in covers[i]})


@pytest.mark.parametrize("budget", [0, 3, 4096])
def test_integer_search_matches_the_fraction_search(monkeypatch, budget):
    monkeypatch.setattr(submodular, "_SOLVE_BUDGET", budget)
    monkeypatch.setitem(globals(), "_SOLVE_BUDGET", budget)
    rng = random.Random(47 + budget)
    kinds = set()
    for trial in range(500):
        if trial % 2:
            ground, cap = mixed_ground(rng)
        else:
            ground, cap = random_ground(rng, n_max=9)
        draw = rng.random()
        if draw < 0.3:
            f, kind = modular_oracle(rng, ground), "fraction"
        elif draw < 0.6:
            f, kind = coverage_oracle(rng, ground), "fraction"
        else:
            f, kind = int_oracle(rng, ground), "int"
        ids = sorted(ground)
        sizes = [ground[i] for i in ids]
        reference, value = _mask_oracle(f, ids), _mask_oracle(f, ids)
        units, weight, half = _integer_sizes(sizes, cap / 2)
        expected = reference_branch_and_bound(reference, sizes, cap / 2)
        got = _branch_and_bound(value, units, weight, half)
        assert got == expected
        assert type(got[1]) is type(expected[1])
        # the same sets evaluated: the same nodes bounded and pruned
        assert value.cache_info() == reference.cache_info()
        if not expected[2]:
            # the fallback from the incumbent: the same seeds, greedy
            # choices and ties, so the same mask after the same queries
            k = rng.choice([1, 2, 3, 6] if len(sizes) <= 6 else [1, 2, 3])
            want = reference_guess_greedy(reference, sizes, cap / 2, k, *expected[:2])
            assert _guess_greedy(value, units, weight, half, k, *got[:2]) == want
            assert value.cache_info() == reference.cache_info()
        kinds.add((kind, expected[2], trial % 2))
    finished = {4096: {True}, 3: {True, False}, 0: {False}}[budget]
    assert kinds == {(k, done, m) for k in ("fraction", "int") for done in finished for m in (0, 1)}


def test_fallback_guesses_no_seed_above_the_capacity(monkeypatch):
    # Six unit elements and capacity 2: the guess-greedy with k = 6 would
    # also try every seed of 3 to 6 elements, which no full-capacity set
    # holds. A query is a seed plus at most half the capacity, so skipping
    # them keeps every query within 3 elements; the parent queried all 64
    # sets, up to all 6 elements. The selection is the same.
    monkeypatch.setattr(submodular, "_SOLVE_BUDGET", 0)
    sizes = {i: F(1) for i in range(1, 7)}
    values = {1: 5, 2: 4, 3: 4, 4: 3, 5: 2, 6: 1}
    asked = []

    def f(subset):
        asked.append(subset)
        return sum(values[i] for i in subset)

    assert maximize_with_reserve(f, sizes, F(2)) == {1}
    assert max(len(subset) for subset in asked) == 3
    assert len(asked) == 42 < 64


def test_ratio_lower_bound_at_origin():
    assert ratio_lower_bound(0, 0, 0, 0) == pytest.approx(1 - math.exp(-0.5), abs=1e-12)
    assert abs(ratio_lower_bound(0, 0, 0, 0) - 0.393469) < 1e-5


def test_ratio_lower_bound_with_value_share():
    expected = 1 / 3 + (2 / 3) * (1 - math.exp(-0.5)) - 1 / 18
    assert ratio_lower_bound(1 / 3, 0, 0, 0) == pytest.approx(expected, abs=1e-12)


def test_ratio_lower_bound_corner_expression():
    corner = 5 / 6 - 1 / 18 - math.sqrt(1 + 16 * math.exp(-1)) / 6
    assert abs(corner - 0.34043) < 1e-5
    assert corner >= 1 / 3


def test_ratio_lower_bound_degenerate():
    with pytest.raises(PreconditionViolated, match=r"^1 - s_a - s_b = 0\.0 <= "):
        ratio_lower_bound(0, 0, 0.5, 0.5)


def test_certify_ratio_bound_coarse_grid():
    report = certify_ratio_bound(step=1 / 8)
    assert report.passed
    assert report.min_value >= 1 / 3 - 1e-9
    # the only degenerate size pair on this grid is (1/2, 1/2)
    p_points = 4  # 0, 1/8, 2/8 and the 1/3 endpoint
    assert report.skipped == p_points * p_points


@pytest.mark.parametrize(
    "step, min_value, argmin, skipped",
    [
        (1 / 8, 0.3533786689846778, (1 / 3, 1 / 3, 0.0, 0.0), 16),
        (1 / 64, 0.34093760592226496, (0.0, 1 / 3, 0.0625, 0.453125), 529),
    ],
)
def test_certify_ratio_bound_report(step, min_value, argmin, skipped):
    # The whole report, to the last bit of the minimum: the grid's floor is
    # the same arithmetic as ratio_lower_bound's.
    report = certify_ratio_bound(step=step)
    assert report == GridCheckReport(step, min_value, argmin, skipped, passed=True)
    p1, p2, s1, s2 = argmin
    assert min_value == max(ratio_lower_bound(p1, p2, s1, s2), ratio_lower_bound(p2, p1, s2, s1))


def test_certify_ratio_bound_rejects_bad_step():
    with pytest.raises(ValueError):
        certify_ratio_bound(step=0.5)
    with pytest.raises(ValueError):
        certify_ratio_bound(step=0)
