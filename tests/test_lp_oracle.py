import random

import pytest

from groupgap.errors import InsufficientCapacity
from groupgap.exact import matching_value
from groupgap.lp_oracle import LpOracle
from groupgap.model import validate_fractional

from conftest import F, make_instance, random_instance


def single_bin_optimum(inst, item_ids):
    """Independent oracle: with one bin the LP is a fractional knapsack,
    solved exactly by filling in density order."""
    assert inst.m == 1
    order = sorted(item_ids, key=lambda i: (-(inst.profit(i, 0) / inst.size(i)), i))
    room = F(1)
    value = F(0)
    for i in order:
        frac = min(F(1), room / inst.size(i))
        value += frac * inst.profit(i, 0)
        room -= frac * inst.size(i)
        if room == 0:
            break
    return value


@pytest.fixture
def two_item_one_bin():
    return make_instance(
        1,
        {1: F(3, 4), 2: F(1, 2)},
        [[1], [2]],
        {(1, 0): F(4), (2, 0): F(3)},
    )


def test_lp_value_empty_subset(two_item_one_bin):
    assert LpOracle(two_item_one_bin).value([]) == 0


def test_lp_value_single_item_fits():
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(5)})
    assert LpOracle(inst).value([1]) == 5


def test_lp_value_fractional_mix(two_item_one_bin):
    expected = single_bin_optimum(two_item_one_bin, [1, 2])
    assert expected == F(17, 3)
    assert LpOracle(two_item_one_bin).value([1, 2]) == F(17, 3)


def test_lp_value_agrees_with_density_oracle_on_single_bin():
    rng = random.Random(3)
    for _ in range(30):
        inst = random_instance(rng, n_max=6, m_max=1)
        ids = sorted(inst.item_ids)
        subset = [i for i in ids if rng.random() < 0.7]
        assert LpOracle(inst).value(subset) == single_bin_optimum(inst, subset)


def test_group_lp_value_delegates(two_item_one_bin):
    assert LpOracle(two_item_one_bin).group_value([]) == 0
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(5)})
    assert LpOracle(inst).group_value([0]) == 5
    assert LpOracle(two_item_one_bin).group_value([0, 1]) == F(17, 3)


def test_solution_single_item_top_bin():
    inst = make_instance(
        2, {1: F(1, 2)}, [[1]], {(1, 0): F(2), (1, 1): F(7)}
    )
    x = LpOracle(inst).solution([1])
    assert dict(x.entries) == {(1, 1): F(1)}
    assert x.value == 7


def test_solution_saturates_across_bins():
    inst = make_instance(
        2,
        {1: F(3, 5), 2: F(3, 5)},
        [[1, 2]],
        {(1, 0): F(10), (2, 0): F(6), (2, 1): F(3)},
    )
    x = LpOracle(inst).solution([1, 2])
    assert dict(x.entries) == {(1, 0): F(1), (2, 0): F(2, 3), (2, 1): F(1, 3)}
    assert x.value == 15
    validate_fractional(inst, x)


def test_solution_value_matches_lp_value_and_saturates():
    rng = random.Random(5)
    for _ in range(40):
        inst = random_instance(rng)
        ids = sorted(inst.item_ids)
        subset = [i for i in ids if rng.random() < 0.6]
        if inst.total_size(subset) > inst.m:
            continue
        x = LpOracle(inst).solution(subset)
        validate_fractional(inst, x)
        assert x.value == LpOracle(inst).value(subset)
        assert x.support_items() == frozenset(subset)
        for i in subset:
            assert x.item_total(i) == 1


def test_solution_insufficient_capacity():
    inst = make_instance(1, {1: F(1), 2: F(1, 2)}, [[1, 2]], {})
    with pytest.raises(InsufficientCapacity):
        LpOracle(inst).solution([1, 2])


def test_zero_profit_items_still_saturate():
    inst = make_instance(1, {1: F(1, 4)}, [[1]], {})
    x = LpOracle(inst).solution([1])
    assert dict(x.entries) == {(1, 0): F(1)}
    assert x.value == 0


def test_monotone_and_nonnegative():
    rng = random.Random(9)
    for _ in range(20):
        inst = random_instance(rng)
        oracle = LpOracle(inst)
        ids = sorted(inst.item_ids)
        small = frozenset(i for i in ids if rng.random() < 0.4)
        large = small | frozenset(i for i in ids if rng.random() < 0.4)
        assert 0 <= oracle.value(small) <= oracle.value(large)


def test_diminishing_returns_spot():
    rng = random.Random(13)
    for _ in range(25):
        inst = random_instance(rng, n_max=6, m_max=3)
        ids = sorted(inst.item_ids)
        if len(ids) < 2:
            continue
        u = rng.choice(ids)
        rest = [i for i in ids if i != u]
        large = frozenset(i for i in rest if rng.random() < 0.7)
        small = frozenset(i for i in large if rng.random() < 0.6)
        oracle = LpOracle(inst)
        gain_small = oracle.value(small | {u}) - oracle.value(small)
        gain_large = oracle.value(large | {u}) - oracle.value(large)
        assert gain_small >= gain_large


def test_value_with_capacities_bounds():
    rng = random.Random(17)
    for _ in range(15):
        inst = random_instance(rng, n_max=6, m_max=3)
        oracle = LpOracle(inst)
        ids = sorted(inst.item_ids)
        full = [F(1)] * inst.m
        assert oracle.value_with_capacities(ids, full) == oracle.value(ids)
        reduced = [F(rng.randint(0, 4), 4) for _ in range(inst.m)]
        assert oracle.value_with_capacities(ids, reduced) <= oracle.value(ids)


def test_lp_value_equals_unit_expansion_matching():
    from conftest import scaled_matching_graph

    inst = make_instance(
        2,
        {1: F(3, 4), 2: F(1, 2), 3: F(1, 4)},
        [[1, 2, 3]],
        {(1, 0): F(4), (2, 0): F(3), (2, 1): F(2), (3, 1): F(6)},
    )
    graph = scaled_matching_graph(inst, [1, 2, 3])
    expected = matching_value(graph, range(graph.left))
    assert LpOracle(inst).value([1, 2, 3]) == expected
