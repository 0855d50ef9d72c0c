import random
from itertools import combinations
from math import lcm

import pytest

from groupgap.errors import InsufficientCapacity
from groupgap.exact import matching_value
from groupgap.lp_oracle import LpOracle
from groupgap.model import Group, Instance, Item, validate_fractional

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


def test_value_with_capacities_rejects_wrong_shape():
    inst = make_instance(2, {1: F(1, 2)}, [[1]], {(1, 0): F(2), (1, 1): F(3)})
    oracle = LpOracle(inst)
    for caps in ([F(1)], [F(1), F(1), F(1)], [F(-1), F(1)]):
        with pytest.raises(ValueError):
            oracle.value_with_capacities([1], caps)
    assert oracle.value_with_capacities([1], [F(0), F(1)]) == 3


def test_unknown_ids_raise_value_error():
    inst = make_instance(
        2,
        {i: F(1, 4) for i in range(1, 7)},
        [[1, 2, 3], [4, 5, 6]],
        {(i, i % 2): F(i) for i in range(1, 7)},
    )
    oracle = LpOracle(inst)
    calls = [
        lambda: oracle.value([999]),
        lambda: oracle.solution([999]),
        lambda: oracle.value_with_capacities([999], [F(1), F(1)]),
        lambda: oracle.group_value([7]),
    ]
    for call, unknown in zip(calls, ["999", "999", "999", "7"]):
        with pytest.raises(ValueError, match=rf"unknown .* ids: \[{unknown}\]"):
            call()
    with pytest.raises(ValueError, match=r"\[998, 999\]"):
        oracle.value([1, 999, 998])
    assert oracle.group_value([0, 1]) == oracle.value(range(1, 7))


def test_answers_do_not_depend_on_instance_scale():
    """An item with an odd size denominator changes the oracle's instance-wide
    scale; answers on subsets without it must not change."""
    rng = random.Random(19)
    for _ in range(12):
        inst = random_instance(rng, n_max=6, m_max=3)
        odd = max(inst.item_ids) + 1
        wider = Instance(
            m=inst.m,
            items=inst.items + (Item(id=odd, size=F(1, 97)),),
            groups=inst.groups + (Group(id=len(inst.groups), members=(odd,)),),
            profits={
                **inst.profits,
                **{(odd, j): F(rng.randint(1, 9), 7) for j in range(inst.m)},
            },
        )
        base, other = LpOracle(inst), LpOracle(wider)
        caps = [F(rng.randint(0, 6), rng.choice([1, 2, 3, 5])) for _ in range(inst.m)]
        ids = sorted(inst.item_ids)
        for subset in (set(c) for r in range(len(ids) + 1) for c in combinations(ids, r)):
            assert other.value(subset) == base.value(subset)
            assert other.value_with_capacities(subset, caps) == base.value_with_capacities(
                subset, caps
            )
            if inst.total_size(subset) <= inst.m:
                assert other.solution(subset).entries == base.solution(subset).entries


def networkx_transport_value(nx, inst, items, caps):
    """LP value as a min-cost max-flow solved by networkx's network simplex.

    Same transportation network, built independently: item i supplies
    s_i * scale units, bin j takes caps[j] * scale, a unit of i in j is worth
    p_ij / (s_i * scale), and a free item-to-sink arc lets any supply go
    unassigned, so a max flow of least cost is an optimal transport.
    """
    scale = lcm(*(inst.size(i).denominator for i in items), *(c.denominator for c in caps))
    supply = {i: int(inst.size(i) * scale) for i in items}
    unit = {
        (i, j): inst.profit(i, j) / supply[i]
        for i in items
        for j in range(inst.m)
        if inst.profit(i, j) > 0
    }
    cost_den = lcm(1, *(u.denominator for u in unit.values()))
    graph = nx.DiGraph()
    for i in items:
        graph.add_edge("s", ("item", i), capacity=supply[i], weight=0)
        graph.add_edge(("item", i), "t", capacity=supply[i], weight=0)
    for (i, j), u in unit.items():
        graph.add_edge(("item", i), ("bin", j), capacity=supply[i], weight=-int(u * cost_den))
    for j in range(inst.m):
        graph.add_edge(("bin", j), "t", capacity=int(caps[j] * scale), weight=0)
    cost = nx.cost_of_flow(graph, nx.max_flow_min_cost(graph, "s", "t"))
    return F(-cost, cost_den)


def test_value_matches_networkx_min_cost_flow():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    for _ in range(50):
        inst = random_instance(rng, n_max=7, m_max=4)
        oracle = LpOracle(inst)
        subset = [i for i in sorted(inst.item_ids) if rng.random() < 0.7] or [
            min(inst.item_ids)
        ]
        full = [F(1)] * inst.m
        assert oracle.value(subset) == networkx_transport_value(nx, inst, subset, full)
        caps = [F(rng.randint(0, 6), rng.choice([1, 2, 3, 5])) for _ in range(inst.m)]
        assert oracle.value_with_capacities(subset, caps) == networkx_transport_value(
            nx, inst, subset, caps
        )
