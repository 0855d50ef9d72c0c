import random

import pytest

from groupgap import exact
from groupgap.errors import LimitExceeded
from groupgap.exact import solve_exact
from groupgap.generate import GeneratorSpec, generate
from groupgap.lp_oracle import LpOracle
from groupgap.model import assignment_profit, is_feasible
from groupgap.pipeline import solve, upper_bound

from conftest import F, make_instance, random_instance, worked_example
from reference import (
    WeightedBipartiteGraph,
    exhaustive_knapsack_max,
    matching_value,
    matching_value_table,
)


def test_single_group_single_item():
    inst = make_instance(2, {1: F(1, 2)}, [[1]], {(1, 0): F(2), (1, 1): F(7)})
    value, witness = solve_exact(inst)
    assert value == 7
    assert witness.bins == (frozenset(), frozenset({1}))


def test_worked_example_optimum():
    inst = worked_example(m=2)  # the two items cannot share a bin
    value, witness = solve_exact(inst)
    assert value == 13
    assert witness.bins == (frozenset({1}), frozenset({2}))
    assert assignment_profit(inst, witness) == value


def test_group_all_or_nothing():
    # packing only the profitable item would score higher, but its group
    # cannot be completed, so the optimum takes the other group
    inst = make_instance(
        1,
        {1: F(3, 4), 2: F(3, 4), 3: F(1, 4)},
        [[1, 2], [3]],
        {(1, 0): F(100), (2, 0): F(100), (3, 0): F(1)},
    )
    value, witness = solve_exact(inst)
    assert value == 1
    assert witness.bins == (frozenset({3}),)


def test_witness_rescored_and_feasible():
    rng = random.Random(61)
    for _ in range(25):
        inst = random_instance(rng, n_max=7, m_max=3, l_max=3)
        value, witness = solve_exact(inst)
        assert is_feasible(inst, witness)
        assert assignment_profit(inst, witness) == value
        assert value <= LpOracle(inst).value(inst.item_ids)


def test_pruning_never_changes_the_optimum():
    rng = random.Random(67)
    instances = [random_instance(rng, n_max=8, m_max=3, l_max=4) for _ in range(60)]
    instances += [
        generate(GeneratorSpec(seed=seed, n=8, groups=groups, bins=3, flavor=flavor))
        for seed in range(6)
        for flavor, groups in (("uniform", 4), ("vod", 3))
    ]
    for inst in instances:
        pruned, _ = solve_exact(inst, use_pruning=True)
        plain, _ = solve_exact(inst, use_pruning=False)
        assert pruned == plain


def test_optimum_at_the_desk_limit_brackets_the_pipeline():
    """12 items on 4 bins, the default limits: the search finishes, and its
    optimum lies between the pipeline's profit (within its factor 6) and
    the LP upper bound."""
    for seed in range(3):
        for flavor, groups in (("uniform", 6), ("vod", 4)):
            inst = generate(GeneratorSpec(seed=seed, n=12, groups=groups, bins=4, flavor=flavor))
            optimum, witness = solve_exact(inst)
            assert is_feasible(inst, witness)
            _assignment, report = solve(inst)
            assert report.final_profit <= optimum <= 6 * report.final_profit
            assert optimum <= upper_bound(inst)


def test_limits_rejected():
    inst = make_instance(
        1,
        {i: F(1, 16) for i in range(1, 14)},
        [list(range(1, 14))],
        {},
    )
    with pytest.raises(LimitExceeded):
        solve_exact(inst)


SINGLES = [[i] for i in range(7)]


def _graph(left, right):
    return WeightedBipartiteGraph(left=left, right=right, weights={(0, 0): F(1)})


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: solve_exact(make_instance(1, dict.fromkeys(range(7), F(1, 8)), SINGLES, {})),
            r"^7 groups > limit 6$",
        ),
        (lambda: solve_exact(make_instance(5, {1: F(1)}, [[1]], {})), r"^5 bins > limit 4$"),
        (lambda: matching_value(_graph(14, 1), range(13)), r"^13 left nodes > DP limit 12$"),
        (lambda: matching_value(_graph(1, 21), [0]), r"^21 right nodes > DP limit 20$"),
        (lambda: matching_value_table(_graph(14, 1)), r"^14 left nodes > DP limit 12$"),
        (lambda: matching_value_table(_graph(1, 22)), r"^22 right nodes > DP limit 20$"),
    ],
    ids=[
        "exact-groups",
        "exact-bins",
        "matching-left",
        "matching-right",
        "matching-table-left",
        "matching-table-right",
    ],
)
def test_size_limits_rejected(call, message):
    with pytest.raises(LimitExceeded, match=message):
        call()


def test_node_budget_carries_partial_result(monkeypatch):
    monkeypatch.setattr(exact, "_NODE_BUDGET", 3)
    rng = random.Random(71)
    inst = random_instance(rng, n_max=8, m_max=3, l_max=2)
    with pytest.raises(LimitExceeded) as err:
        solve_exact(inst, use_pruning=False)
    assert err.value.best_value is not None


def test_exhaustive_knapsack_examples():
    sizes = {1: F(1), 2: F(1), 3: F(1)}
    values = {1: F(5), 2: F(3), 3: F(2)}

    def f(subset):
        return sum((values[i] for i in subset), F(0))

    assert exhaustive_knapsack_max(f, {}, F(1)) == 0
    assert exhaustive_knapsack_max(f, sizes, F(2)) == 8


def test_exhaustive_knapsack_limit():
    sizes = {i: F(1) for i in range(25)}
    with pytest.raises(LimitExceeded):
        exhaustive_knapsack_max(lambda s: F(len(s)), sizes, F(5))


def brute_matching(graph, left_nodes):
    """Independent check: enumerate all injective left->right pairings."""
    lefts = sorted(left_nodes)

    def best(idx, used):
        if idx == len(lefts):
            return F(0)
        skip = best(idx + 1, used)
        take = skip
        for r in range(graph.right):
            w = graph.weights.get((lefts[idx], r))
            if w is not None and r not in used:
                cand = w + best(idx + 1, used | {r})
                take = max(take, cand)
        return take

    return best(0, frozenset())


def test_matching_value_edge_cases():
    g = WeightedBipartiteGraph(left=2, right=2, weights={(0, 0): F(4)})
    assert matching_value(g, []) == 0
    assert matching_value(g, [0]) == 4
    assert matching_value(g, [1]) == 0


def test_matching_value_agrees_with_enumeration():
    rng = random.Random(73)
    for _ in range(20):
        left = rng.randint(1, 4)
        right = rng.randint(1, 5)
        weights = {
            (l, r): F(rng.randint(0, 9))
            for l in range(left)
            for r in range(right)
            if rng.random() < 0.6
        }
        g = WeightedBipartiteGraph(left=left, right=right, weights=weights)
        subset = [l for l in range(left) if rng.random() < 0.7]
        assert matching_value(g, subset) == brute_matching(g, subset)


def test_matching_value_table_consistent():
    rng = random.Random(79)
    g = WeightedBipartiteGraph(
        left=4,
        right=5,
        weights={
            (l, r): F(rng.randint(0, 9))
            for l in range(4)
            for r in range(5)
            if rng.random() < 0.6
        },
    )
    table = matching_value_table(g)
    for mask in range(1 << g.left):
        subset = [l for l in range(g.left) if mask >> l & 1]
        assert table[mask] == matching_value(g, subset)


def test_matching_value_monotone_submodular_spot():
    rng = random.Random(83)
    for _ in range(15):
        left = rng.randint(2, 5)
        right = rng.randint(2, 6)
        weights = {
            (l, r): F(rng.randint(0, 9))
            for l in range(left)
            for r in range(right)
            if rng.random() < 0.6
        }
        g = WeightedBipartiteGraph(left=left, right=right, weights=weights)
        table = matching_value_table(g)
        for s_mask in range(1 << left):
            for t_mask in range(1 << left):
                union, inter = s_mask | t_mask, s_mask & t_mask
                assert table[s_mask] + table[t_mask] >= table[union] + table[inter]
                if s_mask & t_mask == s_mask:  # S subset of T
                    assert table[s_mask] <= table[t_mask]
