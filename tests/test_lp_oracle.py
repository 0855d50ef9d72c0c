import os
import random
import re
import subprocess
import sys
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest

import groupgap
from groupgap import lp_oracle, rounding
from groupgap._flow import FlowNetwork, transport
from groupgap.errors import InvariantViolated, PreconditionViolated
from groupgap.lp_oracle import LpOracle
from groupgap.model import Group, Instance, Item

from conftest import F, make_instance, random_instance
from reference import matching_value, validate_fractional


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
        # raises PreconditionViolated unless every support item totals exactly 1
        rounding.build_slot_graph(inst, x)


def test_solution_insufficient_capacity():
    inst = make_instance(1, {1: F(1), 2: F(1, 2)}, [[1, 2]], {})
    message = r"^selected items have total size 3/2 > total capacity 1$"
    with pytest.raises(PreconditionViolated, match=message):
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
        lambda: oracle.group_value([7]),
    ]
    for call, unknown in zip(calls, ["999", "999", "7"]):
        with pytest.raises(ValueError, match=rf"unknown .* ids: \[{unknown}\]"):
            call()
    with pytest.raises(ValueError, match=r"\[998, 999\]"):
        oracle.value([1, 999, 998])
    assert oracle.group_value([0, 1]) == oracle.value(range(1, 7))


def test_group_value_rejects_unknown_group_ids():
    """The CLI checks ``--groups`` against the file's 1-based ids itself;
    this check guards the method's own callers, who pass 0-based ids."""
    oracle = LpOracle(make_instance(1, {1: F(1, 2), 2: F(1, 2)}, [[1], [2]], {(1, 0): F(3)}))
    with pytest.raises(ValueError, match=r"^unknown group ids: \[5\]$"):
        oracle.group_value([1, 5])


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
        ids = sorted(inst.item_ids)
        for subset in (set(c) for r in range(len(ids) + 1) for c in combinations(ids, r)):
            assert other.value(subset) == base.value(subset)
            if inst.total_size(subset) <= inst.m:
                assert other.solution(subset).entries == base.solution(subset).entries


def fraction_tables(inst):
    """The oracle's integer tables built with Fraction products and divisions."""
    scale = lcm(*(it.size.denominator for it in inst.items))
    shat = {it.id: int(it.size * scale) for it in inst.items}
    units = {
        i: [(j, F(inst.profit(i, j)) / supply) for j in range(inst.m) if inst.profit(i, j) > 0]
        for i, supply in shat.items()
    }
    cost_den = lcm(*(unit.denominator for row in units.values() for _j, unit in row))
    arcs = {i: [(j, -int(unit * cost_den)) for j, unit in row] for i, row in units.items()}
    return scale, shat, cost_den, arcs


def test_integer_tables_match_fraction_reference():
    """Rational profits of many denominators, explicit zeros and int-typed
    profits, and instances without a positive profit."""
    rng = random.Random(83)
    without_profit = 0
    for trial in range(150):
        inst = random_instance(rng, n_max=7, m_max=4, den=rng.choice([16, 30, 97]))
        profits = {}
        for i in inst.item_ids:
            for j in range(inst.m):
                kind = rng.choice(["missing", "zero", "int", "fraction", "fraction"])
                if kind == "zero":
                    profits[(i, j)] = rng.choice([F(0), 0])
                elif kind == "int":
                    profits[(i, j)] = rng.randint(1, 40)
                elif kind == "fraction":
                    profits[(i, j)] = F(rng.randint(1, 60), rng.randint(1, 45))
        if trial % 10 == 0:
            profits = {key: p * 0 for key, p in profits.items()}
        inst = Instance(inst.m, inst.items, inst.groups, profits)
        without_profit += all(p <= 0 for p in profits.values())
        oracle = LpOracle(inst)
        tables = (oracle._scale, oracle._shat, oracle._cost_den, oracle._arcs)
        assert tables == fraction_tables(inst)
        ints = [oracle._scale, oracle._cost_den, *oracle._shat.values()]
        ints += [x for row in oracle._arcs.values() for arc in row for x in arc]
        assert all(type(x) is int for x in ints)
    assert without_profit >= 15


def networkx_transport_value(nx, inst, items):
    """LP value as a min-cost max-flow solved by networkx's network simplex.

    Same transportation network, built independently: item i supplies
    s_i * scale units, every bin takes scale, a unit of i in j is worth
    p_ij / (s_i * scale), and a free item-to-sink arc lets any supply go
    unassigned, so a max flow of least cost is an optimal transport.
    """
    scale = lcm(*(inst.size(i).denominator for i in items))
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
        graph.add_edge(("bin", j), "t", capacity=scale, weight=0)
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
        assert oracle.value(subset) == networkx_transport_value(nx, inst, subset)


def zero_flow_transport(oracle, items):
    """The cold solve of ``items`` by ``_flow.transport`` from the zero flow,
    on the oracle's tables: (units, flows) as ``_transport`` returns them."""
    supply = [oracle._shat[i] for i in items]
    arcs = [(k, j, cost) for k, i in enumerate(items) for j, cost in oracle._arcs[i]]
    _flow, cost, flows = transport(supply, oracle._demand, arcs)
    return -cost, {(items[k], j): units for (k, j, _c), units in zip(arcs, flows) if units > 0}


def cold_value(inst, subset):
    """A fresh oracle's cold transport value, bypassing every memo."""
    oracle = LpOracle(inst)
    units, _flows = zero_flow_transport(oracle, sorted(set(subset)))
    return F(units, oracle._cost_den)


@pytest.fixture
def warm_starts(monkeypatch):
    """Records, per ``_transport`` call, the start flows of a warm run, or
    None for a cold one (which continues the replay)."""
    starts = []
    original = LpOracle._transport

    def recording(self, items, start, warm):
        starts.append(start if warm else None)
        return original(self, items, start, warm)

    monkeypatch.setattr(LpOracle, "_transport", recording)
    return starts


def random_history(rng, ids, length):
    """Queries mixing growing chains, random subsets, the empty set and repeats.

    Each random subset of two or more items comes right after the same set
    one item short, the base that a warm start needs most often: one that
    lacks fewer items than the replay leaves unshipped.
    """
    history, last = [], frozenset()
    while len(history) < length:
        roll = rng.random()
        if roll < 0.4 and len(last) < len(ids):
            grow = [i for i in ids if i not in last]
            last = last | set(rng.sample(grow, rng.randint(1, min(3, len(grow)))))
        elif roll < 0.75:
            last = frozenset(i for i in ids if rng.random() < 0.7)
            if len(last) > 1:
                history.append(last - {rng.choice(sorted(last))})
        elif roll < 0.85:
            last = frozenset()
        elif history:
            last = rng.choice(history)
        history.append(last)
    return history[:length]


def test_warm_values_equal_cold_values_over_random_histories(warm_starts):
    # Sets that the replay finishes start no warm run, nor do sets whose
    # base lacks as many items as the replay leaves unshipped: 120
    # histories keep more than 100 warm starts.
    rng = random.Random(29)
    queries = 0
    for _ in range(120):
        inst = random_instance(rng, n_max=10, m_max=4)
        oracle = LpOracle(inst)
        for subset in random_history(rng, sorted(inst.item_ids), 12):
            assert oracle.value(subset) == cold_value(inst, subset)
            queries += 1
    warm = sum(start is not None for start in warm_starts)
    assert queries == 1440 and warm > 100


def test_half_rule_picks_the_largest_qualifying_base(warm_starts):
    # Any two items overflow a bin, so the replay finishes only the
    # singletons, which no transport run solves: every larger set is
    # solved by one, and {1, 2, 5, 6} makes up the sixth run. The replay
    # ships the best item whole and the next in part, so it leaves all but
    # one item unshipped, and every base of two or more items lacks fewer.
    inst = make_instance(
        2,
        {i: F(5, 8) for i in range(1, 7)},
        [[1, 2, 3], [4, 5, 6]],
        {(i, j): F(i) for i in range(1, 7) for j in range(2)},
    )
    oracle = LpOracle(inst)
    oracle.value([1])
    assert warm_starts == []
    oracle.value([1, 2])  # {1} is exactly half, but lacks as many as 1 unshipped
    assert warm_starts[-1] is None
    oracle.value([1, 2, 3, 4])  # base {1, 2}: exactly half
    assert warm_starts[-1] is oracle._flows[frozenset({1, 2})].units
    oracle.value([1, 2, 3, 4, 5])  # largest base {1, 2, 3, 4}
    assert warm_starts[-1] is oracle._flows[frozenset({1, 2, 3, 4})].units
    oracle.value([5, 6])
    assert warm_starts[-1] is None
    oracle.value([1, 5, 6])  # base {5, 6}; {1} is smaller
    assert warm_starts[-1] is oracle._flows[frozenset({5, 6})].units
    oracle.value([1, 2, 5, 6])  # largest base {1, 5, 6}
    assert warm_starts[-1] is oracle._flows[frozenset({1, 5, 6})].units
    oracle.value([6, 5, 2, 1])  # repeated key: no solve
    assert len(warm_starts) == 6
    oracle.value([1, 3, 4, 6])  # only {1} is a subset: 1 item of 4, under half
    oracle.value([2, 3, 4, 5, 6])  # {5, 6}: 2 of 5, under half
    assert warm_starts[-2:] == [None, None]
    oracle.value([1, 2, 3, 4, 6])  # {1, 2, 3, 4} and {1, 3, 4, 6}: the first solved
    assert warm_starts[-1] is oracle._flows[frozenset({1, 2, 3, 4})].units
    oracle.value([1, 2, 3, 4, 5, 6])  # largest {1, 2, 3, 4, 5}, not a later smaller one
    assert warm_starts[-1] is oracle._flows[frozenset({1, 2, 3, 4, 5})].units
    for key, units in oracle._memo.items():
        assert F(units, oracle._cost_den) == cold_value(inst, key)
        cold = len(key) <= 2 or key in ({1, 3, 4, 6}, {2, 3, 4, 5, 6})
        assert oracle._flows[key].cold == cold


def test_warm_start_needs_a_base_lacking_fewer_items_than_the_replay_leaves(warm_starts):
    # Bin 0 pays more per unit than bin 1 for every item, most for items
    # 1, 2, 5, 3, 4 in that order. It holds items 1 and 2 with room for half
    # of item 3, so the replay stops after shipping item 3 in part.
    sizes = {1: F(1, 4), 2: F(1, 4), 3: F(3, 4), 4: F(3, 4), 5: F(1, 8)}
    profits = {(i, 0): F(p) for i, p in {1: 8, 2: 6, 3: 6, 4: 3, 5: 2}.items()}
    profits.update({(i, 1): size for i, size in sizes.items()})
    inst = make_instance(2, sizes, [[1, 2], [3], [4], [5]], profits)

    def solution_runs(oracle, items):
        """The transport runs of ``oracle.solution``, whose result must
        equal a fresh oracle's."""
        before = len(warm_starts)
        x = oracle.solution(items)
        runs = len(warm_starts) - before
        assert list(x.entries.items()) == list(LpOracle(inst).solution(items).entries.items())
        return runs

    oracle = LpOracle(inst)
    oracle.value([1, 2])  # fits bin 0: the replay finishes it
    assert warm_starts == []
    # As many: {1, 2} lacks one item of {1, 2, 3}, the replay leaves item 3.
    assert oracle._replay([1, 2, 3])[2] == 1
    oracle.value([1, 2, 3])
    assert warm_starts == [None] and oracle._flows[frozenset({1, 2, 3})].cold
    assert solution_runs(oracle, [1, 2, 3]) == 0  # reuses the kept flow
    # Fewer: {1, 2, 3} lacks one item of {1, 2, 3, 4}, the replay leaves two.
    assert oracle._replay([1, 2, 3, 4])[2] == 2
    oracle.value([1, 2, 3, 4])
    assert warm_starts[-1] is oracle._flows[frozenset({1, 2, 3})].units
    assert not oracle._flows[frozenset({1, 2, 3, 4})].cold
    assert solution_runs(oracle, [1, 2, 3, 4]) == 1  # a warm flow is solved again cold
    # More: {1, 2} holds half of {1, 2, 3, 5} but lacks two; the replay leaves one.
    oracle = LpOracle(inst)
    oracle.value([1, 2])
    assert oracle._replay([1, 2, 3, 5])[2] == 1
    oracle.value([1, 2, 3, 5])
    assert warm_starts[-1] is None and oracle._flows[frozenset({1, 2, 3, 5})].cold
    for key, units in oracle._memo.items():
        assert F(units, oracle._cost_den) == cold_value(inst, key)


def test_oracle_keeps_only_the_latest_flows(warm_starts, monkeypatch):
    monkeypatch.setattr(lp_oracle, "_FLOWS_KEPT", 4)
    rng = random.Random(41)
    warm = 0
    for _ in range(30):
        inst = random_instance(rng, n_max=9, m_max=4)
        oracle = LpOracle(inst)
        for subset in random_history(rng, sorted(inst.item_ids), 12):
            kept = [flow.units for flow in oracle._flows.values()]
            del warm_starts[:]
            assert oracle.value(subset) == cold_value(inst, subset)
            for start in warm_starts:
                assert start is None or any(start is units for units in kept)
                warm += start is not None
            assert list(oracle._flows) == list(oracle._memo)[-4:]
        for subset in oracle._memo:
            if inst.total_size(subset) <= inst.m:
                x, fresh = oracle.solution(subset), LpOracle(inst).solution(subset)
                assert list(x.entries.items()) == list(fresh.entries.items())
                assert x.value == fresh.value
    assert warm > 20


def test_warm_values_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for _ in range(8):
        inst = random_instance(rng, n_max=9, m_max=3)
        oracle = LpOracle(inst)
        for subset in random_history(rng, sorted(inst.item_ids), 8):
            expected = networkx_transport_value(nx, inst, sorted(subset)) if subset else 0
            assert oracle.value(subset) == expected


def tied_instance(rng):
    """Singleton groups of size 1/4 or 1/2 whose unit profits are mostly equal,
    so many flows are optimal and a warm start often ends at another one than
    a cold solve."""
    n, m = rng.randint(2, 9), rng.randint(1, 4)
    sizes = {i: F(rng.choice([1, 2]), 4) for i in range(1, n + 1)}
    profits = {(i, j): 4 * sizes[i] * rng.choice([1, 1, 1, 2]) for i in sizes for j in range(m)}
    return make_instance(m, sizes, [[i] for i in sizes], profits)


def test_solution_does_not_depend_on_query_history(warm_starts):
    rng = random.Random(37)
    reused = warm = other_flow = 0
    for trial in range(160):
        inst = random_instance(rng, n_max=9, m_max=4) if trial % 2 else tied_instance(rng)
        oracle = LpOracle(inst)
        ids = sorted(inst.item_ids)
        # End on all items but one, then all items: a warm start wherever
        # the replay leaves two or more items unshipped.
        history = random_history(rng, ids, 12)
        history += [frozenset(ids) - {rng.choice(ids)}, frozenset(ids)]
        for subset in history:
            oracle.value(subset)
        for subset, kept in list(oracle._flows.items()):
            if inst.total_size(subset) > inst.m:
                continue
            fresh_oracle = LpOracle(inst)
            if not kept.cold:
                warm += 1
                cold_flow = zero_flow_transport(fresh_oracle, sorted(subset))[1]
                other_flow += kept.units != cold_flow
            before = len(warm_starts)
            x = oracle.solution(subset)
            reused += len(warm_starts) == before
            fresh = fresh_oracle.solution(subset)
            assert (x.entries, x.value) == (fresh.entries, fresh.value)
            assert list(x.entries) == list(fresh.entries)
    assert reused > 100 and warm > 100 and other_flow > 20


def guard_instance():
    """Item 1 alone fits the one bin, items 1 and 2 do not, so the replay
    stops short on {1, 2}; on {1, 2, 3} it leaves two items, more than
    {1, 2} lacks, so that miss starts warm from {1, 2}'s flow."""
    items = (Item(1, F(1, 2)), Item(2, F(3, 4)), Item(3, F(3, 4)))
    groups = (Group(0, (1, 2)), Group(1, (3,)))
    return Instance(1, items, groups, {(1, 0): F(5), (2, 0): F(3), (3, 0): F(3)})


@pytest.mark.parametrize("loses_warm", [False, True], ids=["cold", "warm"])
def test_optimum_guards_a_value_loss(monkeypatch, loses_warm):
    """A transport run that loses value on a cold or a warm miss."""
    transport_run = LpOracle._transport

    def losing(self, items, start, warm):
        if warm == loses_warm:
            return -self._cost_den, start
        return transport_run(self, items, start, warm)

    monkeypatch.setattr(LpOracle, "_transport", losing)
    oracle = LpOracle(guard_instance())
    flow = "subset" if loses_warm else "replayed"
    message = rf"^LP value fell by 1 below the {flow} flow's$"
    with pytest.raises(InvariantViolated, match=message):
        oracle.value([1, 2])
        oracle.value([1, 2, 3])


def two_halves():
    return make_instance(1, {1: F(1, 2), 2: F(1, 2)}, [[1, 2]], {(1, 0): F(2), (2, 0): F(1)})


def test_solution_guards_an_unassigned_remainder(monkeypatch):
    """An optimum whose flow overfills the bin with item 2 leaves no room
    for item 1."""
    monkeypatch.setattr(LpOracle, "_optimum", lambda self, items, key=None: (0, {(2, 0): 3}, True))
    with pytest.raises(InvariantViolated, match=r"^saturation left 1 units of item 1 unassigned$"):
        LpOracle(two_halves()).solution([1, 2])


def test_solution_guards_the_lp_value(monkeypatch):
    """An optimum whose units disagree with its flow."""
    optimum = LpOracle._optimum

    def off_by_one(self, items, key=None):
        units, y, cold = optimum(self, items, key)
        return units + 1, y, cold

    monkeypatch.setattr(LpOracle, "_optimum", off_by_one)
    with pytest.raises(InvariantViolated, match=r"^saturation pass changed the LP value$"):
        LpOracle(two_halves()).solution([1, 2])


def test_invariant_checks_survive_python_O():
    """Every test named ``*_guards_*`` passes with the library's asserts
    stripped, so each runtime guard raises rather than asserts. The name of
    this test leaves it out of the run it starts."""
    src = str(Path(groupgap.__file__).resolve().parent.parent)
    args = ["-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", "guards", "tests/"]
    run = subprocess.run(
        [sys.executable, *args],
        cwd=Path(__file__).resolve().parent.parent,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    passed = re.search(r"(\d+) passed", run.stdout)
    assert passed and int(passed[1]) >= 18, run.stdout


def first_augmentations(oracle, items, k):
    """The arc flows after the cold solve's first ``k`` augmenting paths,
    each found by Bellman-Ford, keyed as ``_transport`` keys them."""
    supply = [oracle._shat[i] for i in items]
    arcs = [(p, j, cost) for p, i in enumerate(items) for j, cost in oracle._arcs[i]]
    right = 1 + len(items)
    sink = right + oracle.inst.m
    edges = [(0, 1 + p, units, 0) for p, units in enumerate(supply)]
    edges += [(1 + p, right + j, supply[p], cost) for p, j, cost in arcs]
    edges += [(right + j, sink, oracle._scale, 0) for j in range(oracle.inst.m)]
    net = FlowNetwork(sink + 1, edges, [0] * len(edges))
    for _ in range(k):
        dist, parent = net._shortest_path(0)
        assert dist[sink] is not None and dist[sink] < 0
        net._augment(0, sink, parent)
    first = 2 * len(items)
    flows = net.cap[first + 1 : first + 2 * len(arcs) : 2]
    return {(items[p], j): units for (p, j, _c), units in zip(arcs, flows) if units > 0}


def replay_outcome(oracle, items):
    """How the replay of ``items`` ended: "done", "partial" (an item shipped
    in part) or "full" (before an arc into a full bin)."""
    _units, y, unshipped = oracle._replay(items)
    if not unshipped:
        return "done"
    partial = any(units < oracle._shat[i] for (i, _j), units in y.items())
    return "partial" if partial else "full"


def test_replay_and_its_continuation_equal_a_zero_flow_transport_on_every_subset():
    """The replay is the cold solve's first augmenting paths, one per item
    it ships; where it finishes, it is the optimum, and where it stops, the
    transport run from it ends there too: the same units and the same flows,
    in the same order. Random and tie-heavy instances, every subset."""
    rng = random.Random(43)
    outcomes = {"done": 0, "partial": 0, "full": 0}
    for trial in range(160):
        inst = random_instance(rng, n_max=7, m_max=4) if trial % 2 else tied_instance(rng)
        oracle = LpOracle(inst)
        ids = sorted(inst.item_ids)
        for r in range(len(ids) + 1):
            for items in map(list, combinations(ids, r)):
                expected = zero_flow_transport(oracle, items)
                units, y, unshipped = oracle._replay(items)
                assert list(y.items()) == list(first_augmentations(oracle, items, len(y)).items())
                if unshipped:
                    gain, flows = oracle._transport(items, y, False)
                    units, y = units + gain, flows
                assert units == expected[0]
                assert list(y.items()) == list(expected[1].items())
                outcomes[replay_outcome(oracle, items)] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_replay_breaks_ties_for_the_lower_bin_and_the_lower_item():
    # Item 1 earns 4 in bins 1 and 2: the lower bin takes it whole.
    inst = make_instance(3, {1: F(1, 2)}, [[1]], {(1, 1): F(4), (1, 2): F(4)})
    oracle = LpOracle(inst)
    expected = (4 * oracle._cost_den, {(1, 1): oracle._shat[1]}, 0)
    assert oracle._replay([1]) == expected
    assert zero_flow_transport(oracle, [1]) == expected[:2]
    # Items 1 and 2 earn the same per unit of bin 0 and overflow it: the
    # lower item ships whole, the other in part, and the replay stops.
    inst = make_instance(
        1, {1: F(3, 4), 2: F(3, 4)}, [[1], [2]], {(1, 0): F(3), (2, 0): F(3)}
    )
    oracle = LpOracle(inst)
    units, y, unshipped = oracle._replay([1, 2])
    assert y == {(1, 0): oracle._shat[1], (2, 0): oracle._scale - oracle._shat[1]}
    assert unshipped == 1 and replay_outcome(oracle, [1, 2]) == "partial"
    assert F(units, oracle._cost_den) == 4 == oracle.value([1, 2])
    assert oracle._transport([1, 2], y, False) == (0, y)


def test_replay_stops_before_a_full_bin(warm_starts):
    # Item 1 fills bin 0; item 2's best arc leads there too, so the replay
    # stops, and the transport run moves item 2 to bin 1.
    inst = make_instance(
        2,
        {1: F(1), 2: F(1, 2)},
        [[1], [2]],
        {(1, 0): F(8), (2, 0): F(3), (2, 1): F(1)},
    )
    oracle = LpOracle(inst)
    assert replay_outcome(oracle, [1, 2]) == "full"
    assert oracle._replay([1, 2])[1] == {(1, 0): oracle._shat[1]}
    assert oracle.value([1, 2]) == 9 and warm_starts == [None]
    assert oracle._flows[frozenset({1, 2})] == (
        {(1, 0): oracle._shat[1], (2, 1): oracle._shat[2]},
        True,
    )


def test_replay_skips_items_without_profit():
    # Item 2 earns nothing anywhere and takes a whole bin's size: it ships
    # nothing and loads no bin, and the saturation pass places it.
    inst = make_instance(
        2,
        {1: F(1, 2), 2: F(1), 3: F(1, 4)},
        [[1], [2], [3]],
        {(1, 0): F(3), (2, 1): F(0), (3, 0): F(1), (3, 1): F(2)},
    )
    oracle = LpOracle(inst)
    shat = oracle._shat
    units, y, unshipped = oracle._replay([1, 2, 3])
    assert (units, y, unshipped) == (5 * oracle._cost_den, {(1, 0): shat[1], (3, 1): shat[3]}, 0)
    assert (units, y) == zero_flow_transport(oracle, [1, 2, 3])
    assert oracle._replay([2]) == (0, {}, 0)
    x = oracle.solution([1, 2, 3])
    assert x.value == 5
    assert dict(x.entries) == {(1, 0): F(1), (3, 1): F(1), (2, 0): F(1, 2), (2, 1): F(1, 2)}


def test_solution_after_a_replayed_value_matches_a_fresh_one(warm_starts):
    rng = random.Random(47)
    reused = 0
    for _ in range(60):
        inst = random_instance(rng, n_max=8, m_max=4)
        oracle = LpOracle(inst)
        for subset in random_history(rng, sorted(inst.item_ids), 8):
            if oracle._replay(sorted(subset))[2] or inst.total_size(subset) > inst.m:
                continue
            oracle.value(subset)
            assert oracle._flows[subset].cold
            before = len(warm_starts)
            x = oracle.solution(subset)
            fresh = LpOracle(inst).solution(subset)
            # Neither the kept flow nor a fresh replay runs a transport.
            assert len(warm_starts) == before
            assert list(x.entries.items()) == list(fresh.entries.items())
            assert x.value == fresh.value == oracle.value(subset)
            reused += 1
    assert reused > 200
