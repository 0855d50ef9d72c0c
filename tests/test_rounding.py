import random
from math import lcm

import pytest

from groupgap._flow import FlowNetwork, transport
from groupgap.errors import InvariantViolated, PreconditionViolated
from groupgap.model import FractionalSolution, assignment_profit
from groupgap.rounding import (
    Slot,
    SlotEdge,
    SlotGraph,
    build_slot_graph,
    complete_matching,
    round_to_assignment,
)

from conftest import (
    F,
    bipartite_states,
    make_instance,
    random_instance,
    random_saturated_solution,
)
from reference import is_almost_feasible


@pytest.fixture
def split_pair():
    """Two 3/5 items over two bins: one fully in bin 1, one split 2/3-1/3."""
    inst = make_instance(
        2,
        {1: F(3, 5), 2: F(3, 5)},
        [[1, 2]],
        {(1, 0): F(10), (2, 0): F(6), (2, 1): F(3)},
    )
    x = FractionalSolution(
        entries={(1, 0): F(1), (2, 0): F(2, 3), (2, 1): F(1, 3)},
        value=F(15),
    )
    return inst, x


def fractional_weight(inst, g):
    """The fractional matching's weight, from the instance's ``Fraction``
    profits rather than the edges' int weights."""
    return sum((inst.profit(e.item, e.slot.bin) * e.load for e in g.edges), F(0))


def test_single_item_single_slot():
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(5)})
    x = FractionalSolution(entries={(1, 0): F(1)}, value=F(5))
    g = build_slot_graph(inst, x)
    assert g.slots == (Slot(0, 1),)
    assert len(g.edges) == 1
    assert g.edges[0].item == 1 and g.edges[0].load == 1


def test_slot_graph_hand_trace(split_pair):
    inst, x = split_pair
    g = build_slot_graph(inst, x)
    assert set(g.slots) == {Slot(0, 1), Slot(0, 2), Slot(1, 1)}
    by_slot = {}
    for e in g.edges:
        by_slot.setdefault(e.slot, []).append((e.item, e.weight, e.load))
    assert by_slot[Slot(0, 1)] == [(1, 10, F(1))]
    assert by_slot[Slot(0, 2)] == [(2, 6, F(2, 3))]
    assert by_slot[Slot(1, 1)] == [(2, 3, F(1, 3))]
    assert fractional_weight(inst, g) == x.value


def test_slot_edge_weights_are_profits_over_profit_den():
    """Profits 1/2 and 2/3 have common denominator 6: the weights are 3 and 4."""
    inst = make_instance(
        1, {1: F(1, 2), 2: F(1, 2)}, [[1, 2]], {(1, 0): F(1, 2), (2, 0): F(2, 3)}
    )
    x = FractionalSolution(entries={(1, 0): F(1), (2, 0): F(1)}, value=F(7, 6))
    g = build_slot_graph(inst, x)
    assert [(e.item, e.weight) for e in g.edges] == [(1, 3), (2, 4)]
    assert all(type(e.weight) is int for e in g.edges)


def test_slot_graph_rejects_unsaturated():
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {})
    x = FractionalSolution(entries={(1, 0): F(1, 2)}, value=F(0))
    message = r"^item 1 has assigned fraction 1/2, expected exactly 1$"
    with pytest.raises(PreconditionViolated, match=message):
        build_slot_graph(inst, x)


def check_slot_invariants(inst, g):
    # every slot except a bin's last carries exactly one unit of load
    ranks = {}
    for s in g.slots:
        ranks[s.bin] = max(ranks.get(s.bin, 0), s.rank)
    for s in g.slots:
        load = sum((e.load for e in g.edges if e.slot == s), F(0))
        if s.rank < ranks[s.bin]:
            assert load == 1
        else:
            assert 0 < load <= 1
    # item sizes weakly decrease along a bin's slot ranks
    for j, top in ranks.items():
        prev_min = None
        for r in range(1, top + 1):
            sizes = [inst.size(e.item) for e in g.edges if e.slot == Slot(j, r)]
            if prev_min is not None:
                assert max(sizes) <= prev_min
            prev_min = min(sizes)


def test_slot_graph_invariants_fuzz():
    rng = random.Random(41)
    for _ in range(60):
        inst = random_instance(rng)
        x = random_saturated_solution(rng, inst)
        g = build_slot_graph(inst, x)
        check_slot_invariants(inst, g)
        assert fractional_weight(inst, g) == x.value
        for i in x.support_items():
            total = sum((e.load for e in g.edges if e.item == i), F(0))
            assert total == 1


def test_complete_matching_single():
    inst = make_instance(1, {1: F(1, 2)}, [[1]], {(1, 0): F(5)})
    x = FractionalSolution(entries={(1, 0): F(1)}, value=F(5))
    g = build_slot_graph(inst, x)
    assert complete_matching(g) == {1: Slot(0, 1)}


def test_complete_matching_picks_heavier_option(split_pair):
    inst, x = split_pair
    g = build_slot_graph(inst, x)
    matching = complete_matching(g)
    # both complete matchings fix item 1 -> (bin0, slot1); item 2 chooses
    # between weight 6 at (bin0, slot2) and weight 3 at (bin1, slot1)
    weight = sum(inst.profit(i, s.bin) for i, s in matching.items())
    assert matching[1] == Slot(0, 1)
    assert matching[2] == Slot(0, 2)
    assert weight == 16 >= x.value


def test_complete_matching_guards_an_unmatched_item():
    # Item 2 has no edge, so no matching covers it: a broken slot graph.
    s1 = Slot(0, 1)
    g = SlotGraph(items=(1, 2), slots=(s1,), edges=(SlotEdge(1, s1, 1, F(1)),))
    with pytest.raises(InvariantViolated, match=r"^matched only 1 of 2 items; slot graph"):
        complete_matching(g)


def test_empty_network_ships_nothing():
    """No items: the replay ends the run at once, and the matching is empty."""
    assert transport([], [], []) == (0, 0, [])
    assert complete_matching(SlotGraph(items=(), slots=(), edges=())) == {}


def test_matching_weight_at_least_fractional_value_fuzz():
    rng = random.Random(43)
    for _ in range(60):
        inst = random_instance(rng)
        x = random_saturated_solution(rng, inst)
        g = build_slot_graph(inst, x)
        matching = complete_matching(g)
        assert sorted(matching) == sorted(x.support_items())
        assert len(set(matching.values())) == len(matching)
        weight = sum((inst.profit(i, s.bin) for i, s in matching.items()), F(0))
        assert weight >= x.value


def unshifted_arcs(inst, g):
    """The slot edges as ``(item, slot, cost)`` arcs of cost minus the
    edge's profit, scaled to an integer by the lcm of the graph's profit
    denominators rather than the instance's: the costs without the
    potential."""
    weights = [inst.profit(e.item, e.slot.bin) for e in g.edges]
    den = lcm(*(w.denominator for w in weights))
    item_pos = {i: k for k, i in enumerate(g.items)}
    slot_pos = {s: k for k, s in enumerate(g.slots)}
    return [
        (item_pos[e.item], slot_pos[e.slot], -int(w * den)) for e, w in zip(g.edges, weights)
    ]


def network_matching(inst, g):
    """The complete matching of a min-cost flow of ``n`` units on the
    unshifted arcs: full-scan successive shortest paths from the zero flow,
    along paths of any cost, stopped at ``n`` units."""
    n = len(g.items)
    arcs = unshifted_arcs(inst, g)
    flows, _flow, _cost = bipartite_states([1] * n, [1] * len(g.slots), arcs, n)[-1]
    return {e.item: e.slot for e, units in zip(g.edges, flows) if units > 0}


def test_complete_matching_equals_the_zero_flow_network_run(monkeypatch):
    """The shift keeps every path: the replay, then the profit run on shifted
    costs, ends at the min-cost flow of ``n`` units on the unshifted costs,
    with the matching's dict order."""
    runs = {"n": 0}
    run = FlowNetwork.run

    def counting(net, *args, **kwargs):
        runs["n"] += 1
        return run(net, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "run", counting)
    rng = random.Random(53)
    replayed = matched = 0
    for _ in range(300):
        inst = random_instance(rng, n_max=10, m_max=4)
        g = build_slot_graph(inst, random_saturated_solution(rng, inst))
        if not g.items:
            continue
        before = runs["n"]
        matching = complete_matching(g)
        replayed += runs["n"] == before
        expected = network_matching(inst, g)
        assert matching == expected
        assert list(matching) == list(expected)
        matched += 1
    # The replay alone matches most graphs; the rest still need a network.
    assert matched > 250 and 50 < replayed < matched


def test_shift_exceeds_the_cost_of_every_path():
    """Item 1 sits on its heavy edge to s1 after the replay; item 2 reaches
    s1 alone, so completing the matching moves item 1 to s2 along a path of
    unshifted cost 0 + 10 + 0 = +10. Without the shift, or with a shift of
    only the largest weight (10), that path costs >= 0 and the run stops at
    one item."""
    s1, s2 = Slot(0, 1), Slot(1, 1)
    g = SlotGraph(
        items=(1, 2),
        slots=(s1, s2),
        edges=(
            SlotEdge(1, s1, 10, F(1, 2)),
            SlotEdge(1, s2, 0, F(1, 2)),
            SlotEdge(2, s1, 0, F(1, 2)),
        ),
    )
    matching = complete_matching(g)
    assert matching == {1: s2, 2: s1}
    assert list(matching) == [1, 2]


def test_matching_weight_matches_networkx():
    """The complete matching's weight is minus the cost of networkx's max
    flow of least cost on the unshifted slot graph, and it covers every item
    that networkx's max flow covers: all of them."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(67)
    checked = 0
    for _ in range(100):
        inst = random_instance(rng, n_max=10, m_max=4)
        g = build_slot_graph(inst, random_saturated_solution(rng, inst))
        if not g.items:
            continue
        arcs = unshifted_arcs(inst, g)
        graph = nx.DiGraph()
        graph.add_nodes_from(["s", "t"])
        for i in range(len(g.items)):
            graph.add_edge("s", ("item", i), capacity=1, weight=0)
        for i, j, cost in arcs:
            graph.add_edge(("item", i), ("slot", j), capacity=1, weight=cost)
        for j in range(len(g.slots)):
            graph.add_edge(("slot", j), "t", capacity=1, weight=0)
        expected = nx.cost_of_flow(graph, nx.max_flow_min_cost(graph, "s", "t"))
        matching = complete_matching(g)
        cost = sum(c for e, (_i, _j, c) in zip(g.edges, arcs) if matching[e.item] == e.slot)
        assert nx.maximum_flow_value(graph, "s", "t") == len(matching) == len(g.items)
        assert cost == expected
        checked += 1
    assert checked > 80


def test_complete_matching_by_replay_alone_builds_no_network(split_pair, monkeypatch):
    # Item 1 takes slot (0, 1) and item 2 slot (0, 2), each its best.
    def no_network(*args):
        raise AssertionError("built a network")

    monkeypatch.setattr(FlowNetwork, "__init__", no_network)
    inst, x = split_pair
    assert complete_matching(build_slot_graph(inst, x)) == {1: Slot(0, 1), 2: Slot(0, 2)}


def test_round_integral_solution_identity():
    inst = make_instance(
        2, {1: F(1, 2), 2: F(1, 3)}, [[1, 2]], {(1, 0): F(4), (2, 1): F(2)}
    )
    x = FractionalSolution(entries={(1, 0): F(1), (2, 1): F(1)}, value=F(6))
    u = round_to_assignment(inst, x)
    assert u.bins == (frozenset({1}), frozenset({2}))


def test_round_hand_trace(split_pair):
    inst, x = split_pair
    u = round_to_assignment(inst, x)
    assert u.bins == (frozenset({1, 2}), frozenset())
    assert assignment_profit(inst, u) == 16
    assert is_almost_feasible(inst, u)


def test_round_guards_a_bin_past_its_rank_one_item(monkeypatch):
    # A matching that puts all three half-size items on bin 0's second slot
    # leaves bin 0 at 3/2 with no rank-1 item to excuse the overflow.
    monkeypatch.setattr(
        "groupgap.rounding.complete_matching", lambda g: {i: Slot(0, 2) for i in g.items}
    )
    inst = make_instance(
        2,
        {1: F(1, 2), 2: F(1, 2), 3: F(1, 2)},
        [[1, 2, 3]],
        {(i, j): F(1) for i in (1, 2, 3) for j in (0, 1)},
    )
    x = FractionalSolution(entries={(1, 0): F(1), (2, 0): F(1), (3, 1): F(1)}, value=F(3))
    with pytest.raises(InvariantViolated, match=r"^bin 0 overflows by more than its rank-1 item$"):
        round_to_assignment(inst, x)


@pytest.mark.parametrize(
    "edit, message",
    [
        # item 2 is left out of the matching
        (
            lambda matching: {i: s for i, s in matching.items() if i != 2},
            r"^rounding did not place exactly the support items$",
        ),
        # item 1 moves from bin 0 (profit 2) to bin 1's slot (profit 1)
        (
            lambda matching: {**matching, 1: Slot(1, 1)},
            r"^rounded profit 3 < fractional value 4$",
        ),
    ],
    ids=["drops-an-item", "moves-to-a-lighter-slot"],
)
def test_round_guards_the_matching(monkeypatch, edit, message):
    matching = complete_matching
    monkeypatch.setattr("groupgap.rounding.complete_matching", lambda g: edit(matching(g)))
    inst = make_instance(
        2,
        {1: F(1, 2), 2: F(1, 2)},
        [[1, 2]],
        {(1, 0): F(2), (1, 1): F(1), (2, 0): F(1), (2, 1): F(2)},
    )
    x = FractionalSolution(entries={(1, 0): F(1), (2, 1): F(1)}, value=F(4))
    with pytest.raises(InvariantViolated, match=message):
        round_to_assignment(inst, x)


def test_round_fuzz_guarantees():
    rng = random.Random(47)
    for _ in range(60):
        inst = random_instance(rng)
        x = random_saturated_solution(rng, inst)
        u = round_to_assignment(inst, x)
        assert assignment_profit(inst, u) >= x.value
        assert is_almost_feasible(inst, u)
        assert u.placed_items() == x.support_items()
