"""FlowNetwork, transport and resume against full-scan references and
cold solves, on plain costs and under the node potential that makes a run
ship every unit (the rounding's matching). ``resume`` runs from a start
flow: a state of the cold run, which it continues, or, warm, a subset's
optimum, which it re-optimises for every left node."""

import random

import pytest

from groupgap._flow import FlowNetwork, replay, resume, transport
from groupgap.errors import InvariantViolated

from conftest import adjacency, augment, bipartite_states, full_scan_shortest_path


def reference_run(net, s, t, stop_on_nonnegative=False):
    """Successive shortest paths driven by the full-scan reference, until no
    path is left or, with ``stop_on_nonnegative``, up to a path of cost >= 0."""
    total_flow = total_cost = 0
    while True:
        dist, parent = full_scan_shortest_path(net, s)
        if dist[t] is None or (stop_on_nonnegative and dist[t] >= 0):
            break
        push = augment(net, s, t, parent)
        total_flow += push
        total_cost += push * dist[t]
    return total_flow, total_cost


def sink_shifted(n, edges):
    """The edges with every cost into the sink ``n - 1`` lowered by M and
    every cost out of it raised by M, M = 1 + the sum of |cost|; and M.
    That is a node potential on the sink: a path to any other node keeps
    its cost, and a path to the sink, which costs at most M - 1, now costs
    M less, below 0, so a profit run ships until no path is left."""
    shift = 1 + sum(abs(w) for _u, _v, _c, w in edges)
    t = n - 1
    return shift, [(u, v, c, w - shift * (v == t) + shift * (u == t)) for u, v, c, w in edges]


def random_edges(rng):
    """A small network with many equal-cost paths; source 0, sink n - 1.

    Half are DAGs with costs of both signs, half are general digraphs with
    nonnegative costs; neither has a negative cycle. Parallel edges are
    allowed.
    """
    n = rng.randint(3, 9)
    dag = rng.random() < 0.5
    spread = rng.choice([1, 3])
    edges = []
    for _ in range(rng.randint(n, 4 * n)):
        u, v = rng.sample(range(n), 2)
        if dag and u > v:
            u, v = v, u
        cost = rng.randint(-spread if dag else 0, spread)
        edges.append((u, v, rng.randint(0, 4), cost))
    return n, edges


def test_edge_list_layout_matches_edge_by_edge_build():
    """Edge k at 2k, its twin at 2k + 1, adjacency in edge order: the layout an
    edge-by-edge build gives, which Bellman-Ford's tie-breaks depend on."""
    rng = random.Random(37)
    for _ in range(100):
        n, edges = random_edges(rng)
        adj, to, cap, cost = [[] for _ in range(n)], [], [], []
        for u, v, c, w in edges:
            adj[u].append(len(to))
            adj[v].append(len(to) + 1)
            to += [v, u]
            cap += [c, 0]
            cost += [w, -w]
        net = FlowNetwork(n, edges)
        assert (adjacency(net), net.to, net.cap, net.cost) == (adj, to, cap, cost)


def assert_live_lists(net):
    """Each node's live list is its adjacency list filtered to edges with room."""
    assert net.live == [[e for e in edges if net.cap[e] > 0] for edges in adjacency(net)]


def test_live_lists_follow_every_capacity_change(monkeypatch):
    """After construction, with and without preloaded flows, and after every
    augmentation, on plain and shifted costs and through cold and warm
    ``resume`` runs (which build their networks internally)."""
    counts = {"built": 0, "augmented": 0, "filled": 0, "inserted_before_last": 0}
    run, augment_step = FlowNetwork.run, FlowNetwork._augment

    def checked_run(net, *args, **kwargs):
        assert_live_lists(net)  # as built
        counts["built"] += 1
        return run(net, *args, **kwargs)

    def checked_augment(net, s, t, parent):
        before = list(net.cap)
        push = augment_step(net, s, t, parent)
        assert_live_lists(net)
        counts["augmented"] += 1
        for e, (old, new) in enumerate(zip(before, net.cap)):
            counts["filled"] += old > 0 == new
            if old == 0 < new:  # regained room: inserted, not always at the end
                counts["inserted_before_last"] += net.live[net.to[e ^ 1]][-1] != e
        return push

    monkeypatch.setattr(FlowNetwork, "run", checked_run)
    monkeypatch.setattr(FlowNetwork, "_augment", checked_augment)
    rng = random.Random(79)
    for _ in range(200):
        n, edges = random_edges(rng)
        flows = [rng.randint(0, cap) for _u, _v, cap, _cost in edges]
        assert_live_lists(FlowNetwork(n, edges, flows))
        FlowNetwork(n, edges).run(0, n - 1)
        FlowNetwork(n, sink_shifted(n, edges)[1]).run(0, n - 1)
        supply, demand, arcs = random_bipartite(rng)
        # From the zero flow without the replay, so every call builds a network.
        zero = [0] * len(arcs)
        resume(supply, demand, arcs, zero, False)
        resume(supply, demand, shifted(arcs)[1], zero, False)
        old = [units if rng.random() < 0.6 else 0 for units in supply]
        _flow, _cost, start = resume(old, demand, arcs, zero, False)
        resume(supply, demand, arcs, start, True)
    assert counts["built"] == 1200 and counts["augmented"] > 900
    assert counts["filled"] > 1000 and counts["inserted_before_last"] > 800


def test_run_stops_at_a_zero_cost_path():
    """A run stops at the first path of cost >= 0, so a lone zero-cost arc
    ships nothing."""
    assert FlowNetwork(2, [(0, 1, 1, 0)]).run(0, 1) == (0, 0)
    assert transport([1], [1], [(0, 0, 0)]) == (0, 0, [0])


def test_dirty_scan_matches_full_scan_on_fresh_and_residual_graphs():
    rng = random.Random(41)
    residual_checks = 0
    for _ in range(200):
        n, edges = random_edges(rng)
        net = FlowNetwork(n, edges)
        for step in range(4):
            expected = full_scan_shortest_path(net, 0)
            assert net._shortest_path(0) == expected
            dist, parent = expected
            if dist[n - 1] is None:
                break
            residual_checks += step > 0
            net._augment(0, n - 1, parent)
    assert residual_checks > 100


@pytest.mark.parametrize("mode", ["profit", "shifted"])
def test_run_leaves_reference_flows(mode):
    """A run stops where the full-scan reference does. On sink-shifted costs
    it ships until no path is left, along the paths of the reference's full
    run on the plain costs: the same flows, each unit M cheaper."""
    rng = random.Random(43 if mode == "profit" else 47)
    for _ in range(200):
        n, edges = random_edges(rng)
        ref = FlowNetwork(n, edges)
        if mode == "profit":
            net = FlowNetwork(n, edges)
            expected = reference_run(ref, 0, n - 1, stop_on_nonnegative=True)
        else:
            shift, shifted_edges = sink_shifted(n, edges)
            net = FlowNetwork(n, shifted_edges)
            flow, cost = reference_run(ref, 0, n - 1)
            expected = (flow, cost - shift * flow)
        assert net.run(0, n - 1) == expected
        assert net.cap == ref.cap


def random_bipartite(rng):
    """Supplies, demands and distinct (left, right, cost) arcs in random order."""
    supply = [rng.randint(0, 5) for _ in range(rng.randint(1, 5))]
    demand = [rng.randint(0, 5) for _ in range(rng.randint(1, 5))]
    pairs = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
    arcs = [(i, j, rng.randint(-6, 3)) for i, j in rng.sample(pairs, rng.randint(0, len(pairs)))]
    return supply, demand, arcs


def shifted(arcs):
    """M = 1 + the sum of |cost|, and the arcs with every cost lowered by M:
    the node potential of the rounding, M on the right nodes and the sink.
    Every path to a node changes cost by an amount that depends only on the
    node, and every path to the sink now costs < 0, so a profit run ships
    until no path is left, along the paths of a full run on the plain arcs."""
    shift = 1 + sum(abs(c) for _i, _j, c in arcs)
    return shift, [(i, j, c - shift) for i, j, c in arcs]


def reference_states(mode, supply, demand, arcs):
    """The arcs ``transport`` gets and the reference states it must reach:
    the profit run's on the plain arcs, or on shifted arcs the states of a
    full run on the plain arcs, each unit M cheaper."""
    if mode == "profit":
        return arcs, bipartite_states(supply, demand, arcs)
    states = bipartite_states(supply, demand, arcs, max_flow=sum(supply))
    shift, arcs = shifted(arcs)
    return arcs, [(flows, flow, cost - shift * flow) for flows, flow, cost in states]


@pytest.mark.parametrize("mode", ["profit", "shifted"])
def test_transport_arc_flows_respect_supplies_and_demands(mode):
    rng = random.Random(59 if mode == "profit" else 61)
    for _ in range(100):
        supply, demand, arcs = random_bipartite(rng)
        if mode == "shifted":
            arcs = shifted(arcs)[1]
        flow, cost, flows = transport(supply, demand, arcs)
        assert len(flows) == len(arcs)
        sent, received = [0] * len(supply), [0] * len(demand)
        for (i, j, _cost), units in zip(arcs, flows):
            assert 0 <= units <= supply[i]
            sent[i] += units
            received[j] += units
        assert all(out <= cap for out, cap in zip(sent, supply))
        assert all(into <= cap for into, cap in zip(received, demand))
        assert sum(flows) == flow
        assert sum(c * units for (_i, _j, c), units in zip(arcs, flows)) == cost


def test_start_flows_fill_the_twins():
    rng = random.Random(71)
    for _ in range(100):
        n, edges = random_edges(rng)
        flows = [rng.randint(0, cap) for _u, _v, cap, _cost in edges]
        net, empty = FlowNetwork(n, edges, flows), FlowNetwork(n, edges)
        assert net.cap[0::2] == [cap - units for (_u, _v, cap, _w), units in zip(edges, flows)]
        assert net.cap[1::2] == flows
        assert (adjacency(net), net.to, net.cost) == (adjacency(empty), empty.to, empty.cost)
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            FlowNetwork(2, [(0, 1, 2, 0)], [bad])
    for flows in ([], [1, 1]):  # not one flow per edge
        with pytest.raises(ValueError):
            FlowNetwork(2, [(0, 1, 2, 0)], flows)


def test_warm_resume_reaches_the_cold_optimum():
    """Start from the optimum with some left nodes unsupplied, then supply
    them all: the start cost plus the warm run's equals the cold cost."""
    rng = random.Random(73)
    warm_pushes = 0
    for _ in range(300):
        supply, demand, arcs = random_bipartite(rng)
        old = [units if rng.random() < 0.6 else 0 for units in supply]
        _flow, start_cost, start = transport(old, demand, arcs)
        _flow, cold_cost, _flows = transport(supply, demand, arcs)
        flow, cost, flows = resume(supply, demand, arcs, start, True)
        assert cost <= 0
        assert start_cost + cost == cold_cost
        warm_pushes += flow > 0
        sent, received = [0] * len(supply), [0] * len(demand)
        for (i, j, _cost), units in zip(arcs, flows):
            assert 0 <= units <= supply[i]
            sent[i] += units
            received[j] += units
        assert all(out <= cap for out, cap in zip(sent, supply))
        assert all(into <= cap for into, cap in zip(received, demand))
        assert sum(c * units for (_i, _j, c), units in zip(arcs, flows)) == cold_cost
    assert warm_pushes > 50


def test_negative_cycle_raises_instead_of_looping():
    """A start flow that is not optimal leaves a negative residual cycle, on
    which successive shortest paths would never end."""
    net = FlowNetwork(3, [(0, 1, 1, 0), (1, 2, 1, -1), (2, 1, 1, -1)])
    with pytest.raises(InvariantViolated, match="negative cycle"):
        net.run(0, 2)
    # Left node 0 starts in right node 0 although right node 1 pays more.
    supply, demand, arcs = [2, 1], [2, 2], [(0, 0, -1), (0, 1, -3), (1, 0, -1)]
    with pytest.raises(InvariantViolated, match="negative cycle"):
        resume(supply, demand, arcs, [2, 0, 0], True)


@pytest.mark.parametrize("mode", ["profit", "shifted"])
def test_cold_resume_ends_at_the_cold_run(mode):
    """Started from the cold run's state after any number of its
    augmentations, a cold ``resume`` ends at the cold run's flows, and the
    start flow's cost plus the run's is the cold cost."""
    rng = random.Random(89 if mode == "profit" else 97)
    resumed = 0
    for _ in range(200):
        supply, demand, arcs = random_bipartite(rng)
        arcs, states = reference_states(mode, supply, demand, arcs)
        cold_flows, cold_flow, cold_cost = states[-1]
        assert transport(supply, demand, arcs) == (cold_flow, cold_cost, cold_flows)
        for start, flow, cost in states:
            got = resume(supply, demand, arcs, start, False)
            assert got == (cold_flow - flow, cold_cost - cost, cold_flows)
            resumed += 0 < flow < cold_flow
    assert resumed > 100


def test_start_outside_the_capacities_raises():
    supply, demand, arcs = [2, 1], [2, 2], [(0, 0, -1), (0, 1, -3), (1, 0, -1)]
    assert resume(supply, demand, arcs, [0, 0, 0], False) == transport(supply, demand, arcs)
    bad = (
        [-1, 0, 0],  # a negative arc flow
        [0, 0, 2],  # more than left node 1 supplies
        [1, 2, 0],  # the arcs out of left node 0 carry more than it supplies
        [2, 0, 1],  # more than right node 0 takes
        [0, 0],  # not one flow per arc
    )
    for start in bad:
        for warm in (False, True):
            with pytest.raises(ValueError):
                resume(supply, demand, arcs, start, warm)


def tied_bipartite(rng):
    """Bipartite inputs with few distinct costs, 0 among them, so many
    paths tie; unit supplies and demands (as in the rounding) half the time."""
    unit = rng.random() < 0.5
    supply = [1 if unit else rng.randint(0, 4) for _ in range(rng.randint(1, 6))]
    demand = [1 if unit else rng.randint(0, 4) for _ in range(rng.randint(1, 6))]
    costs = rng.choice([(-1, 0), (-2, -1, 0), (-1, 0, 1), (0, 1), (0,)])
    pairs = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
    arcs = [(i, j, rng.choice(costs)) for i, j in rng.sample(pairs, rng.randint(0, len(pairs)))]
    return supply, demand, arcs


def count_runs(monkeypatch):
    """Count the networks that run from here on; returns a live counter."""
    runs = {"n": 0}
    run = FlowNetwork.run

    def counting(net, *args, **kwargs):
        runs["n"] += 1
        return run(net, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "run", counting)
    return runs


@pytest.mark.parametrize("mode", ["profit", "shifted"])
def test_transport_from_zero_equals_the_reference_run(mode, monkeypatch):
    """Each step of the replay is the next augmentation of the full-scan
    reference run; where the walk ends the run, the reference stops there
    too, and otherwise the network run from the replayed flow ends where the
    reference does. Ties, cost-0 arcs, unit and general supplies."""
    built = count_runs(monkeypatch)
    rng = random.Random(101 if mode == "profit" else 103)
    outcomes = {"done": 0, "stopped": 0, "stopped after a step": 0}
    for trial in range(600):
        supply, demand, arcs = (tied_bipartite if trial % 3 else random_bipartite)(rng)
        arcs, states = reference_states(mode, supply, demand, arcs)
        supplied = {i: units for i, units in enumerate(supply) if units}
        order = sorted((cost, j, i) for i, j, cost in arcs)
        flow, cost, shipped, left = replay(supplied, demand, order)
        placed = {(i, j): units for i, (j, units) in shipped.items()}
        flows = [placed.get((i, j), 0) for i, j, _cost in arcs]
        assert (flows, flow, cost) == states[len(shipped)]
        if not left:
            assert len(states) == len(shipped) + 1
        runs = built["n"]
        final_flows, final_flow, final_cost = states[-1]
        assert transport(supply, demand, arcs) == (final_flow, final_cost, final_flows)
        assert built["n"] == runs + (len(left) > 0)
        if not left:
            outcomes["done"] += 1
        else:
            outcomes["stopped after a step" if shipped else "stopped"] += 1
    assert min(outcomes.values()) > 30, outcomes


def test_replay_that_finishes_builds_no_network(monkeypatch):
    built = count_runs(monkeypatch)
    # Each left node's cheapest arc has room, so direct paths end the run;
    # left node 2 has only an arc of cost 0, which a run leaves empty, and
    # which ships once every cost is lowered by 4.
    supply, demand = [1, 1, 1], [1, 1, 1]
    arcs = [(0, 0, -3), (0, 1, -1), (1, 1, -2), (1, 0, 0), (2, 2, 0)]
    assert transport(supply, demand, arcs) == (2, -5, [1, 0, 1, 0, 0])
    lowered = [(i, j, c - 4) for i, j, c in arcs]
    assert transport(supply, demand, lowered) == (3, -17, [1, 0, 1, 0, 1])
    assert built["n"] == 0
    # Left node 1's cheapest arc leads into right node 0, which node 0 fills:
    # the walk stops there and a network moves node 1 on.
    arcs = [(0, 0, -3), (1, 0, -2), (1, 1, -1)]
    assert transport(supply, demand, arcs) == (2, -4, [1, 0, 1])
    assert replay({0: 1, 1: 1}, demand, sorted((c, j, i) for i, j, c in arcs)) == (
        1,
        -3,
        {0: (0, 1)},
        {1: 1},
    )
    assert built["n"] == 1


def test_transport_rejects_parallel_arcs():
    with pytest.raises(ValueError, match="same left and right"):
        transport([1], [1], [(0, 0, -1), (0, 0, -2)])
