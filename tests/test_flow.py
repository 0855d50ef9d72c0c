"""FlowNetwork against a full-scan reference and an independent exact solver."""

import random

import pytest

from groupgap._flow import FlowNetwork


def full_scan_shortest_path(net, s):
    """Reference Bellman-Ford: every pass scans every reached node in index order."""
    dist = [None] * net.n
    parent = [-1] * net.n
    dist[s] = 0
    for _ in range(net.n):
        changed = False
        for u in range(net.n):
            du = dist[u]
            if du is None:
                continue
            for e in net.adj[u]:
                if net.cap[e] <= 0:
                    continue
                v = net.to[e]
                nd = du + net.cost[e]
                dv = dist[v]
                if dv is None or nd < dv:
                    dist[v] = nd
                    parent[v] = e
                    changed = True
        if not changed:
            break
    return dist, parent


def augment(net, s, t, parent, limit=None):
    """Push the bottleneck (capped at ``limit``) along the parent path to t."""
    path = []
    v = t
    while v != s:
        path.append(parent[v])
        v = net.to[parent[v] ^ 1]
    push = min(net.cap[e] for e in path)
    if limit is not None:
        push = min(push, limit)
    for e in path:
        net.cap[e] -= push
        net.cap[e ^ 1] += push
    return push


def reference_run(net, s, t, max_flow=None, stop_on_nonnegative=False):
    """Successive shortest paths driven by the full-scan reference."""
    total_flow = total_cost = 0
    while max_flow is None or total_flow < max_flow:
        dist, parent = full_scan_shortest_path(net, s)
        if dist[t] is None or (stop_on_nonnegative and dist[t] >= 0):
            break
        limit = None if max_flow is None else max_flow - total_flow
        push = augment(net, s, t, parent, limit)
        total_flow += push
        total_cost += push * dist[t]
    return total_flow, total_cost


def random_edges(rng):
    """A small network with many equal-cost paths; source 0, sink n - 1.

    Half are DAGs with costs of both signs (as in profit mode), half are
    general digraphs with nonnegative costs; neither has a negative cycle.
    Parallel edges are allowed.
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


def build(n, edges):
    net = FlowNetwork(n)
    for u, v, cap, cost in edges:
        net.add_edge(u, v, cap, cost)
    return net


def test_dirty_scan_matches_full_scan_on_fresh_and_residual_graphs():
    rng = random.Random(41)
    residual_checks = 0
    for _ in range(200):
        n, edges = random_edges(rng)
        net = build(n, edges)
        for step in range(4):
            expected = full_scan_shortest_path(net, 0)
            assert net._shortest_path(0) == expected
            dist, parent = expected
            if dist[n - 1] is None:
                break
            residual_checks += step > 0
            augment(net, 0, n - 1, parent)
    assert residual_checks > 100


@pytest.mark.parametrize("mode", ["profit", "max_flow"])
def test_run_leaves_reference_flows(mode):
    rng = random.Random(43 if mode == "profit" else 47)
    for _ in range(200):
        n, edges = random_edges(rng)
        kwargs = (
            {"stop_on_nonnegative": True}
            if mode == "profit"
            else {"max_flow": rng.randint(1, 8)}
        )
        ref, net = build(n, edges), build(n, edges)
        assert net.run(0, n - 1, **kwargs) == reference_run(ref, 0, n - 1, **kwargs)
        assert net.cap == ref.cap


def test_max_flow_cost_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(53)
    for _ in range(50):
        n = rng.randint(3, 9)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        net = FlowNetwork(n)
        for _ in range(3 * n):
            u, v = sorted(rng.sample(range(n), 2))  # a DAG: no negative cycle
            if graph.has_edge(u, v):
                continue
            cap, cost = rng.randint(1, 5), rng.randint(-6, 6)
            graph.add_edge(u, v, capacity=cap, weight=cost)
            net.add_edge(u, v, cap, cost)
        flow_value = nx.maximum_flow_value(graph, 0, n - 1)
        expected_cost = nx.cost_of_flow(graph, nx.max_flow_min_cost(graph, 0, n - 1))
        assert net.run(0, n - 1, max_flow=flow_value) == (flow_value, expected_cost)
