"""Shared builders: instances, fuzzed solutions and assignments, test oracles."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import settings

from groupgap._flow import FlowNetwork
from groupgap.model import (
    Assignment,
    FractionalSolution,
    Group,
    Instance,
    Item,
    ZERO,
    is_almost_feasible,
)

settings.register_profile("suite", max_examples=100, deadline=None, derandomize=True)
settings.load_profile("suite")

F = Fraction


def make_instance(m, sizes, groups, profits):
    """Build an instance from plain dicts; bins are 0-based here."""
    items = tuple(Item(id=i, size=F(s)) for i, s in sorted(sizes.items()))
    gs = tuple(
        Group(id=k, members=tuple(sorted(members))) for k, members in enumerate(groups)
    )
    return Instance(
        m=m,
        items=items,
        groups=gs,
        profits={k: F(v) for k, v in profits.items()},
    )


def worked_example(m=3):
    """Two equal items that cannot share a bin; the pipeline's walk-through case."""
    return make_instance(
        m=m,
        sizes={1: F(3, 5), 2: F(3, 5)},
        groups=[[1, 2]],
        profits={(1, 0): F(10), (2, 0): F(6), (2, 1): F(3)},
    )


def random_instance(rng: random.Random, n_max=8, m_max=4, den=16, l_max=None):
    """Random strict-valid instance on a bounded rational grid."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    l_cap = min(n, l_max) if l_max else n
    n_groups = rng.randint(1, l_cap)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    cuts = sorted(rng.sample(range(1, n), n_groups - 1)) if n_groups > 1 else []
    bounds = [0, *cuts, n]
    groups = [ids[bounds[k] : bounds[k + 1]] for k in range(n_groups)]
    budget = F(m, 2)
    sizes = {}
    for members in groups:
        # A group with more members than the budget holds steps of 1/den
        # (m = 1 and nine items at den 16) draws on a finer grid.
        grid = den
        while len(members) > budget * grid:
            grid *= 2
        left = budget
        for pos, i in enumerate(members):
            reserve = F(len(members) - pos - 1, grid)
            num = rng.randint(1, min(grid, int((left - reserve) * grid)))
            sizes[i] = F(num, grid)
            left -= sizes[i]
    profits = {}
    for i in range(1, n + 1):
        home = rng.randrange(m)
        profits[(i, home)] = F(rng.randint(1, 50))
        for j in range(m):
            if j != home and rng.random() < 0.5:
                profits[(i, j)] = F(rng.randint(0, 50))
    profits = {k: v for k, v in profits.items() if v > 0}
    return make_instance(m, sizes, [sorted(g) for g in groups], profits)


def random_saturated_solution(rng: random.Random, inst: Instance) -> FractionalSolution:
    """A feasible fractional solution saturating every supported item.

    Items that cannot be fully assigned in the remaining capacity are left
    out of the support entirely.
    """
    residual = [F(1)] * inst.m
    entries: dict[tuple[int, int], Fraction] = {}
    item_ids = sorted(inst.item_ids)
    rng.shuffle(item_ids)
    for i in item_ids:
        size = inst.size(i)
        placed: dict[int, Fraction] = {}
        left = F(1)
        order = list(range(inst.m))
        rng.shuffle(order)
        for j in order:  # fragmenting pass
            if left == 0:
                break
            room = residual[j] / size
            take = min(left, room)
            if take > 0 and rng.random() < 0.5:
                take = take * F(rng.randint(1, 4), 4)
            if take > 0:
                placed[j] = placed.get(j, ZERO) + take
                residual[j] -= take * size
                left -= take
        for j in order:  # saturating pass
            if left == 0:
                break
            take = min(left, residual[j] / size)
            if take > 0:
                placed[j] = placed.get(j, ZERO) + take
                residual[j] -= take * size
                left -= take
        if left > 0:  # cannot saturate: withdraw the item
            for j, f in placed.items():
                residual[j] += f * size
        else:
            for j, f in placed.items():
                entries[(i, j)] = f
    value = sum((f * inst.profit(i, j) for (i, j), f in entries.items()), ZERO)
    return FractionalSolution(entries=entries, value=value)


def random_almost_feasible(rng: random.Random):
    """Instance plus almost feasible assignment with items totalling <= m/2.

    Mixes overfull-bin patterns (no big, one big, two bigs) with semi-vacant
    and semi-full bins; a dedicated scenario makes every semi-vacant bin too
    loaded for either big, forcing the two-partner repair move.
    """
    den = 16
    if rng.random() < 0.3:
        return _blocking_scenario(rng)
    m = rng.randint(4, 10)
    budget = F(m, 2)
    sizes: dict[int, Fraction] = {}
    bins: list[list[int]] = [[] for _ in range(m)]
    next_id = 1

    def add_item(j, num, d=den):
        nonlocal next_id
        sizes[next_id] = F(num, d)
        bins[j].append(next_id)
        next_id += 1
        return F(num, d)

    used = ZERO
    n_over = rng.randint(0, max(1, m // 4))
    bin_order = list(range(m))
    rng.shuffle(bin_order)
    for idx, j in enumerate(bin_order):
        if idx < n_over:
            kind = rng.choice(["no-big", "one-big", "two-big"])
            cost = ZERO
            if kind == "no-big":
                for _ in range(3):
                    cost += add_item(j, rng.randint(6, 8))
            elif kind == "one-big":
                cost += add_item(j, rng.randint(9, 14))
                while sum((sizes[i] for i in bins[j]), ZERO) <= 1:
                    cost += add_item(j, rng.randint(2, 6))
            else:
                cost += add_item(j, rng.randint(9, 12))
                cost += add_item(j, rng.randint(9, 12))
                if rng.random() < 0.5:
                    cost += add_item(j, rng.randint(1, 4))
            used += cost
        else:
            draw = rng.random()
            if draw < 0.35:
                continue  # empty bin
            if draw < 0.8:  # semi-vacant
                target = rng.randint(1, 7)
            else:  # semi-full
                target = rng.randint(8, 16)
            cost = F(target, den)
            if used + cost > budget:
                continue
            left = target
            while left > 0:
                num = rng.randint(1, min(left, 8))
                add_item(j, num)
                left -= num
            used += cost
    if used > budget:  # overfull bins alone blew the budget: rebuild smaller
        return random_almost_feasible(rng)
    inst = _instance_for(rng, sizes, m)
    u = Assignment(bins=tuple(frozenset(b) for b in bins))
    assert is_almost_feasible(inst, u)
    assert inst.total_size(u.placed_items()) <= budget
    return inst, u


def _blocking_scenario(rng: random.Random):
    """Every semi-vacant bin is just loaded enough to reject both bigs."""
    n_over = rng.randint(1, 2)
    n_block = 6 * n_over + rng.randint(0, 2)
    m = n_over + n_block
    sizes: dict[int, Fraction] = {}
    bins: list[list[int]] = [[] for _ in range(m)]
    next_id = 1

    def add_item(j, frac):
        nonlocal next_id
        sizes[next_id] = frac
        bins[j].append(next_id)
        next_id += 1

    for j in range(n_over):
        add_item(j, F(rng.randint(13, 15), 16))
        add_item(j, F(rng.randint(13, 15), 16))
    # blockers: load 4/16 exceeds the 1 - 13/16 gap left by any big, yet
    # stays semi-vacant and light enough for the half-capacity budget
    for j in range(n_over, m):
        if rng.random() < 0.5:
            add_item(j, F(4, 16))
        else:
            add_item(j, F(2, 16))
            add_item(j, F(2, 16))
    inst = _instance_for(rng, sizes, m)
    u = Assignment(bins=tuple(frozenset(b) for b in bins))
    total = inst.total_size(u.placed_items())
    assert is_almost_feasible(inst, u)
    assert total <= F(m, 2), f"blocking scenario over budget: {total} > {F(m, 2)}"
    assert all(F(1) - sizes[i] < F(4, 16) for j in range(n_over) for i in bins[j])
    return inst, u


def _instance_for(rng: random.Random, sizes, m):
    profits = {}
    for i in sizes:
        for j in range(m):
            if rng.random() < 0.7:
                profits[(i, j)] = F(rng.randint(0, 20))
    profits = {k: v for k, v in profits.items() if v > 0}
    return make_instance(m, sizes, [sorted(sizes)] if sizes else [], profits)


def scaled_matching_graph(inst: Instance, item_ids):
    """Unit-size expansion of the transportation view: an item of size k/N
    becomes k left copies, each bin becomes N right slots, and any copy of
    item i in any slot of bin j is worth p_ij split over the copies."""
    from math import lcm

    from groupgap.exact import WeightedBipartiteGraph

    items = sorted(item_ids)
    n_scale = 1
    for i in items:
        n_scale = lcm(n_scale, inst.size(i).denominator)
    weights = {}
    left = 0
    for i in items:
        copies = int(inst.size(i) * n_scale)
        for c in range(copies):
            for j in range(inst.m):
                p = inst.profit(i, j)
                if p > 0:
                    for r in range(n_scale):
                        weights[(left + c, j * n_scale + r)] = p / copies
        left += copies
    return WeightedBipartiteGraph(left=left, right=inst.m * n_scale, weights=weights)


def modular_oracle(rng: random.Random, sizes):
    values = {i: F(rng.randint(0, 30)) for i in sizes}

    def f(subset):
        return sum((values[i] for i in subset), ZERO)

    return f


def coverage_oracle(rng: random.Random, sizes):
    universe = range(rng.randint(3, 10))
    weights = [F(rng.randint(0, 10)) for _ in universe]
    covers = {i: frozenset(u for u in universe if rng.random() < 0.4) for i in sizes}

    def f(subset):
        covered = set()
        for i in subset:
            covered |= covers[i]
        return sum((weights[u] for u in covered), ZERO)

    return f


def random_ground(rng: random.Random, n_max=8, cap_max=4):
    """Element sizes by id, with a capacity; every size within half the capacity."""
    n = rng.randint(1, n_max)
    cap = F(rng.randint(2, cap_max))
    den = 8
    half_num = int(cap / 2 * den)
    sizes = {i: F(rng.randint(1, half_num), den) for i in range(1, n + 1)}
    return sizes, cap


def adjacency(net):
    """Every edge out of each node, live or not, in id order (edge e leaves
    ``to[e ^ 1]``)."""
    adj = [[] for _ in range(net.n)]
    for e in range(len(net.to)):
        adj[net.to[e ^ 1]].append(e)
    return adj


def full_scan_shortest_path(net, s):
    """Reference Bellman-Ford: every pass scans every reached node in index order."""
    adj = adjacency(net)
    dist = [None] * net.n
    parent = [-1] * net.n
    dist[s] = 0
    for _ in range(net.n):
        changed = False
        for u in range(net.n):
            du = dist[u]
            if du is None:
                continue
            for e in adj[u]:
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


def bipartite_states(supply, demand, arcs, max_flow=None):
    """Successive shortest paths on ``_flow.transport``'s layout, driven by
    the full-scan reference: after each of its k augmentations (k = 0
    first), the flow on each arc and the flow and cost shipped so far.

    Without ``max_flow`` the run stops at the first path of cost >= 0, as
    the library's runs do. With it, the run ships up to ``max_flow`` units
    along paths of any cost: a min-cost flow of that many units, or of as
    many as can be shipped.
    """
    right = 1 + len(supply)
    sink = right + len(demand)
    edges = [(0, 1 + i, units, 0) for i, units in enumerate(supply)]
    edges += [(1 + i, right + j, supply[i], cost) for i, j, cost in arcs]
    edges += [(right + j, sink, units, 0) for j, units in enumerate(demand)]
    net = FlowNetwork(sink + 1, edges)
    first = 2 * len(supply)

    def arc_flows():
        return net.cap[first + 1 : first + 2 * len(arcs) : 2]

    flow = cost = 0
    states = [(arc_flows(), flow, cost)]
    while max_flow is None or flow < max_flow:
        dist, parent = full_scan_shortest_path(net, 0)
        if dist[sink] is None or (max_flow is None and dist[sink] >= 0):
            break
        push = augment(net, 0, sink, parent, None if max_flow is None else max_flow - flow)
        flow += push
        cost += push * dist[sink]
        states.append((arc_flows(), flow, cost))
    return states
