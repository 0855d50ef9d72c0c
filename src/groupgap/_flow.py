"""Successive-shortest-path min-cost flow on small integer networks.

Callers clear rational denominators before building the network, so
capacities and costs are plain (arbitrary-precision) ints and every
optimum maps back to an exact rational. Every run maximises profit: it
augments along a cheapest path while that path costs < 0, and stops at the
first one of cost >= 0 or when no path is left. (The rounding, which must
ship every unit, lowers its costs by a node potential that makes every
path negative; see :func:`groupgap.rounding.complete_matching`.)
Augmenting paths are found with Bellman-Ford over the residual graph;
starting from the zero flow and always augmenting along a cheapest path
keeps the residual graph free of negative cycles, so Bellman-Ford stays
valid throughout.

Each Bellman-Ford pass visits nodes in index order but scans the out-edges
only of "dirty" nodes, whose distance dropped since they were last scanned
(initially just the source). A node whose distance is unchanged since its
last scan cannot strictly improve any neighbour: every residual edge out of
it already satisfied ``dist[v] <= dist[u] + cost``, distances only fall, and
residual capacities are fixed during the search. Skipping it therefore
leaves every strict ``<`` comparison that could succeed in place, so
``dist``, ``parent`` and the number of passes are exactly those of the full
scan, and so are the augmenting paths and the final flows.

A scanned node visits only its live edges, those with room (``cap > 0``),
kept per node in ``FlowNetwork.live`` in ascending id order, which is the
order in which a full scan visits a node's out-edges. The full scan skips
every edge without room, so the same strict ``<`` comparisons run in the
same order and ``dist`` and ``parent`` come out the same. The build
fills the lists in its one pass over the edges, preloaded flows included,
and afterwards they change only where capacities do, at each push along an
augmenting path: an edge that fills up leaves its tail's list, and a twin
that gains room goes into its tail's list at its sorted position. Most of
the edges left out are twins without flow: every arc into a right node has
one there, so a right node's full list is mostly dead weight.

Potentials. Every search of a run after its first skips the scans that
cannot reach the path it returns (reduced costs as in Edmonds and Karp,
1972, kept as in Johnson, 1977). The run keeps node potentials ``pi``:
the first search's distances, 0 at a node it left unreached, and after
each later search and its augmentation ``pi[v] = min(dist[v], pi[v] + D)``,
where ``D = dist[t] - pi[t]`` is t's reduced distance and an unreached v
takes ``pi[v] + D``. A later search keeps the first's pass order, dirty
flags and strict ``<``, with two changes: t is never marked dirty (no
simple s-t path leaves t), and a dirty node u is skipped when its reduced
distance ``dist[u] - pi[u]`` exceeds t's current one (nothing is skipped
before t is reached). The first search scans every node it reaches, t
included, so its negative-cycle guard still covers any start flow. The
paths stay the same:

- A node the first search leaves unreached is never reached later:
  augmenting gives room only to twins of path edges, between reached
  nodes. Every live edge out of a reached node has a reduced cost
  ``cost + pi[u] - pi[v] >= 0`` before each later search (last point).
- Reduced costs move every candidate distance at v by the same
  ``-pi[v]``, so reduced distances make the same comparisons as plain
  ones; only which comparisons run changes. With reduced costs >= 0, a
  node on a cheapest path to v has a reduced distance at most v's.
- Call a node's final distance the one the full search gives it without
  scanning t. It reaches that distance at the scan of its parent: the
  first tight edge, in scan order, out of a node already at its final
  distance. t's current reduced distance only falls, to D, so a node whose
  final reduced distance is at most D is never skipped at the scan that
  holds its final distance, and by induction from s every such node gets
  the distance, parent and scan position that it gets without skips: a
  skipped scan is of a node whose reduced distance then exceeds D, so it
  could only offer reduced distances above D, never one of those.
- Not scanning t loses no path to t: with strict ``<`` and no negative
  cycle, Bellman-Ford's parents form a tree, so t's parent chain never
  passes through t. So ``dist[t]`` and the parent chain from t are the
  full search's, and so are every push, flow and cost.
- The potentials stay valid. Let ``d(v) = min(r(v), D)``, with r(v) the
  true reduced distance, through t or not (a path through t has r >= D).
  The search leaves ``min(dist[v] - pi[v], D) = d(v)`` at every node,
  since it gets every r(v) <= D that avoids t exactly and leaves the
  others above D or unreached. For a live edge, ``d(v) <= d(u) + r(u, v)``
  (r(u, v) its reduced cost), so its new reduced cost
  ``r(u, v) + d(u) - d(v)`` is >= 0; the path's edges are tight with both
  ends at most D, so the twins that augmenting gives room cost 0.

:func:`transport` solves the bipartite problem of both callers, items to
bins for the LP value and items to slots for the rounding matching, and
:func:`resume` lays out every network that it or the LP oracle runs: node 0
is the source, then come the left nodes, the right nodes and the sink, and
the edges run from the source, along the arcs, then into the sink, each in
the order given. Bellman-Ford breaks ties between equal-cost paths by node
and edge order, so this layout decides which optimal flow comes out.

Replay. Most augmenting paths of a cold run, successive shortest paths
from the zero flow on that layout, are direct: source -> left node ->
right node -> sink. :func:`replay` takes those first paths without a
search. It walks the arcs by (cost, right node, left node) and ships each
left node not yet shipped whole along its first arc: its cheapest, into
the lowest right node on a tie. It stops before an arc into a full right
node, after a step that ships a left node only in part, and before an arc
of cost >= 0. Up to there, each step is the path that Bellman-Ford finds
in the state that the earlier steps leave:

- Every shipped left node sits whole on its cheapest arc. A path leaves
  the source for a left node not shipped yet (the source edges of the
  others are full) and takes one of its arcs. Each detour after that
  leaves a right node along the twin of a shipped node's arc and goes on
  along another arc of that node, which never costs less. So no path
  costs less than the cheapest arc of an unshipped left node, the walk's
  next arc. Nothing here depends on the sign of a cost.
- Bellman-Ford's first pass scans the source, the left nodes by index,
  the right nodes by index, then the sink. An unshipped left node is
  reached from the source alone, at distance 0. The pass gives each right
  node the cheapest arc into it from an unshipped left node, with the
  lowest-index such node as parent, and gives the sink the lowest-index
  right node with room that such a cheapest arc reaches: the walk's next
  arc, since an arc of the same cost into a lower right node would have
  come first and, that node being full, stopped the walk. Later passes
  can at most tie, and a tie replaces no parent.
- The path's bottleneck is the smaller of the left node's supply and
  the right node's room.

A left node's index is its position in ``supply``; the LP oracle lists its
items by ascending id, the rounding its slot graph's items in ``g.items``
order, each with unit supply, into slots of unit demand. The walk ends
the cold run where that run would stop in the same state: when every left
node with an arc is shipped whole, or no arc of an unshipped node is left
(no path is), or at an arc of cost >= 0 (no path costs less). The
replayed flow is then the cold run's result: the same flow, cost and arc
flows. Left nodes without an arc ship nothing either way.

Components. :func:`transport` walks its arcs once, but a stop ends the
walk of the stopped left node's connected component only (arcs join left
and right nodes): its left nodes leave the walk, which goes on in the
others, and each component left unfinished is then resumed cold from its
walked flow as a network of its own, its nodes and arcs in their order in
the whole network. The arc flows are those of the one network:

- Every simple source-to-sink path of the residual graph stays inside one
  component: between the source and the sink it moves only along arcs and
  their twins.
- Call a search plain if it scans every node it reaches except the sink.
  Every search of a run, the first (which also scans the sink) and each
  later one (under potentials), returns the plain search's sink distance
  and parent chain, by the point above that not scanning the sink loses no
  path. In a plain search, only the source and a component's own nodes
  relax that component's nodes, so pass by pass they get the distances,
  parents and dirty flags that the component's own plain search gives
  them. The sink's parent is the first right node, in pass and scan order,
  to offer its least distance, so the one network takes the next path of
  one component's own run.
- Augmenting changes only that component's capacities, so the one network
  takes every component's own paths, interleaved, and stops where each of
  them does: a component whose next path costs >= 0 keeps it.
- The walk over a component's arcs, in the order of all arcs, is the
  replay of its own network. An arc of cost >= 0 ends every component's
  walk, since every later arc costs >= 0 too.

The unfinished components must run apart. The walk goes on in B after it
stopped in A, and may ship a left node of B along an arc that costs more
than a path A still has. In one network the source and sink join them,
and the cycle source -> left node of A -> right node of A -> sink ->
right node of B -> left node of B -> source then costs < 0, which
Bellman-Ford's guard reports as a negative cycle. Each component's walked
flow is a state of its own cold run. Components are labelled only at the
first stop, so a walk that finishes pays nothing for them. The LP oracle
calls :func:`replay` itself and resumes one network from its first stop,
which the plain replay argument covers; its networks are connected in
practice.

Resume. :func:`resume` runs the network from a start flow instead of
from zero: it is built with that flow on the arcs and the matching flow on
the source and sink edges (``FlowNetwork``'s ``flows``). It runs in one of
two ways.

Cold (``warm`` False): the start flow is a state of the cold run, and the
run goes on from it. The residual graph is a function of the capacities
alone, live lists included, so a start flow that successive shortest paths
themselves reached from zero, after their first k augmentations, leaves
exactly the network that run had then. The run therefore goes on as the
cold run would: the same paths, the same final flows, and the cold cost
minus the start flow's. A ``transport`` from zero replays first and
resumes each component whose walk stops short from what it shipped; the
LP oracle resumes its one network with its own pre-sorted arcs.

Warm (``warm`` True): the start flow is optimal for the left nodes that
carry it, in practice a subset's optimum, to which more supplied left
nodes are added, and the run re-optimises it for all of them. The source
that feeds the start flow's left nodes moves to a new last node, a
zero-cost return arc runs from the sink to it, and node 0 feeds the left
nodes without start flow. Successive shortest paths then run from node 0
to the moved source, each path closing a cycle through the two sources,
which the cold network merges into one. Bellman-Ford stays valid:

- The start residual has no negative cycle. The start flow is optimal for
  its own left nodes, so its residual circulation (return arc included)
  has none, and node 0 has no incoming residual arc yet, so no cycle
  reaches the new left nodes.
- Augmenting along a cheapest path keeps the residual free of negative
  cycles, exactly as in the cold run.
- When the cheapest path costs >= 0, the merged network has no negative
  cycle left. Such a cycle would have to pass the sources, as a path
  from node 0 to the moved source (none is negative now) or back from
  the moved source to node 0. The latter undoes a unit of the added
  flow, which is the cheapest flow of its amount, so it costs at least
  minus the last augmenting path's cost: more than 0.

So the flow is optimal for every left node, and the run's cost is the
optimum's cost minus the start flow's. Both ways build the same source,
arc and sink edges in the same order; the warm network differs only in
where the left nodes with start flow are fed from and in the return arc.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable

from .errors import InvariantViolated


class FlowNetwork:
    """Residual graph built in one pass from ``(u, v, cap, cost)`` edges.

    Edge k is stored at index ``2k`` and its twin (capacity 0, cost
    ``-cost``) at ``2k + 1``, so the flow on edge k is ``cap[2k + 1]``; the
    tail of edge e is ``to[e ^ 1]``. ``live[u]`` holds the ids of the edges
    out of u that have room, ascending, which is Bellman-Ford's scan order.
    After the build only :meth:`_augment` changes capacities, and it keeps
    ``live`` in step. ``flows``, one per edge, preloads that much flow on
    each edge. A flow outside ``[0, cap]``, or a ``flows`` of another
    length, raises ``ValueError``.
    """

    def __init__(self, n: int, edges: list[tuple[int, int, int, int]], flows: list[int]):
        if len(flows) != len(edges):
            raise ValueError(f"got {len(flows)} flows for {len(edges)} edges")
        self.n = n
        self.live: list[list[int]] = [[] for _ in range(n)]
        self.to, self.cap, self.cost = [], [], []
        live, to, cap, cost = self.live, self.to, self.cap, self.cost
        for (u, v, c, w), units in zip(edges, flows):
            e = len(to)  # ids grow along the pass: every live list comes out sorted
            if c > units:
                live[u].append(e)
            if units:
                if not 0 < units <= c:
                    raise ValueError(f"edge {e // 2} cannot carry a flow of {units}")
                live[v].append(e + 1)
            to.append(v)
            to.append(u)
            cap.append(c - units)
            cap.append(units)
            cost.append(w)
            cost.append(-w)

    def _shortest_path(self, s: int, t: int = -1, pi: list[int] | None = None):
        """Bellman-Ford from s over the live edges: ``(dist, parent)``, with
        ``None`` for a node not reached and ``-1`` for a node without parent.

        Without t and ``pi`` every reached node is scanned. A given t is
        never scanned: no simple path to t leaves it. With ``pi``, the
        potentials that :meth:`run` keeps from its earlier searches, a node
        whose reduced distance ``dist[u] - pi[u]`` exceeds t's is skipped
        too. ``dist[t]`` and the parent chain from t come out as without
        them (module docstring).
        """
        live, to, cost = self.live, self.to, self.cost
        n = self.n
        dist: list[int | None] = [None] * n
        parent = [-1] * n
        dirty = [False] * n  # dist dropped since the node was last scanned
        dist[s] = 0
        dirty[s] = True
        limit = None  # t's reduced distance, once a search with potentials reaches t
        for _ in range(n):
            changed = False
            for u in range(n):
                if not dirty[u]:
                    continue
                dirty[u] = False
                du = dist[u]
                if limit is not None and du - pi[u] > limit:
                    continue
                for e in live[u]:
                    v = to[e]
                    nd = du + cost[e]
                    dv = dist[v]
                    if dv is None or nd < dv:
                        dist[v] = nd
                        parent[v] = e
                        changed = True
                        if v != t:
                            dirty[v] = True
                        elif pi is not None:
                            limit = nd - pi[t]
            if not changed:
                break
        else:  # a pass still relaxed after n - 1: the residual has a negative cycle
            raise InvariantViolated("negative cycle in the residual graph")
        return dist, parent

    def _augment(self, s: int, t: int, parent: list[int]) -> int:
        """Push the bottleneck of the parent path from s to t and keep
        ``live`` in step; returns the units pushed."""
        cap, to, live = self.cap, self.to, self.live
        push = None
        v = t
        while v != s:
            e = parent[v]
            push = cap[e] if push is None else min(push, cap[e])
            v = to[e ^ 1]
        if push is None or push <= 0:
            raise InvariantViolated(f"augmenting path can push {push} units")
        v = t
        while v != s:
            e = parent[v]
            u = to[e ^ 1]
            cap[e] -= push
            if not cap[e]:  # full: leaves its tail's list
                out = live[u]
                del out[bisect_left(out, e)]
            if not cap[e ^ 1]:  # the twin gains room: into its tail's list, in order
                insort(live[v], e ^ 1)
            cap[e ^ 1] += push
            v = u
        return push

    def run(self, s: int, t: int) -> tuple[int, int]:
        """Push flow from s to t along successively cheapest paths, up to
        the first path of cost >= 0 or until no path is left.
        Returns (flow, cost).

        The first search scans every node it reaches. Each later one runs
        under potentials ``pi``: the first search's distances (0 for a node
        it left unreached, which no later search reaches), then after each
        augmentation ``pi[v] = min(dist[v], pi[v] + D)``, with ``D`` t's
        reduced distance, so every live edge out of a node the first search
        reached keeps a reduced cost ``cost + pi[u] - pi[v] >= 0``.
        """
        total_flow = 0
        total_cost = 0
        dist, parent = self._shortest_path(s)  # scans t too: the cycle guard covers it
        pi = None
        while dist[t] is not None and dist[t] < 0:
            push = self._augment(s, t, parent)
            total_flow += push
            total_cost += push * dist[t]
            if pi is None:
                pi = [0 if d is None else d for d in dist]
            else:
                limit = dist[t] - pi[t]  # t's reduced distance, D
                pi = [p + limit if d is None or d - p > limit else d for d, p in zip(dist, pi)]
            dist, parent = self._shortest_path(s, t, pi)
        return total_flow, total_cost


def transport(
    supply: list[int],
    demand: list[int],
    arcs: list[tuple[int, int, int]],
) -> tuple[int, int, list[int]]:
    """Profit-maximising flow from left nodes with ``supply`` to right
    nodes with ``demand``: the flow of least cost, where ``-cost`` is the
    profit (see :meth:`FlowNetwork.run`).

    ``arcs`` holds ``(left, right, cost)``, indices into ``supply`` and
    ``demand``, at most one arc per pair (``ValueError`` otherwise); an
    arc's capacity is its left node's supply.
    The run starts from zero with one :func:`replay` walk over all arcs. A
    stop ends the walk of its left node's connected component only (see
    Components in the module docstring), and each component whose walk
    stops short goes on from its walked flow as a network of its own, with
    :func:`resume`. Components are labelled only once a walk stops.
    Returns the flow, its cost and the flow on each arc.
    """
    index = {(i, j): k for k, (i, j, _cost) in enumerate(arcs)}
    if len(index) < len(arcs):
        raise ValueError("two arcs join the same left and right nodes")
    walk = iter(sorted((cost, j, i) for i, j, cost in arcs))
    left = {i: units for i, units in enumerate(supply) if units}
    room = list(demand)
    flow = cost = 0
    flows = [0] * len(arcs)
    component = None  # labelled at the first stop
    while True:
        more, more_cost, shipped, stop = replay(left, room, walk)
        flow += more
        cost += more_cost
        for i, (j, units) in shipped.items():
            flows[index[i, j]] = units
        if stop is None:
            return flow, cost, flows
        if component is None:
            component = _components(len(supply), arcs)
        # The walk is done with this component: resume it on its own.
        ks = component[stop]
        lefts = sorted({arcs[k][0] for k in ks})
        rights = sorted({arcs[k][1] for k in ks})
        for i in lefts:
            left.pop(i, None)
        at_left = {i: n for n, i in enumerate(lefts)}
        at_right = {j: n for n, j in enumerate(rights)}
        more, more_cost, part = resume(
            [supply[i] for i in lefts],
            [demand[j] for j in rights],
            [(at_left[i], at_right[j], c) for i, j, c in (arcs[k] for k in ks)],
            [flows[k] for k in ks],
            False,
        )
        flow += more
        cost += more_cost
        for k, units in zip(ks, part):
            flows[k] = units


def _components(n: int, arcs: list[tuple[int, int, int]]) -> list[list[int]]:
    """For each of the n left nodes, the ids of the arcs of its connected
    component, ascending; arcs join left and right nodes, and the nodes of
    one component share one list."""
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    first: dict[int, int] = {}  # right node -> the first left node joined to it
    for i, j, _cost in arcs:
        root[find(i)] = find(first.setdefault(j, i))
    members: list[list[int]] = [[] for _ in range(n)]
    for k, (i, _j, _cost) in enumerate(arcs):
        members[find(i)].append(k)
    return [members[find(i)] for i in range(n)]


def resume(
    supply: list[int],
    demand: list[int],
    arcs: list[tuple[int, int, int]],
    start: list[int],
    warm: bool,
) -> tuple[int, int, list[int]]:
    """:func:`transport`'s profit-maximising run, from the flow ``start``,
    one flow per arc, instead of from zero (see the module docstring).

    Without ``warm``, ``start`` is a state of the cold run, such as the
    replayed flow, and the run goes on to the cold run's flows. With
    ``warm``, ``start`` must be optimal once the supply of every left node
    without start flow is set to 0, as the flow that ``transport`` returns
    for those supplies is, and the run re-optimises it for every left node;
    otherwise the residual may hold a negative cycle, and one that the
    search reaches raises ``InvariantViolated``. A ``start`` outside the
    capacities, or not one flow per arc, raises ``ValueError``.
    Returns the flow that the run adds, its cost (the optimum's cost minus
    the start flow's) and the flow on each arc.
    """
    right = 1 + len(supply)
    sink = right + len(demand)
    end = sink + 1 if warm else sink  # the warm run's second source
    out = [0] * len(supply)
    into = [0] * len(demand)
    for (i, j, _cost), units in zip(arcs, start):
        out[i] += units
        into[j] += units
    # Warm, the left nodes with start flow are fed from the second source.
    edges = [(end if warm and out[i] else 0, 1 + i, units, 0) for i, units in enumerate(supply)]
    edges += [(1 + i, right + j, supply[i], cost) for i, j, cost in arcs]
    edges += [(right + j, sink, units, 0) for j, units in enumerate(demand)]
    flows = out + start + into
    if warm:
        edges.append((sink, end, sum(supply), 0))
        flows.append(sum(out))
    net = FlowNetwork(end + 1, edges, flows)
    flow, cost = net.run(0, end)
    first = 2 * len(supply)  # index of the first arc; its twin holds its flow
    return flow, cost, net.cap[first + 1 : first + 2 * len(arcs) : 2]


def replay(
    left: dict[int, int],
    room: list[int],
    order: Iterable[tuple[int, int, int]],
) -> tuple[int, int, dict[int, tuple[int, int]], int | None]:
    """The first augmenting paths of a cold :func:`transport` run, without
    Bellman-Ford (see the module docstring).

    ``left`` maps every left node of the network that has a positive
    supply and an arc to the units it has still to ship, and ``room`` holds
    each right node's room; the walk updates both in place. ``order`` holds
    the network's arcs as ``(cost, right, left)``, ascending, at most one
    per pair; an iterator goes on where the last walk over it stopped. Arcs
    of left nodes outside ``left`` are skipped, so the LP oracle passes the
    sorted arcs of its whole instance.
    Returns ``(flow, cost, shipped, stop)``: the flow and cost shipped,
    each shipped left node's ``(right, units)`` in the order shipped, and
    the left node at whose arc the walk stopped short, or ``None`` where
    the walk ended the cold run. After a stop, ``left`` holds the units
    still to ship of each left node not shipped whole.
    """
    flow = cost = 0
    shipped = {}
    if left:
        for c, j, i in order:
            if i not in left:  # outside the query, or already shipped
                continue
            if c >= 0:
                break
            r = room[j]
            if not r:
                return flow, cost, shipped, i
            units = left.pop(i)
            ship = units if units <= r else r
            room[j] = r - ship
            flow += ship
            cost += ship * c
            shipped[i] = (j, ship)
            if ship < units:  # shipped in part: the right node is full
                left[i] = units - ship
                return flow, cost, shipped, i
            if not left:
                break
    return flow, cost, shipped, None
