"""Successive-shortest-path min-cost flow on small integer networks.

Callers clear rational denominators before building the network, so
capacities and costs are plain (arbitrary-precision) ints and every
optimum maps back to an exact rational. Augmenting paths are found with
Bellman-Ford over the residual graph; starting from the zero flow and
always augmenting along a cheapest path keeps the residual graph free of
negative cycles, so Bellman-Ford stays valid throughout.

Each Bellman-Ford pass visits nodes in index order but scans the out-edges
only of "dirty" nodes, whose distance dropped since they were last scanned
(initially just the source). A node whose distance is unchanged since its
last scan cannot strictly improve any neighbour: every residual edge out of
it already satisfied ``dist[v] <= dist[u] + cost``, distances only fall, and
residual capacities are fixed during the search. Skipping it therefore
leaves every strict ``<`` comparison that could succeed in place, so
``dist``, ``parent`` and the number of passes are exactly those of the full
scan, and so are the augmenting paths and the final flows.
"""

from __future__ import annotations


class FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        """Add a directed edge; returns its index (twin is index ^ 1)."""
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return idx

    def flow_on(self, idx: int) -> int:
        return self.cap[idx ^ 1]

    def _shortest_path(self, s: int):
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        n = self.n
        dist: list[int | None] = [None] * n
        parent = [-1] * n
        dirty = [False] * n  # dist dropped since the node was last scanned
        dist[s] = 0
        dirty[s] = True
        for _ in range(n):
            changed = False
            for u in range(n):
                if not dirty[u]:
                    continue
                dirty[u] = False
                du = dist[u]
                for e in adj[u]:
                    if cap[e] <= 0:
                        continue
                    v = to[e]
                    nd = du + cost[e]
                    dv = dist[v]
                    if dv is None or nd < dv:
                        dist[v] = nd
                        parent[v] = e
                        dirty[v] = True
                        changed = True
            if not changed:
                break
        return dist, parent

    def run(
        self,
        s: int,
        t: int,
        max_flow: int | None = None,
        stop_on_nonnegative: bool = False,
    ) -> tuple[int, int]:
        """Push flow from s to t along successively cheapest paths.

        With ``stop_on_nonnegative`` the loop ends once the cheapest path
        cost is >= 0 (profit-maximizing mode); with ``max_flow`` it ends
        once that many units have been shipped. Returns (flow, cost).
        """
        total_flow = 0
        total_cost = 0
        while max_flow is None or total_flow < max_flow:
            dist, parent = self._shortest_path(s)
            if dist[t] is None:
                break
            if stop_on_nonnegative and dist[t] >= 0:
                break
            push = None
            v = t
            while v != s:
                e = parent[v]
                push = self.cap[e] if push is None else min(push, self.cap[e])
                v = self.to[e ^ 1]
            assert push is not None and push > 0
            if max_flow is not None:
                push = min(push, max_flow - total_flow)
            v = t
            while v != s:
                e = parent[v]
                self.cap[e] -= push
                self.cap[e ^ 1] += push
                v = self.to[e ^ 1]
            total_flow += push
            total_cost += push * dist[t]
        return total_flow, total_cost
