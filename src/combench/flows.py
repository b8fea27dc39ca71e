"""Menger-style connectivity queries and the max-flow they rest on.

Arc flows (arc-disjoint paths, so edge and arc connectivity) are unit-capacity
augmenting paths found by BFS straight on the bitset out-rows, with no flow
network.  ``FlowNet`` (Dinic) remains for the networks with other
capacities: the split-vertex networks of vertex connectivity and
``alpha_k``'s transportation network.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations

from .graphs import Digraph, Graph, bits

INF = 1 << 60


class FlowNet:
    """Adjacency-list flow network with residual capacities."""

    def __init__(self, n: int):
        self.n = n
        self.head = [[] for _ in range(n)]   # lists of edge indices
        self.to = []
        self.cap = []

    def add(self, u: int, v: int, cap: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int, limit: int = INF) -> int:
        flow = 0
        to, cap, head = self.to, self.cap, self.head
        while flow < limit:
            level = [-1] * self.n
            level[s] = 0
            q = deque([s])
            while q:
                v = q.popleft()
                for e in head[v]:
                    if cap[e] and level[to[e]] < 0:
                        level[to[e]] = level[v] + 1
                        q.append(to[e])
            if level[t] < 0:
                break
            it = [0] * self.n

            def dfs(v: int, pushed: int) -> int:
                if v == t:
                    return pushed
                while it[v] < len(head[v]):
                    e = head[v][it[v]]
                    w = to[e]
                    if cap[e] and level[w] == level[v] + 1:
                        got = dfs(w, min(pushed, cap[e]))
                        if got:
                            cap[e] -= got
                            cap[e ^ 1] += got
                            return got
                    it[v] += 1
                return 0

            while flow < limit:
                pushed = dfs(s, limit - flow)
                if not pushed:
                    break
                flow += pushed
        return flow


def arc_flow(rows, s: int, t: int, limit: int = INF) -> int:
    """Max number of arc-disjoint s-t paths over the out-rows ``rows``, or
    ``limit`` if that is smaller.

    BFS augmenting paths on the bitsets: ``used[u]`` holds the arcs u->v
    that carry flow and ``back[v]`` is its transpose, so the residual row of
    u is ``(rows[u] & ~used[u]) | back[u]``.  Augmenting along u->v cancels
    the unit on v->u when there is one; that is how a Graph's symmetric
    ``adj`` rows give its edge-disjoint paths."""
    n = len(rows)
    used = [0] * n
    back = [0] * n
    tbit = 1 << t
    flow = 0
    while flow < limit:
        parent = [-1] * n
        seen = 1 << s
        queue = [s]
        for u in queue:
            nxt = ((rows[u] & ~used[u]) | back[u]) & ~seen
            if nxt & tbit:
                parent[t] = u
                break
            seen |= nxt
            while nxt:
                low = nxt & -nxt
                v = low.bit_length() - 1
                parent[v] = u
                queue.append(v)
                nxt ^= low
        else:
            return flow
        v = t
        while v != s:
            u = parent[v]
            if back[u] >> v & 1:
                used[v] &= ~(1 << u)
                back[u] &= ~(1 << v)
            else:
                used[u] |= 1 << v
                back[v] |= 1 << u
            v = u
        flow += 1
    return flow


def vertex_flow(rows, s: int, t: int, limit: int = INF) -> int:
    """Max number of internally disjoint s-t paths over the out-rows ``rows``
    (no arc s->t)."""
    n = len(rows)
    net = FlowNet(2 * n)
    for v in range(n):
        net.add(2 * v, 2 * v + 1, 1 if v not in (s, t) else INF)
    for u, row in enumerate(rows):
        for v in bits(row):
            net.add(2 * u + 1, 2 * v, INF)
    return net.max_flow(2 * s + 1, 2 * t, limit)


def _root_cut(rows, best: int) -> int:
    """min(best, min over t of the arc flow from vertex 0 to t).

    Callers start ``best`` at the minimum degree (lambda <= delta), so every
    flow stops at ``best`` without a last failing search."""
    for t in range(1, len(rows)):
        if best == 0:
            break
        best = arc_flow(rows, 0, t, best)
    return best


def _pair_cut(rows, pairs) -> int:
    """min(n-1, min over the pairs (s, t) without an arc s->t of the vertex
    flow from s to t)."""
    best = len(rows) - 1
    for s, t in pairs:
        if not rows[s] >> t & 1:
            best = vertex_flow(rows, s, t, best)
            if best == 0:
                break
    return best


def edge_connectivity(g: Graph) -> int:
    if g.n <= 1:
        return 0
    return _root_cut(g.adj, min(row.bit_count() for row in g.adj))


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity; n-1 for complete graphs."""
    if g.n <= 1:
        return 0
    return _pair_cut(g.adj, combinations(range(g.n), 2))


def arc_strong_connectivity(d: Digraph) -> int:
    """lambda(D): largest k such that D is k-arc-strong (0 if not strong).

    Every minimum cut separates vertex 0 from some t in one direction, so
    the flows from 0 (over ``out``) and to 0 (from 0 over ``inn``) suffice."""
    if d.n <= 1:
        return 0
    delta = min(row.bit_count() for row in d.out + d.inn)
    return _root_cut(d.inn, _root_cut(d.out, delta))


def vertex_strong_connectivity(d: Digraph) -> int:
    """Largest k such that D is k-strong (requires n >= k+1)."""
    if d.n <= 1:
        return 0
    return _pair_cut(d.out, permutations(range(d.n), 2))
