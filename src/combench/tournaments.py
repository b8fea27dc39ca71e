"""Connectivity-graded tournament and digraph problems: arc-disjoint strong
decompositions, Hamilton-cycle decompositions, disjoint cycles, sparse
spanning subdigraphs (alpha_k / beta_k), arc reversals, path-mergeability,
rooted partitions, and the two mixed-factor questions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import CombenchError, flows
from .cycles import cycles_through, reach_table
from .graphs import Digraph, Graph, bits, is_strongly_connected, reachable_set


def lambda_arc(d: Digraph) -> int:
    return flows.arc_strong_connectivity(d)


def is_k_strong(d: Digraph, k: int) -> bool:
    if k <= 0:
        return True
    if d.n < k + 1:
        raise CombenchError("k-strong needs at least k+1 vertices")
    return flows.vertex_strong_connectivity(d) >= k


# ---------------------------------------------------------------------------
# arc-disjoint strong spanning subdigraphs


@dataclass
class StrongDecomposition:
    k: int
    arc_classes: list[list[tuple[int, int]]]

    def verify(self, d: Digraph) -> bool:
        seen = set()
        for cls in self.arc_classes:
            sub = Digraph(d.n)
            for u, v in cls:
                if (u, v) in seen or not d.has_arc(u, v):
                    return False
                seen.add((u, v))
                sub.add_arc(u, v)
            if not is_strongly_connected(sub):
                return False
        return len(seen) == d.arc_count()


def decompose_arc_disjoint_strong(d: Digraph, k: int) -> StrongDecomposition | None:
    """Partition the arcs into k spanning strong classes, or None after an
    exhaustive search.

    Arcs are assigned in order, class by class.  ``hull[c]`` holds the
    out-rows of class c plus every unassigned arc, and every hull is kept
    strong: at the root each is the whole digraph (strong, as lambda >= k),
    and giving (u, v) to class c removes it from every other hull, which
    stays strong exactly when u still reaches v in it.  The check is exact,
    so it prunes only subtrees that hold no decomposition, and every leaf
    (where each hull is its class) is one.  A further bound: each class
    needs n arcs to be spanning and strong.
    """
    if k < 1:
        raise CombenchError("k must be >= 1")
    n = d.n
    arcs = list(d.arcs())
    m = len(arcs)
    if k == 1:
        return (StrongDecomposition(1, [arcs]) if is_strongly_connected(d) else None)
    if flows.arc_strong_connectivity(d) < k:
        return None  # every cut must be crossed by each class

    full = (1 << n) - 1
    hull = [list(d.out) for _ in range(k)]
    class_arcs = [0] * k

    def rec(i: int, used: int) -> bool:
        if i == m:
            return True
        u, v = arcs[i]
        deficit = sum(max(0, n - count) for count in class_arcs)
        if deficit > m - i:
            return False
        bit = 1 << v
        for c in range(min(used + 1, k)):
            others = [hull[o] for o in range(k) if o != c]
            for rows in others:
                rows[u] &= ~bit
            if all(reachable_set(rows, u, full) >> v & 1 for rows in others):
                class_arcs[c] += 1
                if rec(i + 1, max(used, c + 1)):
                    return True
                class_arcs[c] -= 1
            for rows in others:
                rows[u] |= bit
        return False

    if rec(0, 0):
        return StrongDecomposition(k, [[(u, v) for u, v in arcs if out[u] >> v & 1]
                                       for out in hull])
    return None


# ---------------------------------------------------------------------------
# Hamilton cycle decomposition of regular tournaments


def kelly_decomposition(d: Digraph) -> list[tuple] | None:
    """Partition a regular tournament's arcs into (n-1)/2 Hamilton cycles."""
    n = d.n
    if not d.is_tournament():
        raise CombenchError("kelly decomposition needs a tournament")
    if n % 2 == 0 or any(d.out_degree(v) != (n - 1) // 2 for v in range(n)):
        raise CombenchError("tournament must be regular (n odd)")
    if n == 1:
        return []
    full = (1 << n) - 1
    remaining = list(d.out)
    result: list[tuple] = []

    def rec() -> bool:
        if all(r == 0 for r in remaining):
            return True
        u = next(v for v in range(n) if remaining[v])
        rows = list(remaining)
        rows[u] &= -rows[u]  # force the least remaining arc out of u
        for cyc in cycles_through(rows, u, full, n):
            for i in range(n):
                a, b = cyc[i], cyc[(i + 1) % n]
                remaining[a] &= ~(1 << b)
            result.append(cyc)
            if rec():
                return True
            result.pop()
            for i in range(n):
                a, b = cyc[i], cyc[(i + 1) % n]
                remaining[a] |= 1 << b
        return False

    return result if rec() else None


def verify_kelly(d: Digraph, cycles: list[tuple]) -> bool:
    seen = set()
    n = d.n
    for cyc in cycles:
        if len(cyc) != n or len(set(cyc)) != n:
            return False
        for i in range(n):
            a, b = cyc[i], cyc[(i + 1) % n]
            if not d.has_arc(a, b) or (a, b) in seen:
                return False
            seen.add((a, b))
    return len(seen) == d.arc_count()


# ---------------------------------------------------------------------------
# vertex-disjoint directed cycles


def disjoint_cycles(d: Digraph, k: int) -> list[tuple] | None:
    """k vertex-disjoint directed cycles, or None after exhaustive search.

    Digons count as cycles when present; otherwise cycles have >= 3 vertices.
    """
    if k < 0:
        raise CombenchError("k must be >= 0")
    has_digon = any(d.out[u] >> v & 1 and d.out[v] >> u & 1
                    for u, v in d.arcs() if u < v)
    min_len = 2 if has_digon else 3

    def rec(avail: int, need: int, acc: list) -> list | None:
        if need == 0:
            return list(acc)
        if avail.bit_count() < min_len * need:
            return None
        pivot = (avail & -avail).bit_length() - 1
        for cyc in cycles_through(d.out, pivot, avail, min_len):
            mask = sum(1 << v for v in cyc)
            acc.append(cyc)
            got = rec(avail & ~mask, need - 1, acc)
            if got is not None:
                return got
            acc.pop()
        return rec(avail & ~(1 << pivot), need, acc)

    return rec((1 << d.n) - 1, k, [])


# ---------------------------------------------------------------------------
# alpha_k and beta_k


def alpha_k(d: Digraph, k: int):
    """Minimum arcs of a spanning subdigraph with all in/out degrees >= k.

    Computed as m minus a maximum removable set via a transportation flow:
    arcs are removable edges between out-budget and in-budget nodes.
    """
    n = d.n
    if n < 2 * k + 1:
        raise CombenchError("need n >= 2k+1")
    arcs = list(d.arcs())
    for v in range(n):
        if d.out_degree(v) < k or d.in_degree(v) < k:
            raise CombenchError(f"vertex {v} lacks degree k in the host")
    src, sink = 2 * n, 2 * n + 1
    net = flows.FlowNet(2 * n + 2)
    arc_edge = {}
    for v in range(n):
        net.add(src, v, d.out_degree(v) - k)
        net.add(n + v, sink, d.in_degree(v) - k)
    for (u, v) in arcs:
        arc_edge[(u, v)] = len(net.to)
        net.add(u, n + v, 1)
    removed = net.max_flow(src, sink)
    keep = [a for a in arcs if net.cap[arc_edge[a]] == 1]
    dropped = [a for a in arcs if net.cap[arc_edge[a]] == 0]
    if len(dropped) != removed:
        raise RuntimeError("alpha_k: saturated arcs disagree with the flow value")
    return len(arcs) - removed, keep


def beta_k(d: Digraph, k: int):
    """Minimum arcs of a spanning k-arc-strong subdigraph, by maximizing the
    removable arc set with alpha_k as the optimality floor."""
    if flows.arc_strong_connectivity(d) < k:
        raise CombenchError("host digraph is not k-arc-strong")
    arcs = list(d.arcs())
    m = len(arcs)
    floor, _ = alpha_k(d, k)
    cap = m - floor  # cannot remove more than this
    current = d.copy()
    best = {"removed": 0, "witness": list(arcs)}

    def rec(i: int, removed: int):
        if removed > best["removed"]:
            best["removed"] = removed
            best["witness"] = [a for j, a in enumerate(arcs)
                               if not _removed_flags[j]]
        if best["removed"] == cap or i == m:
            return
        if removed + (m - i) <= best["removed"]:
            return
        u, v = arcs[i]
        current.remove_arc(u, v)
        _removed_flags[i] = True
        if flows.arc_strong_connectivity(current) >= k:
            rec(i + 1, removed + 1)
            if best["removed"] == cap:
                current.add_arc(u, v)
                _removed_flags[i] = False
                return
        current.add_arc(u, v)
        _removed_flags[i] = False
        rec(i + 1, removed)

    _removed_flags = [False] * m
    rec(0, 0)
    return m - best["removed"], best["witness"]


# ---------------------------------------------------------------------------
# arc reversals


def _deg_lower_bound(d: Digraph, k: int) -> int:
    lo_out = sum(max(0, k - d.out_degree(v)) for v in range(d.n))
    lo_in = sum(max(0, k - d.in_degree(v)) for v in range(d.n))
    return max(lo_out, lo_in)


def reversal_deg(d: Digraph, k: int) -> list[tuple[int, int]]:
    """Minimum arc set whose reversal gives min in- and out-degree >= k."""
    if d.n < 2 * k + 1:
        raise CombenchError("need n >= 2k+1")
    return _reversal_search(d, k, _deg_lower_bound)


def reversal_arc_strong(d: Digraph, k: int) -> list[tuple[int, int]]:
    """Minimum arc set whose reversal gives a k-arc-strong tournament."""
    if d.n < 2 * k + 1:
        raise CombenchError("need n >= 2k+1")

    def lb(t: Digraph, kk: int) -> int:
        return max(kk - flows.arc_strong_connectivity(t), _deg_lower_bound(t, kk), 0)

    return _reversal_search(d, k, lb)


def _reversal_search(d: Digraph, k: int, lower_bound) -> list[tuple[int, int]]:
    """Fewest arc reversals that bring ``lower_bound(t, k)`` to 0; each
    bound is 0 exactly on the digraphs that meet its target."""
    arcs = list(d.arcs())

    def dfs(t: Digraph, depth_left: int, start: int, chosen: list):
        lb = lower_bound(t, k)
        if lb == 0:
            return list(chosen)
        if lb > depth_left:
            return None
        if depth_left == 0:
            return None
        for i in range(start, len(arcs)):
            u, v = arcs[i]
            if not t.has_arc(u, v):
                continue  # already reversed
            t.remove_arc(u, v)
            t.add_arc(v, u)
            chosen.append((u, v))
            got = dfs(t, depth_left - 1, i + 1, chosen)
            if got is not None:
                return got
            chosen.pop()
            t.remove_arc(v, u)
            t.add_arc(u, v)
        return None

    for budget in range(lower_bound(d, k), len(arcs) + 1):
        got = dfs(d.copy(), budget, 0, [])
        if got is not None:
            return got
    raise CombenchError("no reversal set found")  # cannot happen for tournaments


# ---------------------------------------------------------------------------
# path-mergeable digraphs


def _path_masks(d: Digraph, x: int, y: int) -> set[int]:
    """Vertex masks S such that some (x,y)-path spans exactly S."""
    return {mask for mask, ends in reach_table(d, x).items() if ends >> y & 1}


def is_path_mergeable(d: Digraph) -> bool:
    """Definition check: every two internally disjoint (x,y)-paths merge into
    one (x,y)-path on the union of their vertex sets. Desk scale (n <= 10)."""
    if d.n > 12:
        raise CombenchError("definition check is exponential; n <= 12 only")
    for x in range(d.n):
        for y in range(d.n):
            if x == y:
                continue
            masks = _path_masks(d, x, y)
            ends_mask = 1 << x | 1 << y
            mlist = sorted(masks)
            for s1 in mlist:
                for s2 in mlist:
                    if s1 < s2 and s1 & s2 == ends_mask and (s1 | s2) not in masks:
                        return False
    return True


def cut_vertices(g: Graph) -> list[int]:
    """Cut vertices of an undirected graph (DFS lowpoints)."""
    n = g.n
    num = [-1] * n
    low = [0] * n
    cuts = set()
    counter = [0]

    def dfs(v: int, parent: int):
        num[v] = low[v] = counter[0]
        counter[0] += 1
        children = 0
        for w in bits(g.adj[v]):
            if num[w] == -1:
                children += 1
                dfs(w, v)
                low[v] = min(low[v], low[w])
                if parent != -1 and low[w] >= num[v]:
                    cuts.add(v)
            elif w != parent:
                low[v] = min(low[v], num[w])
        if parent == -1 and children >= 2:
            cuts.add(v)

    for s in range(n):
        if num[s] == -1:
            dfs(s, -1)
    return sorted(cuts)


# ---------------------------------------------------------------------------
# rooted partitions into k-strong parts


def partition_into_k_strong(d: Digraph, t: int, k: int, roots=None):
    """Partition V into t parts, each inducing a k-strong subtournament,
    optionally with root x_i in part i.  Exhaustive search."""
    n = d.n
    if t < 1:
        raise CombenchError("t >= 1")
    if roots is not None and len(roots) != t:
        raise CombenchError("need exactly t roots")
    parts = [0] * t
    if roots is not None:
        for i, r in enumerate(roots):
            parts[i] |= 1 << r
    fixed = 0 if roots is None else sum(1 << r for r in roots)
    free = [v for v in range(n) if not fixed >> v & 1]

    def ok_part(mask: int) -> bool:
        if mask.bit_count() < k + 1:
            return False
        sub = d.subdigraph(mask)
        return flows.vertex_strong_connectivity(sub) >= k if k else True

    def rec(i: int) -> bool:
        if i == len(free):
            return all(ok_part(p) for p in parts)
        v = free[i]
        seen_empty = False
        for j in range(t):
            if parts[j] == 0:
                if seen_empty and roots is None:
                    continue  # empty parts interchangeable
                seen_empty = True
            parts[j] |= 1 << v
            if rec(i + 1):
                return True
            parts[j] &= ~(1 << v)
        return False

    if rec(0):
        return [p for p in parts]
    return None


# ---------------------------------------------------------------------------
# mixed 2-factors and coloured matchings


def _ug_two_factor(g: Graph, avail: int, memo) -> list | None:
    if avail == 0:
        return []
    if avail in memo:
        return memo[avail]
    pivot = (avail & -avail).bit_length() - 1
    for cyc in cycles_through(g.adj, pivot, avail):
        if cyc[1] > cyc[-1]:
            continue
        mask = sum(1 << v for v in cyc)
        rest = _ug_two_factor(g, avail & ~mask, memo)
        if rest is not None:
            memo[avail] = [cyc] + rest
            return memo[avail]
    memo[avail] = None
    return None


def two_factor_one_directed(d: Digraph) -> list | None:
    """2-factor of UG(D) whose first cycle is a directed cycle of D, or None.

    UG(D) is taken simple, so all cycles have >= 3 vertices.
    """
    ug = d.underlying_graph()
    full = (1 << d.n) - 1
    memo: dict = {}
    for pivot in range(d.n):
        for cyc in cycles_through(d.out, pivot, full & -2 << pivot):
            mask = sum(1 << v for v in cyc)
            rest = _ug_two_factor(ug, full & ~mask, memo)
            if rest is not None:
                return [cyc] + rest
    return None


@dataclass
class ColoredBipartite:
    """2-edge-coloured bipartite graph on left size a, right size b."""
    a: int
    b: int
    colors: dict  # (i, j) -> 1 or 2


def colored_two_matchings(bg: ColoredBipartite):
    """(M1, M2): disjoint perfect matchings, M1 all colour 1, M2 any colours."""
    # imported here, so that importing tournaments does not load families
    from .families import _hopcroft_karp

    if bg.a != bg.b:
        return None
    n = bg.a
    adj1 = [[j for j in range(n) if bg.colors.get((i, j)) == 1] for i in range(n)]
    adj_all = [[j for j in range(n) if (i, j) in bg.colors] for i in range(n)]

    def m1_candidates(i, used_r, acc):
        if i == n:
            yield list(acc)
            return
        for j in adj1[i]:
            if not used_r >> j & 1:
                acc.append((i, j))
                yield from m1_candidates(i + 1, used_r | 1 << j, acc)
                acc.pop()

    for m1 in m1_candidates(0, 0, []):
        rest = [[j for j in adj_all[i] if j != m1[i][1]] for i in range(n)]
        size, _, m2r = _hopcroft_karp(n, n, rest)
        if size == n:
            return m1, [(m2r[j], j) for j in range(n)]
    return None
