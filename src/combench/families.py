"""Extremal set families and antichain widths of independence complexes.

max_family reduces each constraint combination (k-intersecting, antichain,
bounded diameter) to a maximum clique in the compatibility graph over
admissible subsets.  Width computations run Dilworth via minimum chain
cover: bipartite matching (Hopcroft-Karp) on the node-split transitive
comparability relation, with the antichain extracted by Koenig's cover and
replay-verified.
"""

from __future__ import annotations

import random
from collections import deque
from math import comb

from . import CombenchError
from .graphs import Graph, bits
from .structure import max_clique


def katona_bound(n: int, k: int) -> int:
    """Least upper bound for a k-intersecting family on [n]."""
    if (k + n) % 2 == 0:
        t = (k + n) // 2
        return sum(comb(n, j) for j in range(t, n + 1))
    t = (k + n + 1) // 2
    return sum(comb(n, j) for j in range(t, n + 1)) + comb(n - 1, t - 1)


def milner_bound(n: int, k: int) -> int:
    """Least upper bound for a k-intersecting antichain on [n]."""
    t = -(-(n + k) // 2)
    return comb(n, t)


def max_family(n: int, k_intersecting: int | None = None,
               antichain: bool = False, diameter_max: int | None = None):
    """Exact maximum family size under the constraints, with one witness.

    Every pairwise constraint (including A = B for the intersecting one,
    which forces |A| >= k) becomes an edge rule of a compatibility graph;
    the answer is its maximum clique.
    """
    if n > 10:
        raise CombenchError("compatibility clique search; n <= 10")
    subsets = []
    for mask in range(1 << n):
        if k_intersecting is not None and mask.bit_count() < k_intersecting:
            continue
        subsets.append(mask)

    def compatible(a: int, b: int) -> bool:
        if k_intersecting is not None and (a & b).bit_count() < k_intersecting:
            return False
        if antichain and (a & b == a or a & b == b):
            return False
        if diameter_max is not None and (a ^ b).bit_count() > diameter_max:
            return False
        return True

    g = Graph(len(subsets))
    for i in range(len(subsets)):
        for j in range(i + 1, len(subsets)):
            if compatible(subsets[i], subsets[j]):
                g.add_edge(i, j)
    clique_mask = max_clique(g) if subsets else 0
    witness = sorted(subsets[i] for i in bits(clique_mask))
    return len(witness), witness


# ---------------------------------------------------------------------------
# independence complexes and Dilworth width


def independence_complex(g: Graph) -> list[int]:
    """All independent-set masks of g (the empty set included)."""
    result = [0]

    def rec(mask: int, addable: int):
        a = addable
        while a:
            v = (a & -a).bit_length() - 1
            a &= a - 1
            nm = mask | 1 << v
            result.append(nm)
            rec(nm, a & ~g.adj[v])

    rec(0, (1 << g.n) - 1)
    return result


def layer_profile(g: Graph) -> list[int]:
    """|Q^(r)(G)| for r = 0..n."""
    sizes = [0] * (g.n + 1)
    for m in independence_complex(g):
        sizes[m.bit_count()] += 1
    return sizes


def _hopcroft_karp(n_left: int, n_right: int, adj: list[list[int]]):
    """Maximum bipartite matching; returns (size, match_l, match_r)."""
    INF = 1 << 30
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left
    size = 0
    while True:
        q = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        reachable_free = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        if not reachable_free:
            break

        def dfs(u: int) -> bool:
            for v in adj[u]:
                w = match_r[v]
                if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                    match_l[u] = v
                    match_r[v] = u
                    return True
            dist[u] = INF
            return False

        for u in range(n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size, match_l, match_r


def _comparability_adjacency(elements: list[int]) -> list[list[int]]:
    """adj[i] = indices j with elements[i] a proper subset of elements[j]."""
    index = {m: i for i, m in enumerate(elements)}
    adj: list[list[int]] = [[] for _ in elements]
    for j, big in enumerate(elements):
        sub = (big - 1) & big
        while True:
            adj[index[sub]].append(j)
            if sub == 0:
                break
            sub = (sub - 1) & big
    return adj


def width_of_complex(elements: list[int]) -> dict:
    """Width (max antichain size) of the inclusion poset on the given masks.

    Dilworth: width = |elements| - max matching on the node-split
    comparability relation.  The antichain witness comes from Koenig's
    minimum vertex cover and is verified before returning.
    """
    n_el = len(elements)
    if n_el > 10 ** 6:
        raise CombenchError("poset too large")
    adj = _comparability_adjacency(elements)
    m_size, match_l, match_r = _hopcroft_karp(n_el, n_el, adj)
    width = n_el - m_size

    # Koenig: Z = alternating-reachable from unmatched left nodes.
    in_zl = [False] * n_el
    in_zr = [False] * n_el
    q = deque(u for u in range(n_el) if match_l[u] == -1)
    for u in q:
        in_zl[u] = True
    while q:
        u = q.popleft()
        for v in adj[u]:
            if not in_zr[v] and match_l[u] != v:
                in_zr[v] = True
                w = match_r[v]
                if w != -1 and not in_zl[w]:
                    in_zl[w] = True
                    q.append(w)
    # cover = (L not in Z) + (R in Z); antichain = both copies uncovered
    antichain = [elements[i] for i in range(n_el)
                 if in_zl[i] and not in_zr[i]]
    if len(antichain) != width:
        raise RuntimeError(f"Koenig extraction mismatch: antichain of "
                           f"{len(antichain)}, width {width}")
    for i, a in enumerate(antichain):
        for b in antichain[i + 1:]:
            if a & b in (a, b):
                raise RuntimeError("antichain replay failed: two elements "
                                   "are comparable")
    return {"width": width, "antichain": antichain,
            "min_chain_cover": width, "matching": m_size}


def width_independence_complex(g: Graph) -> int:
    return width_of_complex(independence_complex(g))["width"]


def random_graph_width(n: int, c: float, trials: int, seed: int) -> dict:
    """s(G_{n,p}) / max-layer ratios for p = c/n, deterministic under seed."""
    if n < 1 or trials < 1:
        raise CombenchError("need n >= 1 and trials >= 1")
    p = c / n
    ratios = []
    for t in range(trials):
        rng = random.Random((seed * 1_000_003 + t) & 0xFFFFFFFF)
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v)
        elements = independence_complex(g)
        width = width_of_complex(elements)["width"]
        max_layer = max(layer_profile(g))
        ratios.append(width / max_layer)
    mean = sum(ratios) / len(ratios)
    return {"ratios": ratios, "mean": mean, "trials": trials, "seed": seed}
