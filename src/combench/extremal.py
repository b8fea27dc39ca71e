"""Turan numbers over the generated F-free graphs, overlapping-cycle
Hamiltonicity and saturation, bipartization cost via exact max-cut, and
3-uniform Ramsey witness search."""

from __future__ import annotations

import itertools

from . import CombenchError
from .canon import canonical_form
from .graphs import Graph, Hypergraph, bits, complete_graph
from .structure import clique_number


def turan_number(n: int, patterns: list[Graph]):
    """ext(n, F) with one extremal witness, or (-1, None) when no graph on
    n vertices is F-free.

    F-freeness is hereditary, so graphs_upto(n, forbidden=F) generates
    exactly the F-free classes; the witness is the first one of most edges
    in certificate order.  Patterns on more than n vertices never occur, and
    when none is left K_n is the answer.  The cost grows with the number of
    F-free classes, which for a dense F nears the whole catalog.
    """
    if not patterns:
        raise CombenchError("forbidden family must be nonempty")
    if n < 1:
        raise CombenchError("need n >= 1")
    if n > 10:
        raise CombenchError("exact Turan numbers computed for n <= 10")
    patterns = tuple(p for p in patterns if p.n <= n)
    if not patterns:
        return n * (n - 1) // 2, complete_graph(n)
    from .generate import graphs_upto

    best, witness = -1, None
    for g in graphs_upto(n, forbidden=patterns)[n]:
        m = g.edge_count()
        if m > best:
            best, witness = m, g
    return best, witness


# ---------------------------------------------------------------------------
# l-overlapping Hamiltonicity and saturation


def _window_edges(order: tuple, k: int, step: int) -> list[int] | None:
    """Edge masks of the l-overlapping cycle on the given cyclic order."""
    n = len(order)
    masks = []
    for s in range(0, n, step):
        mask = 0
        for i in range(k):
            mask |= 1 << order[(s + i) % n]
        masks.append(mask)
    return masks


def is_l_hamiltonian(h: Hypergraph, ell: int) -> bool:
    """Does h contain an l-overlapping Hamiltonian cycle?"""
    k = h.k
    if not k or not 1 <= ell <= k - 1:
        raise CombenchError("need uniform k-graph and 1 <= l <= k-1")
    n = h.n
    step = k - ell
    if n % step:
        raise CombenchError("need (k-l) | n")
    if n // step < 3 or n < k + 1:
        return False
    edge_set = set(h.edges)

    # Backtracking over cyclic orders starting at vertex 0.  Windows that do
    # not wrap are checked as soon as they complete; wrap windows at the end.
    def rec(order: list[int], used: int) -> bool:
        pos = len(order)
        if pos >= k and (pos - k) % step == 0:
            mask = 0
            for i in range(pos - k, pos):
                mask |= 1 << order[i]
            if mask not in edge_set:
                return False
        if pos == n:
            return all(mask in edge_set
                       for mask in _window_edges(tuple(order), k, step))
        for v in range(n):
            if not used >> v & 1:
                order.append(v)
                if rec(order, used | 1 << v):
                    return True
                order.pop()
        return False

    return rec([0], 1)


def is_l_ham_saturated(h: Hypergraph, ell: int) -> bool:
    """Not l-Hamiltonian, but adding any missing edge makes it so."""
    if h.k == 2 and ell == 1:
        return _graph_ham_saturated(h)
    if is_l_hamiltonian(h, ell):
        return False
    present = set(h.edges)
    for combo in itertools.combinations(range(h.n), h.k):
        mask = sum(1 << v for v in combo)
        if mask in present:
            continue
        bigger = Hypergraph(h.n, list(h.edges) + [mask], k=h.k)
        if not is_l_hamiltonian(bigger, ell):
            return False
    return True


def _graph_ham_saturated(h: Hypergraph) -> bool:
    from .cycles import hamilton_cycles

    g = Graph(h.n)
    for e in h.edges:
        u, v = list(bits(e))
        g.add_edge(u, v)
    if any(True for _ in hamilton_cycles(g)):
        return False
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if not g.has_edge(u, v):
                g.add_edge(u, v)
                ham = any(True for _ in hamilton_cycles(g))
                g.adj[u] &= ~(1 << v)
                g.adj[v] &= ~(1 << u)
                if not ham:
                    return False
    return True


def _hypergraph_cert(n: int, edges: tuple) -> bytes:
    """Canonical certificate via the vertex/edge incidence graph."""
    g = Graph(n + len(edges))
    for i, e in enumerate(edges):
        for v in bits(e):
            g.add_edge(v, n + i)
    colors = [0] * n + [1] * len(edges)
    return canonical_form(g, colors=colors).bytes


def sat_search(n: int, k: int, ell: int):
    """Minimum edge count of an l-Hamiltonian-saturated k-graph on n vertices.

    Graph case (k=2) sweeps the generated catalog; hypergraphs search edge
    sets by increasing cardinality with isomorph rejection.
    """
    step = k - ell
    if n % step:
        raise CombenchError("need (k-l) | n")
    if k == 2:
        from .generate import all_graphs_cached

        best, witness = None, None
        for g in all_graphs_cached(n):
            h = Hypergraph(n, [(1 << u) | (1 << v) for u, v in g.edges()], k=2)
            if best is not None and len(h.edges) >= best:
                continue
            if is_l_ham_saturated(h, ell):
                best, witness = len(h.edges), h
        return best, witness
    if n > 7:
        raise CombenchError("hypergraph saturation search; n <= 7")
    all_edges = [sum(1 << v for v in combo)
                 for combo in itertools.combinations(range(n), k)]
    for m in range(0, len(all_edges) + 1):
        seen = set()
        for combo in itertools.combinations(all_edges, m):
            cert = _hypergraph_cert(n, combo)
            if cert in seen:
                continue
            seen.add(cert)
            h = Hypergraph(n, list(combo), k=k)
            if is_l_ham_saturated(h, ell):
                return m, h
    return None, None


# ---------------------------------------------------------------------------
# bipartization via exact max-cut


def max_cut(g: Graph):
    """(cut size, side mask), exact by subset DFS with incremental counts."""
    if g.n > 24:
        raise CombenchError("exact max-cut; n <= 24")
    n = g.n
    best = [0, 0]
    degs = [g.adj[v].bit_count() for v in range(n)]

    def rec(v: int, mask: int, degsum: int, e_in: int):
        # cut(mask) = degsum(mask) - 2 * e_inside(mask)
        cut = degsum - 2 * e_in
        if cut > best[0]:
            best[0] = cut
            best[1] = mask
        if v == n:
            return
        rec(v + 1, mask | 1 << v, degsum + degs[v],
            e_in + (g.adj[v] & mask).bit_count())
        rec(v + 1, mask, degsum, e_in)

    rec(1, 1, degs[0], 0)  # vertex 0 pinned to one side
    rec(1, 0, 0, 0)
    return best[0], best[1]


def bipartization_cost(g: Graph):
    """Minimum edge deletions to make g bipartite, with the cut witness and
    a K_r-freeness report (smallest excluded clique order)."""
    cut, side = max_cut(g)
    cost = g.edge_count() - cut
    omega = clique_number(g) if g.n else 0
    return {"cost": cost, "side_mask": side, "clique_number": omega,
            "k_r_free_for": omega + 1}


# ---------------------------------------------------------------------------
# 3-uniform Ramsey witnesses


def hyper_ramsey_witness(n: int, red_edges: set, t: int):
    """Search a 2-coloured complete 3-graph for a red loose triangle (three
    edges pairwise meeting in one point, no common point) or a blue K_t.

    red_edges holds sorted triples; all other triples are blue.  Returns
    ("red_c3", witness) / ("blue_kt", witness) / None.
    """
    if n > 13:
        raise CombenchError("witness scan; n <= 13")
    red = {tuple(sorted(e)) for e in red_edges}

    # red loose triangle: core {p,q,r} + pendants s,t,u, all six distinct:
    # edges {p,r,s}, {p,q,t}, {q,r,u}
    verts = range(n)
    for p, q, r in itertools.combinations(verts, 3):
        rest = [v for v in verts if v not in (p, q, r)]
        for s, tt, u in itertools.permutations(rest, 3):
            e1 = tuple(sorted((p, r, s)))
            e2 = tuple(sorted((p, q, tt)))
            e3 = tuple(sorted((q, r, u)))
            if e1 in red and e2 in red and e3 in red:
                return ("red_c3", (e1, e2, e3))
    for combo in itertools.combinations(verts, t):
        if all(tuple(sorted(tri)) not in red
               for tri in itertools.combinations(combo, 3)):
            return ("blue_kt", combo)
    return None
