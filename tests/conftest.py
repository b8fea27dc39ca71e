import random

import pytest

from combench.canon import canonical_form
from combench.graphs import Digraph, Graph


@pytest.fixture
def rng():
    return random.Random(20140116)


def random_graph(rng, n, p):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_tournament(rng, n):
    d = Digraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                d.add_arc(u, v)
            else:
                d.add_arc(v, u)
    return d


# ---------------------------------------------------------------------------
# named constructions that only tests use


def certificate(g: Graph) -> bytes:
    return canonical_form(g).bytes


def relabel(g: Graph, perm) -> Graph:
    """New graph with vertex v renamed perm[v]."""
    h = Graph(g.n)
    for u, v in g.edges():
        h.add_edge(perm[u], perm[v])
    return h


def reverse(d: Digraph) -> Digraph:
    """New digraph with every arc reversed."""
    r = Digraph(d.n)
    r.out, r.inn = list(d.inn), list(d.out)
    return r


def empty_graph(n: int) -> Graph:
    return Graph(n)


def prism_graph() -> Graph:
    g = Graph(6)
    for i in range(3):
        g.add_edge(i, (i + 1) % 3)
        g.add_edge(3 + i, 3 + (i + 1) % 3)
        g.add_edge(i, 3 + i)
    return g


def moebius_kantor_graph() -> Graph:
    """Generalized Petersen graph GP(8, 3)."""
    g = Graph(16)
    for i in range(8):
        g.add_edge(i, (i + 1) % 8)
        g.add_edge(8 + i, 8 + (i + 3) % 8)
        g.add_edge(i, 8 + i)
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def graph_join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    n = g1.n + g2.n
    g = Graph(n)
    for u, v in g1.edges():
        g.add_edge(u, v)
    for u, v in g2.edges():
        g.add_edge(g1.n + u, g1.n + v)
    for u in range(g1.n):
        for v in range(g2.n):
            g.add_edge(u, g1.n + v)
    return g


def transitive_tournament(n: int) -> Digraph:
    return Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_digraph(n: int) -> Digraph:
    full = (1 << n) - 1
    return Digraph.from_rows(n, [full & ~(1 << v) for v in range(n)])
