import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import combench
from combench import CombenchError
from combench.coloring import (Coloring, arrows_vertex,
                               chord_diagram_from_word, chromatic_number,
                               circle_graph, ChordDiagram,
                               edge_chromatic_class, equitable_coloring,
                               extend_pendant_precoloring,
                               has_overfull_subgraph, hyper_strong_chromatic,
                               improper_partition, is_equitable, is_k_critical,
                               is_local_r_coloring, is_proper,
                               k_edge_colorable, min_mono_cycle_partition,
                               pendant_edges, shift_graph_cyclic,
                               strong_chromatic_number, subgraph_contains)
from combench.graphs import (Graph, Hypergraph, complete_graph, cycle_graph,
                             from_graph6, path_graph, petersen_graph,
                             star_graph)
from combench.structure import biclique_number
from conftest import empty_graph, graph_join, random_graph
from oracles import k_edge_colorable_plain


def brute_chromatic(g):
    for k in range(1, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges()):
                return k
    return max(g.n, 0)


def test_chromatic_examples():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(petersen_graph()) == 3
    assert chromatic_number(empty_graph(4)) == 1


def test_chromatic_against_brute_force(rng):
    for _ in range(15):
        g = random_graph(rng, rng.randrange(1, 7), rng.choice([0.3, 0.6]))
        assert chromatic_number(g) == brute_chromatic(g)


def test_edge_class():
    assert edge_chromatic_class(cycle_graph(5)) == (3, 2)
    assert edge_chromatic_class(complete_graph(4)) == (3, 1)
    assert edge_chromatic_class(petersen_graph()) == (4, 2)


def test_edge_coloring_proper(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randrange(2, 8), 0.5)
        if g.edge_count() == 0:
            continue
        chi, _ = edge_chromatic_class(g)
        col = k_edge_colorable(g, chi)
        assert col is not None
        for e1 in col:
            for e2 in col:
                if e1 != e2 and set(e1) & set(e2):
                    assert col[e1] != col[e2]


def test_edge_colouring_matches_plain_search():
    """Trying only the least unused colour returns exactly the colouring the
    search over every colour returns, on every graph with n <= 6 at
    k = Delta and Delta + 1, and with precoloured edges."""
    from combench.generate import all_graphs_cached

    for n in range(1, 7):
        for g in all_graphs_cached(n):
            delta = max(a.bit_count() for a in g.adj)
            for k in (delta, delta + 1):
                assert k_edge_colorable(g, k) == k_edge_colorable_plain(g, k)
    # precoloured colours count as in use, so they are offered too
    g = petersen_graph()
    for precol in ({(0, 1): 3}, {(0, 1): 3, (2, 3): 1}, {(0, 1): 0, (1, 2): 0}):
        for k in (3, 4, 5):
            assert k_edge_colorable(g, k, precol) == \
                k_edge_colorable_plain(g, k, precol)
    star = star_graph(4)
    precol = {e: c for e, c in zip(star.edges(), (2, 0))}
    assert k_edge_colorable(star, 4, precol) == \
        k_edge_colorable_plain(star, 4, precol)


def test_overfull():
    assert has_overfull_subgraph(complete_graph(5)) == 0b11111
    assert has_overfull_subgraph(petersen_graph()) is None
    assert has_overfull_subgraph(complete_graph(4)) is None  # class 1


def test_overfull_implies_class_two():
    from combench.generate import all_graphs_cached

    for g in all_graphs_cached(6):
        if g.edge_count() and has_overfull_subgraph(g) is not None:
            assert edge_chromatic_class(g)[1] == 2


def test_equitable_examples():
    col = equitable_coloring(star_graph(5), 6)
    assert sorted(col.class_sizes()) == [1, 1, 1, 1, 1, 1]
    col = equitable_coloring(cycle_graph(7), 3)
    assert sorted(col.class_sizes()) == [2, 2, 3]
    with pytest.raises(CombenchError, match="need Delta < k"):
        equitable_coloring(complete_graph(5), 3)


def test_equitable_random_large(rng):
    g = Graph(60)
    while g.edge_count() < 120:
        u, v = rng.randrange(60), rng.randrange(60)
        if (u != v and not g.has_edge(u, v)
                and g.adj[u].bit_count() < 5 and g.adj[v].bit_count() < 5):
            g.add_edge(u, v)
    col = equitable_coloring(g, 6)
    assert is_proper(g, col.assignment) and is_equitable(col)
    assert col.class_sizes() == [10] * 6


def test_equitable_replay_check_survives_optimize():
    """Under python -O a colouring that fails the equitability replay is
    still rejected."""
    script = """if True:
        import sys
        from combench import coloring
        from combench.graphs import cycle_graph
        if not sys.flags.optimize:
            sys.exit("expected python -O")
        coloring.is_equitable = lambda c: False
        coloring.equitable_coloring(cycle_graph(7), 3)
    """
    src = str(Path(combench.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert "is not proper and equitable" in proc.stderr


@pytest.mark.parametrize("graph6, k", [("HQ`@?WO", 3), ("GRf@QK", 4)])
def test_equitable_exact_fallback(graph6, k):
    """Graphs with Delta < k where the vertex moves get stuck: the exact
    search still finds a proper colouring with class sizes within one."""
    from combench.coloring import _equitable_by_moves

    g = from_graph6(graph6)
    assert max(a.bit_count() for a in g.adj) < k
    assert _equitable_by_moves(g, k) is None
    col = equitable_coloring(g, k).assignment
    assert len(col) == g.n and set(col) <= set(range(k))
    assert all(col[u] != col[v] for u, v in g.edges())
    sizes = [col.count(c) for c in range(k)]
    assert max(sizes) - min(sizes) <= 1


def test_improper_partition():
    full = (1 << 5) - 1
    assert improper_partition(cycle_graph(5), 2, 2) == (full, 0)
    assert improper_partition(complete_graph(5), 0, 0) is None
    got = improper_partition(cycle_graph(5), 1, 1)
    assert got is not None
    j, k = got
    assert j | k == full and j & k == 0


def test_improper_lovasz_bound(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randrange(2, 8), 0.5)
        if max((a.bit_count() for a in g.adj), default=0) <= 3:
            got = improper_partition(g, 1, 1)
            assert got is not None
            jm, km = got
            for side in (jm, km):
                sub = g.subgraph(side)
                assert max((a.bit_count() for a in sub.adj), default=0) <= 1


def test_strong_chromatic():
    assert strong_chromatic_number(empty_graph(5)) == 1
    assert strong_chromatic_number(Graph(4, [(0, 1), (2, 3)])) == 2
    c4 = strong_chromatic_number(cycle_graph(4))
    assert biclique_number(cycle_graph(4)) <= c4 <= biclique_number(cycle_graph(4)) + 1
    assert strong_chromatic_number(complete_graph(4)) == 4


def test_strong_chromatic_brute_placement_oracle():
    """Replay the definition for C4 and k=3 by hand: some placement of
    3-cliques on the padded 6 vertices must defeat 3-colourability."""
    from combench.coloring import strong_colorable

    assert not strong_colorable(cycle_graph(4), 3)
    assert strong_colorable(cycle_graph(4), 4)


def test_subgraph_contains():
    assert subgraph_contains(petersen_graph(), cycle_graph(5))
    assert subgraph_contains(complete_graph(4), path_graph(4))
    assert not subgraph_contains(cycle_graph(5), complete_graph(3))


def test_arrowing():
    s1 = star_graph(1)
    assert arrows_vertex(cycle_graph(5), s1, 2)         # alpha(C5) = 2 < 3
    assert arrows_vertex(complete_graph(5), complete_graph(3), 2)
    assert not arrows_vertex(complete_graph(4), complete_graph(3), 2)
    assert arrows_vertex(complete_graph(7), complete_graph(3), 3)
    assert not arrows_vertex(complete_graph(6), complete_graph(3), 3)


def test_arrowing_monotone_under_edges(rng):
    s2 = star_graph(2)
    for _ in range(6):
        g = random_graph(rng, 6, 0.4)
        if not arrows_vertex(g, s2, 2):
            continue
        h = g.copy()
        for u in range(6):
            for v in range(u + 1, 6):
                if not h.has_edge(u, v):
                    h.add_edge(u, v)
                    break
        assert arrows_vertex(h, s2, 2)


def test_pendant_precoloring():
    star = star_graph(3)
    pend = pendant_edges(star)
    assert len(pend) == 3
    precol = {e: i for i, e in enumerate(pend)}
    got = extend_pendant_precoloring(star, precol, 3)
    assert got is not None and len(got) == 3
    with pytest.raises(CombenchError, match="share a colour"):
        extend_pendant_precoloring(star, {pend[0]: 0, pend[1]: 0}, 4)
    with pytest.raises(CombenchError, match="is not a pendant edge"):
        extend_pendant_precoloring(complete_graph(4), {(0, 1): 0}, 5)


def test_circle_graph_pentagon_diagonals():
    diag = ChordDiagram([(0, 3), (2, 5), (4, 7), (6, 9), (8, 1)])
    g = circle_graph(diag)
    assert g.edge_count() == 5 and chromatic_number(g) == 3
    k5 = circle_graph(chord_diagram_from_word("abcdeabcde"))
    assert k5.edge_count() == 10 and chromatic_number(k5) == 5


def test_shift_graphs():
    g = shift_graph_cyclic(5, 2, "XOXO")
    assert (g.n, g.edge_count(), chromatic_number(g)) == (10, 5, 3)
    g2 = shift_graph_cyclic(6, 2, "XXOO")
    assert g2.n == 15 and chromatic_number(g2) >= 2
    g3 = shift_graph_cyclic(6, 3, "XOXOXO")
    assert g3.n == 20
    with pytest.raises(CombenchError, match="invalid for r=2"):
        shift_graph_cyclic(6, 2, "XXXO")
    with pytest.raises(CombenchError, match="r must be 2 or 3"):
        shift_graph_cyclic(6, 4, "XOXOXOXO")


def test_hyper_strong_chromatic():
    single = Hypergraph(4, [[0, 1, 2, 3]], k=4)
    rec = hyper_strong_chromatic(single)
    assert rec == {"chi_s": 4, "chi_d": 2, "rank": 4}
    tight = Hypergraph(5, [[i, (i + 1) % 5, (i + 2) % 5] for i in range(5)], k=3)
    rec = hyper_strong_chromatic(tight)
    assert rec["chi_s"] >= max(rec["rank"], rec["chi_d"])
    assert rec["chi_s"] <= rec["chi_d"] ** (rec["rank"] - 1)


def test_chi_d_two_forces_chi_s_rank(rng):
    """Pokrovskiy: chi_d = 2 implies chi_s = rank, on found instances."""
    from combench.graphs import Hypergraph as H

    found = 0
    for trial in range(40):
        n = rng.randrange(4, 7)
        edges = []
        for _ in range(rng.randrange(2, 4)):
            vs = rng.sample(range(n), 3)
            edges.append(vs)
        h = H(n, edges, k=3)
        rec = hyper_strong_chromatic(h)
        if rec["chi_d"] == 2:
            found += 1
            assert rec["chi_s"] == rec["rank"]
    assert found > 0


def test_critical_graphs():
    assert is_k_critical(cycle_graph(7), 3)
    assert is_k_critical(complete_graph(4), 4)
    assert not is_k_critical(cycle_graph(6), 3)
    dirac = graph_join(cycle_graph(5), cycle_graph(5))
    assert is_k_critical(dirac, 6)
    assert min(dirac.adj[v].bit_count() for v in range(10)) == 7  # n/2 + 2


def test_mono_cycle_partition():
    n = 6
    mono = {(u, v): "r" for u in range(n) for v in range(u + 1, n)}
    cnt, parts = min_mono_cycle_partition(n, mono)
    assert cnt == 1 and parts[0] == (1 << n) - 1
    # a 2-colouring needing exactly two pieces
    half = {(u, v): ("r" if v < 3 else "b" if u >= 3 else "g")
            for u in range(n) for v in range(u + 1, n)}
    assert is_local_r_coloring(n, half, 2)
    cnt, parts = min_mono_cycle_partition(n, half)
    assert cnt <= 2
    used = 0
    for p in parts:
        assert not used & p
        used |= p
    assert used == (1 << n) - 1


def test_coloring_checker_replay(rng):
    for _ in range(5):
        g = random_graph(rng, 8, 0.3)
        k = max(a.bit_count() for a in g.adj) + 1 if g.edge_count() else 1
        col = equitable_coloring(g, k + 1)
        assert is_proper(g, col.assignment)
        assert is_equitable(col)
        assert isinstance(col, Coloring)
