from math import factorial

from combench.canon import _cycle_key, canonical_form, canonical_form_digraph
from combench.generate import all_graphs_cached, cubic_graphs_all, tournaments
from combench.graphs import (Digraph, Graph, complete_bipartite,
                             complete_graph, cycle_graph, disjoint_union,
                             petersen_graph, rotational_tournament)
from conftest import (certificate, prism_graph, random_graph,
                      random_tournament, relabel, transitive_tournament)
from oracles import (brute_force_aut_order, brute_force_aut_order_digraph,
                     min_perm_certificate)


def test_known_aut_orders():
    assert canonical_form(complete_graph(4)).aut_order == 24
    assert canonical_form(cycle_graph(5)).aut_order == 10
    assert canonical_form(complete_bipartite(3, 3)).aut_order == 72
    assert canonical_form(prism_graph()).aut_order == 12
    assert canonical_form(petersen_graph()).aut_order == 120


def test_petersen_brute_force_oracle():
    assert brute_force_aut_order(petersen_graph()) == 120


def test_certificate_invariance(rng):
    for _ in range(60):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert certificate(g) == certificate(relabel(g, perm))


def _random_colors(rng, n):
    k = rng.choice([2, 3])
    return [rng.randrange(k) for _ in range(n)]


def test_aut_order_matches_brute_force(rng):
    for _ in range(40):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        assert canonical_form(g).aut_order == brute_force_aut_order(g)
    for n in range(1, 7):
        for g in all_graphs_cached(n):
            assert canonical_form(g).aut_order == brute_force_aut_order(g)
    # vertex-coloured inputs (hypergraph incidence certificates use them)
    for _ in range(60):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
        colors = _random_colors(rng, n)
        assert (canonical_form(g, colors=colors).aut_order
                == brute_force_aut_order(g, colors))


def _check_regular(rng, g):
    cf = canonical_form(g)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert certificate(relabel(g, perm)) == cf.bytes
    assert cf.aut_order == brute_force_aut_order(g)


def test_regular_graphs_canonical(rng):
    """Regular graphs start from an equitable unit partition, so the search
    is seeded by (triangles, 4-cycles) through each vertex."""
    regular = [g for n in (4, 6, 8, 10) for g in cubic_graphs_all(n)]
    regular += [complete_bipartite(3, 3), petersen_graph(),
                Graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                          if u < u ^ b]),                        # cube
                Graph(8, [(u, (u + d) % 8) for u in range(8)
                          for d in (1, 2)])]                     # C8(1,2)
    for g in regular:
        _check_regular(rng, g)
    # every 4-regular graph on 8 vertices, as complements of cubic graphs:
    # the seed key splits some and leaves others a single cell
    splits = set()
    for c in cubic_graphs_all(8):
        g = c.complement()
        assert all(g.adj[v].bit_count() == 4 for v in range(8))
        splits.add(len({_cycle_key(g.adj, v) for v in range(8)}) > 1)
        _check_regular(rng, g)
    assert splits == {True, False}


def _canonical_last_has_max_degree(g) -> bool:
    last = canonical_form(g).labeling.index(g.n - 1)
    return g.adj[last].bit_count() == max(row.bit_count() for row in g.adj)


def test_canonical_last_vertex_has_max_degree(rng):
    """Degree sorts the root cells in ascending order and later splits
    keep that order, so the canonical-last vertex has maximum degree;
    graph generation filters its children on this.  The graphs are
    enumerated by edge set here, not taken from the generator."""
    checked = 0
    for n in range(1, 6):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for edges in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if edges >> i & 1])
            assert _canonical_last_has_max_degree(g), (n, edges)
            checked += 1
    assert checked == 1099
    for _ in range(200):
        g = random_graph(rng, rng.randrange(6, 10), rng.choice([0.2, 0.5, 0.8]))
        assert _canonical_last_has_max_degree(g)


def test_non_isomorphic_distinguished():
    # same degree sequence, different graphs
    g1 = disjoint_union(cycle_graph(3), cycle_graph(3))
    g2 = cycle_graph(6)
    assert certificate(g1) != certificate(g2)


def test_min_perm_certificate_agrees(rng):
    seen = {}
    for _ in range(40):
        g = random_graph(rng, 5, 0.5)
        key = min_perm_certificate(g)
        c = certificate(g)
        if key in seen:
            assert seen[key] == c
        seen[key] = c
    assert len(set(seen.values())) == len(seen)


def test_digraph_canonical(rng):
    t = rotational_tournament(7)
    cf = canonical_form_digraph(t)
    assert cf.aut_order == brute_force_aut_order_digraph(t) == 21
    for _ in range(30):
        n = rng.randrange(1, 7)
        d = random_tournament(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = type(d)(n)
        for u, v in d.arcs():
            relabeled.add_arc(perm[u], perm[v])
        assert (canonical_form_digraph(d).bytes
                == canonical_form_digraph(relabeled).bytes)
        assert (canonical_form_digraph(d).aut_order
                == brute_force_aut_order_digraph(d))
    for n in range(1, 7):
        for d in tournaments(n):
            assert (canonical_form_digraph(d).aut_order
                    == brute_force_aut_order_digraph(d))
    for _ in range(60):
        n = rng.randrange(1, 8)
        d = Digraph(n)
        p = rng.choice([0.25, 0.5, 0.75])
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < p:
                    d.add_arc(u, v)
        colors = _random_colors(rng, n)
        assert (canonical_form_digraph(d, colors=colors).aut_order
                == brute_force_aut_order_digraph(d, colors))


def test_transitive_tournament_rigid():
    cf = canonical_form_digraph(transitive_tournament(6))
    assert cf.aut_order == 1


def test_colored_canonical_separates():
    g = cycle_graph(6)
    plain = canonical_form(g).aut_order
    colored = canonical_form(g, colors=[0, 1, 0, 1, 0, 1]).aut_order
    assert plain == 12 and colored == 6


def test_labeled_count_identity_small():
    from combench.generate import all_graphs_cached

    for n in range(1, 7):
        total = sum(factorial(n) // canonical_form(g).aut_order
                    for g in all_graphs_cached(n))
        assert total == 2 ** (n * (n - 1) // 2)
