import itertools

import pytest

from combench import CombenchError
from combench.coloring import subgraph_contains
from combench.extremal import (bipartization_cost, hyper_ramsey_witness,
                               is_l_ham_saturated, is_l_hamiltonian, max_cut,
                               sat_search, turan_number)
from combench.generate import all_graphs_cached, graphs_upto
from combench.graphs import (Graph, Hypergraph, complete_graph, cycle_graph,
                             is_bipartite)
from conftest import random_graph


def test_turan_examples():
    v, w = turan_number(5, [complete_graph(3)])
    assert v == 6 and not subgraph_contains(w, complete_graph(3))
    cycles = [cycle_graph(i) for i in range(3, 6)]
    v, w = turan_number(5, cycles)
    assert v == 4  # forests only
    v, _ = turan_number(6, [cycle_graph(4)])
    assert v == 7
    # a one-vertex pattern leaves no F-free graph, not even on one vertex
    assert turan_number(1, [Graph(1)]) == (-1, None)
    # no pattern fits on n vertices: K_n, with nothing generated
    assert turan_number(10, [complete_graph(11), cycle_graph(12)]) == \
        (45, complete_graph(10))


def test_turan_monotonicity():
    k3 = [complete_graph(3)]
    values = [turan_number(n, k3)[0] for n in (3, 4, 5, 6)]
    assert values == sorted(values)
    both = [complete_graph(3), cycle_graph(4)]
    v_two, _ = turan_number(5, both)
    assert v_two <= turan_number(5, k3)[0]


def test_forbidden_levels_match_filtered_catalog():
    """graphs_upto(n, forbidden=F) generates exactly the F-free classes of
    the catalog, with the same representatives in the same order; at n = 8
    the counts are the published ones."""
    k3, c4 = complete_graph(3), cycle_graph(4)

    def filtered(n, family):
        return [g for g in all_graphs_cached(n)
                if not any(subgraph_contains(g, p) for p in family)]

    for family in ((k3,), (c4,), (complete_graph(4),), (cycle_graph(5),),
                   (k3, c4)):
        levels = graphs_upto(7, forbidden=family)
        for n in range(1, 8):
            assert levels[n] == filtered(n, family), (family, n)
    triangle_free = graphs_upto(8, forbidden=(k3,))[8]
    assert triangle_free == filtered(8, (k3,))
    assert graphs_upto(8, forbidden=(c4,))[8] == filtered(8, (c4,))
    forests = graphs_upto(8, forbidden=tuple(cycle_graph(i)
                                             for i in range(3, 9)))[8]
    # OEIS A006785 and A005195
    assert (len(triangle_free), len(forests)) == (410, 76)
    assert turan_number(8, [k3])[0] == 16
    assert turan_number(8, [c4])[0] == 11


def test_l_hamiltonian():
    tight = Hypergraph(5, [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0],
                           [4, 0, 1]], k=3)
    assert is_l_hamiltonian(tight, 2)
    missing = Hypergraph(5, tight.edges[:-1], k=3)
    assert not is_l_hamiltonian(missing, 2)
    c6 = Hypergraph(6, [(1 << u) | (1 << v) for u, v in cycle_graph(6).edges()],
                    k=2)
    assert is_l_hamiltonian(c6, 1)
    assert not is_l_ham_saturated(c6, 1)
    with pytest.raises(CombenchError, match=r"need \(k-l\) \| n"):
        is_l_hamiltonian(Hypergraph(5, [], k=3), 1)  # (k-l) must divide n


def test_saturation_definition_replay():
    m, h = sat_search(6, 2, 1)
    assert m == 9  # matches ceil(3n/2) at n = 6
    assert is_l_ham_saturated(h, 1)
    # replay: adding any missing pair makes it Hamiltonian
    present = set(h.edges)
    for u, v in itertools.combinations(range(6), 2):
        mask = (1 << u) | (1 << v)
        if mask not in present:
            bigger = Hypergraph(6, list(h.edges) + [mask], k=2)
            assert is_l_hamiltonian(bigger, 1)


def test_sat_search_tiny_hypergraph():
    m, h = sat_search(6, 3, 1)
    if m is not None:
        assert is_l_ham_saturated(h, 1)


def test_max_cut_and_bipartization(rng):
    assert bipartization_cost(cycle_graph(5))["cost"] == 1
    assert bipartization_cost(complete_graph(4))["cost"] == 2
    assert bipartization_cost(cycle_graph(6))["cost"] == 0
    for _ in range(10):
        g = random_graph(rng, rng.randrange(2, 9), 0.5)
        rec = bipartization_cost(g)
        assert (rec["cost"] == 0) == is_bipartite(g)
        cut, side = max_cut(g)
        # the two sides witness the deletion set
        inside = sum((g.adj[v] & side).bit_count() for v in range(g.n)
                     if side >> v & 1) // 2
        comp = ((1 << g.n) - 1) & ~side
        inside += sum((g.adj[v] & comp).bit_count() for v in range(g.n)
                      if comp >> v & 1) // 2
        assert inside == rec["cost"]


def test_blowup_quarter_bound():
    blow = Graph(10)
    for i in range(5):
        for a in (0, 1):
            for b in (0, 1):
                blow.add_edge(2 * i + a, 2 * ((i + 1) % 5) + b)
    rec = bipartization_cost(blow)
    assert rec["cost"] == 4 == 10 * 10 // 25
    assert rec["k_r_free_for"] == 3  # triangle-free


def test_hyper_ramsey():
    allred = {t for t in itertools.combinations(range(6), 3)}
    kind, wit = hyper_ramsey_witness(6, allred, 4)
    assert kind == "red_c3"
    e1, e2, e3 = wit
    sets = [set(e) for e in (e1, e2, e3)]
    assert all(len(a & b) == 1 for a, b in itertools.combinations(sets, 2))
    assert not (sets[0] & sets[1] & sets[2])
    kind, wit = hyper_ramsey_witness(6, set(), 5)
    assert kind == "blue_kt" and len(wit) == 5
    # loose triangles need six vertices, so n=5 all-red has no red C3
    allred5 = {t for t in itertools.combinations(range(5), 3)}
    assert hyper_ramsey_witness(5, allred5, 6) is None


def test_hyper_ramsey_random_verdicts(rng):
    for _ in range(5):
        red = {t for t in itertools.combinations(range(7), 3)
               if rng.random() < 0.5}
        verdict = hyper_ramsey_witness(7, red, 4)
        if verdict is not None and verdict[0] == "blue_kt":
            combo = verdict[1]
            assert all(tuple(sorted(t)) not in red
                       for t in itertools.combinations(combo, 3))
