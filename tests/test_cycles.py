import hashlib
import itertools

import pytest

from combench.cycles import (DisconnectedError, EdgeAbsentError, LollipopTrace,
                             NotCubicError, count_cycles_of_length,
                             count_ham_cycles, count_ham_through_edge,
                             cycle_space_dimension, explicit_cycle_basis,
                             ham_cycle_edge_counts, ham_path_xy,
                             hamilton_cycles, lollipop_walk, longest_xy_path,
                             simple_cycles, smith_parity_check)
from combench.generate import all_graphs_cached
from combench.graphs import (complete_graph, cycle_graph, disjoint_union,
                             moebius_kantor_graph, petersen_graph,
                             prism_graph, transitive_tournament)
from combench.tournaments import two_factor_one_directed
from conftest import random_graph, random_tournament
from oracles import spanning_tree_dimension_oracle, tournaments_by_dedupe


def brute_count_cycles(g, length):
    """Oracle: enumerate vertex subsets, then distinct spanning cycles on
    each subset up to rotation and reflection."""
    count = 0
    for combo in itertools.combinations(range(g.n), length):
        seen = set()
        for perm in itertools.permutations(combo[1:]):
            seq = (combo[0],) + perm
            if all(g.has_edge(seq[i], seq[(i + 1) % length])
                   for i in range(length)):
                canonical = min(
                    tuple(c[(s + i) % length] for i in range(length))
                    for s in range(length)
                    for c in (seq, tuple(reversed(seq)))
                )
                seen.add(canonical)
        count += len(seen)
    return count


def test_count_cycles_examples():
    assert count_cycles_of_length(cycle_graph(6), 6) == 1
    assert count_cycles_of_length(complete_graph(4), 3) == 4
    assert count_cycles_of_length(petersen_graph(), 5) == 12


def test_count_cycles_against_oracle(rng):
    for _ in range(10):
        n = rng.randrange(4, 7)
        g = random_graph(rng, n, 0.6)
        for length in range(3, n + 1):
            assert count_cycles_of_length(g, length) == brute_count_cycles(g, length)


def test_simple_cycles_enumeration_unique():
    cycles = list(simple_cycles(complete_graph(4)))
    assert len(cycles) == 4 + 3  # four triangles, three 4-cycles
    assert len(set(cycles)) == len(cycles)


def test_cycle_enumerators_pinned_digest():
    """simple_cycles over every graph with n <= 6 and the mixed 2-factors of
    every tournament with 3 <= n <= 6 (the dedupe generator's
    representatives), in order, against a pinned digest."""
    h = hashlib.sha256()
    for n in range(1, 7):
        for g in all_graphs_cached(n):
            h.update(repr(list(simple_cycles(g))).encode())
    for n in range(3, 7):
        for d in tournaments_by_dedupe(n):
            h.update(repr(two_factor_one_directed(d)).encode())
    assert h.hexdigest() == ("817f62cb1626d5f3f5965541e1aee721"
                             "200df0ec4d0e01ec461a1c51a8d96919")


def test_ham_counts():
    assert count_ham_cycles(complete_graph(4)) == 3
    assert count_ham_cycles(cycle_graph(7)) == 1
    assert count_ham_cycles(petersen_graph()) == 0
    assert count_ham_through_edge(complete_graph(4), (0, 1)) == 2
    with pytest.raises(EdgeAbsentError):
        count_ham_through_edge(cycle_graph(5), (0, 2))


def test_edge_count_sum_identity(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randrange(4, 8), 0.6)
        counts = ham_cycle_edge_counts(g)
        if g.n >= 3:
            assert sum(counts.values()) == count_ham_cycles(g) * g.n


def test_smith_parity():
    rep = smith_parity_check(complete_graph(4))
    assert rep["ok"] and set(rep["edge_counts"].values()) == {2}
    rep = smith_parity_check(prism_graph())
    assert rep["ok"]
    rep = smith_parity_check(petersen_graph())
    assert rep["ok"] and set(rep["edge_counts"].values()) == {0}
    with pytest.raises(NotCubicError):
        smith_parity_check(cycle_graph(5))


def test_lollipop_walk_k4():
    g = complete_graph(4)
    ham = next(hamilton_cycles(g))
    tr = lollipop_walk(g, ham, (ham[0], ham[1]))
    assert isinstance(tr, LollipopTrace)
    assert tr.steps >= 1
    assert set(tr.end_cycle) == set(range(4))
    assert tr.end_cycle != tr.start_cycle


def _cycle_edge_set(cyc):
    return {tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)])))
            for i in range(len(cyc))}


def test_lollipop_walk_every_start():
    for g in (prism_graph(), moebius_kantor_graph()):
        hams = list(hamilton_cycles(g))
        ham = hams[0]
        n = g.n
        for i in range(n):
            e = (ham[i], ham[(i + 1) % n])
            tr = lollipop_walk(g, ham, e)
            end_edges = _cycle_edge_set(tr.end_cycle)
            assert len(tr.end_cycle) == n
            assert all(g.has_edge(u, v) for u, v in end_edges)
            assert end_edges != _cycle_edge_set(ham)
            # the fixed endpoint keeps its other cycle edge
            x, y = e
            other = next(w for w in _cycle_edge_set(ham)
                         if x in w and w != tuple(sorted(e)))
            assert other in end_edges


def test_lollipop_finds_enumerated_cycle():
    g = prism_graph()
    all_edge_sets = [_cycle_edge_set(h) for h in hamilton_cycles(g)]
    ham = next(hamilton_cycles(g))
    tr = lollipop_walk(g, ham, (ham[0], ham[1]))
    assert _cycle_edge_set(tr.end_cycle) in all_edge_sets


def test_cycle_space_dimensions():
    assert cycle_space_dimension(complete_graph(4), 2) == 3
    assert cycle_space_dimension(complete_graph(4), 3) == 6
    assert cycle_space_dimension(complete_graph(4), 0) == 6
    assert cycle_space_dimension(cycle_graph(5), 3) == 1
    assert cycle_space_dimension(prism_graph(), 3) == 9
    with pytest.raises(DisconnectedError):
        cycle_space_dimension(disjoint_union(cycle_graph(3), cycle_graph(3)), 2)


def test_cycle_space_gf2_matches_tree_oracle(rng):
    from combench.graphs import is_connected

    done = 0
    while done < 10:
        g = random_graph(rng, rng.randrange(3, 8), 0.6)
        if not is_connected(g):
            continue
        done += 1
        assert cycle_space_dimension(g, 2) == spanning_tree_dimension_oracle(g)


def test_explicit_cycle_basis_reports():
    rec = explicit_cycle_basis(complete_graph(4), 3)
    assert rec["independent_count"] <= 6
    assert rec["is_basis"] == (rec["independent_count"] == 6)
    rec5 = explicit_cycle_basis(complete_graph(5), 3)
    assert 0 < rec5["independent_count"] <= 10
    from combench.cycles import NotThreeEdgeConnectedError

    with pytest.raises(NotThreeEdgeConnectedError):
        explicit_cycle_basis(cycle_graph(5), 3)


def test_xy_paths():
    d = transitive_tournament(4)
    assert ham_path_xy(d, 0, 3) == (0, 1, 2, 3)
    assert ham_path_xy(d, 3, 0) is None
    length, path = longest_xy_path(d, 3, 0)
    assert length == 0 and path is None
    length, path = longest_xy_path(d, 0, 3)
    assert length == 4


def test_xy_paths_against_enumeration(rng):
    for _ in range(10):
        n = rng.randrange(3, 7)
        d = random_tournament(rng, n)
        x, y = 0, n - 1
        best = 0
        for size in range(2, n + 1):
            for combo in itertools.combinations(range(n), size):
                if x not in combo or y not in combo:
                    continue
                inner = [v for v in combo if v not in (x, y)]
                for perm in itertools.permutations(inner):
                    seq = (x,) + perm + (y,)
                    if all(d.has_arc(seq[i], seq[i + 1])
                           for i in range(len(seq) - 1)):
                        best = max(best, size)
        got, _ = longest_xy_path(d, x, y)
        assert got == best


def test_four_strong_tournaments_ham_connected():
    """Cited theorem check at tiny scale: 4-strong implies (x,y)-paths."""
    from combench.generate import tournaments
    from combench.tournaments import is_k_strong

    found = 0
    for t in tournaments(6):
        if is_k_strong(t, 4):
            found += 1
            for x in range(6):
                for y in range(6):
                    if x != y:
                        assert ham_path_xy(t, x, y) is not None
    # no 6-vertex tournament is 4-strong (needs n >= 2k+1 = 9); the loop
    # is the contract check that nothing below the threshold slips through
    assert found == 0
