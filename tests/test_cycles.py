import hashlib
import itertools

import pytest

from combench import CombenchError
from combench.cycles import (LollipopTrace, count_cycles_of_length,
                             count_ham_cycles, cycle_space_dimension,
                             cycles_through, gf3_add, ham_cycle_edge_counts,
                             ham_path_xy, hamilton_cycles, lollipop_max_steps,
                             lollipop_walk, reach_table, simple_cycles,
                             smith_parity_check)
from combench.generate import all_graphs_cached, connected_cubic_graphs
from combench.graphs import (complete_graph, cycle_graph, disjoint_union,
                             is_connected, petersen_graph)
from combench.tournaments import two_factor_one_directed
from conftest import (moebius_kantor_graph, prism_graph, random_graph,
                      random_tournament, relabel, transitive_tournament)
from oracles import (connected_cubic_by_dedupe, directed_cycles_oracle,
                     spanning_tree_dimension_oracle, tournaments_by_dedupe)


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


def _random_out_rows(rng, n, digons):
    """Out-rows of a random digraph: every ordered pair independently, or an
    orientation of a random graph when digons are not wanted."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if digons:
                rows[u] |= (rng.random() < 0.5) << v
                rows[v] |= (rng.random() < 0.5) << u
            elif rng.random() < 0.7:
                a, b = (u, v) if rng.random() < 0.5 else (v, u)
                rows[a] |= 1 << b
    return rows


def test_cycles_through_directed_against_oracle(rng):
    """On random digraphs with and without digons, the search lists exactly
    the oracle's cycles, in lexicographic order (the pre-order of a search
    over ascending successors), for min_len 2 and 3 and a max_len cap."""
    for trial in range(40):
        n = rng.randrange(2, 7)
        rows = _random_out_rows(rng, n, digons=trial % 2 == 0)
        avail = rng.randrange(1 << n) if trial % 4 < 2 else (1 << n) - 1
        for pivot in range(n):
            for min_len in (2, 3):
                for max_len in (None, 3):
                    got = list(cycles_through(rows, pivot, avail, min_len,
                                              max_len))
                    want = directed_cycles_oracle(rows, pivot, avail, min_len,
                                                  max_len or n)
                    assert got == sorted(want)


def test_cycles_through_symmetric_rows_give_each_cycle_twice(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randrange(3, 8), 0.6)
        full = (1 << g.n) - 1
        seen: dict = {}
        for s in range(g.n):
            for cyc in cycles_through(g.adj, s, full & -2 << s):
                assert cyc[0] == min(cyc)
                key = frozenset(_cycle_edge_set(cyc))
                seen[key] = seen.get(key, 0) + 1
        assert set(seen.values()) <= {2}
        assert len(seen) == sum(brute_count_cycles(g, k)
                                for k in range(3, g.n + 1))


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


def _seeded_two_local_colourings():
    """Fixed 2-local colourings of K_n: seeded 2-colourings, and seeded
    vertex-split 3-colourings under a seeded relabelling."""
    import random

    for n in (5, 6, 7):
        for seed in range(3):
            rng = random.Random(1000 * n + seed)
            yield n, {(u, v): rng.randrange(2)
                      for u in range(n) for v in range(u + 1, n)}
            split = rng.randrange(1, n)
            label = list(range(n))
            rng.shuffle(label)
            colors = {}
            for u in range(n):
                for v in range(u + 1, n):
                    a, b = sorted((label[u], label[v]))
                    colors[(a, b)] = 0 if v < split else 1 if u >= split else 2
            yield n, colors


def test_cycle_search_callers_pinned_digest():
    """Every output the pivot cycle search feeds beyond simple_cycles and
    the mixed 2-factors, in order, against a digest recorded before the
    searches were merged: Kelly decompositions, disjoint cycle pairs,
    Hamilton cycles of connected cubic graphs (the dedupe generator's
    representatives), cycle counts, and monochromatic cycle partitions."""
    from combench.coloring import is_local_r_coloring, min_mono_cycle_partition
    from combench.generate import regular_tournaments, tournaments
    from combench.tournaments import disjoint_cycles, kelly_decomposition

    h = hashlib.sha256()
    for n in range(1, 8, 2):
        for t in regular_tournaments(n):
            h.update(repr(kelly_decomposition(t)).encode())
    for n in range(1, 8):
        for t in tournaments(n):
            h.update(repr(disjoint_cycles(t, 2)).encode())
    for n in range(4, 13, 2):
        for g in connected_cubic_by_dedupe(n):
            h.update(repr((next(hamilton_cycles(g), None),
                           count_ham_cycles(g))).encode())
    for g in all_graphs_cached(6):
        h.update(repr([count_cycles_of_length(g, k)
                       for k in range(3, 7)]).encode())
    for n, colors in _seeded_two_local_colourings():
        assert is_local_r_coloring(n, colors, 2)
        h.update(repr(min_mono_cycle_partition(n, colors)).encode())
    assert h.hexdigest() == ("d243d1a13792328773176fe2dbe42eb3"
                             "878f40a91febceb8865fab85cd732d9c")


def test_ham_counts():
    assert count_ham_cycles(complete_graph(4)) == 3
    assert count_ham_cycles(cycle_graph(7)) == 1
    assert count_ham_cycles(petersen_graph()) == 0
    assert ham_cycle_edge_counts(complete_graph(4))[(0, 1)] == 2


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
    with pytest.raises(CombenchError, match="needs a cubic graph"):
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
    with pytest.raises(CombenchError, match=r"edge \(0, 4\) not in graph"):
        lollipop_walk(g, ham, (0, 4))


def test_lollipop_max_steps_is_isomorphism_invariant(rng):
    """Every relabelled copy of a connected cubic graph on 8 or 10 vertices
    gets the same lollipop maximum as the catalog's representative."""
    for n in (8, 10):
        for g in connected_cubic_graphs(n):
            want = lollipop_max_steps(g)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                assert lollipop_max_steps(relabel(g, perm)) == want


def test_cycle_space_dimensions():
    assert cycle_space_dimension(complete_graph(4), 2) == 3
    assert cycle_space_dimension(complete_graph(4), 3) == 6
    assert cycle_space_dimension(complete_graph(4), 0) == 6
    assert cycle_space_dimension(cycle_graph(5), 3) == 1
    assert cycle_space_dimension(prism_graph(), 3) == 9
    with pytest.raises(CombenchError, match="defined for connected graphs"):
        cycle_space_dimension(disjoint_union(cycle_graph(3), cycle_graph(3)), 2)


@pytest.mark.parametrize("p", [1, 4, 9, -3])
def test_cycle_space_rejects_non_field(p):
    with pytest.raises(ValueError, match="prime or 0"):
        cycle_space_dimension(complete_graph(5), p)


def test_cycle_space_gf2_matches_tree_oracle(rng):
    from combench.graphs import is_connected

    done = 0
    while done < 10:
        g = random_graph(rng, rng.randrange(3, 8), 0.6)
        if not is_connected(g):
            continue
        done += 1
        assert cycle_space_dimension(g, 2) == spanning_tree_dimension_oracle(g)


def _gf3_sliced(vec):
    return (sum(1 << i for i, a in enumerate(vec) if a == 1),
            sum(1 << i for i, a in enumerate(vec) if a == 2))


def test_gf3_slices_add_and_negate(rng):
    """Bit-sliced GF(3) sums, and negation as swapping the slices, against
    integer arithmetic mod 3: on all nine element pairs, then on random
    vectors."""
    for a in range(3):
        ones, twos = _gf3_sliced([a])
        assert (twos, ones) == _gf3_sliced([-a % 3])
        for b in range(3):
            assert gf3_add(_gf3_sliced([a]), _gf3_sliced([b])) == \
                _gf3_sliced([(a + b) % 3])
    for _ in range(2000):
        k = rng.randrange(1, 40)
        x = [rng.randrange(3) for _ in range(k)]
        y = [rng.randrange(3) for _ in range(k)]
        ones, twos = _gf3_sliced(y)
        assert gf3_add(_gf3_sliced(x), (ones, twos)) == \
            _gf3_sliced([(a + b) % 3 for a, b in zip(x, y)])
        assert gf3_add(_gf3_sliced(x), (twos, ones)) == \
            _gf3_sliced([(a - b) % 3 for a, b in zip(x, y)])


def test_cycle_space_bitset_ranks_match_list_reducer():
    """Over GF(2) and GF(3), the rank of the bitset rows equals the dense
    list reducer's rank over every simple cycle, on every connected graph
    with n <= 7 (3-edge-connected or not)."""
    from combench.cycles import _RowReducer

    checked = 0
    for n in range(2, 8):
        for g in all_graphs_cached(n):
            if not is_connected(g):
                continue
            eidx = {e: i for i, e in enumerate(g.edges())}
            masks = [sum(1 << eidx[min(u, v), max(u, v)]
                         for u, v in zip(cyc, cyc[1:] + cyc[:1]))
                     for cyc in simple_cycles(g)]
            for p in (2, 3):
                red = _RowReducer(len(eidx), p)
                want = sum(red.add(mask) for mask in masks)
                assert cycle_space_dimension(g, p) == want, (g.adj, p)
            checked += 1
    assert checked == 995


def test_xy_paths():
    d = transitive_tournament(4)
    assert ham_path_xy(d, 0, 3) == (0, 1, 2, 3)
    assert ham_path_xy(d, 3, 0) is None


def test_xy_paths_against_enumeration(rng):
    """``reach_table`` holds exactly the vertex sets that some (x,y)-path
    spans, and ``ham_path_xy`` finds a path exactly when one spans all."""
    for _ in range(10):
        n = rng.randrange(3, 7)
        d = random_tournament(rng, n)
        x, y = 0, n - 1
        spans = set()
        for size in range(2, n + 1):
            for combo in itertools.combinations(range(n), size):
                if x not in combo or y not in combo:
                    continue
                inner = [v for v in combo if v not in (x, y)]
                for perm in itertools.permutations(inner):
                    seq = (x,) + perm + (y,)
                    if all(d.has_arc(seq[i], seq[i + 1])
                           for i in range(len(seq) - 1)):
                        spans.add(sum(1 << v for v in combo))
                        break
        reach = reach_table(d, x)
        assert {mask for mask, ends in reach.items() if ends >> y & 1} == spans
        assert (ham_path_xy(d, x, y) is not None) == ((1 << n) - 1 in spans)


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
