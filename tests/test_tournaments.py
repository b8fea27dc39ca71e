import hashlib
import itertools

import pytest

from combench.generate import regular_tournaments, tournaments
from combench.cycles import reach_table
from combench.graphs import Digraph, directed_cycle, rotational_tournament
from combench import CombenchError
from combench.tournaments import (ColoredBipartite, StrongDecomposition, alpha_k, beta_k,
                                  colored_two_matchings, cut_vertices,
                                  decompose_arc_disjoint_strong,
                                  disjoint_cycles, is_k_strong,
                                  is_path_mergeable, kelly_decomposition,
                                  lambda_arc, partition_into_k_strong,
                                  reversal_arc_strong, reversal_deg,
                                  two_factor_one_directed, verify_kelly)
from conftest import complete_digraph, random_tournament, transitive_tournament
from oracles import tournaments_by_dedupe


def test_connectivity_grades():
    c3 = directed_cycle(3)
    assert lambda_arc(c3) == 1
    assert lambda_arc(complete_digraph(4)) >= 3
    assert is_k_strong(complete_digraph(4), 3)
    assert lambda_arc(rotational_tournament(7)) == 3
    assert lambda_arc(transitive_tournament(5)) == 0


def test_decompose_trivial_and_obstructed():
    c3 = directed_cycle(3)
    dec = decompose_arc_disjoint_strong(c3, 1)
    assert dec is not None and dec.verify(c3)
    assert decompose_arc_disjoint_strong(transitive_tournament(4), 2) is None
    qr = rotational_tournament(7)
    dec = decompose_arc_disjoint_strong(qr, 2)
    assert dec is not None and dec.verify(qr)


def _classes_digest(decs) -> str:
    return hashlib.sha256("\n".join(repr(dec.arc_classes) for dec in decs)
                          .encode()).hexdigest()


def test_decompose_all_two_arc_strong_n6():
    # the digests pin arc classes of the dedupe generator's representatives
    decs = []
    for n in range(3, 8):
        for t in tournaments_by_dedupe(n):
            if lambda_arc(t) >= 2:
                dec = decompose_arc_disjoint_strong(t, 2)
                assert dec is not None and dec.verify(t)
                decs.append(dec)
    assert len(decs) == 93
    assert _classes_digest(decs) == \
        "2078f2d3fe8756fd7f20ff9ea664de98f852244fd898603e9329e49f8271bd34"
    # three classes to full depth: the 3-arc-strong tournaments on 7 vertices
    three = [t for t in tournaments_by_dedupe(7) if lambda_arc(t) >= 3]
    assert len(three) == 3
    decs = [decompose_arc_disjoint_strong(t, 3) for t in three]
    for t, dec in zip(three, decs):
        assert dec is not None and len(dec.arc_classes) == 3 and dec.verify(t)
    assert _classes_digest(decs) == \
        "9aea36150df64e211efd6e8b15be3c2fa009abaf77d7615b13ecf29b3b7573ae"


def test_strong_decomposition_verify_rejects_bad():
    c3 = directed_cycle(3)
    bad = StrongDecomposition(1, [[(0, 1), (1, 2)]])  # misses an arc
    assert not bad.verify(c3)


def test_kelly_small():
    assert kelly_decomposition(directed_cycle(3)) == [(0, 1, 2)]
    for n in (5, 7):
        for t in regular_tournaments(n):
            dec = kelly_decomposition(t)
            assert dec is not None and len(dec) == (n - 1) // 2
            assert verify_kelly(t, dec)
    with pytest.raises(CombenchError, match="must be regular"):
        kelly_decomposition(transitive_tournament(5))


def test_disjoint_cycles():
    two = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert disjoint_cycles(two, 2) is not None
    assert disjoint_cycles(complete_digraph(4), 3) is None  # 2k-2 obstruction
    assert disjoint_cycles(complete_digraph(4), 2) is not None


def test_disjoint_cycles_tournaments_min_outdeg3():
    found = 0
    for t in tournaments(7):
        if min(t.out_degree(v) for v in range(7)) >= 3:
            found += 1
            cycles = disjoint_cycles(t, 2)
            assert cycles is not None
            used = set()
            for cyc in cycles:
                assert len(cyc) >= 3
                assert not used & set(cyc)
                used |= set(cyc)
                assert all(t.has_arc(cyc[i], cyc[(i + 1) % len(cyc)])
                           for i in range(len(cyc)))
    assert found > 0  # the unique regular tournament families qualify


def test_alpha_beta_basics():
    qr = rotational_tournament(7)
    a, keep = alpha_k(qr, 1)
    assert a == 7
    sub = Digraph(7, keep)
    assert all(sub.out_degree(v) >= 1 and sub.in_degree(v) >= 1
               for v in range(7))
    b, witness = beta_k(qr, 1)
    assert b == 7
    assert lambda_arc(Digraph(7, witness)) >= 1
    with pytest.raises(CombenchError, match="lacks degree k in the host"):
        alpha_k(transitive_tournament(5), 1)
    with pytest.raises(CombenchError, match="not k-arc-strong"):
        beta_k(transitive_tournament(5), 1)


def test_alpha_exhaustive_oracle(rng):
    """alpha_1 flow answer vs exhaustive arc-subset search on tiny strong
    tournaments."""
    done = 0
    while done < 4:
        t = random_tournament(rng, 5)
        if lambda_arc(t) < 1:
            continue
        done += 1
        a, _ = alpha_k(t, 1)
        arcs = list(t.arcs())
        best = None
        for size in range(t.n, len(arcs) + 1):
            for combo in itertools.combinations(arcs, size):
                sub = Digraph(5, combo)
                if all(sub.out_degree(v) >= 1 and sub.in_degree(v) >= 1
                       for v in range(5)):
                    best = size
                    break
            if best is not None:
                break
        assert a == best


def test_alpha_equals_beta_small():
    for n in (3, 4, 5):
        for t in tournaments(n):
            if lambda_arc(t) >= 1:
                a, _ = alpha_k(t, 1)
                b, _ = beta_k(t, 1)
                assert a == b == n  # strong tournaments are Hamiltonian
                assert a <= n * 1 + 0  # nk + k(k-1)/2 bound at k=1


def test_reversals():
    qr = rotational_tournament(7)
    assert reversal_arc_strong(qr, 1) == []
    t = transitive_tournament(5)
    arcs = reversal_arc_strong(t, 2)
    assert len(arcs) == 3  # k(k+1)/2 for transitive tournaments
    for u, v in arcs:
        t.remove_arc(u, v)
        t.add_arc(v, u)
    assert lambda_arc(t) >= 2


def test_reversal_identity(rng):
    for _ in range(6):
        t = random_tournament(rng, 6)
        k = 1
        ra = len(reversal_arc_strong(t, k))
        rd = len(reversal_deg(t, k))
        assert ra == max(k - lambda_arc(t), rd)
        assert ra <= k * (k + 1) // 2


def test_path_mergeable():
    assert is_path_mergeable(directed_cycle(5))
    assert is_path_mergeable(complete_digraph(4))
    # two internally disjoint paths with no merged path
    d = Digraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert not is_path_mergeable(d)


def test_pm_theorem_instances(rng):
    from combench.graphs import is_strongly_connected

    found = 0
    for _ in range(80):
        n = rng.randrange(4, 7)
        d = random_tournament(rng, n)
        if is_path_mergeable(d) and is_strongly_connected(d):
            if not cut_vertices(d.underlying_graph()):
                found += 1
                full = (1 << n) - 1
                assert any(reach_table(d, x).get(full) for x in range(n))
    assert found > 0


def test_partition_into_k_strong():
    qr = rotational_tournament(7)
    assert partition_into_k_strong(qr, 1, 1) == [(1 << 7) - 1]
    d6 = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    for u in range(6):
        for v in range(u + 1, 6):
            if not d6.has_arc(u, v) and not d6.has_arc(v, u):
                d6.add_arc(u, v)
    parts = partition_into_k_strong(d6, 2, 1)
    assert parts is not None and parts[0] | parts[1] == 63
    rooted = partition_into_k_strong(d6, 2, 1, roots=[0, 3])
    assert rooted is not None
    assert rooted[0] >> 0 & 1 and rooted[1] >> 3 & 1


def test_two_factor_one_directed():
    assert two_factor_one_directed(directed_cycle(5)) == [(0, 1, 2, 3, 4)]
    acyclic = Digraph(4, [(0, 1), (0, 2), (0, 3)])
    assert two_factor_one_directed(acyclic) is None


def test_colored_two_matchings():
    all_one = ColoredBipartite(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    m1, m2 = colored_two_matchings(all_one)
    assert len(m1) == len(m2) == 2 and not set(m1) & set(m2)
    alternating = ColoredBipartite(3, 3, {
        (0, 0): 1, (0, 1): 2, (1, 1): 1, (1, 2): 2, (2, 2): 1, (2, 0): 2})
    got = colored_two_matchings(alternating)
    assert got is not None
    no_color1 = ColoredBipartite(2, 2, {(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2})
    assert colored_two_matchings(no_color1) is None
