from math import factorial

import hashlib
import inspect

import pytest

from combench.canon import canonical_form, canonical_form_digraph
from combench import CombenchError
from combench.generate import (GenSpec, all_graphs_cached,
                               connected_cubic_graphs, cubic_graphs_all,
                               cyclically_4_edge_connected,
                               generate, graphs_upto, labeled_cubic_count,
                               max_aut_3connected_cubic, regular_tournaments,
                               tournaments)
from combench.graphs import (complete_graph, is_bipartite, is_connected,
                             petersen_graph, to_graph6)
from conftest import certificate, moebius_kantor_graph, prism_graph
from oracles import (cubic_by_dedupe, labeled_regular_tournament_count,
                     polya_graph_count, tournaments_by_dedupe)

KNOWN_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_graph_counts_match_polya():
    for n, count in KNOWN_GRAPH_COUNTS.items():
        assert polya_graph_count(n) == count
    assert polya_graph_count(8) == 12346
    for n in range(1, 7):
        assert len(all_graphs_cached(n)) == polya_graph_count(n)


def test_graph_generation_labeled_identity():
    for n in range(1, 7):
        gs = all_graphs_cached(n)
        total = sum(factorial(n) // canonical_form(g).aut_order for g in gs)
        assert total == 2 ** (n * (n - 1) // 2)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_generated_graphs_distinct_and_ordered():
    gs = all_graphs_cached(6)
    certs = [certificate(g) for g in gs]
    assert certs == sorted(certs)
    assert len(set(certs)) == len(certs)
    # the cached levels, each built from the one below, match one full build
    cached = [[to_graph6(g) for g in all_graphs_cached(n)] for n in range(2, 9)]
    full = graphs_upto(8)
    assert cached == [[to_graph6(g) for g in full[n]] for n in range(2, 9)]
    # pinned representatives and their order
    assert _digest(" ".join(to_graph6(g) for g in full[n]) for n in sorted(full)) \
        == "18710cdd62254c06b5f5e097e54c74137ec5040748158b81cc945fb77ef15595"
    pinned = {("max_degree", 3): ("88d06a36e5c987fdf7d2292a6733f213"
                                  "a809918acc4ccb52e81479610e64dfc5"),
              ("max_edges", 9): ("8b4af211ad09670908742ec37c0801f7"
                                 "aea8e0da0a74e1f682be0cba0422b615"),
              ("bipartite", True): ("d7b33e7478f98da9f1455dd96842975a"
                                    "c03a0118da048cff39396fff4bf07af7")}
    for (key, value), digest in pinned.items():
        spec = GenSpec(7, **{key: value})
        assert _digest(to_graph6(g) for g in generate(spec)) == digest


def test_graph_certificate_catches_a_broken_canonical_order(fresh_tournaments,
                                                            monkeypatch):
    """Split keys sorted in descending order put a minimum-degree (or
    minimum-score) vertex last, so the degree (or score) filter drops
    children that would be accepted, and the level certificate must
    fail."""
    from combench import canon

    source = inspect.getsource(canon._refine)
    assert source.count("keys = sorted(groups)") == 1
    namespace = dict(vars(canon))
    exec(source.replace("keys = sorted(groups)",
                        "keys = sorted(groups, reverse=True)"), namespace)
    monkeypatch.setattr(canon, "_refine", namespace["_refine"])
    with pytest.raises(RuntimeError, match="completeness certificate"):
        graphs_upto(5)
    with pytest.raises(RuntimeError, match="completeness certificate"):
        tournaments(5)


def test_cubic_counts():
    assert [len(connected_cubic_graphs(n))
            for n in (4, 6, 8, 10, 12, 14)] == [1, 2, 5, 19, 85, 509]
    assert len(cubic_graphs_all(8)) == 6  # disconnected K4+K4 included


def test_cubic_labeled_identity():
    assert labeled_cubic_count(4) == 1
    assert labeled_cubic_count(6) == 70
    for n in (4, 6, 8, 10, 12, 14):
        total = sum(factorial(n) // canonical_form(g).aut_order
                    for g in cubic_graphs_all(n))
        assert total == labeled_cubic_count(n)


def test_cubic_generation_against_degree_constrained_oracle():
    """Independent route: canonical augmentation over max-degree-3 graphs."""
    for n in (4, 6, 8):
        oracle = {certificate(g)
                  for g in graphs_upto(n, max_degree=3, final_regular=3)[n]
                  if all(g.adj[v].bit_count() == 3 for v in range(n))}
        mine = {certificate(g) for g in cubic_graphs_all(n)}
        assert oracle == mine


@pytest.fixture
def fresh_cubic():
    """Empty cubic caches before and after the test, so the test counts
    every form from cold and catalogs built under a patch do not outlive
    it."""
    from combench import generate as gen

    caches = (gen.cubic_graphs_all, gen.connected_cubic_graphs,
              gen._cubic_level, gen._diamond_hub_graphs)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def test_cubic_forms(fresh_cubic, monkeypatch):
    from combench import generate as gen

    forms = 0

    def counted(g, colors=None):
        nonlocal forms
        forms += 1
        return canonical_form(g, colors)

    monkeypatch.setattr(gen, "canonical_form", counted)
    assert [len(cubic_graphs_all(n)) for n in range(4, 15, 2)] == \
        [1, 2, 6, 21, 94, 540]
    # edge keys and kept parent forms: 908 forms to n = 14, the irreducible
    # roots included, where the dedupe generator computes 6,543
    assert forms <= 908


def test_cubic_graphs_match_dedupe_oracle():
    """Augmentation finds the classes the certificate-dict generator finds,
    in the same certificate order (the representatives may differ)."""
    for n in range(4, 15, 2):
        assert [certificate(g) for g in cubic_graphs_all(n)] == \
            [certificate(g) for g in cubic_by_dedupe(n)]


@pytest.mark.parametrize("name, key", [("_edge_key", lambda adj, x, y: 0),
                                       ("_five_cycles", lambda adj, x, y: x)])
def test_broken_cubic_rule_fails_its_certificate(name, key, fresh_cubic,
                                                 monkeypatch):
    """A key that calls every edge reducible can make an irreducible edge
    canonical, which loses classes; a key that reads the labels is not an
    invariant, which keeps some classes twice."""
    from combench import generate as gen

    monkeypatch.setattr(gen, name, key)
    with pytest.raises(RuntimeError, match="completeness certificate"):
        cubic_graphs_all(10)


def test_all_cubic_graphs_are_cubic_and_deduped():
    gs = cubic_graphs_all(10)
    for g in gs:
        assert all(g.adj[v].bit_count() == 3 for v in range(g.n))
    certs = {certificate(g) for g in gs}
    assert len(certs) == len(gs)


@pytest.fixture
def fresh_tournaments():
    """Empty tournament caches before and after the test, so the test
    counts every form from cold and catalogs built under a patch do not
    outlive it."""
    from combench import generate as gen

    caches = (tournaments, gen._tournament_level)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def test_tournament_counts(fresh_tournaments, monkeypatch):
    from combench import generate as gen

    forms = searches = 0

    def counted(d, **kwargs):
        nonlocal forms, searches
        forms += 1
        cf = canonical_form_digraph(d, **kwargs)
        searches += cf is not None
        return cf

    monkeypatch.setattr(gen, "canonical_form_digraph", counted)
    assert [len(tournaments(n)) for n in range(1, 9)] == \
        [1, 1, 2, 4, 12, 56, 456, 6880]
    # score filter and orbits: 11,756 forms to n = 8, where the dedupe
    # generator computes 62,422; the root-cell stop answers all but 7,415
    # of them before any descent, against 7,411 classes kept
    assert forms <= 11756
    assert searches <= 7415
    monkeypatch.undo()
    for n in range(1, 7):
        total = sum(factorial(n) // canonical_form_digraph(t).aut_order
                    for t in tournaments(n))
        assert total == 2 ** (n * (n - 1) // 2)


def _rejects(cf, last: int) -> bool:
    """Whether the full form rejects a child whose new vertex is ``last``."""
    return cf.orbits[last] != cf.orbits[cf.labeling.index(last)]


def test_root_cell_stop_answers_for_the_full_form(fresh_tournaments,
                                                  monkeypatch):
    """On every child tried for graphs with n <= 7 and tournaments with
    n <= 6, ``last=`` gives None exactly when the full form rejects, and
    otherwise the full form itself."""
    from combench import generate as gen

    tried = {"graphs": 0, "tournaments": 0}

    def checked(form, catalog):
        def check(g, last):
            tried[catalog] += 1
            quick, full = form(g, last=last), form(g)
            assert (quick is None) == _rejects(full, last)
            if quick is not None:
                assert (quick.bytes, quick.aut_order, quick.labeling,
                        quick.orbits, quick.generators) == \
                    (full.bytes, full.aut_order, full.labeling, full.orbits,
                     full.generators)
            return quick
        return check

    monkeypatch.setattr(gen, "canonical_form",
                        checked(canonical_form, "graphs"))
    monkeypatch.setattr(gen, "canonical_form_digraph",
                        checked(canonical_form_digraph, "tournaments"))
    assert len(graphs_upto(7)[7]) == 1044
    assert len(tournaments(6)) == 56
    assert tried == {"graphs": 1251 + 388, "tournaments": 75 + 30}


def test_full_searches_only_for_kept_classes(fresh_tournaments, monkeypatch):
    """The parents' generators are carried forward and the rejected
    children stop at the root, so the graph catalog to n = 7 and the
    tournament catalog to n = 6 run one full canonical search per class
    kept (the one-vertex base needs none)."""
    from combench import generate as gen

    searches = {"graphs": 0, "tournaments": 0}

    def counted(form, catalog):
        def count(g, **kwargs):
            cf = form(g, **kwargs)
            searches[catalog] += cf is not None
            return cf
        return count

    monkeypatch.setattr(gen, "canonical_form",
                        counted(canonical_form, "graphs"))
    monkeypatch.setattr(gen, "canonical_form_digraph",
                        counted(canonical_form_digraph, "tournaments"))
    levels = graphs_upto(7)
    tours = [tournaments(n) for n in range(1, 7)]
    assert searches == {"graphs": sum(len(levels[k]) for k in range(2, 8)),
                        "tournaments": sum(map(len, tours[1:]))}


def test_tournaments_match_dedupe_oracle():
    """Augmentation finds the classes the global-dict generator finds, in
    the same certificate order (the representatives may differ)."""
    for n in range(1, 9):
        assert [canonical_form_digraph(t).bytes for t in tournaments(n)] == \
            [canonical_form_digraph(t).bytes for t in tournaments_by_dedupe(n)]


@pytest.mark.parametrize("catalog", ["graphs", "tournaments"])
def test_incomplete_level_fails_its_certificate(catalog, fresh_tournaments,
                                                monkeypatch):
    """Dropping the all-ones candidate (the new vertex adjacent to, or
    beating, every parent vertex: always canonical-last) loses a class."""
    from combench import generate as gen

    full = gen._candidates
    monkeypatch.setattr(gen, "_candidates",
                        lambda rows, flip: [m for m in full(rows, flip)
                                            if m != (1 << len(rows)) - 1])
    with pytest.raises(RuntimeError, match="completeness certificate"):
        graphs_upto(5) if catalog == "graphs" else tournaments(5)


def test_regular_tournament_counts():
    assert len(regular_tournaments(3)) == 1
    assert len(regular_tournaments(5)) == 1
    assert len(regular_tournaments(7)) == 3
    assert labeled_regular_tournament_count(3) == 2
    assert labeled_regular_tournament_count(5) == 24
    assert labeled_regular_tournament_count(7) == 2640
    for n in (3, 5, 7):
        total = sum(factorial(n) // canonical_form_digraph(t).aut_order
                    for t in regular_tournaments(n))
        assert total == labeled_regular_tournament_count(n)


def test_genspec_dispatch():
    cubic4 = list(generate(GenSpec(4, class_tag="cubic")))
    assert len(cubic4) == 1 and certificate(cubic4[0]) == certificate(complete_graph(4))
    tours = list(generate(GenSpec(4, class_tag="tournament")))
    assert len(tours) == 4
    bip = list(generate(GenSpec(5, class_tag="graph", bipartite=True)))
    assert all(is_bipartite(g) for g in bip)
    conn = list(generate(GenSpec(5, class_tag="graph", connectivity=2)))
    assert all(is_connected(g) for g in conn)
    with pytest.raises(CombenchError, match="cubic graphs need even n"):
        list(generate(GenSpec(5, class_tag="cubic")))
    with pytest.raises(CombenchError, match="tournament generation capped"):
        list(generate(GenSpec(12, class_tag="tournament")))


def test_genspec_predicates_posthoc():
    for g in generate(GenSpec(6, class_tag="graph", min_degree=2, max_degree=3)):
        degs = [g.adj[v].bit_count() for v in range(g.n)]
        assert min(degs) >= 2 and max(degs) <= 3


def test_max_aut_3connected_cubic():
    assert max_aut_3connected_cubic(4)["max_aut_order"] == 24   # K4
    rec = max_aut_3connected_cubic(6)
    assert rec["max_aut_order"] == 72                           # K_{3,3}
    rec8 = max_aut_3connected_cubic(8)
    # frozen from full enumeration: the cube graph, |Aut(Q3)| = 48
    assert rec8["max_aut_order"] == 48
    assert len(rec8["witnesses"]) == 1
    assert canonical_form(rec8["witnesses"][0]).aut_order == 48


def test_cyclic_edge_connectivity_filter():
    assert cyclically_4_edge_connected(petersen_graph())
    assert cyclically_4_edge_connected(moebius_kantor_graph())
    assert not cyclically_4_edge_connected(prism_graph())
    assert cyclically_4_edge_connected(complete_graph(4))
