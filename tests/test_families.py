import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import combench
from combench import CombenchError
from combench.families import (independence_complex, katona_bound,
                               layer_profile, max_family, milner_bound,
                               random_graph_width, width_independence_complex,
                               width_of_complex)
from combench.graphs import complete_graph, cycle_graph, path_graph
from conftest import empty_graph, random_graph
from oracles import brute_force_width


def test_bounds_formulas():
    assert katona_bound(4, 2) == 5
    assert milner_bound(4, 1) == 4
    assert milner_bound(6, 0) == comb(6, 3)  # Sperner


def test_max_family_examples():
    size, fam = max_family(4, k_intersecting=2)
    assert size == 5
    assert all((a & b).bit_count() >= 2 for a in fam for b in fam)
    size, fam = max_family(4, k_intersecting=1, antichain=True)
    assert size == 4
    size, _ = max_family(4, antichain=True, diameter_max=3)
    assert size == 4


def test_katona_milner_sweep_small():
    for n in range(1, 6):
        for k in range(1, n + 1):
            inter, _ = max_family(n, k_intersecting=k)
            anti, _ = max_family(n, k_intersecting=k, antichain=True)
            assert inter == katona_bound(n, k)
            assert anti == milner_bound(n, k)


def test_sperner():
    for n in range(1, 7):
        size, _ = max_family(n, antichain=True)
        assert size == comb(n, n // 2)


def test_constraint_monotonicity():
    for n in (3, 4, 5):
        base, _ = max_family(n, k_intersecting=1)
        tighter, _ = max_family(n, k_intersecting=1, antichain=True)
        assert tighter <= base
        diam, _ = max_family(n, k_intersecting=1, diameter_max=n - 1)
        assert diam <= base


def test_kleitman_diameter_matches_katona_small():
    # Kleitman: the diameter-(n-k) bound agrees with the Katona maximum
    for n in range(2, 6):
        for k in range(1, n):
            diam, _ = max_family(n, diameter_max=n - k)
            assert diam == katona_bound(n, k)


def test_too_large_guard():
    with pytest.raises(CombenchError, match="compatibility clique search"):
        max_family(11)


def test_independence_complex_and_layers():
    g = path_graph(3)
    q = independence_complex(g)
    assert len(q) == 5  # {}, {0}, {1}, {2}, {0,2}
    assert layer_profile(g)[:3] == [1, 3, 1]
    assert max(layer_profile(cycle_graph(5))) == 5


def test_width_small_examples():
    assert width_independence_complex(path_graph(3)) == 3
    rec = width_of_complex(independence_complex(cycle_graph(6)))
    assert rec["width"] == rec["min_chain_cover"] == 9
    for a in rec["antichain"]:
        for b in rec["antichain"]:
            if a != b:
                assert a & b != a and a & b != b


def test_width_matches_brute_force(rng):
    for _ in range(8):
        g = random_graph(rng, rng.randrange(2, 8), 0.4)
        elements = independence_complex(g)
        assert width_of_complex(elements)["width"] == brute_force_width(elements)


def test_dilworth_duality_reported():
    for n in range(3, 9):
        for g in (path_graph(n), cycle_graph(n)):
            rec = width_of_complex(independence_complex(g))
            assert rec["width"] == len(rec["antichain"])
            assert rec["width"] == len(independence_complex(g)) - rec["matching"]


def test_width_conjecture_small():
    for n in range(3, 13):
        for g in (path_graph(n), cycle_graph(n)):
            assert width_independence_complex(g) == max(layer_profile(g))


def test_random_graph_width():
    rec = random_graph_width(10, 1.0, 4, seed=7)
    assert rec == random_graph_width(10, 1.0, 4, seed=7)
    assert all(r >= 1.0 for r in rec["ratios"])  # width >= max layer always
    empty = random_graph_width(8, 0.0, 2, seed=1)
    assert empty["ratios"] == [1.0, 1.0]  # Sperner
    dense = random_graph_width(8, 7.9, 2, seed=2)
    assert all(r >= 1.0 for r in dense["ratios"])


def test_width_complete_graph_trivial():
    assert width_independence_complex(complete_graph(4)) == 4  # singletons
    assert width_independence_complex(empty_graph(3)) == 3


def test_width_replay_check_survives_optimize():
    """Under python -O a corrupted matching still fails the Koenig check."""
    script = """if True:
        import sys
        from combench import families, registry
        if not sys.flags.optimize:
            sys.exit("expected python -O")
        match = families._hopcroft_karp

        def corrupted(n_left, n_right, adj):
            size, match_l, match_r = match(n_left, n_right, adj)
            return size - 1, match_l, match_r

        families._hopcroft_karp = corrupted
        registry.run("sec4.falgas-ravry.width", {"n_max": 5})
    """
    src = str(Path(combench.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert "Koenig extraction mismatch" in proc.stderr
