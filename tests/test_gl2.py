import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import combench
from combench import CombenchError
from combench.gl2 import (_row_span, apply_word, diameter,
                          distance, greedy_reduce, identity, is_invertible,
                          pack, random_invertible, unpack)


def invert(rows, n):
    work = [rows[i] | (1 << (n + i)) for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if work[r] >> c & 1)
        work[c], work[piv] = work[piv], work[c]
        for r in range(n):
            if r != c and work[r] >> c & 1:
                work[r] ^= work[c]
    return tuple(w >> n for w in work)


def test_pack_unpack_roundtrip(rng):
    for _ in range(10):
        n = rng.randrange(1, 6)
        m = random_invertible(n, rng)
        assert unpack(pack(m, n), n) == m


def test_distance_basics():
    assert distance(identity(3), 3) == (0, [])
    single = (0b11, 0b10)  # identity plus one row addition
    d, word = distance(single, 2)
    assert d == 1 and apply_word(single, word) == identity(2)
    swap = (0b10, 0b01)
    d, word = distance(swap, 2)
    assert d == 3
    assert apply_word(swap, word) == identity(2)
    with pytest.raises(CombenchError, match="not invertible"):
        distance((0b11, 0b11), 2)


def test_diameters():
    assert diameter(2)["diameter"] == 3
    assert diameter(2)["group_order"] == 6
    d3 = diameter(3)
    assert d3["group_order"] == 168
    d4 = diameter(4)
    assert d4["group_order"] == 20160
    assert d4["diameter"] >= d3["diameter"] >= 3


def test_distance_symmetric_under_inverse(rng):
    for n in (2, 3):
        for _ in range(25):
            m = random_invertible(n, rng)
            mi = invert(m, n)
            assert distance(m, n)[0] == distance(mi, n)[0]


def test_distance_triangle_inequality(rng):
    for _ in range(15):
        a = random_invertible(3, rng)
        b = random_invertible(3, rng)
        # product over GF(2): rows of a*b
        prod = tuple(
            _row_times_matrix(a[i], b, 3) for i in range(3))
        assert distance(prod, 3)[0] <= distance(a, 3)[0] + distance(b, 3)[0]


def _row_times_matrix(row, m, n):
    out = 0
    for j in range(n):
        if row >> j & 1:
            out ^= m[j]
    return out


def test_column_row_diameter_symmetry():
    # transposing the generators (column ops) gives the same diameter
    for n in (2, 3):
        dist, _ = _transpose_bfs(n)
        assert max(dist.values()) == diameter(n)["diameter"]


def _transpose_bfs(n):
    from collections import deque

    def col_add(rows, i, j):
        # add column j to column i
        out = list(rows)
        for r in range(n):
            if out[r] >> j & 1:
                out[r] ^= 1 << i
        return tuple(out)

    start = identity(n)
    dist = {start: 0}
    q = deque([start])
    while q:
        m = q.popleft()
        for i in range(n):
            for j in range(n):
                if i != j:
                    m2 = col_add(m, i, j)
                    if m2 not in dist:
                        dist[m2] = dist[m] + 1
                        q.append(m2)
    return dist, None


def test_greedy_reduce_replay_and_bound(rng):
    for _ in range(120):
        m = random_invertible(4, rng)
        exact, _ = distance(m, 4)
        cnt, ops = greedy_reduce(m, 4)
        assert apply_word(m, ops) == identity(4)
        assert cnt >= exact


def test_greedy_reduce_larger_sizes(rng):
    for n in (8, 16, 32, 64):
        for _ in range(5):
            m = random_invertible(n, rng)
            cnt, ops = greedy_reduce(m, n)
            assert apply_word(m, ops) == identity(n)
    assert greedy_reduce(identity(16), 16)[0] == 0


def test_greedy_reduce_every_small_matrix():
    """Every n x n matrix for n <= 4, against the rank oracle |row span|:
    singular ones raise SingularError, the others reduce to the identity."""
    for n in range(1, 5):
        for key in range(1 << (n * n)):
            rows = unpack(key, n)
            invertible = len(_row_span(list(rows))) == 1 << n
            assert is_invertible(rows, n) == invertible
            if invertible:
                cnt, word = greedy_reduce(rows, n)
                assert cnt == len(word)
                assert apply_word(rows, word) == identity(n)
            else:
                with pytest.raises(CombenchError, match="not invertible"):
                    greedy_reduce(rows, n)


def test_greedy_reduce_rejects_singular(rng):
    """Singular matrices wide enough for pivot blocks of several rows: one
    row is replaced by the sum of a random nonempty set of the others."""
    for n in (16, 24, 40, 64):
        for _ in range(5):
            rows = list(random_invertible(n, rng))
            i = rng.randrange(n)
            others = [r for r in range(n) if r != i]
            rows[i] = 0
            for r in rng.sample(others, rng.randrange(1, n)):
                rows[i] ^= rows[r]
            assert not is_invertible(rows, n)
            with pytest.raises(CombenchError, match="not invertible"):
                greedy_reduce(rows, n)


def test_greedy_count_band(rng):
    tot = 0
    for _ in range(5):
        m = random_invertible(128, rng)
        cnt, _ = greedy_reduce(m, 128)
        tot += cnt
    ratio = (tot / 5) / (128 * 128 / math.log2(128))
    assert 1.0 <= ratio <= 3.0  # reported band, not an asymptotic claim


def test_mitm_n5():
    m5 = (0b00010, 0b00001, 0b10000, 0b01000, 0b00100)
    d, word = distance(m5, 5)
    assert apply_word(m5, word) == identity(5)
    assert d == len(word) > 0
    assert distance(identity(5), 5)[0] == 0


def test_greedy_replay_check_survives_optimize():
    """Under python -O a corrupted reduction word still fails the replay."""
    script = """if True:
        import sys
        from combench import gl2, registry
        if not sys.flags.optimize:
            sys.exit("expected python -O")
        reduce = gl2.greedy_reduce

        def corrupted(rows, n):
            count, word = reduce(rows, n)
            return count, word[1:]

        gl2.greedy_reduce = corrupted
        registry.run("sec7.markstrom.gl2-greedy", {"n": 8, "trials": 3})
    """
    src = str(Path(combench.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert "does not replay to the identity" in proc.stderr
