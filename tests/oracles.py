"""Independent oracles for the tests: plain backtracking, permutation
enumeration and scalar loops that the shipped fast paths must agree with."""

import random
from itertools import permutations
from math import factorial, gcd

from combench.graphs import Digraph, Graph, bits


def _count_automorphisms(out: list[int], colors) -> int:
    """Count the permutations that preserve every arc and map each vertex
    to a vertex of the same colour, by direct backtracking."""
    n = len(out)
    inn = [sum(1 << u for u in range(n) if out[u] >> v & 1) for v in range(n)]
    key = [(out[v].bit_count(), inn[v].bit_count(),
            None if colors is None else colors[v]) for v in range(n)]
    count = 0

    def place(v: int, perm: list[int], used: int):
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used >> w & 1 or key[v] != key[w]:
                continue
            ok = True
            for u in range(v):
                if (out[v] >> u & 1) != (out[w] >> perm[u] & 1):
                    ok = False
                    break
                if (out[u] >> v & 1) != (out[perm[u]] >> w & 1):
                    ok = False
                    break
            if ok:
                perm.append(w)
                place(v + 1, perm, used | 1 << w)
                perm.pop()

    place(0, [], 0)
    return count


def brute_force_aut_order(g: Graph, colors=None) -> int:
    """|Aut g|, restricted to colour-preserving maps when colors is given."""
    return _count_automorphisms(g.adj, colors)


def brute_force_aut_order_digraph(d: Digraph, colors=None) -> int:
    return _count_automorphisms(d.out, colors)


def min_perm_certificate(g: Graph) -> bytes:
    """Lexicographically least adjacency encoding over all permutations.

    Factorial-time oracle used to validate canonical-form behaviour on
    tiny graphs (two graphs are isomorphic iff these encodings agree).
    """
    n = g.n
    nbytes = (n + 7) // 8
    best = None
    for perm in permutations(range(n)):
        radj = [0] * n
        for u in range(n):
            for w in bits(g.adj[u]):
                radj[perm[u]] |= 1 << perm[w]
        code = b"".join(radj[v].to_bytes(nbytes, "little") for v in range(n))
        if best is None or code < best:
            best = code
    return best


def check_graph(g: Graph) -> None:
    """Validate the symmetry / no-loop invariants of a Graph."""
    for v in range(g.n):
        assert not g.adj[v] >> v & 1, f"loop at {v}"
        assert g.adj[v] < 1 << g.n
        for w in bits(g.adj[v]):
            assert g.adj[w] >> v & 1, f"asymmetric pair {v},{w}"


def seed_mask_scalar(fam, rng: random.Random, p: float) -> int:
    """GridFamily.seed_mask as one ``rng.random() < p`` per cell, row-major."""
    m = 0
    w = fam.w
    for r in range(fam.n):
        base = (r + 1) * w + 1
        for c in range(fam.n):
            if rng.random() < p:
                m |= 1 << (base + c)
    return m


def random_avoid_entries(n: int, budget: int, seed: int):
    """The arrays of avoidance_scan's random mode as n x n entry lists,
    sampled by the scan's loop over plain lists."""
    rng = random.Random(seed)
    cap = max(n - 2, 0)
    for _ in range(budget):
        entries = [[0] * n for _ in range(n)]
        free = list(range(n * n))
        rng.shuffle(free)
        pos = 0
        for s in range(1, n + 1):
            cnt = rng.randrange(cap + 1)
            for _ in range(cnt):
                if pos < len(free):
                    i, j = divmod(free[pos], n)
                    entries[i][j] = s
                    pos += 1
        yield entries


def polya_graph_count(n: int) -> int:
    """Number of graphs on n unlabeled vertices via the cycle index of the
    pair group."""
    total = 0
    for part in _partitions(n):
        total += _perm_class_size(n, part) * (1 << _pair_cycles(part))
    return total // factorial(n)


def _pair_cycles(part) -> int:
    """Cycles of the induced action on unordered vertex pairs: floor(a/2)
    for pairs inside one a-cycle, gcd(a, b) for pairs across two cycles."""
    c = 0
    for i, a in enumerate(part):
        c += a // 2
        for b in part[i + 1:]:
            c += gcd(a, b)
    return c


def _partitions(n: int):
    def rec(rest, mx):
        if rest == 0:
            yield []
            return
        for p in range(min(rest, mx), 0, -1):
            for tail in rec(rest - p, p):
                yield [p] + tail
    return rec(n, n)


def _perm_class_size(n: int, part) -> int:
    size = factorial(n)
    counts: dict[int, int] = {}
    for p in part:
        counts[p] = counts.get(p, 0) + 1
        size //= p
    for c in counts.values():
        size //= factorial(c)
    return size
