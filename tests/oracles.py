"""Independent oracles for canonical forms: plain backtracking and
permutation enumeration, no refinement machinery."""

from itertools import permutations

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
