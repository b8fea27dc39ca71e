"""Exact structural invariants: mad, cliques, independence, bicliques."""

from __future__ import annotations

from fractions import Fraction

from . import CombenchError
from .graphs import Graph, bits


def mad(g: Graph) -> Fraction:
    """Maximum average degree max_H 2|E(H)|/|V(H)|, exact.

    Induced subgraphs suffice: restricting a witness to its own vertex set
    only adds edges.  An exhaustive subset sweep, so n <= 20 only.
    """
    if g.n < 1:
        raise CombenchError("mad needs at least one vertex")
    if g.n > 20:
        raise CombenchError("mad is a subset sweep; n <= 20")
    e_table = [0] * (1 << g.n)
    best_e, best_k = 0, 1
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        rest = mask ^ low
        v = low.bit_length() - 1
        e = e_table[rest] + (g.adj[v] & rest).bit_count()
        e_table[mask] = e
        k = mask.bit_count()
        if e * best_k > best_e * k:
            best_e, best_k = e, k
    return Fraction(2 * best_e, best_k)


# ---------------------------------------------------------------------------
# maximum clique / independent set (bitset branch-and-bound)


def max_clique(g: Graph) -> int:
    """Bitmask of a maximum clique; branch and bound with greedy color bound."""
    n = g.n
    if n == 0:
        return 0
    best = [0, 0]  # size, mask
    adj = g.adj

    def color_bound(cand: int) -> list[tuple[int, int]]:
        """Greedy coloring of candidates; returns (vertex, color), high colors last."""
        out = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                out.append((v, color))
                rest &= ~(1 << v)
                avail &= ~adj[v] & rest
        return out

    def expand(cand: int, size: int, mask: int) -> None:
        colored = color_bound(cand)
        for v, c in reversed(colored):
            if size + c <= best[0]:
                return
            nmask = mask | 1 << v
            ncand = cand & adj[v]
            if size + 1 > best[0]:
                best[0] = size + 1
                best[1] = nmask
            if ncand:
                expand(ncand, size + 1, nmask)
            cand &= ~(1 << v)

    full = (1 << n) - 1
    expand(full, 0, 0)
    return best[1]


def max_independent_set(g: Graph) -> int:
    """Bitmask of a maximum independent set (max clique of the complement)."""
    if g.n < 1:
        raise CombenchError("need n >= 1")
    return max_clique(g.complement())


def independence_number(g: Graph) -> int:
    return max_independent_set(g).bit_count()


def clique_number(g: Graph) -> int:
    return max_clique(g).bit_count()


def biclique_number(g: Graph) -> int:
    """Largest a+b with K_{a,b} as a (not necessarily induced) subgraph."""
    if g.n < 2:
        raise CombenchError("need n >= 2")
    if g.edge_count() == 0:
        raise CombenchError("biclique number undefined for empty graphs")
    best = 0
    full = (1 << g.n) - 1
    for a_mask in range(1, 1 << g.n):
        asz = a_mask.bit_count()
        common = full
        for v in bits(a_mask):
            common &= g.adj[v]
            if not common:
                break
        cand = common & ~a_mask
        if cand:
            best = max(best, asz + cand.bit_count())
    return best
