"""Independent oracles for the tests: plain backtracking, permutation
enumeration and scalar loops that the shipped fast paths must agree with."""

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, gcd

from combench.canon import canonical_form, canonical_form_digraph
from combench import CombenchError
from combench.generate import (_insert_edge_pair, _irreducible_unions,
                               _orbit_reps, labeled_cubic_count)
from combench.graphs import Digraph, Graph, bits, complete_graph, is_connected
from combench.structure import max_clique
from conftest import grid_graph


def edges_inside(g: Graph, mask: int) -> int:
    """Edges of g with both ends in ``mask``."""
    return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2


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


@dataclass
class PercRule:
    kind: str       # "majority" | "threshold"
    r: int = 0      # threshold value for the threshold rule

    def needed(self, degree: int) -> int:
        if self.kind == "majority":
            # strictly more than half; degree-0 vertices never convert
            return degree // 2 + 1
        if self.kind == "threshold":
            return self.r
        raise ValueError(f"unknown rule {self.kind!r}")


MAJORITY = PercRule("majority")


def threshold_rule(r: int) -> PercRule:
    return PercRule("threshold", r)


def percolate(g: Graph, rule: PercRule, infected: int):
    """(closure mask, rounds) of bootstrap percolation on any graph:
    synchronous sweeps to the least fixed point.  The generic engine the
    packed grid closure is checked against."""
    need = [rule.needed(g.adj[v].bit_count()) for v in range(g.n)]
    cur = infected
    rounds = 0
    while True:
        new = cur
        for v in range(g.n):
            if not cur >> v & 1 and (g.adj[v] & cur).bit_count() >= max(need[v], 1):
                new |= 1 << v
        if new == cur:
            return cur, rounds
        cur = new
        rounds += 1


def percolate_rounds_oracle(g: Graph, rule: PercRule, infected: int):
    """Naive round-by-round recomputation; independent of percolate()."""
    need = [rule.needed(g.adj[v].bit_count()) for v in range(g.n)]
    state = {v for v in range(g.n) if infected >> v & 1}
    rounds = 0
    while True:
        add = {v for v in range(g.n)
               if v not in state
               and sum(1 for w in bits(g.adj[v]) if w in state) >= max(need[v], 1)}
        if not add:
            mask = sum(1 << v for v in state)
            return mask, rounds
        state |= add
        rounds += 1


def closure_equals_graph_engine(fam, infected_cells) -> bool:
    """GridFamily's packed 2-neighbour closure, unpacked to row-major cells,
    equals the generic engine's closure on the grid graph."""
    n, w = fam.n, fam.w
    packed = seed = 0
    for r, c in infected_cells:
        packed |= 1 << ((r + 1) * w + (c + 1))
        seed |= 1 << (r * n + c)
    closure, _ = percolate(grid_graph(n, n), threshold_rule(2), seed)
    filled = fam._closure2(packed)
    unpacked = sum(1 << (r * n + c) for r in range(n) for c in range(n)
                   if filled >> ((r + 1) * w + (c + 1)) & 1)
    return unpacked == closure


def brute_force_max_independent(g: Graph) -> int:
    """Maximum independent-set size over all subsets."""
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() > best and edges_inside(g, mask) == 0:
            best = mask.bit_count()
    return best


def brute_force_width(elements: list[int]) -> int:
    """Max antichain by clique search on the incomparability graph."""
    g = Graph(len(elements))
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            a, b = elements[i], elements[j]
            if a & b != a and a & b != b:
                g.add_edge(i, j)
    if g.edge_count() == 0:
        return 1 if elements else 0
    return max_clique(g).bit_count()


def spanning_tree_dimension_oracle(g: Graph) -> int:
    """|E| - |V| + 1, the GF(2) cycle-space dimension of a connected graph."""
    if not is_connected(g):
        raise CombenchError("cycle space dimension defined for connected graphs")
    return g.edge_count() - g.n + 1


def directed_cycles_oracle(rows, pivot: int, avail: int, min_len: int,
                           max_len: int) -> list[tuple]:
    """Every simple directed cycle through pivot whose other vertices lie in
    avail, with min_len..max_len vertices, as tuples starting at pivot, by
    trying every ordering of every vertex subset."""
    others = [v for v in bits(avail) if v != pivot]
    found = []
    for size in range(max(min_len, 2), max_len + 1):
        for combo in combinations(others, size - 1):
            for perm in permutations(combo):
                seq = (pivot,) + perm
                if all(rows[seq[i - 1]] >> seq[i] & 1 for i in range(size)):
                    found.append(seq)
    return found


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


@lru_cache(maxsize=None)
def tournaments_by_dedupe(n: int) -> tuple[Digraph, ...]:
    """All tournaments on n vertices up to isomorphism: every beat-pattern of
    every parent, deduped in one certificate dict."""
    if n < 1:
        return ()
    if n == 1:
        return (Digraph(1),)
    found: dict[bytes, Digraph] = {}
    for parent in tournaments_by_dedupe(n - 1):
        for pattern in range(1 << (n - 1)):
            rows = list(parent.out) + [pattern]
            for v in range(n - 1):
                if not pattern >> v & 1:
                    rows[v] |= 1 << (n - 1)
            child = Digraph.from_rows(n, rows)
            cert = canonical_form_digraph(child).bytes
            if cert not in found:
                found[cert] = child
    return tuple(d for _, d in sorted(found.items()))


@lru_cache(maxsize=None)
def cubic_by_dedupe(n: int) -> tuple[Graph, ...]:
    """All cubic graphs (connected or not) on n vertices, up to isomorphism:
    every child of one edge pair per orbit of each parent, plus the
    irreducible unions, deduped in one certificate dict per level.

    Raises RuntimeError if the level fails its completeness certificate
    sum(n!/|Aut G|) == labeled_cubic_count(n)."""
    if n < 4 or n % 2:
        return ()
    if n == 4:
        return (complete_graph(4),)
    found: dict[bytes, tuple[Graph, int]] = {}

    def keep(g: Graph):
        cf = canonical_form(g)
        if cf.bytes not in found:
            found[cf.bytes] = (g, cf.aut_order)

    for parent in cubic_by_dedupe(n - 2):
        edges = list(parent.edges())
        index = {e: i for i, e in enumerate(edges)}
        # automorphisms of the parent, acting on edge indices
        gens = [[index[min(g[a], g[b]), max(g[a], g[b])] for a, b in edges]
                for g in canonical_form(parent).generators]
        pairs = [1 << i | 1 << j
                 for i, j in combinations(range(len(edges)), 2)]
        for mask in _orbit_reps(pairs, gens):
            e1 = edges[(mask & -mask).bit_length() - 1]
            e2 = edges[mask.bit_length() - 1]
            keep(_insert_edge_pair(parent, e1, e2))
    for g in _irreducible_unions(n):
        keep(g)
    labeled = sum(factorial(n) // aut for _, aut in found.values())
    if labeled != labeled_cubic_count(n):
        raise RuntimeError(f"cubic graphs on {n} vertices fail the completeness "
                           f"certificate: {labeled} labelled graphs, expected "
                           f"{labeled_cubic_count(n)}")
    return tuple(g for _, (g, _) in sorted(found.items()))


def connected_cubic_by_dedupe(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in cubic_by_dedupe(n) if is_connected(g))


def k_edge_colorable_plain(g: Graph, k: int, precol: dict | None = None):
    """Proper k-edge-colouring as {edge: colour}, or None: the shipped
    search (fewest available colours first) with every available colour
    tried at every edge, so no colour symmetry is broken."""
    edges = list(g.edges())
    used = [0] * g.n  # colour bitmask per vertex
    assign: dict = {}
    full = (1 << k) - 1
    if precol:
        for (u, v), c in precol.items():
            e = (u, v) if u < v else (v, u)
            if not g.has_edge(*e) or c >= k:
                return None
            if (used[u] | used[v]) >> c & 1:
                return None
            used[u] |= 1 << c
            used[v] |= 1 << c
            assign[e] = c

    todo = [e for e in edges if e not in assign]

    def rec() -> bool:
        best, bavail, bcount = None, 0, k + 1
        for e in todo:
            if e in assign:
                continue
            u, v = e
            avail = ~(used[u] | used[v]) & full
            c = avail.bit_count()
            if c == 0:
                return False
            if c < bcount:
                best, bavail, bcount = e, avail, c
        if best is None:
            return True
        u, v = best
        for c in bits(bavail):
            assign[best] = c
            used[u] |= 1 << c
            used[v] |= 1 << c
            if rec():
                return True
            del assign[best]
            used[u] &= ~(1 << c)
            used[v] &= ~(1 << c)
        return False

    return dict(assign) if rec() else None


def labeled_regular_tournament_count(n: int) -> int:
    """Count labeled regular tournaments by row-wise backtracking."""
    if n % 2 == 0:
        return 0
    k = (n - 1) // 2
    count = 0

    def rec(v: int, outdeg: list[int]):
        nonlocal count
        if v == n:
            count += 1
            return
        rem = n - 1 - v  # vertices after v
        need = k - outdeg[v]
        if need < 0 or need > rem:
            return
        for wins in combinations(range(v + 1, n), need):
            win_set = set(wins)
            new = list(outdeg)
            new[v] = k
            ok = True
            for w in range(v + 1, n):
                if w not in win_set:
                    new[w] += 1
                    if new[w] > k:
                        ok = False
                        break
            if ok:
                rec(v + 1, new)

    rec(0, [0] * n)
    return count
