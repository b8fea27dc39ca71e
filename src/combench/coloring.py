"""Colouring solvers: vertex/edge chromatic numbers, overfull detection,
equitable and improper colourings, strong chromatic number, vertex arrowing
and critical-graph checks, shift/circle graph builders, hypergraph strong
colourings, and monochromatic cycle partitions.

All exact routines are plain backtracking with fail-first orderings; every
constructive routine re-verifies its output with an independent checker
before returning it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import CombenchError
from .cycles import cycles_through
from .graphs import Graph, bits
from .structure import clique_number


@dataclass
class Coloring:
    assignment: list[int]
    k: int

    def class_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for c in self.assignment:
            sizes[c] += 1
        return sizes


def is_proper(g: Graph, assignment) -> bool:
    return all(assignment[u] != assignment[v] for u, v in g.edges())


def is_equitable(coloring: Coloring) -> bool:
    sizes = coloring.class_sizes()
    return max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# exact vertex colouring


def k_colorable(g: Graph, k: int):
    """A proper k-colouring as a list, or None.  DSATUR-ordered backtracking
    with new-colour symmetry breaking."""
    n = g.n
    if k <= 0:
        return None if n else []
    color = [-1] * n
    nbr_colors = [0] * n  # bitmask of colours on neighbors

    def pick():
        best, key = -1, None
        for v in range(n):
            if color[v] == -1:
                kv = (nbr_colors[v].bit_count(), g.adj[v].bit_count())
                if key is None or kv > key:
                    best, key = v, kv
        return best

    def rec(used: int) -> bool:
        v = pick()
        if v == -1:
            return True
        avail = ~nbr_colors[v] & ((1 << min(used + 1, k)) - 1)
        for c in bits(avail):
            color[v] = c
            saved = []
            for w in bits(g.adj[v]):
                if color[w] == -1 and not nbr_colors[w] >> c & 1:
                    nbr_colors[w] |= 1 << c
                    saved.append(w)
            if rec(max(used, c + 1)):
                return True
            for w in saved:
                nbr_colors[w] &= ~(1 << c)
            color[v] = -1
        return False

    return list(color) if rec(0) else None


def chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    lb = clique_number(g)
    for k in range(max(lb, 1), g.n + 1):
        if k_colorable(g, k) is not None:
            return k
    return g.n


# ---------------------------------------------------------------------------
# exact edge colouring


def k_edge_colorable(g: Graph, k: int, precol: dict | None = None):
    """Proper k-edge-colouring as {edge: colour}, or None.

    The edge with fewest available colours goes next.  Colours no edge uses
    yet are interchangeable, so it tries its available colours already in
    use and only the least unused one: a skipped branch is a colour swap of
    a branch that failed, and the colouring found is the one the search
    trying every colour finds."""
    edges = list(g.edges())
    used = [0] * g.n  # colour bitmask per vertex
    assign: dict = {}
    full = (1 << k) - 1
    in_use = 0  # colours some edge has
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
            in_use |= 1 << c

    todo = [e for e in edges if e not in assign]

    def rec(in_use: int) -> bool:
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
        unused = full & ~in_use
        for c in bits(bavail & (in_use | unused & -unused)):
            assign[best] = c
            used[u] |= 1 << c
            used[v] |= 1 << c
            if rec(in_use | 1 << c):
                return True
            del assign[best]
            used[u] &= ~(1 << c)
            used[v] &= ~(1 << c)
        return False

    return dict(assign) if rec(in_use) else None


def edge_chromatic_class(g: Graph) -> tuple[int, int]:
    """(chi', class): chi' is Delta or Delta+1 by Vizing's theorem."""
    if g.edge_count() == 0:
        return 0, 1
    delta = max(a.bit_count() for a in g.adj)
    if k_edge_colorable(g, delta) is not None:
        return delta, 1
    if k_edge_colorable(g, delta + 1) is None:
        raise RuntimeError("no (Delta+1)-edge-colouring: Vizing violated")
    return delta + 1, 2


def has_overfull_subgraph(g: Graph):
    """An odd-order vertex set whose induced subgraph has more than
    Delta*floor(|H|/2) edges, or None after a full subset scan."""
    if g.n > 24:
        raise CombenchError("overfull scan is exponential; n <= 24")
    delta = max((a.bit_count() for a in g.adj), default=0)
    best = None

    def rec(v: int, mask: int, e: int):
        nonlocal best
        if best is not None:
            return
        size = mask.bit_count()
        if size >= 3 and size % 2 and e > delta * (size // 2):
            best = mask
            return
        if v == g.n:
            return
        rec(v + 1, mask | 1 << v, e + (g.adj[v] & mask).bit_count())
        if best is None:
            rec(v + 1, mask, e)

    rec(0, 0, 0)
    return best


# ---------------------------------------------------------------------------
# equitable colouring


def equitable_coloring(g: Graph, k: int) -> Coloring:
    """Proper k-colouring with class sizes differing by at most one, for
    max degree < k: greedy colouring followed by vertex moves along
    accessibility paths between colour classes (all choices by least index).
    """
    delta = max((a.bit_count() for a in g.adj), default=0)
    if delta >= k:
        raise CombenchError("need Delta < k")
    col = _equitable_by_moves(g, k)
    if col is None:
        col = _equitable_exact(g, k)
    if col is None:
        raise RuntimeError("no equitable colouring, against the cited theorems")
    coloring = Coloring(col, k)
    if not (is_proper(g, col) and is_equitable(coloring)):
        raise RuntimeError("equitable colouring is not proper and equitable")
    return coloring


def _equitable_by_moves(g: Graph, k: int):
    n = g.n
    color = []
    for v in range(n):
        usedc = {color[w] for w in bits(g.adj[v]) if w < v}
        color.append(next(c for c in range(k) if c not in usedc))
    members = [set() for _ in range(k)]
    for v, c in enumerate(color):
        members[c].add(v)

    for _ in range(2 * n * k + 10):
        sizes = [len(m) for m in members]
        hi = max(sizes)
        lo = min(sizes)
        if hi - lo <= 1:
            return color
        src = sizes.index(hi)
        # BFS over classes: an edge A->B moves some v in A with no B-neighbor
        prev: dict[int, tuple] = {src: None}
        frontier = [src]
        goal = None
        while frontier and goal is None:
            nxt = []
            for a in frontier:
                for b in range(k):
                    if b in prev or b == a:
                        continue
                    mover = None
                    for v in sorted(members[a]):
                        if not any(color[w] == b for w in bits(g.adj[v])):
                            mover = v
                            break
                    if mover is None:
                        continue
                    prev[b] = (a, mover)
                    if len(members[b]) == lo:
                        goal = b
                        break
                    nxt.append(b)
                if goal is not None:
                    break
            frontier = nxt
        if goal is None:
            return None  # no accessibility path; caller falls back to search
        # unwind the chain, executing moves from the target end backwards
        chain = []
        b = goal
        while prev[b] is not None:
            a, v = prev[b]
            chain.append((v, a, b))
            b = a
        for v, a, b in chain:
            members[a].discard(v)
            members[b].add(v)
            color[v] = b
    return None


def _equitable_exact(g: Graph, k: int):
    n = g.n
    cap = -(-n // k)
    floor = n // k
    color = [-1] * n
    sizes = [0] * k

    def rec(v: int) -> bool:
        if v == n:
            return True
        rem = n - v
        need = sum(max(0, floor - s) for s in sizes)
        if need > rem:
            return False
        seen_fresh = False
        for c in range(k):
            if sizes[c] >= cap:
                continue
            if sizes[c] == 0:
                if seen_fresh:
                    continue
                seen_fresh = True
            if any(color[w] == c for w in bits(g.adj[v])):
                continue
            color[v] = c
            sizes[c] += 1
            if rec(v + 1):
                return True
            color[v] = -1
            sizes[c] -= 1
        return False

    return list(color) if rec(0) else None


# ---------------------------------------------------------------------------
# improper (j,k)-colourings


def improper_partition(g: Graph, j: int, k: int):
    """(J_mask, K_mask) with Delta(G[J]) <= j and Delta(G[K]) <= k, or None."""
    n = g.n
    if max((a.bit_count() for a in g.adj), default=0) <= j:
        return (1 << n) - 1 if n else 0, 0
    side = [-1] * n
    order = sorted(range(n), key=lambda v: -g.adj[v].bit_count())

    def deg_in(v: int, s: int) -> int:
        return sum(1 for w in bits(g.adj[v]) if side[w] == s)

    def rec(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for s, bound in ((0, j), (1, k)):
            side[v] = s
            ok = deg_in(v, s) <= bound and all(
                deg_in(w, s) <= bound for w in bits(g.adj[v]) if side[w] == s)
            if ok and rec(i + 1):
                return True
            side[v] = -1
        return False

    if rec(0):
        jm = sum(1 << v for v in range(n) if side[v] == 0)
        km = sum(1 << v for v in range(n) if side[v] == 1)
        return jm, km
    return None


# ---------------------------------------------------------------------------
# strong chromatic number


def _partitions_into_blocks(verts: list[int], k: int):
    """All partitions of verts into blocks of size k (first-element canonical)."""
    if not verts:
        yield []
        return
    head = verts[0]
    for rest in itertools.combinations(verts[1:], k - 1):
        block = (head,) + rest
        remaining = [v for v in verts[1:] if v not in rest]
        for tail in _partitions_into_blocks(remaining, k):
            yield [block] + tail


def strong_colorable(g: Graph, k: int) -> bool:
    """Is G plus every placement of ceil(n/k) disjoint k-cliques k-colourable?"""
    n = g.n
    pad = (-n) % k
    total = n + pad
    base = Graph(total)
    for u, v in g.edges():
        base.add_edge(u, v)
    for blocks in _partitions_into_blocks(list(range(total)), k):
        h = base.copy()
        for block in blocks:
            for a, b in itertools.combinations(block, 2):
                if not h.has_edge(a, b):
                    h.add_edge(a, b)
        if k_colorable(h, k) is None:
            return False
    return True


def strong_chromatic_number(g: Graph) -> int:
    """Least k such that every union with disjoint k-cliques is k-colourable."""
    if g.n > 8:
        raise CombenchError("quantification over clique placements; n <= 8")
    if g.n == 0 or g.edge_count() == 0:
        return 1
    lb = chromatic_number(g)
    for k in range(max(lb, 1), 3 * max(a.bit_count() for a in g.adj) + 1):
        if strong_colorable(g, k):
            return k
    raise AssertionError("Haxell bound exceeded; bug")


# ---------------------------------------------------------------------------
# vertex arrowing and m_cr


def subgraph_contains(host: Graph, pattern: Graph) -> bool:
    """Does host contain pattern as a (not necessarily induced) subgraph?"""
    if pattern.n > host.n or pattern.edge_count() > host.edge_count():
        return False
    pverts = sorted(range(pattern.n), key=lambda v: -pattern.adj[v].bit_count())
    pos = {v: i for i, v in enumerate(pverts)}
    hdeg = [host.adj[v].bit_count() for v in range(host.n)]

    def rec(i: int, image: list[int], used: int) -> bool:
        if i == pattern.n:
            return True
        pv = pverts[i]
        need = pattern.adj[pv].bit_count()
        for hv in range(host.n):
            if used >> hv & 1 or hdeg[hv] < need:
                continue
            ok = True
            for pu in bits(pattern.adj[pv]):
                if pos[pu] < i and not host.adj[hv] >> image[pos[pu]] & 1:
                    ok = False
                    break
            if ok:
                image.append(hv)
                if rec(i + 1, image, used | 1 << hv):
                    return True
                image.pop()
        return False

    return rec(0, [], 0)


def arrows_vertex(f: Graph, g: Graph, r: int) -> bool:
    """F -> (G)^v_r: every r-colouring of V(F) has a monochromatic G copy."""
    n = f.n
    if r == 2 and n > 14:
        raise CombenchError("2^n colour scan; n <= 14 for r=2")
    if r > 2 and r ** n > 2 ** 16:
        raise CombenchError("r^n colour scan too large")

    sub_memo: dict[int, bool] = {}

    def class_has_copy(mask: int) -> bool:
        if mask not in sub_memo:
            sub_memo[mask] = subgraph_contains(f.subgraph(mask), g)
        return sub_memo[mask]

    if r == 2:
        full = (1 << n) - 1
        # vertex n-1 pinned to class 1 (swapping classes changes nothing)
        for mask in range(1 << max(n - 1, 0)):
            if not class_has_copy(mask) and not class_has_copy(full & ~mask):
                return False
        return True
    for assignment in itertools.product(range(r), repeat=n - 1):
        coloring = (0,) + assignment  # vertex 0 pinned by colour symmetry
        for c in range(r):
            mask = sum(1 << v for v in range(n) if coloring[v] == c)
            if class_has_copy(mask):
                break
        else:
            return False
    return True


def mcr_scan(g: Graph, r: int, n_max: int, mad_cap=None):
    """Minimum mad(F) over generated F with F -> (G)^v_r; returns
    (best_mad, witness) or (None, None) when nothing arrows."""
    from fractions import Fraction

    from .generate import graphs_upto
    from .structure import mad

    best = None
    witness = None
    max_edges = None
    if mad_cap is not None:
        max_edges = int(Fraction(mad_cap) * n_max / 2)
    levels = graphs_upto(n_max, max_edges=max_edges)
    for n in range(g.n, n_max + 1):
        for f in levels[n]:
            m = mad(f)
            if best is not None and m >= best:
                continue
            if arrows_vertex(f, g, r):
                best = m
                witness = f
    return best, witness


# ---------------------------------------------------------------------------
# pendant precolouring extension


def pendant_edges(g: Graph) -> list[tuple[int, int]]:
    return [e for e in g.edges()
            if g.adj[e[0]].bit_count() == 1 or g.adj[e[1]].bit_count() == 1]


def extend_pendant_precoloring(g: Graph, precol: dict, palette: int):
    """Extend a pendant-edge precolouring to a proper edge colouring with the
    given palette size; None if impossible."""
    pend = set(pendant_edges(g))
    seen_at: dict[int, set] = {}
    for (u, v), c in precol.items():
        e = (u, v) if u < v else (v, u)
        if e not in pend:
            raise CombenchError(f"{e} is not a pendant edge")
        for x in e:
            if c in seen_at.setdefault(x, set()):
                raise CombenchError("incident precoloured edges share a colour")
            seen_at[x].add(c)
    return k_edge_colorable(g, palette, precol=precol)


def pendant_f_scan(d: int, n_max: int):
    """Largest extra-palette size f forced by any (graph, pendant precolouring)
    instance with max degree <= d, over all graphs up to n_max vertices."""
    from .generate import graphs_upto

    worst = 0
    witness = None
    levels = graphs_upto(n_max, max_degree=d)
    for n in range(2, n_max + 1):
        for g in levels[n]:
            pend = pendant_edges(g)
            if not pend:
                continue
            for cnt in range(1, min(d, len(pend)) + 1):
                for chosen in itertools.combinations(pend, cnt):
                    for precol in _precolorings(chosen, d + worst + 2):
                        f = 0
                        while extend_pendant_precoloring(g, precol, d + f) is None:
                            f += 1
                        if f > worst:
                            worst = f
                            witness = (g, dict(precol))
    return worst, witness


def _precolorings(edges, max_colors: int):
    """Pairwise-valid colourings of the chosen pendant edges, canonical up to
    colour permutation (first-use order)."""

    def rec(i: int, used: int, acc: dict):
        if i == len(edges):
            yield dict(acc)
            return
        e = edges[i]
        for c in range(min(used + 1, max_colors)):
            conflict = any(set(e) & set(e2) and acc[e2] == c
                           for e2 in edges[:i])
            if conflict:
                continue
            acc[e] = c
            yield from rec(i + 1, max(used, c + 1), acc)
            del acc[e]

    yield from rec(0, 0, {})


# ---------------------------------------------------------------------------
# circle graphs and cyclic shift graphs


@dataclass
class ChordDiagram:
    chords: list[tuple[int, int]]  # endpoint positions on the circle

    def __post_init__(self):
        pts = [p for ch in self.chords for p in ch]
        if sorted(pts) != list(range(2 * len(self.chords))):
            raise CombenchError("chord endpoints must be a perfect pairing of 0..2c-1")


def chord_diagram_from_word(word: str) -> ChordDiagram:
    """'abcabc' style: each label appears exactly twice."""
    where: dict[str, list[int]] = {}
    for i, ch in enumerate(word):
        where.setdefault(ch, []).append(i)
    if any(len(v) != 2 for v in where.values()):
        raise CombenchError("each chord label must appear exactly twice")
    return ChordDiagram([tuple(v) for _, v in sorted(where.items())])


def circle_graph(diag: ChordDiagram) -> Graph:
    c = len(diag.chords)
    g = Graph(c)
    for i in range(c):
        a1, a2 = sorted(diag.chords[i])
        for j in range(i + 1, c):
            b1, b2 = diag.chords[j]
            inside1 = a1 < b1 < a2
            inside2 = a1 < b2 < a2
            if inside1 != inside2:
                g.add_edge(i, j)
    return g


VALID_PATTERNS = {2: ("XXOO", "XOXO"), 3: ("XXXOOO", "XXOXOO", "XOXOXO")}


def _canon_word(word: str) -> str:
    best = None
    for w in (word, word.translate(str.maketrans("XO", "OX"))):
        for s in range(len(w)):
            rot = w[s:] + w[:s]
            if best is None or rot < best:
                best = rot
    return best


def shift_graph_cyclic(n: int, r: int, pattern: str) -> Graph:
    """Vertices: r-subsets of a cyclically ordered n-set; edges between
    disjoint subsets whose interleaving matches the pattern up to rotation
    and role swap."""
    if r not in VALID_PATTERNS:
        raise CombenchError("r must be 2 or 3")
    pattern = pattern.upper()
    if pattern not in VALID_PATTERNS[r]:
        raise CombenchError(f"pattern {pattern!r} invalid for r={r}")
    target = _canon_word(pattern)
    verts = list(itertools.combinations(range(n), r))
    g = Graph(len(verts))
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            a, b = set(verts[i]), set(verts[j])
            if a & b:
                continue
            word = "".join("X" if p in a else "O" for p in sorted(a | b))
            if _canon_word(word) == target:
                g.add_edge(i, j)
    return g


# ---------------------------------------------------------------------------
# hypergraph strong colouring


def hyper_strong_chromatic(h) -> dict:
    """chi_s (clique expansion), chi_d (max over derived graphs), rank."""
    from .graphs import Hypergraph

    if not isinstance(h, Hypergraph):
        raise CombenchError(f"need a Hypergraph, not {type(h).__name__}")
    expansion = Graph(h.n)
    for e in h.edges:
        vs = list(bits(e))
        for a, b in itertools.combinations(vs, 2):
            if not expansion.has_edge(a, b):
                expansion.add_edge(a, b)
    chi_s = chromatic_number(expansion)

    choices = []
    total = 1
    for e in h.edges:
        vs = list(bits(e))
        if len(vs) >= 2:
            pairs = list(itertools.combinations(vs, 2))
            choices.append(pairs)
            total *= len(pairs)
    if total > 10 ** 6:
        raise CombenchError("too many derived graphs")
    chi_d = 0
    for combo in itertools.product(*choices) if choices else [()]:
        dg = Graph(h.n)
        for a, b in combo:
            if not dg.has_edge(a, b):
                dg.add_edge(a, b)
        chi_d = max(chi_d, chromatic_number(dg))
    return {"chi_s": chi_s, "chi_d": chi_d, "rank": h.rank()}


# ---------------------------------------------------------------------------
# colour-critical graphs


def is_k_critical(g: Graph, k: int) -> bool:
    """chi(G) = k and removing any edge drops the chromatic number."""
    if g.edge_count() == 0:
        return k == 1 and g.n >= 1
    if chromatic_number(g) != k:
        return False
    for u, v in g.edges():
        if k_colorable(g.without_edge(u, v), k - 1) is None:
            return False
    return True


def critical_min_degree_scan(k: int, n_max: int):
    """Max of min degree over k-critical graphs with at most n_max vertices."""
    from .generate import graphs_upto

    best = -1
    witnesses = []
    levels = graphs_upto(n_max)
    for n in range(1, n_max + 1):
        for g in levels[n]:
            if not g.n or g.edge_count() == 0:
                continue
            delta = min(g.adj[v].bit_count() for v in range(g.n))
            if delta < best:
                continue
            if is_k_critical(g, k):
                if delta > best:
                    best = delta
                    witnesses = [g]
                else:
                    witnesses.append(g)
    return best, witnesses


# ---------------------------------------------------------------------------
# monochromatic cycle partitions


def min_mono_cycle_partition(n: int, edge_colors: dict):
    """Minimum number of disjoint monochromatic cycles covering [n], where
    the empty set, single vertices and single edges count as cycles.

    edge_colors maps every pair (u, v), u < v, to a colour label.
    """
    if n > 12:
        raise CombenchError("set-partition DP; n <= 12")
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edge_colors:
                raise CombenchError(f"edge ({u},{v}) not coloured")
    palette = sorted(set(edge_colors.values()), key=repr)
    rows = {c: [0] * n for c in palette}
    for (u, v), c in edge_colors.items():
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u

    def mono_hamiltonian(mask: int) -> bool:
        size = mask.bit_count()
        if size <= 2:
            return size <= 1 or _mono_edge(mask)
        pivot = (mask & -mask).bit_length() - 1
        return any(next(cycles_through(rows[c], pivot, mask, size), None)
                   for c in palette)

    def _mono_edge(mask: int) -> bool:
        u = (mask & -mask).bit_length() - 1
        v = (mask ^ (1 << u)).bit_length() - 1
        return (u, v) in edge_colors

    valid_memo: dict[int, bool] = {}

    def valid(mask: int) -> bool:
        if mask not in valid_memo:
            valid_memo[mask] = mono_hamiltonian(mask)
        return valid_memo[mask]

    @lru_cache(maxsize=None)
    def f(s: int):
        if s == 0:
            return 0, ()
        pivot = 1 << ((s & -s).bit_length() - 1)
        best = None
        rest = s & ~pivot
        sub = rest
        while True:
            t = sub | pivot
            if valid(t):
                cnt, parts = f(s & ~t)
                if best is None or cnt + 1 < best[0]:
                    best = (cnt + 1, ((t,) + parts))
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return best

    count, parts = f((1 << n) - 1)
    return count, list(parts)


def is_local_r_coloring(n: int, edge_colors: dict, r: int) -> bool:
    for v in range(n):
        seen = set()
        for u in range(n):
            if u != v:
                e = (min(u, v), max(u, v))
                seen.add(edge_colors[e])
        if len(seen) > r:
            return False
    return True
