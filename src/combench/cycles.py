"""Cycle counting, Hamilton-cycle parity checks, the lollipop walk, and
cycle-space ranks over prime fields.

Every cycle search in the package is ``cycles_through``, one depth-first
search over bitset out-rows (a Graph's ``adj`` or a Digraph's ``out``).  It
walks directed cycles and yields each as a vertex tuple starting at the
pivot, in pre-order over ascending successors.  Symmetric rows give an
undirected cycle once per direction, so undirected callers keep the
traversal with ``c[1] < c[-1]``; rooting each cycle at its least vertex
(other vertices above the pivot) lists it once, as in Johnson's
elementary-circuit enumeration.

Cycle-space ranks are exact linear algebra on bitset rows.  A cycle's
vector is its edge mask (bit i for the i-th edge of ``g.edges()``).  Over
GF(2) the rows go into the leading-bit XOR basis ``graphs.xor_basis_add``,
the one gl2's invertibility test uses.  Over GF(3) a row is bit-sliced into
a pair (ones, twos) of bitsets marking its coordinates equal to 1 and to 2
(Boothby & Bradshaw, arXiv:0901.1413): ``gf3_add`` adds two rows in a
dozen bitwise operations, whatever their length, the negation of a row
swaps its slices, and each pivot is scaled to a 1 at its leading bit, so
clearing that bit adds the pivot or its negation.  Over Q and GF(p >= 5)
the rows are expanded into dense lists (``Fraction``s for Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import CombenchError
from .graphs import Digraph, Graph, bits, is_connected, xor_basis_add


def cycles_through(rows, pivot: int, avail: int, min_len: int = 3,
                   max_len: int | None = None):
    """Yield every simple cycle through ``pivot`` whose other vertices lie in
    ``avail``, with ``min_len <= length <= max_len`` vertices, as a tuple
    starting at ``pivot``, in depth-first pre-order over ascending
    successors of the out-rows ``rows``."""
    if max_len is None:
        max_len = len(rows)
    free = avail & ~(1 << pivot)
    path = [pivot]
    stack = [rows[pivot] & free]  # unexplored successors of each path vertex
    while stack:
        succ = stack[-1]
        if not succ:
            stack.pop()
            free |= 1 << path.pop()
            continue
        low = succ & -succ
        stack[-1] = succ ^ low
        w = low.bit_length() - 1
        path.append(w)
        if len(path) >= min_len and rows[w] >> pivot & 1:
            yield tuple(path)
        if len(path) < max_len:
            free ^= low
            stack.append(rows[w] & free)
        else:
            path.pop()


def count_cycles_of_length(g: Graph, length: int) -> int:
    """Exact number of simple cycles with ``length`` vertices."""
    if not 3 <= length <= g.n:
        raise CombenchError("need 3 <= length <= n")
    full = (1 << g.n) - 1
    return sum(1 for s in range(g.n)
               for _ in cycles_through(g.adj, s, full & -2 << s,
                                       length, length)) // 2


def simple_cycles(g: Graph, length: int | None = None):
    """Yield every simple cycle once, or every one with ``length`` vertices
    when given, as a vertex tuple starting at its least vertex with the
    smaller neighbor second."""
    full = (1 << g.n) - 1
    lo, hi = (3, g.n) if length is None else (length, length)
    for s in range(g.n):
        for cyc in cycles_through(g.adj, s, full & -2 << s, lo, hi):
            if cyc[1] < cyc[-1]:
                yield cyc


def hamilton_cycles(g: Graph):
    """Yield each Hamilton cycle once as a vertex tuple starting at 0."""
    n = g.n
    if n < 3:
        return
    for cyc in cycles_through(g.adj, 0, (1 << n) - 1, n):
        if cyc[1] < cyc[-1]:
            yield cyc


def count_ham_cycles(g: Graph) -> int:
    return sum(1 for _ in hamilton_cycles(g))


def ham_cycle_edge_counts(g: Graph) -> dict[tuple[int, int], int]:
    """Hamilton-cycle count through every edge, from one enumeration pass."""
    counts = {e: 0 for e in g.edges()}
    for cyc in hamilton_cycles(g):
        for i in range(len(cyc)):
            u, v = cyc[i], cyc[(i + 1) % len(cyc)]
            counts[(u, v) if u < v else (v, u)] += 1
    return counts


def smith_parity_check(g: Graph) -> dict:
    """Per-edge Hamilton-cycle counts with parity verdicts for a cubic graph.

    Any odd count would contradict Smith's theorem, so it is flagged as a
    failure (meaning a bug in the counting, not new mathematics).
    """
    if any(g.adj[v].bit_count() != 3 for v in range(g.n)):
        raise CombenchError("smith parity check needs a cubic graph")
    counts = ham_cycle_edge_counts(g)
    odd = {e: c for e, c in counts.items() if c % 2}
    return {"edge_counts": counts, "odd_edges": odd, "ok": not odd}


@dataclass
class LollipopTrace:
    start_cycle: tuple
    start_edge: tuple
    end_cycle: tuple
    steps: int


def _cycle_edges(cyc) -> set:
    out = set()
    for i in range(len(cyc)):
        u, v = cyc[i], cyc[(i + 1) % len(cyc)]
        out.add((u, v) if u < v else (v, u))
    return out


def lollipop_walk(g: Graph, ham: tuple, edge: tuple) -> LollipopTrace:
    """Thomason's lollipop walk: from Hamilton cycle ``ham``, drop ``edge``
    and rotate at the free end until a second Hamilton cycle closes.

    In a simple cubic graph the free end of the running Hamilton path has
    exactly two non-path edges, one of which undoes the previous move, so
    the walk is forced; steps counts the rotations performed.
    """
    if any(g.adj[v].bit_count() != 3 for v in range(g.n)):
        raise CombenchError("lollipop walk needs a cubic graph")
    n = g.n
    if len(set(ham)) != n or len(ham) != n:
        raise CombenchError("not a spanning cycle")
    for i in range(n):
        if not g.has_edge(ham[i], ham[(i + 1) % n]):
            raise CombenchError("claimed cycle uses a non-edge")
    x, y = edge
    if not g.has_edge(x, y):
        raise CombenchError(f"edge {edge} not in graph")
    cyc_edges = _cycle_edges(ham)
    key = (x, y) if x < y else (y, x)
    if key not in cyc_edges:
        raise CombenchError("edge is not on the given cycle")

    # Path from fixed end x to free end y.
    i = ham.index(x)
    if ham[(i + 1) % n] == y:
        path = [ham[(i - j) % n] for j in range(n)]
    else:
        path = [ham[(i + j) % n] for j in range(n)]
    if path[0] != x or path[-1] != y:
        raise RuntimeError("Hamiltonian path does not run from x to y")

    banned = key  # the edge whose re-insertion is not allowed on this move
    steps = 0
    while True:
        free = path[-1]
        path_prev = path[-2]
        choices = [w for w in bits(g.adj[free])
                   if w != path_prev
                   and ((free, w) if free < w else (w, free)) != banned]
        if len(choices) != 1:
            raise RuntimeError("cubic walk must be forced")
        w = choices[0]
        if w == x:
            end = tuple(path)
            return LollipopTrace(start_cycle=tuple(ham), start_edge=edge,
                                 end_cycle=end, steps=steps)
        # rotation: w is internal; cut the edge from w to its path successor
        steps += 1
        j = path.index(w)
        succ = path[j + 1]
        banned = (w, succ) if w < succ else (succ, w)
        path[j + 1:] = reversed(path[j + 1:])


def lollipop_max_steps(g: Graph) -> int | None:
    """Most rotations the lollipop walk takes, over every Hamilton cycle of
    g and both orientations of each of its edges, so that isomorphic graphs
    get the same value; None when g has no Hamilton cycle."""
    n = g.n
    return max((lollipop_walk(g, ham, edge).steps
                for ham in hamilton_cycles(g) for i in range(n)
                for edge in ((ham[i - 1], ham[i]), (ham[i], ham[i - 1]))),
               default=None)


# ---------------------------------------------------------------------------
# cycle space over GF(p) / Q


def _edge_bits(g: Graph) -> list[list[int]]:
    """eb[u][v] = eb[v][u] = 1 << i for the i-th edge of ``g.edges()``."""
    eb = [[0] * g.n for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges()):
        eb[u][v] = eb[v][u] = 1 << i
    return eb


def _cycle_mask(cyc, eb) -> int:
    """Edge mask of a cycle given as a vertex tuple (either orientation)."""
    mask = 0
    prev = cyc[-1]
    for v in cyc:
        mask |= eb[prev][v]
        prev = v
    return mask


def gf3_add(x, y):
    """Sum of two bit-sliced GF(3) vectors, each a pair (ones, twos) of
    bitsets marking the coordinates equal to 1 and to 2."""
    x1, x2 = x
    y1, y2 = y
    nx, ny = ~(x1 | x2), ~(y1 | y2)
    return (x1 & ny | y1 & nx | x2 & y2, x2 & ny | y2 & nx | x1 & y1)


def _gf3_basis_add(basis: dict, row: int) -> bool:
    """Reduce the 0/1 row bitmask against the bit-sliced GF(3) basis
    ``basis`` (leading bit -> pivot with a 1 there) and keep what is left,
    scaled to a leading 1; False when the row lies in the span."""
    x = (row, 0)
    while True:
        support = x[0] | x[1]
        if not support:
            return False
        lead = support.bit_length() - 1
        piv = basis.get(lead)
        if piv is None:
            basis[lead] = x if x[0] >> lead & 1 else (x[1], x[0])
            return True
        # x has a 1 at lead: add -piv (ones and twos swapped); a 2: add piv
        x = gf3_add(x, (piv[1], piv[0]) if x[0] >> lead & 1 else piv)


class _RowReducer:
    """Incremental Gaussian elimination over GF(p) or the rationals (p=0)
    on dense lists: the fields without bitset rows (p = 0 and p >= 5), and
    the reference the bitset rows are tested against."""

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = p
        self.pivots: dict[int, list] = {}

    def add(self, mask: int) -> bool:
        """Reduce the 0/1 row with support ``mask`` against the pivot rows;
        returns True if independent."""
        p = self.p
        vec = [mask >> j & 1 for j in range(self.ncols)]
        for col in range(self.ncols):
            a = vec[col]
            if not a:
                continue
            if col in self.pivots:
                row = self.pivots[col]
                if p:
                    factor = a * pow(row[col], -1, p) % p
                    for j in range(col, self.ncols):
                        if row[j]:
                            vec[j] = (vec[j] - factor * row[j]) % p
                else:
                    factor = Fraction(a, row[col])
                    for j in range(col, self.ncols):
                        if row[j]:
                            vec[j] = vec[j] - factor * row[j]
            else:
                self.pivots[col] = vec
                return True
        return False


def _rank(masks, m: int, p: int, bound: int) -> int:
    """Rank over GF(p) (Q for p=0) of 0/1 rows given as bitmasks over ``m``
    columns, read until it reaches ``bound``."""
    if p == 2:
        add = partial(xor_basis_add, {})
    elif p == 3:
        add = partial(_gf3_basis_add, {})
    else:
        add = _RowReducer(m, p).add
    rank = 0
    for mask in masks:
        if add(mask):
            rank += 1
            if rank >= bound:
                break
    return rank


def _check_field(p: int) -> None:
    """Reject a characteristic that names no field: p must be prime or 0."""
    if p and (p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1))):
        raise CombenchError("p must be prime or 0")


def cycle_space_dimension(g: Graph, p: int) -> int:
    """Rank over GF(p) (or Q for p=0) of the span of the characteristic
    vectors of all simple cycles.

    The cycles are read shortest first, by length 3, 4, ..., n, since
    short cycles reach the early exit at |E| (at |E|-|V|+1 for p=2, the
    classical ceiling) after far fewer rows.  May enumerate every simple
    cycle when the bound is not met, which is fine at desk scale.
    """
    if not is_connected(g):
        raise CombenchError("cycle space dimension defined for connected graphs")
    _check_field(p)
    eb = _edge_bits(g)
    m = g.edge_count()
    masks = (_cycle_mask(cyc, eb) for length in range(3, g.n + 1)
             for cyc in simple_cycles(g, length))
    return _rank(masks, m, p, m - g.n + 1 if p == 2 else m)


# ---------------------------------------------------------------------------
# exact (x,y)-paths in digraphs by subset DP


def reach_table(d: Digraph, x: int):
    """reach[mask] = bitset of v with an x->v path spanning exactly mask."""
    reach = {1 << x: 1 << x}
    # each round expands the masks of one popcount; the masks one larger
    # are created only in that round, so a mask is new exactly when unseen
    frontier = [1 << x]
    while frontier:
        new_frontier = []
        for mask in frontier:
            ends = reach[mask]
            for v in bits(ends):
                for w in bits(d.out[v] & ~mask):
                    nmask = mask | 1 << w
                    prev = reach.get(nmask, 0)
                    if not prev >> w & 1:
                        reach[nmask] = prev | 1 << w
                        if not prev:
                            new_frontier.append(nmask)
        frontier = new_frontier
    return reach


def ham_path_xy(d: Digraph, x: int, y: int):
    """A Hamilton (x,y)-path as a vertex tuple, or None."""
    if x == y:
        raise CombenchError("x and y must differ")
    full = (1 << d.n) - 1
    reach = reach_table(d, x)
    if not reach.get(full, 0) >> y & 1:
        return None
    return extract_path(d, reach, x, y, full)


def extract_path(d: Digraph, reach, x: int, y: int, mask: int):
    """The vertices of an x->y path spanning exactly ``mask``, read back
    from ``reach_table(d, x)``, as a tuple from x to y."""
    path = [y]
    cur = y
    while mask != 1 << x:
        pmask = mask & ~(1 << cur)
        ends = reach.get(pmask, 0)
        prev = None
        for w in bits(ends):
            if d.out[w] >> cur & 1:
                prev = w
                break
        if prev is None:
            raise RuntimeError("reach table lacks a predecessor on the path")
        path.append(prev)
        cur = prev
        mask = pmask
    path.reverse()
    return tuple(path)
