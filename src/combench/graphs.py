"""Bitset-backed graph, digraph and hypergraph types.

Vertices are 0-indexed integers.  Adjacency rows are Python ints used as
bitsets (vertex i = bit i), which keeps every structural query a popcount
or a mask away and puts no hard ceiling on n.
"""

from __future__ import annotations

from . import CombenchError


def bits(mask: int):
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """Simple undirected graph: vertex count plus per-vertex neighbor bitsets."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        self.n = n
        self.adj = [0] * n
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise CombenchError("self-loops are not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise CombenchError(f"edge ({u},{v}) out of range for n={self.n}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self):
        for u in range(self.n):
            m = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(m):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def copy(self) -> "Graph":
        g = Graph(self.n)
        g.adj = list(self.adj)
        return g

    def without_edge(self, u: int, v: int) -> "Graph":
        g = self.copy()
        g.adj[u] &= ~(1 << v)
        g.adj[v] &= ~(1 << u)
        return g

    def subgraph(self, mask: int) -> "Graph":
        """Induced subgraph on the vertices of ``mask``, relabeled to 0..k-1."""
        verts = list(bits(mask))
        pos = {v: i for i, v in enumerate(verts)}
        g = Graph(len(verts))
        for i, v in enumerate(verts):
            row = 0
            for w in bits(self.adj[v] & mask):
                row |= 1 << pos[w]
            g.adj[i] = row
        return g

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        g = Graph(self.n)
        g.adj = [full & ~self.adj[v] & ~(1 << v) for v in range(self.n)]
        return g

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


class Digraph:
    """Directed graph as per-vertex out- and in-neighbor bitsets (no self-loops).

    ``inn`` is the transpose of ``out``: bit u of ``inn[v]`` is set exactly
    when bit v of ``out[u]`` is.  Only Digraph's own methods write the rows.
    """

    __slots__ = ("n", "out", "inn")

    def __init__(self, n: int, arcs=()):
        self.n = n
        self.out = [0] * n
        self.inn = [0] * n
        for u, v in arcs:
            self.add_arc(u, v)

    @classmethod
    def from_rows(cls, n: int, out) -> "Digraph":
        """Digraph with the given out-rows; the in-rows are derived once."""
        d = cls(n)
        d.out = list(out)
        for u, row in enumerate(d.out):
            for v in bits(row):
                d.inn[v] |= 1 << u
        return d

    def add_arc(self, u: int, v: int) -> None:
        if u == v:
            raise CombenchError("self-loops are not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise CombenchError(f"arc ({u},{v}) out of range for n={self.n}")
        self.out[u] |= 1 << v
        self.inn[v] |= 1 << u

    def remove_arc(self, u: int, v: int) -> None:
        self.out[u] &= ~(1 << v)
        self.inn[v] &= ~(1 << u)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out[u] >> v & 1)

    def arcs(self):
        for u in range(self.n):
            for v in bits(self.out[u]):
                yield (u, v)

    def arc_count(self) -> int:
        return sum(a.bit_count() for a in self.out)

    def in_row(self, v: int) -> int:
        return self.inn[v]

    def out_degree(self, v: int) -> int:
        return self.out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.inn[v].bit_count()

    def copy(self) -> "Digraph":
        d = Digraph(self.n)
        d.out, d.inn = list(self.out), list(self.inn)
        return d

    def underlying_graph(self) -> Graph:
        g = Graph(self.n)
        for u, v in self.arcs():
            if not g.has_edge(u, v):
                g.add_edge(u, v)
        return g

    def subdigraph(self, mask: int) -> "Digraph":
        verts = list(bits(mask))
        pos = {v: i for i, v in enumerate(verts)}
        rows = []
        for v in verts:
            row = 0
            for w in bits(self.out[v] & mask):
                row |= 1 << pos[w]
            rows.append(row)
        return Digraph.from_rows(len(verts), rows)

    def is_tournament(self) -> bool:
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (self.out[u] >> v & 1) == (self.out[v] >> u & 1):
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.n == other.n and self.out == other.out

    def __hash__(self):
        return hash((self.n, tuple(self.out)))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={self.arc_count()})"


class Hypergraph:
    """Vertex count plus a list of edge bitmasks; k=0 means non-uniform."""

    __slots__ = ("n", "edges", "k")

    def __init__(self, n: int, edges=(), k: int = 0):
        self.n = n
        self.edges = []
        self.k = k
        for e in edges:
            self.add_edge(e)

    def add_edge(self, e) -> None:
        mask = e if isinstance(e, int) else sum(1 << v for v in set(e))
        if mask >= 1 << self.n:
            raise CombenchError("edge outside vertex range")
        if self.k and mask.bit_count() != self.k:
            raise CombenchError(f"edge size {mask.bit_count()} != uniformity {self.k}")
        self.edges.append(mask)

    def rank(self) -> int:
        return max((e.bit_count() for e in self.edges), default=0)

    def __repr__(self):
        return f"Hypergraph(n={self.n}, edges={len(self.edges)}, k={self.k})"


# ---------------------------------------------------------------------------
# named constructions


def complete_graph(n: int) -> Graph:
    g = Graph(n)
    full = (1 << n) - 1
    g.adj = [full & ~(1 << v) for v in range(n)]
    return g


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(k: int) -> Graph:
    """Star with k edges (k+1 vertices)."""
    return complete_bipartite(1, k)


def petersen_graph() -> Graph:
    g = Graph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)        # outer C_5
        g.add_edge(5 + i, 5 + (i + 2) % 5)  # inner pentagram
        g.add_edge(i, 5 + i)              # spokes
    return g


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    g = Graph(g1.n + g2.n)
    for u, v in g1.edges():
        g.add_edge(u, v)
    for u, v in g2.edges():
        g.add_edge(g1.n + u, g1.n + v)
    return g


def rotational_tournament(n: int, residues=None) -> Digraph:
    """Circulant tournament i -> i+r (mod n) for r in the residue set.

    Default residue set is the quadratic residues mod n (n an odd prime
    with n = 3 mod 4 gives a tournament; n = 7 gives the Paley tournament).
    Falls back to {1, .., (n-1)/2} when residues are not supplied and
    squares do not form half the units.
    """
    if residues is None:
        squares = {(i * i) % n for i in range(1, n)}
        if len(squares) == (n - 1) // 2 and all((n - s) % n not in squares for s in squares):
            residues = squares
        else:
            residues = set(range(1, (n - 1) // 2 + 1))
    d = Digraph(n)
    for i in range(n):
        for r in residues:
            d.add_arc(i, (i + r) % n)
    if not d.is_tournament():
        raise RuntimeError(f"residues {sorted(residues)} do not give a tournament "
                           f"on {n} vertices")
    return d


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# connectivity basics (pure bitset BFS; exact flows live in flows.py)


def component_masks(g: Graph) -> list[int]:
    seen = 0
    comps = []
    for s in range(g.n):
        if seen >> s & 1:
            continue
        comp = 1 << s
        frontier = 1 << s
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(component_masks(g)) == 1


def reachable_set(rows, start: int, mask: int) -> int:
    """Vertices reachable from ``start`` inside ``mask``, following the
    neighbor rows ``rows`` (a digraph's ``out`` or ``inn``)."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v] & mask
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_strongly_connected(d: Digraph) -> bool:
    if d.n == 0:
        return True
    full = (1 << d.n) - 1
    return (reachable_set(d.out, 0, full) == full
            and reachable_set(d.inn, 0, full) == full)


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def bipartition(g: Graph) -> tuple[int, int] | None:
    """Return (side0, side1) masks, or None if an odd cycle exists."""
    color = {}
    for s in range(g.n):
        if s in color:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in bits(g.adj[v]):
                if w not in color:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = sum(1 << v for v, c in color.items() if c == 0)
    side1 = sum(1 << v for v, c in color.items() if c == 1)
    return side0, side1


def xor_basis_add(basis: dict[int, int], row: int) -> bool:
    """Reduce the GF(2) row bitmask ``row`` against the leading-bit XOR
    basis ``basis`` (leading bit -> basis row) and keep what is left as a
    new basis row; False when ``row`` lies in the span of the basis."""
    while row:
        lead = row.bit_length() - 1
        b = basis.get(lead)
        if b is None:
            basis[lead] = row
            return True
        row ^= b
    return False


# ---------------------------------------------------------------------------
# serialization: graph6 / digraph6


def _n_encode(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise CombenchError("n too large for this encoder")


def _n_decode(data: bytes) -> tuple[int, int]:
    if not data or any(not 63 <= b <= 126 for b in data):
        raise CombenchError("graph6/digraph6 data must be non-empty bytes 63..126")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) < 4:
        raise CombenchError("truncated graph6/digraph6 size")
    if data[1] != 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n < 63:
            raise CombenchError(f"graph6/digraph6 size {n} must take one byte")
        return n, 4
    raise CombenchError("unsupported huge n")


def _r_encode(bitlist: list[int]) -> bytes:
    while len(bitlist) % 6:
        bitlist.append(0)
    out = bytearray()
    for i in range(0, len(bitlist), 6):
        val = 0
        for b in bitlist[i:i + 6]:
            val = val << 1 | b
        out.append(val + 63)
    return bytes(out)


def _r_decode(data: bytes, nbits: int) -> list[int]:
    need = (nbits + 5) // 6
    if len(data) != need:
        raise CombenchError(f"graph6/digraph6 data needs {need} bytes after "
                            f"the size, got {len(data)}")
    out = []
    for byte in data:
        val = byte - 63
        out.extend((val >> s) & 1 for s in range(5, -1, -1))
    if any(out[nbits:]):
        raise CombenchError("graph6/digraph6 padding bits must be zero")
    return out[:nbits]


def to_graph6(g: Graph) -> str:
    bitlist = [g.adj[j] >> i & 1 for j in range(1, g.n) for i in range(j)]
    return (_n_encode(g.n) + _r_encode(bitlist)).decode("ascii")


def from_graph6(s: str) -> Graph:
    data = s.strip().encode("ascii")
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    n, off = _n_decode(data)
    g = Graph(n)
    bitlist = _r_decode(data[off:], n * (n - 1) // 2)
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bitlist[idx]:
                g.add_edge(i, j)
            idx += 1
    return g


def to_digraph6(d: Digraph) -> str:
    bitlist = [d.out[i] >> j & 1 for i in range(d.n) for j in range(d.n)]
    return "&" + (_n_encode(d.n) + _r_encode(bitlist)).decode("ascii")


def from_digraph6(s: str) -> Digraph:
    data = s.strip().encode("ascii")
    if data.startswith(b">>digraph6<<"):
        data = data[12:]
    if not data.startswith(b"&"):
        raise CombenchError("not a digraph6 string")
    n, off = _n_decode(data[1:])
    d = Digraph(n)
    bitlist = _r_decode(data[1 + off:], n * n)
    if any(bitlist[i * n + i] for i in range(n)):
        raise CombenchError("malformed digraph6: diagonal bit set")
    for i in range(n):
        for j in range(n):
            if bitlist[i * n + j]:
                d.add_arc(i, j)
    return d
