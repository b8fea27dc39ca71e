"""Canonical forms and automorphism groups via individualization-refinement.

The search refines an ordered partition to equitability, individualizes
each vertex of the first non-singleton cell in turn, and keeps the leaf
whose (path invariant, adjacency string) is lexicographically greatest.

* Refinement follows Hopcroft's rule: when a cell splits, every part but
  the first largest one becomes a splitter.  Below the root only the
  individualized vertex is a splitter, since its parent partition was
  already equitable.
* A split replaces a cell in place by its parts in ascending key order,
  and never moves other cells.  An uncoloured graph first splits by degree,
  so every leaf orders the vertices by ascending degree, and the
  canonical-last vertex has maximum degree.  An uncoloured digraph first
  splits by (out-degree, in-degree); in a tournament the in-degree is n - 1
  minus the out-degree, so the canonical-last vertex has maximum score.
  ``generate`` relies on both to skip children whose new vertex cannot be
  canonical-last.
* For the same reason the canonical-last vertex, and so its whole orbit,
  lies in the last cell of the root's equitable partition (after the
  regular-graph seed colouring below).  ``canonical_form(..., last=v)``
  returns None before any descent when v is outside that cell, and
  otherwise searches on from the same root; ``generate`` rejects most
  children this way without a search.
* Each refinement records a trace, one entry (cell index, sorted split
  keys, part sizes) per split.  A node's path invariant is the sequence of
  traces from the root, so comparing nodes costs nothing beyond the
  refinement itself.
* A graph whose refined partition is a single cell (a regular graph, whose
  unit partition is already equitable) is seeded with the colouring by
  (triangles, 4-cycles) through each vertex and refined again before the
  search, which removes levels of the tree wherever that colouring splits.
  Irregular graphs and digraphs never compute it.

Leaves that tie with the first or best leaf yield automorphism generators,
and one orbit routine reads every group fact off them.  A child is pruned
when its orbit under the generators fixing the prefix meets an explored
sibling.  |Aut| comes from the first path (the chain of first children):
if p is its first k vertices and c the next, each w in c's orbit under the
stabilizer of p is either explored, and then ties the first leaf through a
generator that fixes p and maps w to c, or pruned as the image of an
explored sibling.  So the generators fixing p give that whole orbit; the
first leaf is discrete, so only the identity fixes the whole path, and
|Aut| is the product of the orbit sizes (orbit-stabilizer; McKay,
"Practical graph isomorphism", Congr. Numer. 30 (1981)).

Works for graphs and digraphs, with an optional initial vertex coloring
(used e.g. to canonicalize hypergraph incidence structures).
"""

from __future__ import annotations

from .graphs import Digraph, Graph, bits


class CanonicalForm:
    __slots__ = ("bytes", "aut_order", "labeling", "orbits", "generators")

    def __init__(self, cert: bytes, aut_order: int, labeling: list[int],
                 orbits: list[int], generators: list[tuple[int, ...]]):
        self.bytes = cert
        self.aut_order = aut_order
        self.labeling = labeling      # labeling[v] = canonical position of v
        self.orbits = orbits          # orbit id per vertex
        self.generators = generators  # automorphism generators as tuples

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self.bytes == other.bytes

    def __hash__(self):
        return hash(self.bytes)


def _mask(cell) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(rows_out, rows_in, cells: list[list[int]], work: list[int]):
    """Equitable refinement of an ordered partition, with its trace.

    ``work`` holds the splitters still to apply, as vertex masks (cell
    indices would go stale when a split shifts later cells); stability
    against every other cell must already hold or follow from them.  At
    the root every cell is a splitter; after individualizing v in an
    equitable partition, {v} alone is.  When a cell splits, every part
    except the first largest one is enqueued (Hopcroft): stability against
    the skipped part follows from stability against its parent cell and
    its enqueued siblings.  rows_in is None for graphs.

    Returns (cells, trace); the trace has one entry (cell index, sorted
    split keys, part sizes) per split, in the order the splits happened,
    and is invariant under relabelling.
    """
    cells = list(cells)
    masks = [_mask(c) for c in cells]
    trace = []
    while work:
        smask = work.pop()
        # only vertices with an arc to or from the splitter can get a
        # nonzero count, so no other cell can split
        touched = 0
        for w in bits(smask):
            touched |= rows_out[w]
            if rows_in is not None:
                touched |= rows_in[w]
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1 and masks[i] & touched:
                groups: dict = {}
                if rows_in is None:
                    for v in cell:
                        groups.setdefault((rows_out[v] & smask).bit_count(),
                                          []).append(v)
                else:
                    for v in cell:
                        k = ((rows_out[v] & smask).bit_count(),
                             (rows_in[v] & smask).bit_count())
                        groups.setdefault(k, []).append(v)
                if len(groups) > 1:
                    keys = sorted(groups)
                    parts = [groups[k] for k in keys]
                    pmasks = [_mask(p) for p in parts]
                    cells[i:i + 1] = parts
                    masks[i:i + 1] = pmasks
                    sizes = tuple(len(p) for p in parts)
                    trace.append((i, tuple(keys), sizes))
                    largest = sizes.index(max(sizes))
                    for j, m in enumerate(pmasks):
                        if j != largest:
                            work.append(m)
                    i += len(parts)
                    continue
            i += 1
    return cells, tuple(trace)


def _cycle_key(adj, v: int) -> tuple[int, int]:
    """(triangles through v, 4-cycles through v) in a graph: each pair a, b
    of neighbours of v closes a triangle if adjacent and a 4-cycle v-a-x-b
    through each common neighbour x other than v."""
    nbrs = list(bits(adj[v]))
    tri = quad = 0
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            tri += adj[a] >> b & 1
            quad += (adj[a] & adj[b]).bit_count() - 1
    return tri, quad


def _orbit(v: int, gens) -> set[int]:
    """The orbit of v under the group the generators generate."""
    orbit = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _fixing(gens, fixed) -> list:
    """The generators that fix every vertex in ``fixed``."""
    return [g for g in gens if all(g[u] == u for u in fixed)]


class _Search:
    def __init__(self, n: int, rows_out, rows_in, colors):
        self.n = n
        self.rows_out = rows_out
        self.rows_in = rows_in
        if colors is None:
            base = [list(range(n))]
        else:
            groups: dict = {}
            for v in range(n):
                groups.setdefault(colors[v], []).append(v)
            base = [groups[c] for c in sorted(groups)]
        self.base = base
        self.best_inv: list | None = None    # path invariant of best leaf
        self.best_cert: bytes | None = None
        self.best_label: list[int] | None = None
        self.first_label: list[int] | None = None
        self.first_cert: bytes | None = None
        self.first_inv: list | None = None
        self.first_path: list[int] | None = None
        self.generators: list[tuple[int, ...]] = []

    def cert_of(self, order: list[int]) -> bytes:
        """Adjacency bytes under the labeling that puts order[i] at position i."""
        pos = [0] * self.n
        for i, v in enumerate(order):
            pos[v] = i
        out = bytearray()
        nbytes = (self.n + 7) // 8
        for v in order:
            row = 0
            for w in bits(self.rows_out[v]):
                row |= 1 << pos[w]
            out += row.to_bytes(nbytes, "little")
        return bytes(out)

    def run(self, last: int | None = None) -> bool:
        """Refine the root partition and search below it.  With ``last``
        given, stop before any descent, and return False, when ``last`` lies
        outside the root's last cell: cells only subdivide in place, so
        that cell holds the canonical-last vertex and its whole orbit."""
        cells, trace = _refine(self.rows_out, self.rows_in, self.base,
                               [_mask(c) for c in self.base])
        if self.rows_in is None and len(cells) == 1:
            # Regular graph: the unit partition is already equitable, so
            # seed the search with an invariant colouring and refine again.
            groups: dict = {}
            for v in cells[0]:
                groups.setdefault(_cycle_key(self.rows_out, v), []).append(v)
            if len(groups) > 1:
                keys = sorted(groups)
                parts = [groups[k] for k in keys]
                cells, more = _refine(self.rows_out, None, parts,
                                      [_mask(p) for p in parts])
                trace += ((0, tuple(keys), tuple(map(len, parts))),) + more
        if last is not None and last not in cells[-1]:
            return False
        self.descend(cells, [trace], [])
        return True

    def record_leaf(self, cells, path_inv, path):
        order = [c[0] for c in cells]
        cert = self.cert_of(order)
        if self.first_label is None:
            self.first_label = order
            self.first_cert = cert
            self.first_inv = list(path_inv)
            self.first_path = path
        else:
            if path_inv == self.first_inv and cert == self.first_cert:
                self.add_automorphism(self.first_label, order)
        if (self.best_inv is None or path_inv > self.best_inv
                or (path_inv == self.best_inv and cert > self.best_cert)):
            self.best_inv = list(path_inv)
            self.best_cert = cert
            self.best_label = order
        elif path_inv == self.best_inv and cert == self.best_cert:
            self.add_automorphism(self.best_label, order)

    def add_automorphism(self, order1, order2):
        """Orders with equal certificates: v at position i in order2 maps to order1[i]."""
        perm = [0] * self.n
        for i in range(self.n):
            perm[order2[i]] = order1[i]
        tperm = tuple(perm)
        if tperm != tuple(range(self.n)) and tperm not in self.generators:
            self.generators.append(tperm)

    def descend(self, cells, path_inv, path):
        """Search below an equitable partition; path_inv holds the
        refinement traces from the root to this node, path the vertices
        individualized on the way."""
        # A branch whose invariant path is lexicographically below the best
        # path cannot contain the canonical leaf or tie it; it is only kept
        # while it still follows the first path (automorphism detection).
        if self.best_inv is not None:
            on_first = (self.first_inv is not None
                        and len(path_inv) <= len(self.first_inv)
                        and path_inv == self.first_inv[:len(path_inv)])
            if not on_first and path_inv < self.best_inv[:len(path_inv)]:
                return
        target = None
        for idx, c in enumerate(cells):
            if len(c) > 1:
                target = idx
                break
        if target is None:
            self.record_leaf(cells, path_inv, path)
            return
        cell = cells[target]
        explored: list[int] = []
        for v in sorted(cell):
            if explored and not _orbit(
                    v, _fixing(self.generators, path)).isdisjoint(explored):
                continue
            explored.append(v)
            rest = [w for w in cell if w != v]
            new_cells = cells[:target] + [[v], rest] + cells[target + 1:]
            # cells was equitable, so {v} is the only splitter needed
            refined, trace = _refine(self.rows_out, self.rows_in, new_cells,
                                     [1 << v])
            self.descend(refined, path_inv + [trace], path + [v])


def _canon(n: int, rows_out, rows_in, colors,
           last: int | None) -> CanonicalForm | None:
    if n == 0:
        return CanonicalForm(b"", 1, [], [], [])
    search = _Search(n, rows_out, rows_in, colors)
    if not search.run(last):
        return None
    order = search.best_label
    labeling = [0] * n
    for i, v in enumerate(order):
        labeling[v] = i
    gens = search.generators
    orbits: list = [None] * n   # each orbit is named by its least vertex
    for v in range(n):
        if orbits[v] is None:
            for w in _orbit(v, gens):
                orbits[w] = v
    path = search.first_path
    aut = 1
    for k, v in enumerate(path):
        aut *= len(_orbit(v, _fixing(gens, path[:k])))
    return CanonicalForm(bytes(search.best_cert), aut, labeling, orbits, gens)


def canonical_form(g: Graph, colors=None,
                   last: int | None = None) -> CanonicalForm | None:
    """The canonical form of g; with ``last`` given, None instead when the
    root refinement already shows that ``last`` is not in the orbit of the
    canonical-last vertex."""
    return _canon(g.n, g.adj, None, colors, last)


def canonical_form_digraph(d: Digraph, colors=None,
                           last: int | None = None) -> CanonicalForm | None:
    """canonical_form for a digraph."""
    return _canon(d.n, d.out, d.inn, colors, last)
