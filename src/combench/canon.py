"""Canonical forms and automorphism groups via individualization-refinement.

The search refines an ordered partition to equitability, individualizes
each vertex of the first non-singleton cell in turn, and keeps the leaf
whose (path invariant, adjacency string) is lexicographically greatest.

* Refinement follows Hopcroft's rule: when a cell splits, every part but
  the first largest one becomes a splitter.  Below the root only the
  individualized vertex is a splitter, since its parent partition was
  already equitable.
* Each refinement records a trace, one entry (cell index, sorted split
  keys, part sizes) per split.  A node's path invariant is the sequence of
  traces from the root, so comparing nodes costs nothing beyond the
  refinement itself.
* A graph whose refined partition is a single cell (a regular graph, whose
  unit partition is already equitable) is seeded with the colouring by
  (triangles, 4-cycles) through each vertex and refined again before the
  search, which removes levels of the tree wherever that colouring splits.
  Irregular graphs and digraphs never compute it.

Leaves that tie with the first or best leaf yield automorphisms;
automorphisms that fix the current prefix prune sibling branches, and the
collected generators give the exact group order by orbit-stabilizer along
a base, keeping every Schreier generator of each stabilizer (no sifting).

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

    def run(self):
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
        self.descend(cells, [trace], 0)

    def record_leaf(self, cells, path_inv):
        order = [c[0] for c in cells]
        cert = self.cert_of(order)
        if self.first_label is None:
            self.first_label = order
            self.first_cert = cert
            self.first_inv = list(path_inv)
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

    def descend(self, cells, path_inv, fixed_mask):
        """Search below an equitable partition; path_inv holds the
        refinement traces from the root to this node."""
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
            self.record_leaf(cells, path_inv)
            return
        cell = cells[target]
        explored: list[int] = []
        for v in sorted(cell):
            if self.prunable(v, explored, fixed_mask):
                continue
            explored.append(v)
            rest = [w for w in cell if w != v]
            new_cells = cells[:target] + [[v], rest] + cells[target + 1:]
            # cells was equitable, so {v} is the only splitter needed
            refined, trace = _refine(self.rows_out, self.rows_in, new_cells,
                                     [1 << v])
            self.descend(refined, path_inv + [trace], fixed_mask | (1 << v))

    def prunable(self, v: int, explored: list[int], fixed_mask: int) -> bool:
        """True if some automorphism fixing the prefix maps v into explored."""
        if not explored or not self.generators:
            return False
        gens = [g for g in self.generators
                if all(g[u] == u for u in bits(fixed_mask))]
        if not gens:
            return False
        orbit = {v}
        frontier = [v]
        targets = set(explored)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g[x]
                if y in targets:
                    return True
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return False


def _group_order(n: int, generators: list[tuple[int, ...]]) -> int:
    """Order of the permutation group via orbit-stabilizer.

    For each base point the orbit size multiplies into the order, and every
    distinct non-identity Schreier generator is kept, unsifted, as a
    generator of the point stabilizer."""
    if not generators:
        return 1
    order = 1
    gens = [list(g) for g in generators]
    for base_pt in range(n):
        # orbit of base_pt with transversal
        transversal = {base_pt: list(range(n))}
        frontier = [base_pt]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g[x]
                if y not in transversal:
                    t = transversal[x]
                    transversal[y] = [g[t[i]] for i in range(n)]
                    frontier.append(y)
        order *= len(transversal)
        # stabilizer generators via Schreier's lemma
        new_gens = []
        seen = set()
        for x, t in transversal.items():
            for g in gens:
                y = g[x]
                rep = transversal[y]
                rep_inv = [0] * n
                for i in range(n):
                    rep_inv[rep[i]] = i
                s = tuple(rep_inv[g[t[i]]] for i in range(n))
                if s != tuple(range(n)) and s not in seen:
                    seen.add(s)
                    new_gens.append(list(s))
        gens = new_gens
        if not gens:
            break
    return order


def _canon(n: int, rows_out, rows_in, colors) -> CanonicalForm:
    if n == 0:
        return CanonicalForm(b"", 1, [], [], [])
    search = _Search(n, rows_out, rows_in, colors)
    search.run()
    order = search.best_label
    labeling = [0] * n
    for i, v in enumerate(order):
        labeling[v] = i
    # orbits from the discovered generators
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in search.generators:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                parent[a] = b
    orbits = [find(v) for v in range(n)]
    aut = _group_order(n, search.generators)
    return CanonicalForm(bytes(search.best_cert), aut, labeling, orbits,
                         list(search.generators))


def canonical_form(g: Graph, colors=None) -> CanonicalForm:
    return _canon(g.n, g.adj, None, colors)


def canonical_form_digraph(d: Digraph, colors=None) -> CanonicalForm:
    return _canon(d.n, d.out, d.inn, colors)


def certificate(g: Graph) -> bytes:
    return canonical_form(g).bytes


# ---------------------------------------------------------------------------
# independent oracles (plain backtracking, no refinement machinery)


def brute_force_aut_order(g: Graph) -> int:
    """Count adjacency-preserving permutations by direct backtracking."""
    n = g.n
    degs = [g.adj[v].bit_count() for v in range(n)]
    count = 0

    def place(v: int, perm: list[int], used: int):
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used >> w & 1 or degs[v] != degs[w]:
                continue
            ok = True
            for u in range(v):
                if (g.adj[v] >> u & 1) != (g.adj[w] >> perm[u] & 1):
                    ok = False
                    break
            if ok:
                perm.append(w)
                place(v + 1, perm, used | 1 << w)
                perm.pop()
        return

    place(0, [], 0)
    return count


def brute_force_aut_order_digraph(d: Digraph) -> int:
    n = d.n
    rows_in = d.inn
    count = 0

    def place(v: int, perm: list[int], used: int):
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used >> w & 1:
                continue
            if d.out[v].bit_count() != d.out[w].bit_count():
                continue
            if rows_in[v].bit_count() != rows_in[w].bit_count():
                continue
            ok = True
            for u in range(v):
                if (d.out[v] >> u & 1) != (d.out[w] >> perm[u] & 1):
                    ok = False
                    break
                if (d.out[u] >> v & 1) != (d.out[perm[u]] >> w & 1):
                    ok = False
                    break
            if ok:
                perm.append(w)
                place(v + 1, perm, used | 1 << w)
                perm.pop()

    place(0, [], 0)
    return count


def min_perm_certificate(g: Graph) -> bytes:
    """Lexicographically least adjacency encoding over all permutations.

    Factorial-time oracle used to validate canonical-form behaviour on
    tiny graphs (two graphs are isomorphic iff these encodings agree).
    """
    from itertools import permutations

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
