"""Isomorph-free exhaustive generation of graphs, cubic graphs and tournaments.

Three engines:

* general graphs: canonical augmentation by vertex (parent = child minus the
  vertex in the canonical-last orbit, see _augment), optionally constrained
  by hereditary predicates (max degree, max edges, bipartite, no subgraph
  from a forbidden family).  The canonical-last vertex has maximum degree
  (see canon), so only neighbour masks that give the new vertex maximum
  degree are tried (the filter of McKay's geng).  A child whose new vertex
  lies outside the last cell of its root partition is rejected before any
  canonical search, and each level keeps its classes' automorphism
  generators for the next, so a full canonical search runs only for the
  children that can be kept.  Each unconstrained level certifies its
  completeness: sum(k!/|Aut(G)|) over its classes must equal 2^C(k,2),
  else RuntimeError;
* cubic graphs: canonical augmentation by edge insertion (subdivide two
  distinct edges, join the new vertices u and v), with no dict of
  certificates.  Each parent inserts one unordered edge pair per orbit of
  its automorphism group, read off the form kept with its level.  An edge
  is reducible when deleting its ends and re-joining each end's two other
  neighbours gives a simple cubic graph, and uv always is.  A child is kept
  iff uv lies in the canonical orbit of its reducible edges: those of
  greatest (triangles, 4-cycles, 5-cycles) through them, an invariant that
  rejects most children before any canonical form, then the greatest
  canonical labels (see _canonical_insertion).  A cubic graph with no
  reducible edge has every component built from diamonds (K4 minus an
  edge) whose degree-2 ports are wired to each other or to triangle-free
  degree-3 hubs; those irreducible graphs are enumerated directly, each
  order once, and seeded into their level.  Each level certifies its own
  completeness: sum(n!/|Aut(G)|) over its classes must equal
  labeled_cubic_count(n), else RuntimeError;
* tournaments: the same augmentation loop over beat-patterns (the parent
  vertices the new vertex beats), with no dict of certificates: each class
  comes from one parent and one orbit of patterns.  The canonical-last
  vertex has maximum score (see canon), so with top score t and top-score
  set H in the parent only patterns p with |p| > t, or |p| = t and H inside
  p, are tried.  Every level certifies sum(n!/|Aut(T)|) = 2^C(n,2), else
  RuntimeError.

Completeness of each engine is also cross-checked in the tests against exact
labeled counts through the identity sum(n!/|Aut(G)|) = #labeled graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, factorial

from . import CombenchError, flows
from .canon import CanonicalForm, canonical_form, canonical_form_digraph
from .graphs import (Digraph, Graph, bits, component_masks, disjoint_union,
                     is_bipartite, is_connected)


# ---------------------------------------------------------------------------
# general graphs by canonical augmentation


def _apply_perm_mask(mask: int, perm) -> int:
    out = 0
    for v in bits(mask):
        out |= 1 << perm[v]
    return out


def _mask_orbit(mask: int, gens) -> set[int]:
    """The orbit of ``mask`` under ``gens`` (permutations of bit
    positions)."""
    orbit = {mask}
    frontier = [mask]
    while frontier:
        m = frontier.pop()
        for g in gens:
            img = _apply_perm_mask(m, g)
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return orbit


def _orbit_reps(masks, gens) -> list[int]:
    """The first mask of each orbit of ``gens`` (permutations of bit
    positions) among ``masks``, in the order given; ``masks`` must be closed
    under the group."""
    if not gens:
        return list(masks)
    reps = []
    seen = set()
    for mask in masks:
        if mask not in seen:
            seen |= _mask_orbit(mask, gens)
            reps.append(mask)
    return reps


def _candidates(rows, flip: int) -> list[int]:
    """The masks m over the parent's vertices that can make the new vertex
    canonical-last: that vertex has maximum degree (see canon), so it needs
    degree popcount(m) at least the parent's top degree, and above it when a
    top-degree vertex gains one.  The vertices that gain are m ^ flip: m for
    graphs (flip 0), the vertices beating the new one for tournaments (flip
    all ones).  The condition is invariant under Aut(parent), so the kept
    masks stay closed under it."""
    top = max(row.bit_count() for row in rows)
    hi = sum(1 << v for v, row in enumerate(rows) if row.bit_count() == top)
    return [m for m in range(1 << len(rows))
            if m.bit_count() > top
            or (m.bit_count() == top and not (m ^ flip) & hi)]


def _augment(level, k: int, form, rows, flip: int, build,
             certify: str | None):
    """Order k of a catalog from its order k - 1 by canonical augmentation
    by a vertex.

    ``level`` holds (parent, generators of Aut(parent)) pairs, and so does
    the result, so no parent is canonicalised again.  Each parent tries one
    candidate mask per orbit of its group; ``build(parent, mask)`` returns
    the child, with the new vertex last, or None when a constraint rejects
    it.  A child is kept iff its new vertex lies in the orbit of its
    canonical-last vertex, so each class comes from exactly one parent and
    one orbit (McKay, "Isomorph-free exhaustive generation", J. Algorithms
    26, 1998).  ``form(child, last=k - 1)`` is None when the root refinement
    already rules the new vertex out (see canon), so a full canonical search
    runs only for the children that can be kept.  When ``certify`` names the
    catalog, the level must pass sum(k!/|Aut|) = 2^C(k,2), else
    RuntimeError.  The level comes back sorted by certificate.
    """
    out = []
    labeled = 0
    for parent, gens in level:
        for mask in _orbit_reps(_candidates(rows(parent), flip), gens):
            child = build(parent, mask)
            if child is None:
                continue
            cf = form(child, last=k - 1)
            if cf is not None and \
                    cf.orbits[k - 1] == cf.orbits[cf.labeling.index(k - 1)]:
                out.append((cf.bytes, child, cf.generators))
                labeled += factorial(k) // cf.aut_order
    if certify and labeled != 1 << comb(k, 2):
        raise RuntimeError(f"{certify} on {k} vertices fail the completeness "
                           f"certificate: {labeled} labelled, expected "
                           f"{1 << comb(k, 2)}")
    out.sort(key=lambda t: t[0])
    return [(c, gens) for _, c, gens in out]


def _adj_child(parent: Graph, mask: int) -> Graph:
    """``parent`` plus a last vertex adjacent to the vertices in ``mask``."""
    k = parent.n + 1
    child = Graph(k)
    child.adj = list(parent.adj) + [mask]
    for v in bits(mask):
        child.adj[v] |= 1 << (k - 1)
    return child


def graphs_upto(n: int, max_degree: int | None = None,
                max_edges: int | None = None,
                bipartite_only: bool = False,
                final_regular: int | None = None,
                forbidden: tuple[Graph, ...] = ()) -> dict[int, list[Graph]]:
    """All graphs on 1..n vertices up to isomorphism, one list per order.

    The constraints must be hereditary under vertex deletion, which max
    degree, max edge count, bipartiteness and F-freeness are.  ``forbidden``
    is a tuple of patterns: a child containing any of them as a subgraph is
    rejected, so each level holds exactly the F-free classes (the pruning of
    geng's triangle-free and C4-free switches).  ``final_regular`` adds
    admissible completability pruning toward an r-regular graph on n
    vertices (``GenSpec.regular``).
    """
    certify = (max_degree is None and max_edges is None and not bipartite_only
               and final_regular is None and not forbidden)
    if forbidden:
        # only F-free generation loads coloring; no other catalog needs it
        from .coloring import subgraph_contains

    def build(parent: Graph, mask: int) -> Graph | None:
        if max_degree is not None:
            if mask.bit_count() > max_degree:
                return None
            if any((parent.adj[v].bit_count() + 1) > max_degree
                   for v in bits(mask)):
                return None
        if max_edges is not None and parent.edge_count() + mask.bit_count() > max_edges:
            return None
        child = _adj_child(parent, mask)
        if bipartite_only and not is_bipartite(child):
            return None
        if final_regular is not None and not _regular_completable(
                child, n, final_regular):
            return None
        if any(subgraph_contains(child, p) for p in forbidden):
            return None
        return child

    # only a pattern on at most one vertex can forbid the single vertex
    level = [(g, ()) for g in (Graph(1),)
             if not any(subgraph_contains(g, p) for p in forbidden)]
    levels = {1: [g for g, _ in level]}
    for k in range(2, n + 1):
        level = _augment(level, k, canonical_form, lambda g: g.adj, 0, build,
                         "graphs" if certify else None)
        levels[k] = [g for g, _ in level]
    return levels


def _regular_completable(g: Graph, n_target: int, r: int) -> bool:
    rem = n_target - g.n
    deficiency = 0
    for v in range(g.n):
        d = r - g.adj[v].bit_count()
        if d < 0 or d > rem:
            return False
        deficiency += d
    if deficiency > r * rem:
        return False
    return (deficiency + r * rem) % 2 == 0


@lru_cache(maxsize=None)
def _graph_level(n: int) -> tuple[tuple[Graph, list], ...]:
    """all_graphs_cached(n), each graph with its automorphism generators,
    built from the cached level n - 1 (see _augment)."""
    if n < 2:
        return ((Graph(1), ()),) if n == 1 else ()
    return tuple(_augment(_graph_level(n - 1), n, canonical_form,
                          lambda g: g.adj, 0, _adj_child, "graphs"))


@lru_cache(maxsize=None)
def all_graphs_cached(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, sorted by certificate,
    each order built once per process from the cached order below it;
    heavy shared input for the checker suites."""
    return tuple(g for g, _ in _graph_level(n))


# ---------------------------------------------------------------------------
# cubic graphs by canonical augmentation (edge insertion)


@lru_cache(maxsize=None)
def _diamond_hub_graphs(m: int) -> tuple[Graph, ...]:
    """Connected insertion-irreducible cubic graphs on m vertices, each
    order built once per process.

    Every component of an insertion-irreducible cubic graph consists of
    diamonds (K4 minus an edge, ports = the two degree-2 vertices) whose
    ports are wired to ports or to triangle-free hub vertices of degree 3.
    """
    out = {}
    for d_cnt in range(1, m // 4 + 1):
        h_cnt = m - 4 * d_cnt
        if 3 * h_cnt > 2 * d_cnt:
            continue
        # (kind, vertex, slot): port p of diamond i is vertex 4i + 2 + p
        slots = [("p", 4 * i + 2 + p, 0) for i in range(d_cnt)
                 for p in range(2)] + \
                [("h", 4 * d_cnt + j, s) for j in range(h_cnt) for s in range(3)]

        def pairings(free):
            if not free:
                yield []
                return
            first = free[0]
            for idx in range(1, len(free)):
                other = free[idx]
                # hubs are triangle-free, so never adjacent; the slots of a
                # hub, and the hubs, are interchangeable: fill them in order
                if other[0] == "h" and (first[0] == "h" or (
                        "h", other[1], other[2] - 1) in free or (
                        "h", other[1] - 1, 0) in free):
                    continue
                rest = free[1:idx] + free[idx + 1:]
                for tail in pairings(rest):
                    yield [(first, other)] + tail

        for matching in pairings(slots):
            g = Graph(m)
            for i in range(0, 4 * d_cnt, 4):
                for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)):
                    g.add_edge(i + a, i + b)
            for s1, s2 in matching:
                g.add_edge(s1[1], s2[1])
            if is_connected(g):
                out.setdefault(canonical_form(g).bytes, g)
    return tuple(g for _, g in sorted(out.items()))


def _irreducible_unions(n: int) -> list[Graph]:
    """All graphs on n vertices whose every component is insertion-
    irreducible (see _diamond_hub_graphs)."""
    cat = [g for m in range(4, n + 1, 2) for g in _diamond_hub_graphs(m)]
    return [reduce(disjoint_union, parts) for k in range(1, n // 4 + 1)
            for parts in itertools.combinations_with_replacement(cat, k)
            if sum(g.n for g in parts) == n]


def _insert_edge_pair(g: Graph, e1, e2) -> Graph:
    """g with the edges e1 and e2 subdivided by new vertices u = g.n and
    v = g.n + 1, joined by the edge uv."""
    u = g.n
    child = Graph(u + 2)
    child.adj = list(g.adj) + [1 << u + 1, 1 << u]
    for w, (x, y) in ((u, e1), (u + 1, e2)):
        child.adj[x] ^= 1 << y | 1 << w
        child.adj[y] ^= 1 << x | 1 << w
        child.adj[w] |= 1 << x | 1 << y
    return child


def _edge_key(adj, x: int, y: int) -> int:
    """An isomorphism-invariant key of the edge xy of a cubic graph, or -1
    when xy is not reducible.

    xy is reducible when deleting x and y and joining each one's two other
    neighbours gives a simple cubic graph: x's other neighbours a, b are
    non-adjacent, so are y's, c and d, and the two pairs differ.  The key
    counts the triangles and then the 4-cycles through xy (at most 4)."""
    px = adj[x] & ~(1 << y)
    py = adj[y] & ~(1 << x)
    a = px & -px
    ra = adj[a.bit_length() - 1]
    if px == py or ra & px or adj[(py & -py).bit_length() - 1] & py:
        return -1
    rb = adj[(px ^ a).bit_length() - 1]
    return (px & py).bit_count() << 3 | (ra & py).bit_count() + \
        (rb & py).bit_count()


def _five_cycles(adj, x: int, y: int) -> int:
    """The 5-cycles x-a-w-b-y through the edge xy of a graph."""
    outside = ~(1 << x | 1 << y)
    return sum((adj[a] & adj[b] & outside).bit_count()
               for a in bits(adj[x] & outside)
               for b in bits(adj[y] & outside) if a != b)


def _canonical_insertion(child: Graph, others: list[tuple[int, int]]):
    """The child's canonical form when its inserted edge (its last two
    vertices) lies in the canonical orbit of its reducible edges, else None;
    ``others`` lists the child's other edges.

    The canonical edges are the reducible edges of greatest _edge_key, then
    of most 5-cycles, and among those the edge whose sorted canonical labels
    are greatest.  The two keys reject most children before any canonical
    form is computed."""
    adj = child.adj
    u, v = child.n - 2, child.n - 1
    ties = others
    for key in (_edge_key, _five_cycles):
        mine = key(adj, u, v)
        kept = []
        for x, y in ties:
            k = key(adj, x, y)
            if k > mine:
                return None
            if k == mine:
                kept.append((x, y))
        ties = kept
    cf = canonical_form(child)
    lab = cf.labeling
    x, y = max(ties + [(u, v)],
               key=lambda e: sorted((lab[e[0]], lab[e[1]]), reverse=True))
    if 1 << u | 1 << v in _mask_orbit(1 << x | 1 << y, cf.generators):
        return cf
    return None


@lru_cache(maxsize=None)
def _cubic_level(n: int) -> tuple[tuple[Graph, CanonicalForm], ...]:
    """cubic_graphs_all(n), each graph with its canonical form, built by
    canonical augmentation from the level n - 2.

    Each parent inserts one unordered edge pair per orbit of its
    automorphism group (subdivide both edges, join the two new vertices u
    and v); the child is kept iff uv lies in its canonical orbit of
    reducible edges (see _canonical_insertion), so each class with a
    reducible edge comes from exactly one parent and one orbit (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  The
    classes without one are the irreducible unions, seeded directly.
    Raises RuntimeError if the level fails its completeness certificate
    sum(n!/|Aut G|) == labeled_cubic_count(n)."""
    if n < 4 or n % 2:
        return ()
    out = [(g, canonical_form(g)) for g in _irreducible_unions(n)]
    for parent, form in _cubic_level(n - 2):
        edges = list(parent.edges())
        index = {e: i for i, e in enumerate(edges)}
        # automorphisms of the parent, acting on edge indices
        gens = [[index[min(g[a], g[b]), max(g[a], g[b])] for a, b in edges]
                for g in form.generators]
        pairs = [1 << i | 1 << j
                 for i, j in itertools.combinations(range(len(edges)), 2)]
        for mask in _orbit_reps(pairs, gens):
            e1 = edges[(mask & -mask).bit_length() - 1]
            e2 = edges[mask.bit_length() - 1]
            child = _insert_edge_pair(parent, e1, e2)
            (a, b), (c, d) = e1, e2
            cf = _canonical_insertion(
                child, [e for e in edges if e != e1 and e != e2]
                + [(a, n - 2), (b, n - 2), (c, n - 1), (d, n - 1)])
            if cf is not None:
                out.append((child, cf))
    labeled = sum(factorial(n) // cf.aut_order for _, cf in out)
    if labeled != labeled_cubic_count(n):
        raise RuntimeError(f"cubic graphs on {n} vertices fail the completeness "
                           f"certificate: {labeled} labelled graphs, expected "
                           f"{labeled_cubic_count(n)}")
    out.sort(key=lambda t: t[1].bytes)
    return tuple(out)


@lru_cache(maxsize=None)
def cubic_graphs_all(n: int) -> tuple[Graph, ...]:
    """All cubic graphs (connected or not) on n vertices, up to isomorphism,
    sorted by certificate; each level is certified complete (see
    _cubic_level)."""
    return tuple(g for g, _ in _cubic_level(n))


@lru_cache(maxsize=None)
def connected_cubic_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in cubic_graphs_all(n) if is_connected(g))


def labeled_cubic_count(n: int) -> int:
    """Exact number of labeled cubic graphs on n vertices (DP oracle)."""

    @lru_cache(maxsize=None)
    def rec(remaining: int, r1: int, r2: int, r3: int) -> int:
        if remaining == 0:
            return 1 if r1 == r2 == r3 == 0 else 0
        total = 0
        for k1 in range(min(3, r1) + 1):
            for k2 in range(min(3 - k1, r2) + 1):
                for k3 in range(min(3 - k1 - k2, r3) + 1):
                    k = k1 + k2 + k3
                    ways = comb(r1, k1) * comb(r2, k2) * comb(r3, k3)
                    nr1 = r1 - k1 + k2
                    nr2 = r2 - k2 + k3
                    nr3 = r3 - k3
                    res = 3 - k
                    if res == 1:
                        nr1 += 1
                    elif res == 2:
                        nr2 += 1
                    elif res == 3:
                        nr3 += 1
                    total += ways * rec(remaining - 1, nr1, nr2, nr3)
        return total

    return rec(n, 0, 0, 0)


def cyclically_4_edge_connected(g: Graph) -> bool:
    """No edge cut of size <= 3 separating two cycle-containing parts.

    Exhaustive cut enumeration; intended for cubic graphs at desk scale.
    """
    if not is_connected(g):
        return False
    edges = list(g.edges())
    for size in (1, 2, 3):
        for cut in itertools.combinations(edges, size):
            h = g.copy()
            for u, v in cut:
                h.adj[u] &= ~(1 << v)
                h.adj[v] &= ~(1 << u)
            # a component with as many edges as vertices has a cycle
            cyclic = sum(sum((h.adj[v] & m).bit_count() for v in bits(m))
                         >= 2 * m.bit_count() for m in component_masks(h))
            if cyclic >= 2:
                return False
    return True


# ---------------------------------------------------------------------------
# tournaments


def _beat_child(parent: Digraph, beats: int) -> Digraph:
    """``parent`` plus a last vertex that beats the vertices in ``beats`` and
    loses to the others."""
    k = parent.n + 1
    rows = list(parent.out) + [beats]
    for v in range(k - 1):
        if not beats >> v & 1:
            rows[v] |= 1 << (k - 1)
    return Digraph.from_rows(k, rows)


@lru_cache(maxsize=None)
def _tournament_level(n: int) -> tuple[tuple[Digraph, list], ...]:
    """tournaments(n), each with its automorphism generators, built from
    the cached level n - 1 (see _augment)."""
    if n < 2:
        return ((Digraph(1), ()),) if n == 1 else ()
    return tuple(_augment(_tournament_level(n - 1), n, canonical_form_digraph,
                          lambda d: d.out, (1 << (n - 1)) - 1, _beat_child,
                          "tournaments"))


@lru_cache(maxsize=None)
def tournaments(n: int) -> tuple[Digraph, ...]:
    """All tournaments on n vertices up to isomorphism, sorted by
    certificate; each order is certified complete (see _augment)."""
    return tuple(t for t, _ in _tournament_level(n))


def regular_tournaments(n: int) -> tuple[Digraph, ...]:
    if n % 2 == 0:
        return ()
    k = (n - 1) // 2
    return tuple(t for t in tournaments(n)
                 if all(t.out_degree(v) == k for v in range(n)))


# ---------------------------------------------------------------------------
# GenSpec front end


@dataclass
class GenSpec:
    n: int
    class_tag: str = "graph"          # graph | cubic | tournament | regular-tournament
    min_degree: int | None = None
    max_degree: int | None = None
    regular: int | None = None
    connectivity: int = 0             # vertex-connectivity floor
    bipartite: bool | None = None
    max_edges: int | None = None


TOURNAMENT_DEFAULT_CAP = 9


def generate(spec: GenSpec):
    """Yield one representative per isomorphism class, deterministic order."""
    if spec.n < 1:
        raise CombenchError("n must be positive")
    if any(b is not None and b < 0 for b in (spec.min_degree, spec.max_degree,
                                             spec.regular, spec.max_edges,
                                             spec.connectivity)):
        raise CombenchError("degree, edge and connectivity bounds must be >= 0")
    if spec.class_tag in ("tournament", "regular-tournament"):
        if spec.n > TOURNAMENT_DEFAULT_CAP:
            raise CombenchError(
                f"tournament generation capped at n={TOURNAMENT_DEFAULT_CAP}")
        pool = (regular_tournaments(spec.n) if spec.class_tag == "regular-tournament"
                else tournaments(spec.n))
        yield from pool
        return
    if spec.class_tag == "cubic":
        if spec.n < 4 or spec.n % 2:
            raise CombenchError("cubic graphs need even n >= 4")
        pool = cubic_graphs_all(spec.n)
    elif spec.class_tag == "graph":
        pool = graphs_upto(spec.n, max_degree=spec.max_degree,
                           max_edges=spec.max_edges,
                           bipartite_only=bool(spec.bipartite),
                           final_regular=spec.regular)[spec.n]
    else:
        raise CombenchError(f"unknown class {spec.class_tag!r}")
    for g in pool:
        if spec.min_degree is not None and any(
                g.adj[v].bit_count() < spec.min_degree for v in range(g.n)):
            continue
        if spec.max_degree is not None and any(
                g.adj[v].bit_count() > spec.max_degree for v in range(g.n)):
            continue
        if spec.regular is not None and any(
                g.adj[v].bit_count() != spec.regular for v in range(g.n)):
            continue
        if spec.bipartite is not None and is_bipartite(g) != spec.bipartite:
            continue
        if spec.connectivity:
            if not is_connected(g):
                continue
            if flows.vertex_connectivity(g) < spec.connectivity:
                continue
        yield g


def max_aut_3connected_cubic(n: int):
    """Maximum automorphism-group order over 3-connected cubic graphs on n."""
    best = 0
    witnesses = []
    for g in connected_cubic_graphs(n):
        if flows.vertex_connectivity(g) < 3:
            continue
        a = canonical_form(g).aut_order
        if a > best:
            best = a
            witnesses = [g]
        elif a == best:
            witnesses.append(g)
    return {"max_aut_order": best, "witnesses": witnesses}
