import ast
import builtins
from fractions import Fraction
from pathlib import Path

import pytest

import combench
from combench import CombenchError, flows
from combench.graphs import (Digraph, Graph, bipartition, bits, complete_bipartite,
                             complete_graph, component_masks, cycle_graph,
                             from_digraph6, from_graph6, Hypergraph,
                             is_connected, path_graph, petersen_graph,
                             rotational_tournament, to_digraph6, to_graph6)
from combench.structure import (biclique_number, independence_number,
                                mad, max_independent_set)
from conftest import empty_graph, prism_graph, random_graph, reverse
from oracles import brute_force_max_independent, check_graph, edges_inside


def test_vertex_connectivity_petersen_by_cut_enumeration():
    # independent oracle: no vertex pair disconnects, some triple does
    g = petersen_graph()
    from itertools import combinations

    def disconnects(cut):
        keep = [v for v in range(10) if v not in cut]
        mask = sum(1 << v for v in keep)
        return len(component_masks(g.subgraph(mask))) > 1

    assert not any(disconnects(c) for c in combinations(range(10), 2))
    assert any(disconnects(c) for c in combinations(range(10), 3))
    assert flows.vertex_connectivity(g) == flows.edge_connectivity(g) == 3


def test_mad_examples():
    assert mad(complete_graph(4)) == 3
    assert mad(complete_graph(5)) == 4  # K_{r(s-1)+1}, r=2, s=3
    assert mad(path_graph(3)) == Fraction(4, 3)
    with pytest.raises(CombenchError, match="n <= 20"):
        mad(Graph(21))


def test_mad_exhaustive_oracle(rng):
    for _ in range(12):
        n = rng.randrange(2, 8)
        g = random_graph(rng, n, 0.5)
        best = Fraction(0)
        for mask in range(1, 1 << n):
            best = max(best, Fraction(2 * edges_inside(g, mask),
                                      mask.bit_count()))
        assert mad(g) == best


def test_mad_lower_bounds(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randrange(2, 8), 0.4)
        if g.n:
            m = mad(g)
            assert m >= Fraction(2 * g.edge_count(), g.n)
            assert m >= min(g.adj[v].bit_count() for v in range(g.n))


def test_max_independent_set():
    assert independence_number(empty_graph(5)) == 5
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(petersen_graph()) == 4
    mis = max_independent_set(petersen_graph())
    assert edges_inside(petersen_graph(), mis) == 0


def test_mis_matches_brute_force(rng):
    for _ in range(20):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert independence_number(g) == brute_force_max_independent(g)


def test_biclique_number():
    assert biclique_number(Graph(2, [(0, 1)])) == 2
    assert biclique_number(cycle_graph(4)) == 4
    assert biclique_number(petersen_graph()) == 4
    with pytest.raises(CombenchError, match="undefined for empty graphs"):
        biclique_number(empty_graph(3))


def test_graph6_roundtrip(rng):
    assert to_graph6(complete_graph(4)) == "C~"
    assert to_graph6(cycle_graph(4)) == "Cl"  # bits 101101 by hand
    for _ in range(25):
        g = random_graph(rng, rng.randrange(1, 30), 0.3)
        assert from_graph6(to_graph6(g)).adj == g.adj
    big = random_graph(rng, 70, 0.1)
    assert from_graph6(to_graph6(big)).adj == big.adj
    with pytest.raises(ValueError, match="bytes after the size"):
        from_graph6("C~~~~")  # trailing bytes after K4
    with pytest.raises(CombenchError, match="padding bits must be zero"):
        from_graph6("BA")  # "B?" with a padding bit set


def _assert_in_rows(d):
    """The stored in-rows are the transpose of the out-rows."""
    want = [sum(1 << u for u in range(d.n) if d.out[u] >> v & 1)
            for v in range(d.n)]
    assert d.inn == want
    assert [d.in_row(v) for v in range(d.n)] == want
    return d


def test_digraph6_roundtrip(rng):
    d = rotational_tournament(7)
    assert _assert_in_rows(from_digraph6(to_digraph6(d))).out == d.out
    for _ in range(20):
        n = rng.randrange(1, 12)
        d = Digraph(n)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    d.add_arc(u, v)
        _assert_in_rows(d)
        assert _assert_in_rows(from_digraph6(to_digraph6(d))).out == d.out
        assert _assert_in_rows(Digraph(n, d.arcs())).out == d.out
        assert _assert_in_rows(Digraph.from_rows(n, d.out)) == d
        c = _assert_in_rows(d.copy())
        for u, v in list(c.arcs())[::2]:
            c.remove_arc(u, v)
        _assert_in_rows(c)
        assert d.arc_count() == c.arc_count() + len(list(d.arcs())[::2])
        r = _assert_in_rows(reverse(d))
        assert set(r.arcs()) == {(v, u) for u, v in d.arcs()}
        _assert_in_rows(d.subdigraph(rng.getrandbits(n)))
        _assert_in_rows(d)  # untouched by the copies above
    with pytest.raises(ValueError, match="malformed digraph6"):
        from_digraph6("&C~~{")  # every bit set, the diagonal included


def test_invariants_and_validation():
    g = cycle_graph(6)
    check_graph(g)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(4, [[0, 1]], k=3)
    assert bipartition(complete_bipartite(2, 3)) is not None
    assert bipartition(cycle_graph(5)) is None
    assert is_connected(prism_graph())
    assert len(component_masks(empty_graph(3))) == 3


def _cut_oracles(n, rows):
    """(min arcs leaving a nonempty proper vertex set, min vertex set whose
    removal leaves >= 2 vertices without being strong; n-1 if none) by
    enumeration.  Symmetric rows give edge and vertex connectivity."""
    full = (1 << n) - 1
    lam = min((sum((rows[u] & ~mask & full).bit_count()
                   for u in range(n) if mask >> u & 1)
               for mask in range(1, full)), default=0)
    kappa = n - 1 if n > 1 else 0
    for cut in range(full + 1):
        rest = full & ~cut
        if rest.bit_count() >= 2 and cut.bit_count() < kappa:
            for v in bits(rest):
                seen, stack = 1 << v, [v]
                while stack:
                    new = rows[stack.pop()] & rest & ~seen
                    seen |= new
                    stack.extend(bits(new))
                if seen != rest:
                    kappa = cut.bit_count()
                    break
    return lam, kappa


def test_flow_connectivities(rng):
    from combench.generate import tournaments

    assert flows.edge_connectivity(complete_graph(5)) == 4
    assert flows.vertex_connectivity(complete_graph(5)) == 4
    assert flows.vertex_connectivity(path_graph(5)) == 1
    c5 = cycle_graph(5)
    assert flows.vertex_connectivity(c5) == flows.edge_connectivity(c5) == 2
    d = rotational_tournament(7)
    assert flows.arc_strong_connectivity(d) == 3
    assert _cut_oracles(7, d.out)[0] == 3
    # every tournament on <= 6 vertices, strong or not, and random digraphs
    digraphs = [t for n in range(1, 7) for t in tournaments(n)]
    for _ in range(40):
        n = rng.randrange(1, 8)
        d = Digraph(n)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.6:
                    d.add_arc(u, v)
        digraphs.append(d)
    assert sum(flows.arc_strong_connectivity(t) == 0 for t in digraphs) > 10
    for d in digraphs:
        lam, kappa = _cut_oracles(d.n, d.out)
        assert flows.arc_strong_connectivity(d) == lam
        assert flows.vertex_strong_connectivity(d) == kappa
    graphs = [random_graph(rng, rng.randrange(1, 9), rng.choice((0.3, 0.6, 0.9)))
              for _ in range(40)]
    for g in graphs:
        lam, kappa = _cut_oracles(g.n, g.adj)
        assert flows.edge_connectivity(g) == lam
        assert flows.vertex_connectivity(g) == kappa

    def unit_flow(rows, s, t, limit):
        net = flows.FlowNet(len(rows))
        for u, row in enumerate(rows):
            for v in bits(row):
                net.add(u, v, 1)
        return net.max_flow(s, t, limit)

    # the second augmenting path 0-3-2-1-4-5 runs against the first path's
    # unit on 1->2 and must cancel it, or 6-2-1-7 becomes a third path
    rows = [0] * 8
    for u, v in ((0, 1), (1, 2), (2, 5), (0, 3), (3, 2), (1, 4), (4, 5),
                 (0, 6), (6, 2), (1, 7), (7, 5)):
        rows[u] |= 1 << v
    assert flows.arc_flow(rows, 0, 5) == unit_flow(rows, 0, 5, flows.INF) == 2
    # the bitset arc flow against a unit-capacity network; a graph's
    # symmetric rows exercise the cancellation of opposite units
    for rows in [d.out for d in digraphs[-40:]] + [g.adj for g in graphs]:
        for s in range(len(rows)):
            for t in range(len(rows)):
                if s != t:
                    for limit in (1, 2, 3, flows.INF):
                        assert (flows.arc_flow(rows, s, t, limit)
                                == unit_flow(rows, s, t, limit))


def _top_level_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [a.asname or a.name for a in node.names]
    targets = node.targets if isinstance(node, ast.Assign) else [
        getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _is_exception_base(base) -> bool:
    name = getattr(base, "id", None) or getattr(base, "attr", None)
    builtin = getattr(builtins, name or "", None)
    return name == "CombenchError" or (isinstance(builtin, type)
                                       and issubclass(builtin, BaseException))


def test_shipped_modules_hold_no_asserts_or_oracles():
    """Checks in src/combench must survive ``python -O``, test-only oracles
    live in tests/oracles.py, not in the shipped modules, and every rejected
    input raises the one error type, CombenchError."""
    found = []
    for path in sorted(Path(combench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif (isinstance(node, ast.ClassDef)
                  and any(map(_is_exception_base, node.bases))
                  and (path.name, node.name) != ("__init__.py", "CombenchError")):
                found.append(f"{path.name}:{node.lineno} class {node.name}")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) in ("ValueError", "TypeError", "KeyError"):
                    found.append(f"{path.name}:{node.lineno} raise {exc.id}")
        found += [f"{path.name}:{node.lineno} {name}" for node in tree.body
                  for name in _top_level_names(node)
                  if name.startswith("brute_force_") or name.endswith("_oracle")]
    assert found == []


# Shipped top-level names and methods that no runner, verb or shipped caller
# reaches, kept on purpose, with the reason.
REACH_EXEMPT = {
    "graphs.Digraph.in_row": "perfbench/spans.py wraps it for "
                             "graphs.in_row_calls",
}


def _walked(node):
    """The nodes whose names a reached definition references: a class
    contributes its bases, decorators, class-level statements and dunder
    methods; its other methods count only once their own name is reached."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    parts = node.bases + node.decorator_list + [
        s for s in node.body if not isinstance(s, ast.FunctionDef)
        or s.name.startswith("__")]
    return (ref for part in parts for ref in ast.walk(part))


def test_shipped_names_are_reached():
    """Every top-level function and class and every method (dunders aside)
    in src/combench is reached from a registry runner, a cli function or a
    module-level statement, following the names referenced in each body
    reached; tests do not count.  A name or attribute that is assigned
    (a dataclass field, a variable, ``obj.x = ...``) reaches nothing."""
    defs, roots = {}, []
    for path in sorted(Path(combench.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qual = f"{path.stem}.{node.name}"
                defs.setdefault(node.name, []).append((qual, node))
                if path.stem == "cli" or any(
                        isinstance(d, ast.Call)
                        and getattr(d.func, "id", None) == "register"
                        for d in node.decorator_list):
                    roots.append((qual, node))
                methods = node.body if isinstance(node, ast.ClassDef) else ()
                for sub in methods:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("__")):
                        defs.setdefault(sub.name, []).append(
                            (f"{qual}.{sub.name}", sub))
            else:
                roots.append((None, node))
    # an exempt definition is kept on purpose, so what it uses is reached
    roots += [(qual, node) for entries in defs.values()
              for qual, node in entries if qual in REACH_EXEMPT]
    reached = {qual for qual, _ in roots}
    stack = [node for _, node in roots]
    while stack:
        for ref in _walked(stack.pop()):
            if isinstance(getattr(ref, "ctx", None), ast.Store):
                continue
            name = ref.id if isinstance(ref, ast.Name) else getattr(ref, "attr", None)
            for qual, node in defs.get(name, ()):
                if qual not in reached:
                    reached.add(qual)
                    stack.append(node)
    shipped = {qual for entries in defs.values() for qual, _ in entries}
    assert set(REACH_EXEMPT) <= shipped
    assert sorted(shipped - reached - set(REACH_EXEMPT)) == []
