"""Problem registry: one entry per workbench problem, with parameter schemas
and runner bindings, plus deterministic RunReports."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import CombenchError

ARTIFACT_VERSION = "1"


@dataclass
class ProblemEntry:
    id: str
    section: str
    kind: str                    # checker | exact | scan | monte-carlo
    params: dict                 # name -> (type, default, minimum or None)
    runner: object
    note: str = ""


@dataclass
class RunReport:
    problem: str
    params: dict
    seed: int
    wall_time: float
    payload: dict
    version: str = ARTIFACT_VERSION

    def to_json(self) -> str:
        return json.dumps({
            "problem": self.problem, "params": self.params, "seed": self.seed,
            "wall_time": round(self.wall_time, 3), "payload": self.payload,
            "version": self.version,
        }, indent=2, sort_keys=True, default=str)


_REGISTRY: dict[str, ProblemEntry] = {}


def register(id: str, section: str, kind: str, params: dict, note: str = ""):
    def wrap(fn):
        _REGISTRY[id] = ProblemEntry(id, section, kind, params, fn, note)
        return fn
    return wrap


def list_problems(section_filter: str = "") -> list[ProblemEntry]:
    out = [e for e in _REGISTRY.values()
           if section_filter in e.section or section_filter in e.id]
    return sorted(out, key=lambda e: e.id)


def run(problem_id: str, params: dict | None = None, seed: int = 0) -> RunReport:
    if problem_id not in _REGISTRY:
        raise CombenchError(f"unknown problem id {problem_id!r}", exit_code=3)
    entry = _REGISTRY[problem_id]
    merged = {}
    params = params or {}
    for name, (typ, default, minimum) in entry.params.items():
        if name in params:
            value = params[name]
            if isinstance(value, bool) and typ in (int, float):
                raise CombenchError(f"parameter {name} must be a number, "
                                    f"got {json.dumps(value)}")
            try:
                merged[name] = typ(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise CombenchError(f"parameter {name}: {exc}") from exc
            if typ is int and isinstance(value, float) and value != merged[name]:
                raise CombenchError(f"parameter {name} must be a whole number, "
                                    f"got {value}")
        else:
            merged[name] = default
        if minimum is not None and merged[name] < minimum:
            raise CombenchError(f"parameter {name} must be >= {minimum}, "
                                f"got {merged[name]}")
    for name in params:
        if name not in entry.params:
            raise CombenchError(f"unknown parameter {name!r} for {problem_id}")
    t0 = time.perf_counter()
    payload = entry.runner(seed=seed, **merged)
    return RunReport(problem_id, merged, seed, time.perf_counter() - t0, payload)


# ---------------------------------------------------------------------------
# runner bindings


def _g6(g) -> str:
    from .graphs import to_graph6
    return to_graph6(g)


@register("sec8.mckay.half-cycles", "8.1", "exact",
          {"n": (int, 12, 4)},
          "maximum number of (n/2)-cycles over connected cubic graphs")
def _half_cycles(seed: int, n: int) -> dict:
    from .cycles import count_cycles_of_length
    from .generate import connected_cubic_graphs

    best, witnesses = -1, []
    for g in connected_cubic_graphs(n):
        c = count_cycles_of_length(g, n // 2) if n >= 6 else 0
        if c > best:
            best, witnesses = c, [g]
        elif c == best:
            witnesses.append(g)
    return {"n": n, "max": best, "witness_count": len(witnesses),
            "witnesses": [_g6(w) for w in witnesses[:4]]}


@register("sec5.thomassen.smith", "5.3", "checker", {"n_max": (int, 10, 4)},
          "even Hamilton-cycle count through every edge of every cubic graph")
def _smith(seed: int, n_max: int) -> dict:
    from .cycles import smith_parity_check
    from .generate import connected_cubic_graphs

    graphs = violations = 0
    for n in range(4, n_max + 1, 2):
        for g in connected_cubic_graphs(n):
            graphs += 1
            violations += len(smith_parity_check(g)["odd_edges"])
    return {"graphs_checked": graphs, "odd_edge_counts": violations}


@register("sec5.thomassen.bipartite-even", "5.3", "checker", {"n_max": (int, 10, 4)},
          "even total Hamilton-cycle count for bipartite cubic graphs")
def _bip_even(seed: int, n_max: int) -> dict:
    from .cycles import count_ham_cycles
    from .generate import connected_cubic_graphs
    from .graphs import is_bipartite

    graphs = violations = 0
    for n in range(4, n_max + 1, 2):
        for g in connected_cubic_graphs(n):
            if is_bipartite(g):
                graphs += 1
                if count_ham_cycles(g) % 2:
                    violations += 1
    return {"bipartite_cubic_checked": graphs, "odd_totals": violations}


@register("sec5.thomassen.lollipop", "5.3", "scan", {"n": (int, 10, 4)},
          "lollipop step profile over cyclically 4-edge-connected cubic graphs")
def _lollipop(seed: int, n: int) -> dict:
    from .cycles import lollipop_max_steps
    from .generate import connected_cubic_graphs, cyclically_4_edge_connected

    worst = (0, None)
    examined = 0
    for g in connected_cubic_graphs(n):
        if not cyclically_4_edge_connected(g):
            continue
        steps = lollipop_max_steps(g)
        if steps is None:
            continue
        examined += 1
        if steps > worst[0]:
            worst = (steps, _g6(g))
    return {"n": n, "graphs_profiled": examined,
            "max_steps": worst[0], "witness": worst[1]}


@register("sec2.kelly.small", "2", "checker", {"n_max": (int, 7, 3)},
          "regular tournaments decompose into Hamilton cycles")
def _kelly(seed: int, n_max: int) -> dict:
    from .generate import regular_tournaments
    from .tournaments import kelly_decomposition, verify_kelly

    rows = []
    for n in range(3, n_max + 1, 2):
        ok = total = 0
        for t in regular_tournaments(n):
            total += 1
            dec = kelly_decomposition(t)
            if dec is not None and verify_kelly(t, dec):
                ok += 1
        rows.append({"n": n, "regular_tournaments": total, "decomposed": ok})
    return {"rows": rows, "all_ok": all(r["regular_tournaments"] == r["decomposed"]
                                        for r in rows)}


@register("sec2.bjy.k2-decomp", "2", "checker", {"n_max": (int, 6, 3)},
          "2-arc-strong tournaments split into two arc-disjoint strong parts")
def _bjy(seed: int, n_max: int) -> dict:
    from .generate import tournaments
    from .tournaments import decompose_arc_disjoint_strong, lambda_arc

    checked = failures = 0
    for n in range(3, n_max + 1):
        for t in tournaments(n):
            if lambda_arc(t) >= 2:
                checked += 1
                dec = decompose_arc_disjoint_strong(t, 2)
                if dec is None or not dec.verify(t):
                    failures += 1
    return {"two_arc_strong_checked": checked, "failures": failures}


@register("sec2.bermond-thomassen.tournaments", "2", "checker",
          {"n_max": (int, 7, 3)},
          "min out-degree 3 tournaments contain 2 disjoint cycles")
def _bt(seed: int, n_max: int) -> dict:
    from .generate import tournaments
    from .tournaments import disjoint_cycles

    checked = failures = 0
    for n in range(3, n_max + 1):
        for t in tournaments(n):
            if min(t.out_degree(v) for v in range(n)) >= 3:
                checked += 1
                if disjoint_cycles(t, 2) is None:
                    failures += 1
    return {"checked": checked, "failures": failures}


@register("sec2.partition-roots", "2", "scan", {"n": (int, 6, 1)},
          "rooted partitions into strong parts")
def _partition_roots(seed: int, n: int) -> dict:
    from .generate import tournaments
    from .tournaments import partition_into_k_strong

    found = tried = 0
    for t in tournaments(n):
        tried += 1
        if partition_into_k_strong(t, 2, 1) is not None:
            found += 1
    return {"n": n, "tournaments": tried, "partitionable_t2_k1": found}


@register("sec2.two-factor-directed", "2", "checker", {"n": (int, 6, 3)},
          "2-factor of UG(D) with one directed cycle")
def _two_factor(seed: int, n: int) -> dict:
    import random as _r

    from .graphs import Digraph, directed_cycle
    from .tournaments import two_factor_one_directed

    rng = _r.Random(seed)
    yes = no = 0
    if two_factor_one_directed(directed_cycle(n)) is None:
        raise RuntimeError(f"two_factor_one_directed misses the directed {n}-cycle")
    for _ in range(20):
        d = Digraph(n)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    d.add_arc(u, v)
        if two_factor_one_directed(d) is not None:
            yes += 1
        else:
            no += 1
    return {"n": n, "with_factor": yes, "without": no}


@register("sec2.colored-matchings", "2", "checker", {"n": (int, 4, 1)},
          "colour-constrained disjoint perfect matchings")
def _colored(seed: int, n: int) -> dict:
    import random as _r

    from .tournaments import ColoredBipartite, colored_two_matchings

    rng = _r.Random(seed)
    yes = no = 0
    for _ in range(30):
        colors = {}
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.7:
                    colors[(i, j)] = rng.choice([1, 2])
        if colored_two_matchings(ColoredBipartite(n, n, colors)) is not None:
            yes += 1
        else:
            no += 1
    return {"n": n, "decided_yes": yes, "decided_no": no}


@register("sec3.pikhurko.pendant", "3.1", "scan",
          {"d": (int, 3, 0), "n_max": (int, 6, 1)},
          "pendant precolouring extension and forced extra palette")
def _pendant(seed: int, d: int, n_max: int) -> dict:
    from .coloring import pendant_f_scan

    worst, _ = pendant_f_scan(d, n_max)
    return {"d": d, "n_max": n_max, "max_forced_f": worst}


@register("sec4.kierstead.equitable", "4.2", "checker",
          {"n": (int, 60, 1), "delta": (int, 5, 0), "k": (int, 6, 1)},
          "equitable k-colouring for max degree < k")
def _equitable(seed: int, n: int, delta: int, k: int) -> dict:
    import random as _r

    from .coloring import equitable_coloring
    from .graphs import Graph

    rng = _r.Random(seed)
    g = Graph(n)
    for _ in range(n * 12):
        u, v = rng.randrange(n), rng.randrange(n)
        if (u != v and not g.has_edge(u, v)
                and g.adj[u].bit_count() < delta and g.adj[v].bit_count() < delta):
            g.add_edge(u, v)
    col = equitable_coloring(g, k)
    sizes = sorted(col.class_sizes())
    return {"n": n, "k": k, "class_sizes": sizes,
            "spread": sizes[-1] - sizes[0]}


@register("sec4.heuvel.cyclic-ordering", "4.3.1", "checker", {},
          "cyclic orderings of disjoint spanning trees")
def _cyclic_ord(seed: int) -> dict:
    from .designs import (cyclic_base_ordering, graphic_independence,
                          verify_cyclic_ordering)

    indep = graphic_independence(4)
    t1 = [(0, 1), (1, 2), (2, 3)]
    t2 = [(0, 2), (1, 3), (0, 3)]
    plain = cyclic_base_ordering([t1, t2], indep)
    block = cyclic_base_ordering([t1, t2], indep, block_mode=True)
    return {
        "two_trees_plain": plain is not None and verify_cyclic_ordering(plain, 3, indep),
        "two_trees_block": block is not None and verify_cyclic_ordering(block, 3, indep),
    }


@register("sec4.heuvel.strong-hypergraph", "4.3.2", "exact", {"n": (int, 5, 3)},
          "chi_s vs chi_d on small hypergraphs")
def _strong_hyper(seed: int, n: int) -> dict:
    from .coloring import hyper_strong_chromatic
    from .graphs import Hypergraph

    tight = Hypergraph(n, [[i, (i + 1) % n, (i + 2) % n] for i in range(n)], k=3)
    rec = hyper_strong_chromatic(tight)
    ok = rec["chi_s"] <= rec["chi_d"] ** (rec["rank"] - 1)
    return {"tight_cycle": rec, "upper_bound_holds": ok}


@register("sec4.falgas-ravry.width", "4.4", "exact", {"n_max": (int, 14, 3)},
          "antichain width of path/cycle independence complexes vs max layer")
def _width(seed: int, n_max: int) -> dict:
    from .families import layer_profile, width_independence_complex
    from .graphs import cycle_graph, path_graph

    rows = []
    for n in range(3, n_max + 1):
        for fam, g in (("P", path_graph(n)), ("C", cycle_graph(n))):
            w = width_independence_complex(g)
            ml = max(layer_profile(g))
            rows.append({"family": fam, "n": n, "width": w, "max_layer": ml})
    return {"rows": rows,
            "all_equal": all(r["width"] == r["max_layer"] for r in rows)}


@register("sec4.falgas-ravry.random", "4.4", "monte-carlo",
          {"n": (int, 14, 1), "c": (float, 1.0, None), "trials": (int, 5, 1)},
          "width / max-layer ratio for sparse random graphs")
def _width_random(seed: int, n: int, c: float, trials: int) -> dict:
    from .families import random_graph_width

    return random_graph_width(n, c, trials, seed)


@register("sec5.simonovits.critical", "5.1", "scan",
          {"k": (int, 4, 1), "n_max": (int, 6, 1)},
          "max min-degree over k-colour-critical graphs")
def _critical(seed: int, k: int, n_max: int) -> dict:
    from .coloring import critical_min_degree_scan

    best, wits = critical_min_degree_scan(k, n_max)
    return {"k": k, "n_max": n_max, "max_min_degree": best,
            "witnesses": [_g6(w) for w in wits[:4]]}


@register("sec5.fomin.mis", "5.2", "checker", {"n": (int, 10, 1)},
          "exact maximum independent sets vs the floor(n/4)+1 target")
def _fomin(seed: int, n: int) -> dict:
    from .graphs import petersen_graph
    from .structure import independence_number

    g = petersen_graph()
    return {"petersen_alpha": independence_number(g),
            "planar_target_floor": n // 4 + 1}


@register("sec5.backelin.shift", "5.4", "exact",
          {"n": (int, 7, 1), "r": (int, 2, 2), "pattern": (str, "XOXO", None)},
          "chromatic numbers of cyclic shift graphs")
def _shift(seed: int, n: int, r: int, pattern: str) -> dict:
    from .coloring import chromatic_number, shift_graph_cyclic

    g = shift_graph_cyclic(n, r, pattern)
    return {"n": n, "r": r, "pattern": pattern, "vertices": g.n,
            "edges": g.edge_count(), "chi": chromatic_number(g)}


@register("sec5.rucinski.mcr", "5.5", "scan",
          {"n_max": (int, 6, 1), "r": (int, 2, 1)},
          "vertex arrowing of the 2-edge star and the mad scan")
def _mcr(seed: int, n_max: int, r: int) -> dict:
    from fractions import Fraction

    from .coloring import arrows_vertex, mcr_scan
    from .graphs import complete_graph, star_graph

    s2 = star_graph(2)
    pigeon = arrows_vertex(complete_graph(r * 2 + 1), complete_graph(3), r)
    best, witness = mcr_scan(s2, r, n_max, mad_cap=4)
    return {"pigeonhole_K5_K3": pigeon,
            "best_mad": str(best) if best is not None else None,
            "at_least_14_5": best is None or best >= Fraction(14, 5),
            "witness": _g6(witness) if witness else None}


@register("sec6.lo.overfull", "6", "checker", {"n_max": (int, 7, 2)},
          "overfull subgraphs force chromatic index Delta+1")
def _overfull(seed: int, n_max: int) -> dict:
    from .coloring import edge_chromatic_class, has_overfull_subgraph
    from .generate import all_graphs_cached

    checked = inconsistent = overfull_class2 = 0
    for n in range(2, n_max + 1):
        for g in all_graphs_cached(n):
            if g.edge_count() == 0:
                continue
            checked += 1
            wit = has_overfull_subgraph(g)
            _, cls = edge_chromatic_class(g)
            if wit is not None:
                overfull_class2 += 1
                if cls != 2:
                    inconsistent += 1
    return {"graphs": checked, "overfull_graphs": overfull_class2,
            "class1_despite_overfull": inconsistent}


@register("sec7.verstraete.percolation", "7.1", "monte-carlo",
          {"sizes": (str, "32,64", None), "trials": (int, 400, 1)},
          "threshold sweeps for 2-neighbour bootstrap percolation on grids")
def _perc(seed: int, sizes: str, trials: int) -> dict:
    from .perc import default_grids, parse_sizes, threshold_sweep

    ns = parse_sizes(sizes)
    sweeps = threshold_sweep(ns, default_grids(ns), trials, seed)
    return {"sweeps": [{"n": s.n, "p_half": s.p_half, "reference": s.reference,
                        "estimates": s.estimates} for s in sweeps]}


@register("sec7.markstrom.gl2", "7.2", "exact", {"n": (int, 3, 1)},
          "Cayley diameter of GL(n,2) under row additions")
def _gl2(seed: int, n: int) -> dict:
    from .gl2 import diameter

    d = diameter(n)
    return {"n": n, "diameter": d["diameter"],
            "extremal_count": d["extremal_count"],
            "group_order": d["group_order"]}


@register("sec7.markstrom.gl2-greedy", "7.2", "scan",
          {"n": (int, 64, 2), "trials": (int, 25, 1)},
          "blockwise reduction operation counts vs n^2/log2 n")
def _gl2_greedy(seed: int, n: int, trials: int) -> dict:
    import math
    import random as _r

    from .gl2 import apply_word, greedy_reduce, identity, random_invertible

    rng = _r.Random(seed)
    tot = 0
    for _ in range(trials):
        m = random_invertible(n, rng)
        cnt, ops = greedy_reduce(m, n)
        if apply_word(m, ops) != identity(n):
            raise RuntimeError("greedy reduction word does not replay to "
                               "the identity")
        tot += cnt
    avg = tot / trials
    return {"n": n, "avg_ops": avg,
            "ratio_to_n2_over_log": avg / (n * n / math.log2(n))}


@register("sec7.rucinski.sat", "7.3", "exact",
          {"n": (int, 6, 1), "k": (int, 2, 2), "ell": (int, 1, 1)},
          "minimum size of an l-Hamiltonian-saturated k-graph")
def _sat(seed: int, n: int, k: int, ell: int) -> dict:
    from .extremal import sat_search

    m, _ = sat_search(n, k, ell)
    return {"n": n, "k": k, "ell": ell, "sat": m,
            "ceil_3n_over_2": -(-3 * n // 2)}


@register("sec8.mckay.max-aut", "8.1", "exact", {"n": (int, 8, 4)},
          "max automorphism order of 3-connected cubic graphs")
def _max_aut(seed: int, n: int) -> dict:
    from .generate import max_aut_3connected_cubic

    rec = max_aut_3connected_cubic(n)
    return {"n": n, "max_aut": rec["max_aut_order"],
            "bound_n_2_pow": n * 2 ** (n / 4),
            "witnesses": [_g6(w) for w in rec["witnesses"][:4]]}


@register("sec8.mckay.magic", "8.1", "exact",
          {"n": (int, 3, 1), "k_max": (int, 12, 0)},
          "magic matrix counts, positivity fractions, Ehrhart reciprocity")
def _magic(seed: int, n: int, k_max: int) -> dict:
    from .designs import count_magic, ehrhart_check, positive_fraction

    rows = [{"k": k, "count": count_magic(n, k),
             "positive_fraction": str(positive_fraction(n, k))}
            for k in range(k_max + 1)]
    return {"n": n, "rows": rows, "reciprocity": ehrhart_check(n, k_max)}


@register("sec8.thomason.path-systems", "8.2", "checker", {"labels": (int, 3, 1)},
          "path-system realizability")
def _paths(seed: int, labels: int) -> dict:
    from .designs import realize_path_system

    lab = [chr(ord("a") + i) for i in range(labels)]
    chain = realize_path_system(lab, [lab])
    loop = realize_path_system(["a", "b"], [["a", "a"]])
    return {"chain_realizable": chain is not None, "repeat_rejected": loop is None}


@register("sec8.kostochka.jk-coloring", "8.4.1", "checker",
          {"n_max": (int, 7, 1), "j": (int, 1, 0), "k": (int, 1, 0)},
          "(j,k)-colourings exist for max degree <= j+k+1")
def _jk(seed: int, n_max: int, j: int, k: int) -> dict:
    from .coloring import improper_partition
    from .generate import graphs_upto

    checked = failures = 0
    for level in graphs_upto(n_max, max_degree=j + k + 1).values():
        for g in level:
            checked += 1
            if improper_partition(g, j, k) is None:
                failures += 1
    return {"checked": checked, "failures": failures}


@register("sec8.kostochka.circle", "8.4.2", "exact", {"chords": (int, 5, 1)},
          "clique and chromatic numbers of circle graphs")
def _circle(seed: int, chords: int) -> dict:
    import random as _r

    from .coloring import ChordDiagram, chromatic_number, circle_graph
    from .structure import clique_number

    rng = _r.Random(seed)
    pts = list(range(2 * chords))
    rng.shuffle(pts)
    diag = ChordDiagram([(pts[2 * i], pts[2 * i + 1]) for i in range(chords)])
    g = circle_graph(diag)
    return {"chords": chords, "omega": clique_number(g),
            "chi": chromatic_number(g)}


@register("sec8.conlon.mono-cycles", "8.5", "checker",
          {"n": (int, 7, 2), "trials": (int, 10, 1)},
          "2-locally coloured complete graphs split into two mono cycles")
def _mono(seed: int, n: int, trials: int) -> dict:
    import random as _r

    from .coloring import is_local_r_coloring, min_mono_cycle_partition

    rng = _r.Random(seed)
    worst = 0
    tested = 0
    while tested < trials:
        colors = {}
        # vertex-split construction gives 2-local colourings with 3 colours
        split = rng.randrange(1, n)
        for u in range(n):
            for v in range(u + 1, n):
                if v < split:
                    colors[(u, v)] = 0
                elif u >= split:
                    colors[(u, v)] = 1
                else:
                    colors[(u, v)] = 2
        if not is_local_r_coloring(n, colors, 2):
            continue
        tested += 1
        cnt, _ = min_mono_cycle_partition(n, colors)
        worst = max(worst, cnt)
    return {"n": n, "tested": tested, "max_pieces": worst}


@register("sec9.simonovits.turan", "9.1", "exact", {"n": (int, 6, 3)},
          "Turan numbers over the generated F-free graphs")
def _turan(seed: int, n: int) -> dict:
    from .extremal import turan_number
    from .graphs import complete_graph, cycle_graph

    v3, _ = turan_number(n, [complete_graph(3)])
    cyc = [cycle_graph(i) for i in range(3, n + 1)]
    vall, _ = turan_number(n, cyc)
    return {"n": n, "ext_K3": v3, "ext_all_cycles": vall,
            "tree_bound": n - 1}


@register("sec9.aas-mckay.cycle-space", "9.2", "checker", {"n_max": (int, 6, 2)},
          "cycle space dimensions over GF(2) and GF(3)")
def _cycle_space(seed: int, n_max: int) -> dict:
    from . import flows
    from .cycles import cycle_space_dimension
    from .generate import all_graphs_cached
    from .graphs import is_connected

    checked2 = bad2 = checked3 = bad3 = 0
    for n in range(2, n_max + 1):
        for g in all_graphs_cached(n):
            if not is_connected(g):
                continue
            checked2 += 1
            if cycle_space_dimension(g, 2) != g.edge_count() - g.n + 1:
                bad2 += 1
            if flows.edge_connectivity(g) >= 3:
                checked3 += 1
                if cycle_space_dimension(g, 3) != g.edge_count():
                    bad3 += 1
    return {"connected_checked": checked2, "gf2_violations": bad2,
            "three_edge_connected_checked": checked3, "gf3_violations": bad3}


@register("sec9.gyarfas.3tournament", "9.3", "scan",
          {"n": (int, 6, 1), "budget": (int, 200, 1)},
          "domination numbers of random 3-tournaments")
def _dom(seed: int, n: int, budget: int) -> dict:
    from .designs import dom_scan

    best, _ = dom_scan(n, budget, seed)
    return {"n": n, "budget": budget, "max_dom_found": best}


@register("sec9.markstrom.strong-chromatic", "9.4", "checker",
          {"n_max": (int, 5, 2)},
          "biclique number vs strong chromatic number")
def _strong_chi(seed: int, n_max: int) -> dict:
    from .coloring import strong_chromatic_number
    from .generate import all_graphs_cached
    from .structure import biclique_number

    checked = below = above_plus1 = 0
    for n in range(2, n_max + 1):
        for g in all_graphs_cached(n):
            if g.edge_count() == 0:
                continue
            checked += 1
            wb = biclique_number(g)
            sc = strong_chromatic_number(g)
            if sc < wb:
                below += 1
            if sc > wb + 1:
                above_plus1 += 1
    return {"checked": checked, "below_biclique": below,
            "exceeding_biclique_plus_1": above_plus1}


@register("sec9.sudakov.bipartization", "9.5", "exact", {"n": (int, 10, 5)},
          "edge deletions to make K_r-free graphs bipartite")
def _bipartization(seed: int, n: int) -> dict:
    from .extremal import bipartization_cost
    from .graphs import Graph

    blow = Graph(n)
    per = n // 5
    for i in range(5):
        for a in range(per):
            for b in range(per):
                blow.add_edge((i * per + a) % n,
                              ((i + 1) % 5) * per + b)
    rec = bipartization_cost(blow)
    return {"n": n, "c5_blowup_cost": rec["cost"],
            "n2_over_25": n * n // 25, "k_r_free_for": rec["k_r_free_for"]}


@register("sec10.mubayi.ramsey-witness", "10.1", "checker", {"n": (int, 7, 1)},
          "red loose-triangle / blue clique witness search")
def _ramsey(seed: int, n: int) -> dict:
    import itertools as _it
    import random as _r

    from .extremal import hyper_ramsey_witness

    rng = _r.Random(seed)
    red = {tri for tri in _it.combinations(range(n), 3) if rng.random() < 0.5}
    verdict = hyper_ramsey_witness(n, red, t=4)
    return {"n": n, "verdict": verdict[0] if verdict else "lower-bound witness"}


@register("sec10.bang-jensen.xy-paths", "10.2", "checker", {"n_max": (int, 6, 1)},
          "Hamiltonian (x,y)-paths in highly strong tournaments")
def _xy(seed: int, n_max: int) -> dict:
    from .cycles import ham_path_xy
    from .generate import tournaments
    from .graphs import rotational_tournament
    from .tournaments import is_k_strong

    checked = failures = 0
    # no tournament below 9 vertices is 4-strong (semidegrees cap at (n-1)/2),
    # so rotational instances carry the small-scale theorem check
    pool = [t for n in range(5, n_max + 1) for t in tournaments(n)]
    pool.append(rotational_tournament(9, residues={1, 2, 3, 4}))
    pool.append(rotational_tournament(11, residues={1, 2, 3, 4, 5}))
    for t in pool:
        if is_k_strong(t, 4):
            for x in range(t.n):
                for y in range(t.n):
                    if x != y:
                        checked += 1
                        if ham_path_xy(t, x, y) is None:
                            failures += 1
    return {"pairs_checked": checked, "failures": failures}


@register("sec10.bang-jensen.path-mergeable", "10.2", "checker",
          {"n": (int, 5, 2)},
          "path-mergeable recognition and Hamiltonicity")
def _pm(seed: int, n: int) -> dict:
    import random as _r

    from .cycles import cycles_through
    from .graphs import Digraph, directed_cycle
    from .graphs import is_strongly_connected
    from .tournaments import cut_vertices, is_path_mergeable

    rng = _r.Random(seed)
    if not is_path_mergeable(directed_cycle(n)):
        raise RuntimeError(f"is_path_mergeable rejects the directed {n}-cycle")
    consistent = True
    for _ in range(30):
        d = Digraph(n)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.5:
                    d.add_arc(u, v)
        if (is_path_mergeable(d) and is_strongly_connected(d)
                and not cut_vertices(d.underlying_graph())):
            full = (1 << n) - 1
            if next(cycles_through(d.out, 0, full, n), None) is None:
                consistent = False
    return {"n": n, "theorem_consistent": consistent}


@register("sec10.markstrom.latin", "10.3", "scan",
          {"n": (int, 4, 1), "mode": (str, "exhaustive", None),
           "budget": (int, 1000, 1)},
          "Latin-square avoidance under the n-2 multiplicity cap")
def _latin(seed: int, n: int, mode: str, budget: int) -> dict:
    from .designs import avoidance_scan

    res = avoidance_scan(n, mode, budget=budget, seed=seed)
    return {"n": n, "mode": mode, "checked": res["checked"],
            "unavoidable_found": res["counterexample"] is not None}


@register("sec11.bang-jensen.alpha-beta", "11.1", "checker",
          {"n_max": (int, 5, 1), "k": (int, 1, 1)},
          "alpha_k = beta_k evidence and reversal-number identity")
def _alpha_beta(seed: int, n_max: int, k: int) -> dict:
    from .generate import tournaments
    from .tournaments import (alpha_k, beta_k, lambda_arc, reversal_arc_strong,
                              reversal_deg)

    eq = ne = rev_ok = rev_checked = 0
    for n in range(2 * k + 1, n_max + 1):
        for t in tournaments(n):
            lam = lambda_arc(t)
            if lam >= k:
                a, _ = alpha_k(t, k)
                b, _ = beta_k(t, k)
                if a == b:
                    eq += 1
                else:
                    ne += 1
            rev_checked += 1
            ra = len(reversal_arc_strong(t, k))
            rd = len(reversal_deg(t, k))
            if ra == max(k - lam, rd):
                rev_ok += 1
    return {"alpha_eq_beta": eq, "alpha_ne_beta": ne,
            "reversal_identity_ok": rev_ok, "reversal_checked": rev_checked}


@register("sec11.families.katona", "11.2", "exact",
          {"n": (int, 4, 1), "k": (int, 2, 1)},
          "maximum k-intersecting families and antichain variants")
def _katona(seed: int, n: int, k: int) -> dict:
    from .families import katona_bound, max_family, milner_bound

    inter, _ = max_family(n, k_intersecting=k)
    anti, _ = max_family(n, k_intersecting=k, antichain=True)
    diam, _ = max_family(n, antichain=True, diameter_max=n - k)
    return {"n": n, "k": k,
            "max_k_intersecting": inter, "katona": katona_bound(n, k),
            "max_k_intersecting_antichain": anti, "milner": milner_bound(n, k),
            "max_antichain_diameter": diam}


@register("sec12.leader.sym-ramsey", "12", "exact",
          {"n": (int, 3, 1), "k": (int, 2, 1), "r": (int, 2, 1)},
          "monochromatic copies of S_r in k-coloured S_n")
def _sym(seed: int, n: int, k: int, r: int) -> dict:
    from .designs import sym_ramsey_check

    return {"n": n, "k": k, "r": r, "ramsey": sym_ramsey_check(n, k, r)}
