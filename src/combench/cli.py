"""Command-line front end: problem registry access, per-module verbs, and
golden-table reproduction.

Each question has one execution path.  A question a registry entry answers
is asked with ``run --id``, whose payload holds every value.  A per-module
verb exists only where no payload holds its answer: it reads a graph,
digraph, matrix or file, takes a forbidden pattern no entry takes, or
prints a witness or one row per generated graph or sweep point.

Exit codes: 0 ok, 2 bad parameters or input, 3 unknown problem, 4 golden
mismatch.  Every rejection of input raises ``CombenchError``, which carries
its exit code; a stdlib parse error (JSON, ``int()``) or an unreadable input
file exits 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import CombenchError, registry

GOLDEN_DIR = Path(__file__).parent / "golden" / "v1"


def _cmd_list(args) -> int:
    entries = registry.list_problems(args.filter or "")
    for e in entries:
        print(f"{e.id:45s} [{e.section:6s}] {e.kind:11s} {e.note}")
    return 0


def _json_object(text: str, what: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise CombenchError(f"{what} must be a JSON object")
    return obj


def _triple_file(path: str, n: int | None) -> dict[tuple[int, ...], object]:
    """The --file JSON object as a map from sorted vertex triples to its
    values.  Each key must be "u,v,w": three distinct vertices in range(n),
    or any three distinct non-negative vertices when n is None, and no two
    keys may name the same triple."""
    out = {}
    for key, value in _json_object(Path(path).read_text(), "--file").items():
        parts = key.split(",")
        tri = tuple(sorted(int(x) for x in parts if x.strip().isdecimal()))
        if len(parts) != 3 or len(set(tri)) != 3 or (
                n is not None and tri[2] >= n):
            what = (f"vertices in 0..{n - 1}" if n is not None
                    else "non-negative vertices")
            raise CombenchError(f"--file key {key!r} is not three distinct "
                                f"{what}")
        if tri in out:
            raise CombenchError(f"--file names the triple {tri} twice")
        out[tri] = value
    return out


def _cmd_run(args) -> int:
    params = _json_object(args.params, "--params") if args.params else {}
    print(registry.run(args.id, params, seed=args.seed).to_json())
    return 0


# ---------------------------------------------------------------------------
# golden tables


def golden_rows(profile: str) -> list[tuple]:
    """(csv name, problem id, params, row extractor) per profile."""
    quick = [
        ("half_cycles", "sec8.mckay.half-cycles", [{"n": n} for n in (4, 6, 8, 10, 12)],
         lambda p: [(p["n"], p["max"])]),
        ("kelly", "sec2.kelly.small", [{"n_max": 7}],
         lambda p: [(r["n"], r["regular_tournaments"], r["decomposed"])
                    for r in p["rows"]]),
        ("gl2_diameter", "sec7.markstrom.gl2", [{"n": n} for n in (2, 3, 4)],
         lambda p: [(p["n"], p["diameter"], p["extremal_count"], p["group_order"])]),
        ("magic", "sec8.mckay.magic", [{"n": n, "k_max": 8} for n in (2, 3)],
         lambda p: [(p["n"], r["k"], r["count"], r["positive_fraction"])
                    for r in p["rows"]]),
        ("katona", "sec11.families.katona",
         [{"n": n, "k": k} for n in range(2, 6) for k in range(1, n + 1)],
         lambda p: [(p["n"], p["k"], p["max_k_intersecting"],
                     p["max_k_intersecting_antichain"],
                     p["max_antichain_diameter"])]),
        ("widths", "sec4.falgas-ravry.width", [{"n_max": 12}],
         lambda p: [(r["family"], r["n"], r["width"], r["max_layer"])
                    for r in p["rows"]]),
    ]
    if profile == "quick":
        return quick
    full = quick + [
        ("half_cycles_full", "sec8.mckay.half-cycles",
         [{"n": n} for n in (14, 16)], lambda p: [(p["n"], p["max"])]),
        ("magic4", "sec8.mckay.magic", [{"n": 4, "k_max": 12}],
         lambda p: [(p["n"], r["k"], r["count"], r["positive_fraction"])
                    for r in p["rows"]]),
    ]
    return full


def _run_job(job):
    pid, params, seed = job
    return registry.run(pid, params, seed=seed).payload


def _collect_rows(profile: str, seed: int = 0) -> dict[str, list[tuple]]:
    """Run the profile's problems; COMBENCH_THREADS > 1 fans independent
    problems out to worker processes (report assembly stays ordered)."""
    import os

    plan = [(name, pid, params, extract)
            for name, pid, param_list, extract in golden_rows(profile)
            for params in param_list]
    threads = int(os.environ.get("COMBENCH_THREADS", "1"))
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            payloads = list(pool.map(
                _run_job, [(pid, params, seed) for _, pid, params, _ in plan]))
    else:
        payloads = [_run_job((pid, params, seed))
                    for _, pid, params, _ in plan]
    tables: dict[str, list[tuple]] = {}
    for (name, _, _, extract), payload in zip(plan, payloads):
        tables.setdefault(name, []).extend(extract(payload))
    return tables


def _rows_to_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _cmd_reproduce(args) -> int:
    tables = _collect_rows(args.profile, seed=args.seed)
    mismatches = []
    for name, rows in sorted(tables.items()):
        got = _rows_to_csv(rows)
        path = GOLDEN_DIR / f"{name}.csv"
        if args.write:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(got, newline="\r\n")  # the goldens are CRLF
            print(f"wrote {path}")
            continue
        if not path.exists():
            mismatches.append((name, "missing golden file"))
            continue
        want = path.read_text()
        if got != want:
            mismatches.append((name, "row mismatch"))
            print(f"FAIL {name}")
            for a, b in zip(want.splitlines(), got.splitlines()):
                if a != b:
                    print(f"  golden: {a}\n  got:    {b}")
        else:
            print(f"ok   {name}")
    if mismatches and not args.write:
        print(f"{len(mismatches)} table(s) diverged", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# per-module verbs


def _cmd_gen(args) -> int:
    from .generate import GenSpec, generate
    from .graphs import Digraph, to_digraph6, to_graph6

    try:
        spec = GenSpec(**_json_object(args.spec, "--spec"))
    except TypeError as exc:
        raise CombenchError(f"bad spec: {exc}") from None
    bounds = (spec.min_degree, spec.max_degree, spec.regular, spec.max_edges,
              spec.connectivity)
    if (type(spec.n) is not int
            or any(b is not None and type(b) is not int for b in bounds)
            or spec.bipartite is not None and type(spec.bipartite) is not bool):
        raise CombenchError("bad spec: n and the degree, edge and connectivity "
                            "bounds must be integers, bipartite a boolean")
    for obj in generate(spec):
        print(to_digraph6(obj) if isinstance(obj, Digraph) else to_graph6(obj))
    return 0


def _cmd_cycles(args) -> int:
    from .cycles import (count_cycles_of_length, lollipop_max_steps,
                         smith_parity_check)
    from .generate import connected_cubic_graphs, cyclically_4_edge_connected
    from .graphs import to_graph6

    n = args.n
    if args.verb == "half-cycles":
        for g in connected_cubic_graphs(n):
            count = count_cycles_of_length(g, n // 2) if n >= 6 else 0
            print(f"{n},{to_graph6(g)},{count}")
    elif args.verb == "smith":
        for g in connected_cubic_graphs(n):
            odd = len(smith_parity_check(g)["odd_edges"])
            print(f"{n},{to_graph6(g)},{odd}")
    elif args.verb == "lollipop":
        for g in connected_cubic_graphs(n):
            if args.profile and not cyclically_4_edge_connected(g):
                continue
            steps = lollipop_max_steps(g)
            if steps is not None:
                print(f"{n},{to_graph6(g)},{steps}")
    return 0


def _cmd_tour(args) -> int:
    from .graphs import from_digraph6
    from .tournaments import (alpha_k, beta_k, decompose_arc_disjoint_strong,
                              disjoint_cycles, kelly_decomposition,
                              reversal_arc_strong)

    d = from_digraph6(args.digraph6)
    if args.verb == "decompose":
        dec = decompose_arc_disjoint_strong(d, args.k)
        print(json.dumps(None if dec is None else dec.arc_classes))
    elif args.verb == "kelly":
        print(json.dumps(kelly_decomposition(d)))
    elif args.verb == "cycles":
        print(json.dumps(disjoint_cycles(d, args.k)))
    elif args.verb == "alpha-beta":
        a, _ = alpha_k(d, args.k)
        b, _ = beta_k(d, args.k)
        print(json.dumps({"alpha": a, "beta": b}))
    elif args.verb == "reverse":
        print(json.dumps({"reversals": reversal_arc_strong(d, args.k)}))
    return 0


def _cmd_color(args) -> int:
    from .coloring import (chord_diagram_from_word, chromatic_number,
                           circle_graph, edge_chromatic_class)
    from .graphs import from_graph6

    if args.verb == "chromatic":
        g = from_graph6(args.graph6)
        chi_prime, cls = edge_chromatic_class(g)
        print(json.dumps({"chi": chromatic_number(g),
                          "chi_prime": chi_prime, "class": cls}))
    elif args.verb == "circle":
        g = circle_graph(chord_diagram_from_word(args.word))
        print(json.dumps({"vertices": g.n, "edges": g.edge_count(),
                          "chi": chromatic_number(g)}))
    return 0


def _cmd_fam(args) -> int:
    from .families import max_family

    size, witness = max_family(args.n, k_intersecting=args.k,
                               antichain=args.antichain)
    print(json.dumps({
        "size": size,
        "witness": [format(m, f"0{args.n}b") for m in witness]}))
    return 0


def _cmd_ext(args) -> int:
    from .extremal import bipartization_cost, hyper_ramsey_witness, turan_number
    from .graphs import complete_graph, cycle_graph, from_graph6

    if args.verb == "turan":
        make, size, least = ((complete_graph, args.clique, 2) if args.clique
                             else (cycle_graph, args.cycle, 3))
        if size < least:
            raise CombenchError(f"the forbidden graph needs >= {least} vertices")
        v, w = turan_number(args.n, [make(size)])
        print(json.dumps({"ext": v}))
    elif args.verb == "bipartize":
        rec = bipartization_cost(from_graph6(args.graph6))
        print(json.dumps({"cost": rec["cost"],
                          "k_r_free_for": rec["k_r_free_for"]}))
    elif args.verb == "ramsey":
        if args.n < 1 or args.t < 1:
            raise CombenchError("--n and --t must be >= 1")
        # colouring file: JSON map "u,v,w" -> "red" | "blue"
        colors = _triple_file(args.file, args.n)
        bad = [col for col in colors.values() if col not in ("red", "blue")]
        if bad:
            raise CombenchError(f"--file colour {bad[0]!r} is not "
                                f"\"red\" or \"blue\"")
        red = {tri for tri, col in colors.items() if col == "red"}
        verdict = hyper_ramsey_witness(args.n, red, args.t)
        print(json.dumps({"verdict": verdict[0] if verdict else None,
                          "witness": verdict[1] if verdict else None}))
    return 0


def _cmd_des(args) -> int:
    from .designs import (AvoidArray, ThreeTournament, avoid_latin,
                          dom_3tournament, pair_condition_check)

    if args.verb == "avoid":
        entries = [[int(x) for x in line.split()]
                   for line in Path(args.file).read_text().splitlines()
                   if line.strip()]
        square = avoid_latin(AvoidArray(entries))
        print(json.dumps(square))
    elif args.verb == "dom3":
        # JSON map "a,b,c" -> root vertex, one of a, b and c
        roots = _triple_file(args.file, None)
        if not roots:
            raise CombenchError("--file names no triple")
        for tri, root in roots.items():
            if type(root) is not int or root not in tri:
                raise CombenchError(f"--file root {root!r} of {tri} is not "
                                    f"one of its vertices")
        n = 1 + max(max(t) for t in roots)
        t3 = ThreeTournament(n, roots)
        d, mask = dom_3tournament(t3)
        print(json.dumps({"dom": d,
                          "witness": [v for v in range(n) if mask >> v & 1],
                          "pair_condition": pair_condition_check(t3)}))
    return 0


def _cmd_perc(args) -> int:
    from .perc import default_grids, parse_sizes, sweep_to_csv, threshold_sweep

    sizes = parse_sizes(args.sizes)
    sweeps = threshold_sweep(sizes, default_grids(sizes), args.trials, args.seed)
    sys.stdout.write(sweep_to_csv(sweeps))
    for s in sweeps:
        print(f"# n={s.n} p_half={s.p_half} reference={s.reference}")
    return 0


def _matrix_rows(text: str, n: int) -> tuple[int, ...]:
    """Parse comma-separated hex rows of an n x n matrix over GF(2)."""
    rows = tuple(int(h, 16) for h in text.split(","))
    if len(rows) != n or any(r >> n for r in rows):
        raise CombenchError(f"--matrix needs {n} hex rows of at most {n} bits")
    return rows


def _cmd_gl2(args) -> int:
    from .gl2 import distance, greedy_reduce

    if args.verb == "dist":
        d, word = distance(_matrix_rows(args.matrix, args.n), args.n)
        print(json.dumps({"distance": d, "word": word}))
    elif args.verb == "greedy":
        cnt, word = greedy_reduce(_matrix_rows(args.matrix, args.n), args.n)
        print(json.dumps({"operations": cnt}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="combench",
                                description="desk-scale combinatorics workbench")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("list", help="list registered problems")
    sp.add_argument("--filter", default="")
    sp.set_defaults(fn=_cmd_list)

    sp = sub.add_parser("run", help="run one registered problem")
    sp.add_argument("--id", required=True)
    sp.add_argument("--params", default="")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("reproduce", help="re-derive golden tables")
    sp.add_argument("--profile", choices=("quick", "full"), default="quick")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--write", action="store_true",
                    help="write tables instead of comparing")
    sp.set_defaults(fn=_cmd_reproduce)

    sp = sub.add_parser("gen", help="emit generated graphs")
    sp.add_argument("--spec", required=True, help="JSON GenSpec")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("cycles", help="cycle counting verbs")
    sp.add_argument("verb", choices=("half-cycles", "smith", "lollipop"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--profile", action="store_true")
    sp.set_defaults(fn=_cmd_cycles)

    sp = sub.add_parser("tour", help="tournament verbs")
    sp.add_argument("verb", choices=("decompose", "kelly", "cycles",
                                     "alpha-beta", "reverse"))
    sp.add_argument("digraph6")
    sp.add_argument("--k", type=int, default=1)
    sp.set_defaults(fn=_cmd_tour)

    sp = sub.add_parser("color", help="colouring verbs")
    sp.add_argument("verb", choices=("chromatic", "circle"))
    sp.add_argument("--graph6", default="")
    sp.add_argument("--word", default="")
    sp.set_defaults(fn=_cmd_color)

    sp = sub.add_parser("fam", help="set-family verbs")
    sp.add_argument("verb", choices=("katona",))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--antichain", action="store_true")
    sp.set_defaults(fn=_cmd_fam)

    sp = sub.add_parser("ext", help="extremal verbs")
    sp.add_argument("verb", choices=("turan", "bipartize", "ramsey"))
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--clique", type=int, default=0)
    sp.add_argument("--cycle", type=int, default=4)
    sp.add_argument("--graph6", default="")
    sp.add_argument("--t", type=int, default=4)
    sp.add_argument("--file", default="")
    sp.set_defaults(fn=_cmd_ext)

    sp = sub.add_parser("des", help="design verbs")
    sp.add_argument("verb", choices=("avoid", "dom3"))
    sp.add_argument("--file", default="")
    sp.set_defaults(fn=_cmd_des)

    sp = sub.add_parser("perc", help="percolation sweeps (CSV)")
    sp.add_argument("--sizes", default="32,64")
    sp.add_argument("--trials", type=int, default=400)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_perc)

    sp = sub.add_parser("gl2", help="GL(n,2) verbs")
    sp.add_argument("verb", choices=("dist", "greedy"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--matrix", default="", help="comma-separated hex rows")
    sp.set_defaults(fn=_cmd_gl2)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # CombenchError and json.JSONDecodeError subclass ValueError;
        # OSError is an unreadable --file
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
