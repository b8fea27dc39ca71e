import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import combench
from combench import CombenchError, flows, registry
from combench.cli import main
from combench.designs import AvoidArray, verify_avoidance
from combench.families import katona_bound
from combench.generate import GenSpec, cubic_graphs_all
from combench.graphs import (from_digraph6, from_graph6, rotational_tournament,
                             to_digraph6, to_graph6)
from combench.tournaments import StrongDecomposition
from conftest import certificate, transitive_tournament


def test_list_problems_registry():
    entries = registry.list_problems()
    assert len(entries) >= 30
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)
    assert registry.list_problems("7") != []
    assert registry.list_problems("no-such-section") == []


def test_registry_covers_in_scope_sections():
    """Every in-scope problem area carries at least one registry entry."""
    required = {
        "2", "3.1", "4.2", "4.3.1", "4.3.2", "4.4", "5.1", "5.2", "5.3",
        "5.4", "5.5", "6", "7.1", "7.2", "7.3", "8.1", "8.2", "8.4.1",
        "8.4.2", "8.5", "9.1", "9.2", "9.3", "9.4", "9.5", "10.1", "10.2",
        "10.3", "11.1", "11.2", "12",
    }
    covered = {e.section for e in registry.list_problems()}
    assert required <= covered


def test_run_report_determinism():
    a = registry.run("sec11.families.katona", {"n": 4, "k": 2}, seed=5)
    b = registry.run("sec11.families.katona", {"n": 4, "k": 2}, seed=5)
    assert a.payload == b.payload
    assert a.version == b.version


def test_run_validates():
    with pytest.raises(CombenchError, match="unknown problem id") as exc:
        registry.run("sec99.nothing")
    assert exc.value.exit_code == 3
    with pytest.raises(CombenchError, match="unknown parameter 'bogus'"):
        registry.run("sec11.families.katona", {"bogus": 1})
    with pytest.raises(CombenchError, match="parameter n: invalid literal"):
        registry.run("sec11.families.katona", {"n": "x"})


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["run", "--id", "sec99.none"]) == 3
    assert main(["run", "--id", "sec11.families.katona",
                 "--params", "{bad json"]) == 2
    assert main(["run", "--id", "sec11.families.katona",
                 "--params", '{"bogus": 1}']) == 2
    # bad input exits 2 with a one-line message, never a traceback
    capsys.readouterr()
    missing = tmp_path / "missing.txt"
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    # triple files with a malformed key or value
    files = {}
    for name, obj in (("null_root", {"0,1,2": None}),
                      ("pair_key", {"0,1": 0}),
                      ("out_of_range", {"0,1,99": "red"}),
                      ("bool_root", {"0,1,2": True}),
                      ("outside_root", {"0,1,2": 5}),
                      ("twice", {"0,1,2": 0, "2,1,0": 1}),
                      ("repeated_vertex", {"0,1,1": 1}),
                      ("negative", {"0,1,-2": 0}),
                      ("word", {"0,1,x": "red"}),
                      ("green", {"0,1,2": "green"}),
                      ("empty", {})):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj))
    file_probes = [["des", "dom3", "--file", str(files[name])]
                   for name in ("null_root", "pair_key", "bool_root",
                                "outside_root", "twice", "repeated_vertex",
                                "negative", "word", "empty")]
    file_probes += [["ext", "ramsey", "--file", str(files[name])]
                    for name in ("null_root", "pair_key", "out_of_range",
                                 "twice", "word", "green")]
    # --n and --t are checked before the (well-formed) file is read
    file_probes += [["ext", "ramsey", flag, value, "--file",
                     str(files["empty"])]
                    for flag, value in (("--n", "-1"), ("--n", "0"),
                                        ("--t", "0"))]
    for argv in (["gen", "--spec", "{bad"],
                 ["gen", "--spec", "3"],
                 ["gen", "--spec", '{"bogus": 1}'],
                 ["run", "--id", "sec11.families.katona", "--params", "3"],
                 ["run", "--id", "sec11.families.katona",
                  "--params", '{"n": 1e400}'],
                 ["run", "--id", "sec11.families.katona",
                  "--params", '{"n": 2.7}'],
                 ["tour", "kelly", "&"],
                 ["color", "chromatic", "--graph6", "~~~"],
                 ["color", "chromatic", "--graph6="],
                 ["color", "chromatic", "--graph6", "C~~~~"],
                 ["gl2", "greedy", "--n", "4", "--matrix", "1,2"],
                 ["gl2", "greedy", "--n", "2", "--matrix", "3,3"],
                 ["gen", "--spec", '{"n": 12, "class_tag": "tournament"}'],
                 ["run", "--id", "sec7.markstrom.gl2", "--params", '{"n": 5}'],
                 ["run", "--id", "sec8.mckay.magic", "--params", '{"n": 5}'],
                 ["perc", "--sizes", "48"],
                 ["perc", "--sizes", "32,"],
                 ["perc", "--sizes", "32", "--trials", "0"],
                 ["run", "--id", "sec7.verstraete.percolation",
                  "--params", '{"sizes": "32", "trials": 0}'],
                 ["run", "--id", "sec10.markstrom.latin",
                  "--params", '{"n": 5, "mode": "random", "budget": -3}'],
                 ["fam", "katona", "--n", "-1"],
                 ["tour", "decompose", "&BP_", "--k", "-1"],
                 ["tour", "decompose", "&BP_", "--k", "0"],
                 ["tour", "cycles", "&BP_", "--k", "-2"],
                 ["gen", "--spec", '{"n": 3, "max_degree": -1}'],
                 ["gen", "--spec", '{"n": 4, "max_edges": -1}'],
                 ["run", "--id", "sec7.markstrom.gl2-greedy",
                  "--params", '{"n": 1}'],
                 ["run", "--id", "sec7.markstrom.gl2-greedy",
                  "--params", '{"trials": 0}'],
                 ["run", "--id", "sec4.falgas-ravry.random",
                  "--params", '{"trials": 0}'],
                 ["des", "avoid", "--file", str(missing)],
                 ["des", "dom3", "--file", str(missing)],
                 ["ext", "ramsey", "--file", str(missing)],
                 ["gen", "--spec", '{"n": "x"}'],
                 ["gen", "--spec", '{"n": 3.5}'],
                 ["gen", "--spec", '{"n": 3, "max_degree": "a"}'],
                 ["ext", "ramsey", "--file", str(listed)],
                 ["des", "dom3", "--file", str(listed)],
                 ["ext", "turan", "--n", "0"],
                 ["ext", "turan", "--n", "-1"],
                 ["ext", "turan", "--cycle", "2"],
                 ["ext", "turan", "--clique", "1"],
                 ["run", "--id", "sec11.families.katona",
                  "--params", '{"n": true, "k": 1}'], *file_probes):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sec8.mckay.half-cycles" in out


def test_cli_run_int_params_at_zero_and_below(capsys):
    """Every int parameter declares its minimum in the registry schema, and
    0 and -1 either run or exit 2, never with a traceback."""
    bad = []
    for entry in registry.list_problems():
        for name, (typ, _, minimum) in entry.params.items():
            if typ is not int:
                continue
            if minimum is None:
                bad.append((entry.id, name, "no minimum"))
                continue
            for value in (0, -1):
                code = main(["run", "--id", entry.id,
                             "--params", json.dumps({name: value})])
                err = capsys.readouterr().err
                if code != (0 if value >= minimum else 2):
                    bad.append((entry.id, name, value, code, err))
    assert bad == []


def test_cli_rejects_fuzzed_input(capsys, tmp_path):
    """Seeded inputs of the wrong shape or type: every call returns or exits
    2 or 3 with one error line, no exception escapes main, and the whole
    scan stays fast because each bad input is rejected before any work."""
    rng = random.Random(0)
    start = time.perf_counter()
    argvs = []
    # graph6 / digraph6 strings near the right length, over bytes 60..127
    # (63..126 are valid); a string a decoder accepts re-encodes to itself
    for decode, encode, prefix, verb in (
            (from_graph6, to_graph6, "", ["color", "chromatic", "--graph6"]),
            (from_digraph6, to_digraph6, "&", ["tour", "kelly"])):
        for _ in range(150):
            n = rng.randrange(9)
            nbits = n * n if prefix else n * (n - 1) // 2
            size = max(0, (nbits + 5) // 6 + rng.choice((-1, 0, 0, 1)))
            text = prefix + chr(63 + n) + "".join(
                chr(rng.randrange(60, 128)) for _ in range(size))
            try:
                obj = decode(text)
            except CombenchError:
                pass
            else:
                assert encode(obj) == text
            argvs.append(verb + [text])
    # wrong-typed values for every registry parameter
    wrong = ("true", "null", "[]", '"x"', "1e400", "2.5")
    rejected = []
    for entry in registry.list_problems():
        for name, (typ, _, _) in entry.params.items():
            rejected += [["run", "--id", entry.id, "--params",
                          f'{{"{name}": {raw}}}']
                         for raw in wrong if type(json.loads(raw)) is not typ]
    argvs += rejected
    # wrong-typed GenSpec fields
    for field in dataclasses.fields(GenSpec):
        argvs += [["gen", "--spec", f'{{"n": {raw}}}' if field.name == "n"
                   else f'{{"n": 3, "{field.name}": {raw}}}'] for raw in wrong]
    # JSON files that hold no object, and objects whose key or value is
    # malformed: a key of two or four vertices, a repeated, negative or
    # out-of-range vertex, a word, or a value that is no colour or root
    def value():
        return rng.choice((rng.randrange(-9, 10), rng.random(), "1,2,3",
                           None, True, [rng.randrange(9)] * rng.randrange(4)))

    for i in range(80):
        if i < 40:
            content = value()
        else:
            key = rng.choice(("0,1", "0,1,2,3", "1,1,2", "0,-1,2", "0,1,99",
                              "a,b,c", "0,1,2"))
            content = {key: value() if key != "0,1,2" else
                       rng.choice((None, True, 2.0, "0", "green", 7))}
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(content))
        verb = rng.choice((["ext", "ramsey"], ["des", "dom3"]))
        argvs.append(verb + ["--file", str(path)])
        if i >= 40:
            rejected.append(argvs[-1])
    assert len(argvs) > 500
    for argv in argvs:
        code = main(argv)
        err = capsys.readouterr().err
        if code == 0:
            assert err == "", argv
        else:
            assert code in (2, 3), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert code == 2 or argv not in rejected, argv
    assert time.perf_counter() - start < 5


def test_cli_run_payload(capsys):
    assert main(["run", "--id", "sec8.mckay.half-cycles",
                 "--params", '{"n": 8}']) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["max"] == 6


def _run_payload(capsys, problem_id, params):
    assert main(["run", "--id", problem_id, "--params", json.dumps(params)]) == 0
    return json.loads(capsys.readouterr().out)["payload"]


def test_cli_verbs(capsys, monkeypatch):
    payload = _run_payload(capsys, "sec5.backelin.shift",
                           {"n": 5, "r": 2, "pattern": "XOXO"})
    assert payload["chi"] == 3

    rows = _run_payload(capsys, "sec4.falgas-ravry.width", {"n_max": 8})["rows"]
    row = next(r for r in rows if (r["family"], r["n"]) == ("C", 8))
    assert row["width"] == row["max_layer"]

    assert _run_payload(capsys, "sec7.markstrom.gl2", {"n": 3})["diameter"] == 6

    rows = _run_payload(capsys, "sec8.mckay.magic", {"n": 2, "k_max": 5})["rows"]
    assert (rows[5]["k"], rows[5]["count"]) == (5, 6)

    assert main(["gen", "--spec", '{"n": 4, "class_tag": "cubic"}']) == 0
    assert capsys.readouterr().out.strip() == "C~"

    # all 21 cubic graphs on ten vertices, the same classes as the cubic
    # generator's
    assert main(["gen", "--spec", '{"n": 10, "regular": 3}']) == 0
    cubic10 = [from_graph6(line) for line in capsys.readouterr().out.split()]
    assert len(cubic10) == 21
    assert all(g.n == 10 and {a.bit_count() for a in g.adj} == {3}
               for g in cubic10)
    assert {certificate(g) for g in cubic10} == \
        {certificate(g) for g in cubic_graphs_all(10)}

    assert main(["ext", "turan", "--n", "8", "--clique", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {"ext": 16}

    assert main(["cycles", "half-cycles", "--n", "6"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # two connected cubic graphs on six vertices

    # the lines pin labelled representatives: those of the dedupe generator
    from combench import generate
    from oracles import connected_cubic_by_dedupe

    monkeypatch.setattr(generate, "connected_cubic_graphs",
                        connected_cubic_by_dedupe)
    assert main(["cycles", "smith", "--n", "8"]) == 0
    assert capsys.readouterr().out == (
        "8,GBqkbC,0\n8,GJQkcS,0\n8,G}?HWw,0\n8,GLQkQc,0\n8,GFQkRC,0\n")
    assert main(["cycles", "lollipop", "--n", "8"]) == 0
    assert capsys.readouterr().out == (
        "8,GBqkbC,3\n8,GJQkcS,6\n8,G}?HWw,5\n8,GLQkQc,2\n8,GFQkRC,5\n")
    assert main(["cycles", "lollipop", "--n", "8", "--profile"]) == 0
    assert capsys.readouterr().out == "8,GLQkQc,2\n8,GFQkRC,5\n"
    monkeypatch.undo()

    assert main(["perc", "--sizes", "32", "--trials", "40"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,p,estimate")


def test_cli_tournament_verbs(capsys):
    d6 = to_digraph6(rotational_tournament(7))
    assert main(["tour", "kelly", d6]) == 0
    cycles = json.loads(capsys.readouterr().out)
    assert len(cycles) == 3

    assert main(["tour", "alpha-beta", d6, "--k", "1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["alpha"] == rec["beta"] == 7

    # two arc-disjoint spanning strong subdigraphs of the 3-arc-strong QR7
    qr7 = rotational_tournament(7)
    assert main(["tour", "decompose", d6, "--k", "2"]) == 0
    classes = json.loads(capsys.readouterr().out)
    assert StrongDecomposition(2, [[tuple(a) for a in cls]
                                   for cls in classes]).verify(qr7)
    transitive = to_digraph6(transitive_tournament(5))
    assert main(["tour", "decompose", transitive, "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out) is None  # not even strong

    # two vertex-disjoint directed cycles; five vertices cannot hold two
    # disjoint 3-cycles
    assert main(["tour", "cycles", d6, "--k", "2"]) == 0
    cycles = json.loads(capsys.readouterr().out)
    assert len(cycles) == 2 and not set(cycles[0]) & set(cycles[1])
    assert all(qr7.has_arc(c[i - 1], c[i]) for c in cycles
               for i in range(len(c)))
    qr5 = to_digraph6(rotational_tournament(5))
    assert main(["tour", "cycles", qr5, "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out) is None

    # reversing k(k+1)/2 = 3 arcs makes the transitive T5 2-arc-strong
    assert main(["tour", "reverse", d6, "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"reversals": []}
    assert main(["tour", "reverse", transitive, "--k", "2"]) == 0
    arcs = json.loads(capsys.readouterr().out)["reversals"]
    assert len(arcs) == 3
    t = transitive_tournament(5)
    for u, v in arcs:
        t.remove_arc(u, v)
        t.add_arc(v, u)
    assert flows.arc_strong_connectivity(t) >= 2


def test_cli_witness_verbs(capsys, tmp_path):
    """The verbs that read a word, a graph, a file or a matrix, each on
    valid input, against facts the test confirms by hand."""
    assert main(["color", "circle", "--word", "abab"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "vertices": 2, "edges": 1, "chi": 2}  # two crossing chords

    assert main(["fam", "katona", "--n", "5", "--k", "2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["size"] == len(set(rec["witness"])) == katona_bound(5, 2) == 10
    sets = [int(w, 2) for w in rec["witness"]]
    assert all((a & b).bit_count() >= 2 for a in sets for b in sets)

    assert main(["ext", "bipartize", "--graph6", "Dhc"]) == 0  # C5
    assert json.loads(capsys.readouterr().out) == {"cost": 1,
                                                   "k_r_free_for": 3}

    # every triple red: a red loose triangle; two red triples: a blue K4
    red_all = tmp_path / "red.json"
    red_all.write_text(json.dumps({"%d,%d,%d" % t: "red" for t in
                                   itertools.combinations(range(6), 3)}))
    assert main(["ext", "ramsey", "--n", "6", "--file", str(red_all)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["verdict"] == "red_c3"
    e1, e2, e3 = map(set, rec["witness"])
    assert all(len(a & b) == 1 for a, b in ((e1, e2), (e2, e3), (e1, e3)))
    assert not e1 & e2 & e3
    two_red = tmp_path / "two.json"
    two_red.write_text(json.dumps({"0,1,2": "red", "2,1,3": "red",
                                   "0,4,5": "blue"}))
    assert main(["ext", "ramsey", "--n", "6", "--t", "4",
                 "--file", str(two_red)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["verdict"] == "blue_kt" and len(set(rec["witness"])) == 4
    assert not {(0, 1, 2), (1, 2, 3)} & set(
        itertools.combinations(sorted(rec["witness"]), 3))

    # each vertex is the root of one triple, so it dominates only the other
    # two vertices of that triple; the one 4-set has four distinct roots
    roots = {(0, 1, 2): 1, (0, 1, 3): 3, (0, 2, 3): 0, (1, 2, 3): 2}
    dom3 = tmp_path / "dom3.json"
    dom3.write_text(json.dumps({"%d,%d,%d" % t: r for t, r in roots.items()}))
    assert main(["des", "dom3", "--file", str(dom3)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["dom"] == len(rec["witness"]) == 2
    assert rec["pair_condition"] is False
    covered = set(rec["witness"]).union(
        *(set(t) for t, r in roots.items() if r in rec["witness"]))
    assert covered == {0, 1, 2, 3}

    array = tmp_path / "avoid.txt"
    array.write_text("1 0 0\n0 0 0\n0 0 2\n")
    assert main(["des", "avoid", "--file", str(array)]) == 0
    square = json.loads(capsys.readouterr().out)
    assert verify_avoidance(AvoidArray([[1, 0, 0], [0, 0, 0], [0, 0, 2]]),
                            square)

    # the word's row additions take the matrix to the identity in exactly
    # `distance` steps, and the greedy count is never below that
    for n, matrix in ((3, "6,1,4"), (5, "1e,1,2,4,8")):
        assert main(["gl2", "dist", "--n", str(n), "--matrix", matrix]) == 0
        rec = json.loads(capsys.readouterr().out)
        rows = [int(h, 16) for h in matrix.split(",")]
        for i, j in rec["word"]:
            rows[i] ^= rows[j]
        assert rows == [1 << i for i in range(n)]
        assert len(rec["word"]) == rec["distance"] > 0
        assert main(["gl2", "greedy", "--n", str(n), "--matrix", matrix]) == 0
        assert json.loads(capsys.readouterr().out)["operations"] >= \
            rec["distance"]
    assert main(["gl2", "greedy", "--n", "3", "--matrix", "1,2,4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"operations": 0}


def test_reproduce_quick_matches_golden(capsys):
    """One process and two worker processes print the same ok lines."""
    assert main(["reproduce", "--profile", "quick"]) == 0
    out = capsys.readouterr().out
    assert "ok   half_cycles" in out
    src = str(Path(combench.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "combench.cli", "reproduce", "--profile", "quick"],
        env=dict(os.environ, PYTHONPATH=src, COMBENCH_THREADS="2"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out


def test_reproduce_write(tmp_path, capsys, monkeypatch):
    """--write re-derives every quick table byte for byte."""
    from combench import cli

    target = tmp_path / "v1"
    monkeypatch.setattr(cli, "GOLDEN_DIR", target)
    assert main(["reproduce", "--profile", "quick", "--write"]) == 0
    written = sorted(p.name for p in target.iterdir())
    assert len(written) == len(cli.golden_rows("quick"))
    assert capsys.readouterr().out == "".join(
        f"wrote {target / name}\n" for name in written)
    for name in written:
        assert (target / name).read_bytes() == \
            (Path(cli.__file__).parent / "golden" / "v1" / name).read_bytes()


def test_reproduce_detects_tamper(tmp_path, capsys, monkeypatch):
    import shutil

    from combench import cli

    golden_copy = tmp_path / "v1"
    shutil.copytree(cli.GOLDEN_DIR, golden_copy)
    (golden_copy / "kelly.csv").write_text("3,1,0\n5,1,1\n7,3,3\n")
    monkeypatch.setattr(cli, "GOLDEN_DIR", golden_copy)
    assert main(["reproduce", "--profile", "quick"]) == 4
