import dataclasses
import json
import random
import time

import pytest

from combench import CombenchError, registry
from combench.cli import main
from combench.generate import GenSpec
from combench.graphs import from_digraph6, from_graph6, to_digraph6, to_graph6


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
    from combench.graphs import rotational_tournament, to_digraph6

    d6 = to_digraph6(rotational_tournament(7))
    assert main(["tour", "kelly", d6]) == 0
    cycles = json.loads(capsys.readouterr().out)
    assert len(cycles) == 3

    assert main(["tour", "alpha-beta", d6, "--k", "1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["alpha"] == rec["beta"] == 7


def test_reproduce_quick_matches_golden(capsys):
    assert main(["reproduce", "--profile", "quick"]) == 0
    out = capsys.readouterr().out
    assert "ok   half_cycles" in out


def test_reproduce_detects_tamper(tmp_path, capsys, monkeypatch):
    import shutil

    from combench import cli

    golden_copy = tmp_path / "v1"
    shutil.copytree(cli.GOLDEN_DIR, golden_copy)
    (golden_copy / "kelly.csv").write_text("3,1,0\n5,1,1\n7,3,3\n")
    monkeypatch.setattr(cli, "GOLDEN_DIR", golden_copy)
    assert main(["reproduce", "--profile", "quick"]) == 4
