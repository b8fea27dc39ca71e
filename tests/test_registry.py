"""Every registered problem must run with sane defaults and stay
deterministic under its seed."""

import pytest

from combench import registry

FAST_OVERRIDES = {
    "sec7.verstraete.percolation": {"sizes": "32", "trials": 60},
    "sec8.mckay.half-cycles": {"n": 10},
    "sec5.thomassen.smith": {"n_max": 8},
    "sec5.thomassen.bipartite-even": {"n_max": 8},
    "sec5.thomassen.lollipop": {"n": 8},
    "sec7.markstrom.gl2-greedy": {"n": 32, "trials": 10},
    "sec10.markstrom.latin": {"n": 3},
}


@pytest.mark.parametrize("entry", registry.list_problems(),
                         ids=lambda e: e.id)
def test_problem_runs(entry):
    params = FAST_OVERRIDES.get(entry.id, {})
    report = registry.run(entry.id, params, seed=3)
    assert isinstance(report.payload, dict) and report.payload
    assert report.wall_time >= 0
    assert report.version == registry.ARTIFACT_VERSION


def test_known_payload_values():
    rep = registry.run("sec8.mckay.half-cycles", {"n": 12})
    assert rep.payload["max"] == 20
    rep = registry.run("sec11.families.katona", {"n": 4, "k": 2})
    assert rep.payload["max_k_intersecting"] == 5
    rep = registry.run("sec2.kelly.small", {"n_max": 5})
    assert rep.payload["all_ok"]
    rep = registry.run("sec10.bang-jensen.xy-paths", {})
    assert rep.payload["failures"] == 0 and rep.payload["pairs_checked"] > 0
    rep = registry.run("sec9.aas-mckay.cycle-space", {"n_max": 5})
    assert rep.payload["gf2_violations"] == rep.payload["gf3_violations"] == 0
    rep = registry.run("sec5.rucinski.mcr", {})
    assert rep.payload["best_mad"] == "3" and rep.payload["witness"] == "EElw"


def _connected_cubic(g6: str, n: int):
    from combench.graphs import from_graph6, is_connected

    g = from_graph6(g6)
    assert g.n == n and is_connected(g), g6
    assert all(row.bit_count() == 3 for row in g.adj), g6
    return g


def test_cubic_witnesses_hold_what_the_payload_claims():
    """Each witness is a connected cubic graph with the claimed count: the
    half-cycle maxima to n = 12, and the lollipop walk maximum of a
    cyclically 4-edge-connected graph (whose steps follow its labels)."""
    from combench.cycles import count_cycles_of_length, lollipop_max_steps
    from combench.generate import cyclically_4_edge_connected

    for n in range(4, 13, 2):
        rep = registry.run("sec8.mckay.half-cycles", {"n": n}).payload
        assert rep["witnesses"] and len(rep["witnesses"]) == min(
            rep["witness_count"], 4)
        for g6 in rep["witnesses"]:
            g = _connected_cubic(g6, n)
            assert (count_cycles_of_length(g, n // 2) if n >= 6 else 0) == \
                rep["max"], g6
    for n in (8, 10):
        rep = registry.run("sec5.thomassen.lollipop", {"n": n}).payload
        g = _connected_cubic(rep["witness"], n)
        assert cyclically_4_edge_connected(g)
        assert lollipop_max_steps(g) == rep["max_steps"]


def test_checker_entries_report_zero_failures():
    for pid, field in [
        ("sec2.bjy.k2-decomp", "failures"),
        ("sec2.bermond-thomassen.tournaments", "failures"),
        ("sec8.kostochka.jk-coloring", "failures"),
        ("sec6.lo.overfull", "class1_despite_overfull"),
    ]:
        rep = registry.run(pid, {})
        assert rep.payload[field] == 0, pid


def test_benchmark_tracer_binds_every_layer():
    """perfbench/spans.py wraps names under src/; a rename must fail here."""
    import importlib.util
    from pathlib import Path

    from combench import flows

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = flows.arc_strong_connectivity
    patches = spans.install(spans.Tracer())
    try:
        assert flows.arc_strong_connectivity is not before
    finally:
        spans.uninstall(patches)
    assert flows.arc_strong_connectivity is before
