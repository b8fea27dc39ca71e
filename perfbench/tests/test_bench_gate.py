import copy
import json
import math
from pathlib import Path

import gate
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

CUBIC = [{"payload": {"n": n, "max": m, "witness_count": 1, "witnesses": []}}
         for n, m in ((4, 0), (6, 2), (8, 6), (10, 12), (12, 20))] + [
    {"payload": {"graphs_checked": 112, "odd_edge_counts": 0}},
    {"payload": {"bipartite_cubic_checked": 9, "odd_totals": 0}}]
CUBIC_FACTS = {"connected_cubic_counts": [1, 2, 5, 19, 85]}


def _gl2(avg):
    return {"n": 256, "avg_ops": avg,
            "ratio_to_n2_over_log": avg / (256 * 256 / math.log2(256))}


def _sweep(n, estimates, p_half):
    return {"n": n, "p_half": p_half, "estimates": estimates,
            "reference": math.pi ** 2 / (18 * math.log(n))}


SEEDED = [
    {"payload": _gl2(16000.0 + 1 / 16)},
    {"payload": {"sweeps": [
        _sweep(64, [0.0, 1 / 48, 0.25, 0.75, 1.0, 1.0], 0.065),
        _sweep(128, [0.0, 0.125, 0.5, 0.875, 1.0, 1.0], 0.049)]}},
    {"payload": {"n": 5, "mode": "random", "checked": 24000,
                 "unavoidable_found": False}},
]


def _check(workload, results, facts, seed=1):
    return gate.check(workload, seed, WORKLOADS[workload].ops, results, facts, ROOT)


def test_reference_answers_pass():
    assert _check("cubic", CUBIC, CUBIC_FACTS) == [None] * 7
    assert _check("seeded-scan", SEEDED, {}) == [None] * 3


def test_tampered_cubic_payloads_are_rejected():
    bad = copy.deepcopy(CUBIC)
    bad[4]["payload"]["max"] = 21
    bad[5]["payload"]["odd_edge_counts"] = 1
    verdicts = _check("cubic", bad, CUBIC_FACTS)
    assert [v is not None for v in verdicts] == [0, 0, 0, 0, 1, 1, 0]
    counts = {"connected_cubic_counts": [1, 2, 5, 19, 84]}
    assert _check("cubic", CUBIC, counts)[4] is not None


def test_tampered_seeded_payloads_are_rejected():
    for i, edit in enumerate((
            lambda p: p.update(avg_ops=p["avg_ops"] + 0.01),
            lambda p: p["sweeps"][1]["estimates"].reverse(),
            lambda p: p.update(checked=23999))):
        bad = copy.deepcopy(SEEDED)
        edit(bad[i]["payload"])
        verdicts = _check("seeded-scan", bad, {})
        assert verdicts[i] is not None and verdicts.count(None) == 2


def test_failed_run_and_default_seed_digest():
    broken = [{"error": "x: AssertionError"}] + SEEDED[1:]
    assert _check("seeded-scan", broken, {})[0] == "x: AssertionError"
    # the synthetic GL2 and percolation payloads pass the invariants but are
    # not the ones recorded at the default seed; the Latin one is
    verdicts = _check("seeded-scan", SEEDED, {}, seed=gate.DEFAULT_SEED)
    assert [v is not None for v in verdicts] == [1, 1, 0]


def test_connectivity_reference():
    results = [{"payload": dict(gate.EXPECTED[pid])}
               for pid, _ in WORKLOADS["connectivity"].ops]
    facts = dict(gate.CONNECTIVITY_FACTS)
    assert _check("connectivity", results, facts) == [None] * 3
    results[1]["payload"]["failures"] = 1
    facts["graphs_visited"] -= 1
    assert [v is not None for v in _check("connectivity", results, facts)] == [1, 1, 0]


def test_digest_is_key_order_independent():
    a = json.loads('{"b": 1, "a": [1.5, 2]}')
    assert gate.digest(a) == gate.digest({"a": [1.5, 2], "b": 1})
