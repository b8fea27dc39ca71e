"""The benchmark's workloads: which registry runs each one makes, in order.

* ``cubic``: the half-cycle golden rows, Smith parity and bipartite
  evenness on one cold cubic catalog to n=12.  Regular graphs give
  refinement nothing to split, so ``canon`` searches a deep tree per form
  and does nearly all the work.
* ``connectivity``: cycle-space ranks over all graphs to n=7, BJY k=2
  decompositions over tournaments to n=7 and alpha/beta over tournaments
  to n=6.  Many shallow forms of irregular graphs and digraphs, and a
  profile dominated by max-flow calls, tournament searches and in-row
  queries.
* ``seeded-scan``: GL(256,2) greedy reductions, percolation sweeps at
  sizes 64 and 128 and random Latin avoidance at n=5.  It bypasses
  ``generate``, ``canon`` and ``flows``, so a change to those layers
  should leave it unchanged.

The workload seed is passed as the registry seed; exhaustive runs ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass

HALF_CYCLE_NS = (4, 6, 8, 10, 12)

GL2_N, GL2_TRIALS = 256, 16
PERC_SIZES, PERC_TRIALS = "64,128", 48
LATIN_N, LATIN_BUDGET = 5, 24000


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple          # (problem id, params) per registry run
    modules: tuple      # combench modules the runs import


WORKLOADS = {
    "cubic": Workload(
        "cubic",
        tuple(("sec8.mckay.half-cycles", {"n": n}) for n in HALF_CYCLE_NS) + (
            ("sec5.thomassen.smith", {"n_max": 12}),
            ("sec5.thomassen.bipartite-even", {"n_max": 12}),
        ),
        ("registry", "graphs", "canon", "generate", "cycles"),
    ),
    "connectivity": Workload(
        "connectivity",
        (
            ("sec9.aas-mckay.cycle-space", {"n_max": 7}),
            ("sec2.bjy.k2-decomp", {"n_max": 7}),
            ("sec11.bang-jensen.alpha-beta", {"n_max": 6}),
        ),
        ("registry", "graphs", "canon", "generate", "cycles", "flows",
         "tournaments"),
    ),
    "seeded-scan": Workload(
        "seeded-scan",
        (
            ("sec7.markstrom.gl2-greedy", {"n": GL2_N, "trials": GL2_TRIALS}),
            ("sec7.verstraete.percolation",
             {"sizes": PERC_SIZES, "trials": PERC_TRIALS}),
            ("sec10.markstrom.latin",
             {"n": LATIN_N, "mode": "random", "budget": LATIN_BUDGET}),
        ),
        ("registry", "gl2", "perc", "designs"),
    ),
}


def items_checked(name: str, payloads: list, facts: dict) -> int:
    """Objects one execution of the workload checks: catalog objects for
    the exhaustive workloads, trials for the seeded scan."""
    if name == "cubic":
        # each of the three problems walks the connected catalog to its n
        return 3 * sum(facts["connected_cubic_counts"])
    if name == "connectivity":
        return (facts["graphs_visited"] + facts["tournaments_visited_bjy"]
                + facts["tournaments_visited_alpha_beta"])
    _, perc, latin = payloads
    sweeps = perc["sweeps"]
    return (GL2_TRIALS + sum(len(s["estimates"]) for s in sweeps) * PERC_TRIALS
            + latin["checked"])


def facts(name: str) -> dict:
    """Catalog sizes read from the already built (cached) catalogs, after
    the timed region; the gate checks them against reference counts."""
    if name == "cubic":
        from combench.generate import connected_cubic_graphs

        return {"connected_cubic_counts":
                [len(connected_cubic_graphs(n)) for n in HALF_CYCLE_NS]}
    if name == "connectivity":
        from combench.generate import all_graphs_cached, tournaments

        return {
            "graphs_visited": sum(len(all_graphs_cached(n)) for n in range(2, 8)),
            "tournaments_visited_bjy": sum(len(tournaments(n)) for n in range(3, 8)),
            "tournaments_visited_alpha_beta":
                sum(len(tournaments(n)) for n in range(3, 7)),
        }
    return {}
