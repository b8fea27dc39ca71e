"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of combench's layers from outside the
program.  ``install`` replaces module attributes (class attributes for
methods) with wrappers that record one span (name, start, end, parent) per
call, or only count calls too small to time, and returns the patches so
that ``uninstall`` restores every original binding.  Where a caller binds
a name at import (``generate.canonical_form``), the wrapper goes on that
binding as well as on the defining module.

Per-layer metrics are derived from the spans after the run.  A span's self
time is its duration minus the part of its interval its child spans cover;
a layer's self time sums the self times of its spans.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

# fields of a span record
NAME, START, END, PARENT = range(4)


class Tracer:
    """Spans and counters of one traced workload execution."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index | -1]
        self.counts: Counter = Counter()
        self.stack: list[int] = []      # open spans, innermost last
        self.active: Counter = Counter()  # open spans per layer
        self.recording = True

    def wrap(self, name: str, fn, on_result=None):
        """Timed wrapper: one span per call.  ``on_result(tracer, args,
        result)`` runs after the span closes, to add counts."""
        layer = name.split(".", 1)[0]
        spans, stack, active, clock = (self.spans, self.stack, self.active,
                                       time.perf_counter)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            active[layer] += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                active[layer] -= 1
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def wrap_count(self, name: str, fn):
        """Counting wrapper for calls too small to time."""
        counts = self.counts

        def counted(*args, **kwargs):
            if self.recording:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        return [max(0.0, rec[END] - rec[START] - c)
                for rec, c in zip(self.spans, covered)]

    def layer_self(self) -> Counter:
        out: Counter = Counter()
        for rec, s in zip(self.spans, self.self_times()):
            out[rec[NAME].split(".", 1)[0]] += s
        return out

    def durations(self, name: str) -> list[float]:
        return [rec[END] - rec[START] for rec in self.spans if rec[NAME] == name]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(1, int(rank)) - 1]


# ---------------------------------------------------------------------------
# the layer boundaries


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap combench's layer boundaries; returns (owner, attribute, original)."""
    from combench import (canon, cycles, designs, flows, generate, gl2, graphs,
                          perc, tournaments)

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, make):
        orig = getattr(owner, attr)
        patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def timed(name, on_result=None):
        return lambda fn: tracer.wrap(name, fn, on_result)

    def counted(name):
        return lambda fn: tracer.wrap_count(name, fn)

    def add(key, amount):
        tracer.counts[key] += amount

    # canon: one span per canonical form
    def form_done(tr, args, result):
        if tr.active["generate"]:
            add("generate.forms", 1)

    for owner in (canon, generate):
        patch(owner, "canonical_form", timed("canon.form", form_done))
        patch(owner, "canonical_form_digraph", timed("canon.form", form_done))

    # generate: each catalog level (generator, constraints, order) counts
    # its classes once per execution, however often it is rebuilt; the
    # rebuilds still count as children tried, so they show in kept_ratio
    def level(fn):
        def build(*args):
            misses = fn.cache_info().misses
            result = fn(*args)
            if tracer.recording and fn.cache_info().misses > misses:
                add("generate.classes_kept", len(result))
            return result
        return build

    for attr in ("cubic_graphs_all", "tournaments"):
        patch(generate, attr,
              lambda fn, attr=attr: tracer.wrap("generate." + attr, level(fn)))
    patch(generate, "connected_cubic_graphs", timed("generate.connected_filter"))

    upto_params = inspect.signature(generate.graphs_upto)
    graph_levels_seen: set = set()

    def graph_levels(fn):
        # every level past the first is built from the one before; each
        # parent's own form is computed too, and is not a child tried
        def build(*args, **kwargs):
            levels = fn(*args, **kwargs)
            if not tracer.recording:
                return levels
            bound = upto_params.bind(*args, **kwargs)
            bound.apply_defaults()
            key = dict(bound.arguments)
            n = key.pop("n")
            if key["final_regular"] is None:
                n = None        # otherwise the pruning depends on the target
            key = (n, tuple(sorted(key.items())))
            top = max(levels)
            for k in levels:
                if k > 1 and (key, k) not in graph_levels_seen:
                    graph_levels_seen.add((key, k))
                    add("generate.classes_kept", len(levels[k]))
            add("generate.parents", sum(len(levels[k]) for k in levels if k < top))
            return levels
        return build

    patch(generate, "graphs_upto",
          lambda fn: tracer.wrap("generate.graphs_upto", graph_levels(fn)))

    # flows: connectivity queries and the max-flow calls under them
    for attr in ("edge_connectivity", "vertex_connectivity",
                 "arc_strong_connectivity", "vertex_strong_connectivity"):
        patch(flows, attr, timed("flows.query"))
    patch(flows.FlowNet, "max_flow", timed("flows.max_flow"))

    # tournaments: the searches, and the strong checks they bind at import
    for attr in ("decompose_arc_disjoint_strong", "lambda_arc", "alpha_k",
                 "beta_k", "reversal_arc_strong", "reversal_deg"):
        patch(tournaments, attr, timed("tournaments." + attr))
    patch(tournaments.StrongDecomposition, "verify", timed("tournaments.verify"))
    patch(tournaments, "is_strongly_connected", counted("tournaments.strong_check"))
    patch(graphs.Digraph, "in_row", counted("graphs.in_row"))

    for attr in ("count_cycles_of_length", "ham_cycle_edge_counts",
                 "count_ham_cycles", "cycle_space_dimension"):
        patch(cycles, attr, timed("cycles." + attr))

    patch(gl2, "random_invertible", timed("gl2.sample"))
    patch(gl2, "greedy_reduce",
          timed("gl2.reduce", lambda tr, args, res: add("gl2.ops", res[0])))
    patch(gl2, "apply_word", timed("gl2.replay"))
    patch(gl2, "is_invertible", counted("gl2.invertibility_check"))

    patch(perc.GridFamily, "seed_mask", timed("perc.seed"))
    patch(perc.GridFamily, "closure_fills", timed("perc.closure"))

    patch(designs, "avoid_latin", timed("designs.avoid"))
    return patches


def uninstall(patches) -> None:
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics

# counts that must repeat exactly between runs of the same code and seed
EXACT = ("canon.forms", "generate.children_tried", "generate.classes_kept",
         "flows.connectivity_calls", "flows.max_flow_calls",
         "tournaments.decompose_calls", "tournaments.strong_checks",
         "graphs.in_row_calls", "cycles.calls", "gl2.invertibility_checks",
         "gl2.ops_per_matrix", "perc.trials", "designs.avoid_calls")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric of the benchmark.

    Layers a workload does not run read 0."""
    c = tracer.counts
    self_s = tracer.layer_self()
    calls = Counter(rec[NAME] for rec in tracer.spans)

    def us(name, q):
        return percentile(tracer.durations(name), q) * 1e6

    forms = calls["canon.form"]
    tried = c["generate.forms"] - c["generate.parents"]
    kept = c["generate.classes_kept"]
    queries = calls["flows.query"]
    flows_n = calls["flows.max_flow"]
    matrices = calls["gl2.reduce"]
    reduce_ms = [d * 1e3 for d in tracer.durations("gl2.reduce")]
    return {
        "canon.forms": (forms, "count"),
        "canon.self_s": (self_s["canon"], "s"),
        "canon.form_us_p50": (us("canon.form", 50), "us"),
        "canon.form_us_p99": (us("canon.form", 99), "us"),
        "generate.self_s": (self_s["generate"], "s"),
        "generate.children_tried": (tried, "count"),
        "generate.classes_kept": (kept, "count"),
        "generate.kept_ratio": (kept / tried if tried else 0.0, "ratio"),
        "flows.connectivity_calls": (queries, "count"),
        "flows.max_flow_calls": (flows_n, "count"),
        "flows.flows_per_query": (flows_n / queries if queries else 0.0, "ratio"),
        "flows.self_s": (self_s["flows"], "s"),
        "tournaments.self_s": (self_s["tournaments"], "s"),
        "tournaments.decompose_calls":
            (calls["tournaments.decompose_arc_disjoint_strong"], "count"),
        "tournaments.strong_checks": (c["tournaments.strong_check"], "count"),
        "graphs.in_row_calls": (c["graphs.in_row"], "count"),
        "cycles.self_s": (self_s["cycles"], "s"),
        "cycles.calls": (sum(v for k, v in calls.items()
                             if k.startswith("cycles.")), "count"),
        "gl2.sample_s": (sum(tracer.durations("gl2.sample")), "s"),
        "gl2.reduce_s": (sum(tracer.durations("gl2.reduce")), "s"),
        "gl2.replay_s": (sum(tracer.durations("gl2.replay")), "s"),
        "gl2.invertibility_checks": (c["gl2.invertibility_check"], "count"),
        "gl2.ops_per_matrix": (c["gl2.ops"] / matrices if matrices else 0.0, "ops"),
        "gl2.reduce_ms_p50": (percentile(reduce_ms, 50), "ms"),
        "gl2.reduce_ms_p99": (percentile(reduce_ms, 99), "ms"),
        "perc.trials": (calls["perc.closure"], "count"),
        "perc.seed_s": (sum(tracer.durations("perc.seed")), "s"),
        "perc.closure_s": (sum(tracer.durations("perc.closure")), "s"),
        "perc.closure_us_p50": (us("perc.closure", 50), "us"),
        "perc.closure_us_p99": (us("perc.closure", 99), "us"),
        "designs.avoid_calls": (calls["designs.avoid"], "count"),
        "designs.avoid_s": (sum(tracer.durations("designs.avoid")), "s"),
        "designs.avoid_us_p50": (us("designs.avoid", 50), "us"),
        "designs.avoid_us_p99": (us("designs.avoid", 99), "us"),
    }
