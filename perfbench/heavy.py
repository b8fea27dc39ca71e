"""Informational timings of the heavy rows behind the slowest acceptance
criteria.  They are not gated workloads: each takes tens of seconds, too
long to repeat inside a benchmark run.

    python3 perfbench/heavy.py > perfbench/heavy_baseline.json

Run from the root of a combench checkout.  Rows:

* the n=14 cubic level (its n=12 prerequisite timed apart);
* ``tournaments(8)``, then arc-strong connectivity over its classes;
* one GL(256,2) greedy trial split into sample, re-check and reduction
  (median of TRIALS trials; the reduction excludes its own re-check).
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from run import environment  # noqa: E402
from spans import Tracer  # noqa: E402

TRIALS = 5


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def main() -> None:
    from combench import generate, gl2, tournaments

    tracer = Tracer()
    generate.canonical_form = tracer.wrap_count("forms", generate.canonical_form)
    _, t12 = timed(generate.cubic_graphs_all, 12)
    forms12 = tracer.counts["forms"]
    cubic14, t14 = timed(generate.cubic_graphs_all, 14)

    tours, t_tour = timed(generate.tournaments, 8)
    lambdas, t_lambda = timed(lambda: [tournaments.lambda_arc(t) for t in tours])

    rng = random.Random(0)
    sample, recheck, reduce_ = [], [], []
    for _ in range(TRIALS):
        m, dt = timed(gl2.random_invertible, 256, rng)
        sample.append(dt)
        recheck.append(timed(gl2.is_invertible, m, 256)[1])
        reduce_.append(timed(gl2.greedy_reduce, m, 256)[1] - recheck[-1])

    ms = lambda xs: 1e3 * statistics.median(xs)  # noqa: E731
    print(json.dumps({
        "env": environment(Path.cwd(), 0, False),
        "cubic_n12_s": t12,
        "cubic_n14_level_s": t14,
        "cubic_n14_classes": len(cubic14),
        "cubic_n14_level_forms": tracer.counts["forms"] - forms12,
        "tournaments8_s": t_tour,
        "tournaments8_classes": len(tours),
        "tournaments8_lambda_s": t_lambda,
        "tournaments8_lambda_sum": sum(lambdas),
        "gl2_256_sample_ms": ms(sample),
        "gl2_256_recheck_ms": ms(recheck),
        "gl2_256_reduce_ms": ms(reduce_),
        "gl2_trials": TRIALS,
    }, indent=2))


if __name__ == "__main__":
    main()
