"""Compare a change against its parent with the benchmark's pairing rule.

    python3 perfbench/compare.py --parent ../parent --change .

Both directories are combench checkouts; this benchmark's run.py measures
each of them (same benchmark code, same run length from BENCHMARK.json).
For every workload in BENCHMARK.json it runs PAIRS parent/change pairs,
alternating which side runs first; pair i uses seed SEED_BASE + i on both
sides (the seeds whose AC10 invariants the gate was checked on).

Verdict per end-to-end metric (``judge``):

* ``win``: the change is better in at least 9/10 of the pairs (ties count
  for neither side), its median beats the parent's by more than the
  parent's interquartile range, and no more operations failed;
* ``unresolved``: either side's interquartile range, as a share of its
  median, exceeds the metric's bound, unless every change run reads better
  than every parent run and no more operations failed (then ``better``);
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``same``: otherwise.

Prints one row per workload, then the full result as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIRS = 10
SEED_BASE = 1000


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _share(part: float, whole: float) -> float:
    return part / abs(whole) if whole else float("inf")


def judge(parent, change, better: str, bound: float,
          extra_failures: bool = False) -> dict:
    """Verdict for one metric from paired samples (parent[i], change[i])."""
    sign = 1 if better == "lower" else -1
    gain = [sign * (p - c) for p, c in zip(parent, change)]  # > 0: change better
    wins = sum(1 for g in gain if g > 0)
    pq, cq = quartiles(parent), quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr = pq[2] - pq[0]
    spread = max(_share(p_iqr, p_med), _share(cq[2] - cq[0], c_med))
    med_gain = sign * (p_med - c_med)
    if wins >= 0.9 * len(gain) and med_gain > p_iqr and not extra_failures:
        verdict = "win"
    elif spread > bound:
        worst_change = max(change) if sign > 0 else min(change)
        best_parent = min(parent) if sign > 0 else max(parent)
        verdict = ("better" if sign * (best_parent - worst_change) > 0
                   and not extra_failures else "unresolved")
    elif -med_gain > bound * abs(p_med):
        verdict = "regression"
    else:
        verdict = "same"
    return {"verdict": verdict, "wins": wins, "pairs": len(gain),
            "parent": {"median": p_med, "q1": pq[0], "q3": pq[2]},
            "change": {"median": c_med, "q1": cq[0], "q3": cq[2]},
            "spread": spread}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args(argv)

    rows = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload,
                                           SEED_BASE + i, spec["run_seconds"]))
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        attempted = {s: sum(r["attempted"] for r in runs[s]) for s in runs}
        rows[workload] = {
            "failed": failed, "attempted": attempted,
            "metrics": {m["name"]: judge(
                [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                m["better"], m["bound"], failed["change"] > failed["parent"])
                for m in spec["end_to_end"]},
        }
        cells = [f"{name} {j['verdict']} ({j['parent']['median']:.4g} -> "
                 f"{j['change']['median']:.4g}, {j['wins']}/{j['pairs']})"
                 for name, j in rows[workload]["metrics"].items()]
        print(f"{workload}: failed {failed['parent']}/{attempted['parent']} -> "
              f"{failed['change']}/{attempted['change']}; " + "; ".join(cells))
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
