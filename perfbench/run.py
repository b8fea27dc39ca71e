"""combench benchmark: measures one workload and prints its metrics.

    python3 perfbench/run.py --workload cubic --seed 0 --seconds 40 --trace 0

Run from the root of a combench checkout.  Every execution of the workload
starts a fresh single-threaded interpreter (child.py) with cold catalog
caches and COMBENCH_THREADS=1, and makes the workload's registry runs one
after another: a closed loop with one caller.  Executions repeat for
``--seconds`` (at least MIN_ROUNDS of them); the run reports medians.

Every payload goes through the correctness gate (gate.py) after the timed
region, and must repeat exactly across the run's executions; a miss counts
as a failed operation.  With ``--trace 1`` untraced and traced executions
alternate: the traced ones give the per-layer metrics (spans.py), whose
exact counts must repeat from one execution to the next, and each pair
gives a sample of the tracing overhead.

The last line of standard output is the result object; the line before it
records the environment and the samples behind each median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "items_per_s": "1/s", "peak_rss_mb": "MB"}


class HarnessFault(RuntimeError):
    """The measurement itself is unsound: a child crashed, or exact counts
    drifted between executions (a warm cache or nondeterminism)."""


def child_env(root: Path) -> dict:
    return dict(os.environ, COMBENCH_THREADS="1", PYTHONPATH=str(root / "src"))


def spawn(root: Path, workload, seed: int, trace: bool) -> dict:
    spec = {"workload": workload.name, "ops": workload.ops,
            "modules": workload.modules, "seed": seed, "trace": trace}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise HarnessFault(f"{workload.name} execution exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment(root: Path, seed: int, trace: bool) -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "commit": commit, "seed": seed, "trace": trace,
            "COMBENCH_THREADS": "1"}


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool):
    """Executions of one workload; returns (plain, traced).

    A round is one untraced execution (and one traced one with tracing).
    No round starts that would end after ``seconds``, judged by the median
    round so far."""
    workload = WORKLOADS[name]
    # one discarded start that only imports warms the bytecode and page caches
    imports = "; ".join(f"import combench.{m}" for m in workload.modules)
    subprocess.run([sys.executable, "-c", imports], cwd=root, env=child_env(root),
                   check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    plain, traced, rounds = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(spawn(root, workload, seed, False))
        if trace:
            traced.append(spawn(root, workload, seed, True))
        rounds.append(time.perf_counter() - t0)
        left = seconds - (time.perf_counter() - start)
        if len(plain) >= MIN_ROUNDS and left < statistics.median(rounds):
            break
    return plain, traced


def failures(root: Path, name: str, seed: int, executions: list) -> list[str]:
    """Gate verdicts plus repeat checks, one message per failed operation."""
    workload = WORKLOADS[name]
    first = [gate.digest(r.get("payload")) for r in executions[0]["results"]]
    out = []
    for k, ex in enumerate(executions):
        verdicts = gate.check(name, seed, workload.ops, ex["results"],
                              ex["facts"], root)
        for i, (why, res) in enumerate(zip(verdicts, ex["results"])):
            if why is None and gate.digest(res.get("payload")) != first[i]:
                why = "payload differs from the first execution of this run"
            if why is not None:
                out.append(f"execution {k} op {i} ({workload.ops[i][0]}): {why}")
    return out


def exact_counts(traced: list) -> dict:
    counts = [{k: ex["layers"][k][0] for k in spans.EXACT} for ex in traced]
    for later in counts[1:]:
        drift = {k: (counts[0][k], later[k]) for k in spans.EXACT
                 if later[k] != counts[0][k]}
        if drift:
            raise HarnessFault(f"exact counts drifted between executions: {drift}")
    return counts[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "combench" / "__init__.py").is_file():
        print(f"{root} is not a combench checkout (no src/combench)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))   # the gate reads combench.perc
    trace = bool(args.trace)
    try:
        plain, traced = measure(root, args.workload, args.seed, args.seconds,
                                trace)
        failed = failures(root, args.workload, args.seed, plain + traced)
        exact = exact_counts(traced) if trace else None
    except (HarnessFault, subprocess.SubprocessError, ValueError) as exc:
        print(f"harness fault: {exc}", file=sys.stderr)
        return 3

    med = statistics.median
    samples = {
        "setup_s": [r["setup_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "items_per_s": [r["items"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if trace:
        samples["traced_wall_s"] = [r["wall_s"] for r in traced]
        metrics = {k: {"value": med(r["layers"][k][0] for r in traced), "unit": unit}
                   for k, (_, unit) in traced[0]["layers"].items()}
        # each traced execution against the untraced one just before it
        metrics["trace.overhead_pct"] = {
            "value": 100 * med(t / p - 1 for p, t in zip(samples["wall_s"],
                                                         samples["traced_wall_s"])),
            "unit": "%"}
    else:
        metrics = {k: {"value": med(samples[k]), "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    executions = len(plain) + len(traced)
    print(json.dumps({"env": environment(root, args.seed, trace),
                      "executions": executions, "samples": samples,
                      "exact_counts": exact, "failures": failed}))
    print(json.dumps({"correct": not failed,
                      "attempted": executions * len(WORKLOADS[args.workload].ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
