"""One cold execution of a workload, in a fresh interpreter.

Started by run.py with one JSON argument: the workload's registry runs,
the modules to import, the seed and whether to trace.  Prints one JSON
object: set-up time, the timed region's wall and CPU time, peak RSS, the
payloads, and per-layer metrics when traced.

Set-up time is the CPU time this process has used, interpreter start
included, once the workload's modules are imported.  On an idle host it
is within 5% of the wall-clock set-up (0.135 s against 0.141 s on a 2-vCPU
Xeon VM), but the wall clock of so short an interval follows the host's
scheduling: under hypervisor steal on that VM, the wall-clock set-up
median of ten runs moved by 27% between two sets of runs of the same code.
"""

import time
import importlib
import json
import sys


def peak_rss_kb() -> int:
    """This interpreter's peak RSS.  ru_maxrss would not do: Linux carries
    the parent's peak across fork and exec."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))


def main() -> None:
    spec = json.loads(sys.argv[1])
    for mod in spec["modules"]:
        importlib.import_module("combench." + mod)
    out = {"setup_s": time.process_time()}

    import resource

    import workloads
    from combench import registry

    def cpu() -> float:
        total = 0.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
            ru = resource.getrusage(who)
            total += ru.ru_utime + ru.ru_stime
        return total

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        patches = spans.install(tracer)
    results = []
    cpu0, t0 = cpu(), time.perf_counter()
    for pid, params in spec["ops"]:
        try:
            results.append({"payload": registry.run(pid, params, spec["seed"]).payload})
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append({"error": f"{pid}: {type(exc).__name__}: {exc}"})
    wall, cpu_s = time.perf_counter() - t0, cpu() - cpu0

    if tracer is not None:
        tracer.recording = False
        out["layers"] = spans.layer_metrics(tracer)
    facts = workloads.facts(spec["workload"])
    if tracer is not None:
        spans.uninstall(patches)
    payloads = [r.get("payload") for r in results]
    items = (workloads.items_checked(spec["workload"], payloads, facts)
             if all(p is not None for p in payloads) else 0)
    out.update(wall_s=wall, cpu_s=cpu_s, peak_rss_mb=peak_rss_kb() / 1024,
               items=items, results=results, facts=facts)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
