#!/usr/bin/env python3
"""ICU end-to-end benchmark: enforced, audited messages, alarms and
patient-history queries on the seeded simulator, with a per-layer ledger.

Usage (from the repository root):

    python3 perfbench/run.py --workload ward-stream --seed 1 --seconds 15 --trace 0

``--seconds`` sizes the work: each workload runs the number of cycles
that lasts about that long on a 2-CPU 2.1 GHz host at this commit
(``dashboard-query`` about 2.5 times as long), so both sides of a
comparison do the same work; a run stops early after 4 times
``--seconds``.  Timed steps use the process's CPU time, scaled to a
reference host speed probed around each step (see ``icu.cpu_ns`` and
``icu.SpeedScale``; the report also prints the raw values).
``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer ledger of a traced run of half that
work (wall-clock spans), the tracing overhead and the ``enforce=False``
reference.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  The exit code is 0 only when every check passed.
Workloads, deployment and checks are described in ``icu.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run stops early after this many times ``--seconds`` of wall time.
TIME_CAP = 4.0

END_TO_END = {
    "setup_s": "s",
    "stream_msgs_per_s": "1/s",
    "stream_sim_delay_p99_ms": "ms",
    "alarm_p50_us": "us",
    "alarm_p99_us": "us",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "verify_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Wrapped entry points: each reports ``<op>.calls`` and ``<op>.self_ms``.
LAYER_OPS = (
    "deploy.build",
    "federation.converge",
    "analysis.gate",
    "middleware.bus.publish",
    "middleware.substrate.send",
    "middleware.substrate.receive",
    "ifc.decisions.evaluate",
    "ifc.decisions.audit",
    "ifc.wire.encode",
    "ifc.wire.decode",
    "net.send",
    "sim.run",
    "audit.spine.drain",
    "audit.spine.checkpoint",
    "audit.query",
    "audit.verify",
    "deploy.verify",
    "cloud.grant",
    "cloud.change_context",
    "bench.harness",
)

LAYER_COUNTERS = {
    "middleware.substrate.delivered": "count",
    "middleware.substrate.denied_remote": "count",
    "middleware.substrate.sent_masked": "count",
    "ifc.decisions.hit_rate": "ratio",
    "ifc.decisions.misses": "count",
    "ifc.wire.masked_share": "ratio",
    "net.batches": "count",
    "net.mean_batch_size": "count",
    "net.bytes": "B",
    "sim.events": "count",
    "audit.spine.records": "count",
    "audit.storage.seals": "count",
    "audit.storage.demotions": "count",
    "audit.storage.spill_bytes": "B",
    "audit.storage.cold_loads": "count",
    "audit.query.segments_scanned": "count",
    "audit.query.segments_skipped": "count",
    "audit.query.records_scanned": "count",
    "audit.query.hit_ratio": "ratio",
    "audit.verify.bytes_hashed": "B",
    "audit.verify.segments_skipped": "count",
    "federation.rounds": "count",
    "federation.gossip_bytes": "B",
    "ledger.wall_ms": "ms",
    "ledger.unattributed_ms": "ms",
    "ledger.unattributed_pct": "%",
    "trace.overhead_pct": "%",
    "ref.enforce_off_msgs_per_s": "1/s",
}


def per_layer_units():
    units = {}
    for op in LAYER_OPS:
        units[f"{op}.calls"] = "count"
        units[f"{op}.self_ms"] = "ms"
    units.update(LAYER_COUNTERS)
    return units


def environment(args, repeats):
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "repeats": repeats,
    }


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def measure(icu, workload, inputs, seconds, work):
    """The untraced run: repeated set-up, then the measured cycles."""
    setups, raw_setups = [], []
    run = None
    for i in range(workload.setup_repeats):
        if run is not None:
            run.close()
            run = None  # let fresh() collect it
        run = icu.fresh(workload, inputs, work, f"setup{i}")
        scaled, raw = run.setup()
        setups.append(scaled)
        raw_setups.append(raw)
    try:
        wall = run.run(workload.cycles_for(seconds), TIME_CAP * seconds)
        run.finish()
    finally:
        run.close()
    metrics = run.end_to_end()
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    raw = run.end_to_end(scaled=False)
    raw["setup_s"] = statistics.median(raw_setups)
    repeats = {"speed_probe_ms": statistics.median(run.speed.probes) / 1e6,
               "setups": [round(s, 4) for s in setups],
               "run_wall_s": round(wall, 3), "cycles": run.cycles,
               "alarms": len(run.alarm_us), "queries": len(run.query_ms),
               "verifies": len(run.verify_ms),
               "stream_deliveries": run.stream_delivered,
               "raw": {name: raw[name] for name in END_TO_END
                       if name in raw}}
    return run, metrics, repeats


def traced(icu, tracer_mod, workload, inputs, seconds, work, out_dir):
    """Untraced pass, traced pass of the same cycles, then the
    ``enforce=False`` reference.  Returns the per-layer metrics, the
    repeat counts and every pass's failures and attempted operations."""
    failures, attempted = [], 0

    def finished(run, label):
        nonlocal attempted
        try:
            run.finish()
        finally:
            run.close()
        failures.extend(f"{label}: {f}" for f in run.failures)
        attempted += run.attempted

    # Both passes run half the untraced run's cycles, so that the three
    # passes together take about as long as one untraced run.
    base = icu.fresh(workload, inputs, work, "untraced")
    start = time.perf_counter_ns()
    base.setup()
    base.run(workload.cycles_for(seconds / 2), TIME_CAP * seconds / 2)
    base_ns = time.perf_counter_ns() - start
    base_speed = statistics.median(base.speed.probes)
    cycles = base.cycles
    finished(base, "untraced")
    base = None  # let fresh() collect it

    tracer = tracer_mod.Tracer()
    run = icu.fresh(workload, inputs, work, "traced", tracer=tracer)
    start = time.perf_counter_ns()
    run.setup()
    run.run(cycles)
    wall_ns = time.perf_counter_ns() - start
    run_speed = statistics.median(run.speed.probes)
    ledger = tracer.ledger(wall_ns)
    counters = run.layer_counters()
    finished(run, "traced")
    run = None
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{workload.name}-seed{inputs.seed}.jsonl")

    stream = icu.WORKLOADS["ward-stream"]
    ref = icu.fresh(stream, inputs, work, "reference", enforce=False,
                    research_share=0.0)
    ref.setup()
    ref.run(stream.cycles_for(seconds / 2), TIME_CAP * seconds / 2)
    finished(ref, "reference")

    metrics = {f"{op}.{kind}": 0 for op in LAYER_OPS
               for kind in ("calls", "self_ms")}
    metrics.update(ledger)
    metrics.update(counters)
    # Both passes' wall times at the reference speed (see icu.SpeedScale).
    metrics["trace.overhead_pct"] = 100.0 * (
        (wall_ns / run_speed) / (base_ns / base_speed) - 1
    )
    metrics["ref.enforce_off_msgs_per_s"] = ref.end_to_end()[
        "stream_msgs_per_s"]
    repeats = {"cycles": cycles, "reference_cycles": ref.cycles}
    return metrics, repeats, failures, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import icu
    import tracer as tracer_mod

    workload = icu.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(icu.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = icu.Inputs(args.seed)
    work = HERE / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            values, repeats, failures, attempted = traced(
                icu, tracer_mod, workload, inputs, args.seconds, work,
                HERE / "out",
            )
            units = per_layer_units()
            extra = {}
        else:
            run, values, repeats = measure(
                icu, workload, inputs, args.seconds, work
            )
            failures, attempted = run.failures, run.attempted
            units = END_TO_END
            extra = {"query_tail_pct": values["query_tail_pct"],
                     "query_n": repeats["queries"]}
            extra.update({f"raw {name}": value
                          for name, value in repeats.pop("raw").items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(failures)
    print(f"perfbench {workload.name}: {workload.why}")
    print("env " + json.dumps(environment(args, repeats), sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>16.6g} {unit}")
    for name, value in extra.items():
        print(f"  {name:<40} {value:>16.6g}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
