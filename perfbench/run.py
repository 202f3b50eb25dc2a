#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fault-long --seed 1 --seconds 20 \\
        --trace 0

The workload is set up several times (set-up time is the median), then
whole rounds run until ``--seconds`` of host time are spent; the
workload's correctness checks run after the timed section.  With
``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` rounds alternate untraced / traced and the result carries
the per-layer metrics of the traced rounds, plus the tracing overhead
and the share of traced wall time the named layers cover.  A per-layer
span dump lands in ``.perfbench_out/``.  The last line of standard
output is always the result object; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    ROOT,
    SRC,
    SourceMissing,
    import_repro,
    median,
    metric,
    peak_rss_mb,
    percentile,
)

#: Set-up repetitions per run; ``setup_s`` reports the median.
SETUPS = 3
#: Modules a user of any workload imports before the first operation.
IMPORTS = "import repro, repro.serve, repro.trace"

WORKLOAD_NAMES = ("fig16-cold", "fault-long", "serve-mix")

#: Per-layer metric -> the span whose self time (s) or calls it reports.
SELF_TIME = {
    "workloads.trace_build_s": "workloads.trace_build",
    "trace.write_s": "trace.write",
    "trace.read_s": "trace.read",
    "platforms.construct_s": "platforms.construct",
    "platforms.prepare_s": "platforms.prepare",
    "flash.precondition_s": "flash.precondition",
    "host.cache_filter_s": "host.cache_filter",
    "platforms.service_batch_s": "platforms.service_batch",
    "host.page_cache_s": "host.page_cache",
    "flash.submit_batch_s": "flash.submit_batch",
    "nvme.execute_s": "nvme.execute",
    "core.classify_batch_s": "core.classify_batch",
    "core.replay_miss_s": "core.replay_miss",
    "numerics.sequential_add_s": "numerics.sequential_add",
    "energy.collect_s": "energy.collect",
    "runner.execute_spec_s": "runner.execute_spec",
    "runner.cache_key_s": "runner.cache_key",
    "runner.cache_load_s": "runner.cache_load",
    "runner.cache_store_s": "runner.cache_store",
}
CALLS = {
    "trace.chunks": "trace.read",
    "host.cache_filter_calls": "host.cache_filter",
    "platforms.service_batch_calls": "platforms.service_batch",
    "flash.submit_batch_calls": "flash.submit_batch",
    "nvme.commands": "nvme.execute",
    "numerics.sequential_add_calls": "numerics.sequential_add",
}
COUNTS = ("flash.precondition_pages", "host.l1_hits", "host.l2_hits",
          "host.cache_misses", "platforms.offchip_requests",
          "host.page_cache_hits", "host.page_cache_misses",
          "host.dirty_writebacks", "flash.page_reads", "flash.page_programs",
          "core.hams_fills", "core.hams_evictions", "runner.cache_hits",
          "runner.cache_misses")
SERVE = ("serve.submit_ms", "serve.queue_wait_ms", "serve.exec_ms",
         "serve.result_fetch_ms", "serve.jobs_deduped",
         "serve.jobs_cache_only")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Host seconds for a fresh interpreter to start and import repro."""
    start = time.perf_counter()
    # A blocking wait: Popen.wait(timeout=...) polls in sleeps of up to
    # 50 ms, which would quantise the measurement.
    process = subprocess.Popen([sys.executable, "-c",
                                f"import sys; sys.path.insert(0, "
                                f"{str(SRC)!r}); {IMPORTS}"], cwd=ROOT)
    code = process.wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"importing repro failed with exit code {code}")
    return elapsed


def _setup(workload, tracer=None) -> float:
    """Median of repeated set-ups, plus the median interpreter start.

    With a *tracer*, the last set-up is traced (trace-file writes happen
    there, not in the rounds).
    """
    from tracer import install

    imports = [_import_seconds() for _ in range(SETUPS)]
    setups = []
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        if last and tracer is not None:
            install(tracer)
        start = time.perf_counter()
        try:
            workload.setup()
        finally:
            if last and tracer is not None:
                tracer.uninstall()
        setups.append(time.perf_counter() - start)
        if not last:
            workload.close()
    log(f"setup: imports {_fmt(imports)} s, workload {_fmt(setups)} s")
    return median(imports) + median(setups)


def _timed(workload, seconds: float, trace: bool):
    """Whole rounds until the next one would overrun *seconds*.

    In trace mode even rounds run plain and odd rounds traced, so the
    overhead is measured against untraced rounds of the same run.
    """
    from tracer import Tracer, install

    tracer = Tracer() if trace else None
    plain, traced = [], []
    began = time.perf_counter()
    index = 0
    while True:
        tracing = trace and index % 2 == 1
        if tracing:
            install(tracer)
        try:
            result = workload.round(index)
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(result)
        log(f"round {index}{' traced' if tracing else ''}: "
            f"{result.wall_s:.3f} s, {result.attempted} jobs, "
            f"{result.failed} failed")
        index += 1
        elapsed = time.perf_counter() - began
        typical = median([r.wall_s for r in plain + traced])
        if elapsed + typical > seconds and (traced or not trace):
            return plain, traced, tracer


def _end_to_end(workload, setup_s, rounds, rss_mb):
    """The end-to-end metrics from the untraced rounds.

    Replay workloads run the same jobs in the same order every round, so
    each job's latency is first reduced to its median across rounds; a
    burst of host contention then spoils one sample of a few jobs instead
    of a whole round.  ``wall_s`` is the sum of those medians.  The jobs
    are unlike (each a different platform and trace), so before the job
    percentiles every sample is rescaled by the geometric mean of the job
    medians over its own job's median: the pooled samples are then one
    population, latencies of a job of typical size.  Serve rounds overlap
    jobs, so there the round wall is the sample and the job percentiles
    pool every job of the run.
    """
    if workload.fixed_jobs:
        medians = [median([r.job_ms[k] for r in rounds])
                   for k in range(len(rounds[0].job_ms))]
        typical = math.exp(statistics.fmean(map(math.log, medians)))
        jobs = [r.job_ms[k] * typical / medians[k]
                for r in rounds for k in range(len(medians))]
        wall = sum(medians) / 1e3
        accesses_per_s = rounds[0].accesses / wall
        jobs_per_s = rounds[0].attempted / wall
    else:
        jobs = [ms for r in rounds for ms in r.job_ms]
        wall = median([r.wall_s for r in rounds])
        accesses_per_s = median([r.accesses / r.wall_s for r in rounds])
        jobs_per_s = median([(r.attempted - r.failed) / r.wall_s
                             for r in rounds])
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall, "s"),
        "accesses_per_s": metric(accesses_per_s, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "jobs_per_s": metric(jobs_per_s, "1/s"),
        "job_p50_ms": metric(median(jobs), "ms"),
        "job_p90_ms": metric(percentile(jobs, 90), "ms"),
    }


def _per_layer(workload, plain, traced, tracer, setup_tracer):
    from repro.platforms.registry import PLATFORM_NAMES

    count = len(traced)
    wall = sum(r.wall_s for r in traced)
    out = {}
    for name, span in SELF_TIME.items():
        out[name] = metric(tracer.self_s.get(span, 0.0) / count, "s")
    for name, span in CALLS.items():
        out[name] = metric(tracer.calls.get(span, 0) / count, "count")
    for name in COUNTS:
        out[name] = metric(tracer.counts.get(name, 0.0) / count, "count")
    # Trace files are written once, during set-up.
    out["trace.write_s"] = metric(
        setup_tracer.self_s.get("trace.write", 0.0), "s")
    loop = sum(value for span, value in tracer.self_s.items()
               if span.startswith("platforms.run."))
    out["platforms.replay_loop_s"] = metric(loop / count, "s")
    for platform in PLATFORM_NAMES:
        out[f"platforms.run_s.{platform}"] = metric(
            tracer.total_s.get(f"platforms.run.{platform}", 0.0) / count,
            "s")
    if workload.name == "serve-mix":
        executing = sum(value for thread, value in tracer.top_s.items()
                        if thread.startswith("repro-serve-worker"))
        overhead = sum(r.exec_s for r in traced) - executing
    else:
        overhead = wall - tracer.top_s.get("MainThread", 0.0)
    out["exec.overhead_s"] = metric(overhead / count, "s")
    extras = workload.layer_extras()
    for name in SERVE:
        unit = "ms" if name.endswith("_ms") else "count"
        out[name] = metric(extras.get(name, 0.0), unit)
    out["bench.traced_wall_s"] = metric(wall / count, "s")
    out["bench.trace_coverage"] = metric(
        sum(tracer.self_s.values()) / wall, "share")
    out["bench.trace_overhead"] = metric(
        median([r.wall_s for r in traced])
        / median([r.wall_s for r in plain]) - 1.0, "share")
    return out


def _fmt(values):
    return "[" + ", ".join(f"{value:.3f}" for value in values) + "]"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        log("error: --seconds must be positive")
        return 2
    try:
        repro = import_repro()
    except (SourceMissing, ImportError) as error:
        log(f"error: cannot import the program under test: {error}")
        return 3
    from workloads import WORKLOADS, Outcome

    from tracer import Tracer

    workload = WORKLOADS[args.workload](repro, args.seed)
    setup_tracer = Tracer() if args.trace else None
    setup_s = _setup(workload, setup_tracer)
    try:
        plain, traced, tracer = _timed(workload, args.seconds,
                                       bool(args.trace))
        rss_mb = peak_rss_mb()
        outcome = Outcome()
        workload.check(outcome)
    finally:
        workload.close()
    for failure in outcome.failures:
        log(f"CHECK FAILED: {failure}")
    rounds = plain + traced
    if args.trace:
        metrics = _per_layer(workload, plain, traced, tracer, setup_tracer)
        tracer.write_spans(
            OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = _end_to_end(workload, setup_s, rounds, rss_mb)
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
