"""The benchmark's workloads: what one timed round does, and its checks.

Every workload is built from ``--seed`` alone (it becomes
``ExperimentScale.seed``, so it changes trace *content*, never the shape
of a round), drives ``repro`` only through its public surface, and does
whole rounds of identical operations.  A round returns the host seconds
it took, the trace accesses it replayed and one host latency per job;
correctness checks run after the timed section, against computations
made apart from the batched replay path.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import cpu_count, remove_scratch, scratch_dir
import checks

#: Figure 16 matrix at a reduced scale: a cold matrix takes ~10 s here.
FIG16_SCALE = dict(instruction_scale=1.25e-4, capacity_scale=1 / 1024,
                   min_accesses=250, max_accesses=3000)
#: Fig. 20b stress footprint, page-granular.  The 4.5K-page hot set of
#: the 22.5K-page dataset overflows this scale's 3,840-page mmap page
#: cache, so 10K accesses are enough for rndWr to write back about ten
#: times more pages than rndRd.
FAULT_SCALE = dict(capacity_scale=1 / 512, min_accesses=10_000,
                   max_accesses=10_000)
FAULT_PLATFORMS = ("mmap", "flatflash-M", "hams-LP", "hams-TE", "oracle")
FAULT_WORKLOADS = ("rndRd", "rndWr")
#: Small serve jobs: one run each, a few hundred accesses.
SERVE_SCALE = dict(instruction_scale=2.5e-5, capacity_scale=1 / 1024,
                   min_accesses=300, max_accesses=600)
#: The cold cells a serve round cycles through, three per sub-cycle.
SERVE_CELLS = (("hams-TE", "seqRd"), ("mmap", "KMN"), ("oracle", "update"),
               ("nvdimm-C", "rndSel"), ("hams-LE", "BFS"),
               ("optane-M", "seqIns"), ("flatflash-P", "NN"),
               ("hams-TP", "rndWr"), ("optane-P", "seqSel"))
#: This cell's workload is replayed from a repro.trace/1 file written
#: during set-up, in chunks of SERVE_FILE_CHUNK accesses.
SERVE_TRACE_CELL = 4
SERVE_FILE_CHUNK = 128
PAGE_WORKLOADS = ("seqRd", "rndRd", "seqWr", "rndWr")


@dataclass
class Round:
    wall_s: float
    accesses: int
    job_ms: List[float]
    attempted: int
    failed: int = 0
    #: Serve only: daemon-side execution seconds (started -> finished).
    exec_s: float = 0.0


@dataclass
class Outcome:
    """What the checks found; ``failures`` lists each broken check."""

    failures: List[str] = field(default_factory=list)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


def _scale(repro, seed: int, **fields):
    return repro.ExperimentScale(seed=seed, **fields)


def _results_equal(left, right) -> bool:
    from repro.runner.artifacts import run_result_to_dict
    return run_result_to_dict(left) == run_result_to_dict(right)


class Workload:
    name = ""
    #: Every round runs the same jobs in the same order.
    fixed_jobs = True

    def __init__(self, repro, seed: int) -> None:
        self.repro = repro
        self.seed = seed

    def setup(self) -> None:
        """Work a user pays before the first operation; repeatable."""

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def layer_extras(self) -> Dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# fig16-cold: the headline matrix from an empty run cache
# ---------------------------------------------------------------------------


class Fig16Cold(Workload):
    name = "fig16-cold"

    def setup(self) -> None:
        from repro.runner.specs import matrix_specs
        repro = self.repro
        self.scale = _scale(repro, self.seed, **FIG16_SCALE)
        self.specs = matrix_specs(repro.PLATFORM_NAMES,
                                  repro.all_workload_names())
        self.root = scratch_dir("fig16")
        self.last = None

    def round(self, index: int) -> Round:
        cache_dir = self.root / f"cache-{index}"
        session = self.repro.Session(scale=self.scale, executor="serial",
                                     workers=1, cache_dir=cache_dir)
        latencies = []
        runs = {}
        start = previous = time.perf_counter()
        handle = session.submit(self.specs, name="fig16")
        for run in handle.iter_results():
            now = time.perf_counter()
            latencies.append((now - previous) * 1e3)
            previous = now
            runs[run.index] = run
        wall = time.perf_counter() - start
        self.last = (session, runs)
        return Round(wall_s=wall,
                     accesses=sum(run.result.memory_accesses
                                  for run in runs.values()),
                     job_ms=latencies, attempted=len(self.specs),
                     failed=len(self.specs) - len(runs))

    def check(self, outcome: Outcome) -> None:
        session, runs = self.last
        results = {(run.spec.platform, run.spec.workload): run.result
                   for run in runs.values()}
        traces = {workload: session.trace(workload)
                  for workload in self.repro.all_workload_names()}
        checks.check_matrix(outcome, results, traces,
                            page_workloads=PAGE_WORKLOADS)
        for workload, trace in traces.items():
            if workload in PAGE_WORKLOADS:
                checks.check_mmap(outcome, workload, trace,
                                  results[("mmap", workload)],
                                  session.config)
            else:
                checks.check_caches(
                    outcome, workload, trace, session.config.caches,
                    {platform: result for (platform, other), result
                     in results.items() if other == workload})
        from repro.platforms import registry
        for key in random.Random(self.seed).sample(sorted(results), 2):
            platform = registry.create_platform(key[0], session.config)
            checks.check_scalar(outcome, key, results[key], platform,
                                traces[key[1]])

    def close(self) -> None:
        remove_scratch(self.root)


# ---------------------------------------------------------------------------
# Replays driven through create_platform / Platform.run
# ---------------------------------------------------------------------------


class _Replay(Workload):
    platforms: Tuple[str, ...] = ()
    workloads: Tuple[str, ...] = ()

    def platform(self, name: str, trace):
        from repro.platforms import registry
        kwargs = ({"capacity_bytes": 2 * trace.dataset_bytes}
                  if name == "oracle" else {})
        return registry.create_platform(name, self.config, **kwargs)

    def trace(self, workload: str):
        raise NotImplementedError

    def round(self, index: int) -> Round:
        latencies = []
        results = {}
        platforms = {}
        accesses = 0
        start = previous = time.perf_counter()
        for workload in self.workloads:
            trace = self.trace(workload)
            for name in self.platforms:
                platform = self.platform(name, trace)
                result = platform.run(trace)
                now = time.perf_counter()
                latencies.append((now - previous) * 1e3)
                previous = now
                results[(name, workload)] = result
                platforms[(name, workload)] = platform
                accesses += result.memory_accesses
        wall = time.perf_counter() - start
        if self.first is None:
            self.first = results
        self.last = (results, platforms)
        return Round(wall_s=wall, accesses=accesses, job_ms=latencies,
                     attempted=len(results))

    def check_common(self, outcome: Outcome, traces) -> None:
        results, _platforms = self.last
        for key, result in results.items():
            outcome.expect(_results_equal(result, self.first[key]),
                           f"{key}: replay differs between rounds")
        checks.check_matrix(outcome, results, traces,
                            page_workloads=PAGE_WORKLOADS)
        key = random.Random(self.seed).choice(sorted(results))
        checks.check_scalar(outcome, key, results[key],
                            self.platform(key[0], traces[key[1]]),
                            traces[key[1]])


class FaultLong(_Replay):
    name = "fault-long"
    platforms = FAULT_PLATFORMS
    workloads = FAULT_WORKLOADS

    def setup(self) -> None:
        from repro.units import GB
        repro = self.repro
        self.scale = _scale(repro, self.seed, **FAULT_SCALE)
        self.config = repro.scale_system_config(repro.default_config(),
                                                self.scale)
        self.dataset_bytes = self.scale.scaled_bytes(GB(44))
        self.first = None

    def trace(self, workload: str):
        from repro.workloads.registry import TraceSpec
        return TraceSpec(workload, self.scale, self.dataset_bytes).build()

    def check(self, outcome: Outcome) -> None:
        traces = {workload: self.trace(workload)
                  for workload in self.workloads}
        self.check_common(outcome, traces)
        results, _platforms = self.last
        for workload, trace in traces.items():
            checks.check_mmap(outcome, workload, trace,
                              results[("mmap", workload)], self.config)
        outcome.expect(results[("mmap", "rndWr")].extras["writebacks"]
                       > results[("mmap", "rndRd")].extras["writebacks"],
                       "mmap writes back no more on rndWr than on rndRd")


# ---------------------------------------------------------------------------
# serve-mix: an in-process daemon under a closed-loop client
# ---------------------------------------------------------------------------


@dataclass
class _Job:
    cell: Tuple[int, int]
    kind: str
    specs: tuple = ()
    submit_ms: float = 0.0
    fetch_ms: float = 0.0
    latency_ms: float = 0.0
    record: Optional[dict] = None
    result: object = None


class ServeMix(Workload):
    name = "serve-mix"
    fixed_jobs = False

    def setup(self) -> None:
        from repro.serve import ServeConfig, ServeDaemon
        from repro.trace import writer
        self.scale = _scale(self.repro, self.seed, **SERVE_SCALE)
        self.slots = min(2, cpu_count())
        self.state = scratch_dir("serve")
        self.trace_workload = SERVE_CELLS[SERVE_TRACE_CELL][1]
        self.trace_path = writer.build_trace_file(
            self.trace_workload, self.state / "cell.trace", scale=self.scale,
            chunk_accesses=SERVE_FILE_CHUNK)
        self.daemon = ServeDaemon(ServeConfig(
            state_dir=self.state, fleet=self.slots, scale=self.scale))
        self.daemon.start()
        self.client = self.repro.ServeClient(self.daemon.url, timeout=60.0)
        self.jobs: List[_Job] = []

    def _cold(self, index: int, cell: int):
        from repro.runner import RunSpec
        platform, workload = SERVE_CELLS[cell]
        base = self.scale.scaled_bytes(
            self.repro.get_workload(workload).characteristics.dataset_bytes)
        if cell == SERVE_TRACE_CELL:
            workload = f"trace:{self.trace_path}"
        # One extra page per round keeps every round's cells cold.
        return (RunSpec(platform=platform, workload=workload,
                        dataset_bytes_override=base + 4096 * index),)

    def _waves(self, index: int) -> List[List[_Job]]:
        """A round: per sub-cycle, a deduped pair, two cold, two warm.

        No recorded serve traffic exists to draw the mix from, so each of
        the three job kinds gets the same share of submissions; cells *b*
        and *c* are resubmitted warm after their cold runs finish.
        """
        waves = []
        for first in range(0, len(SERVE_CELLS), 3):
            a, b, c = ((index, first + k) for k in range(3))
            waves += [[_Job(a, "dedupe") for _ in range(self.slots)],
                      [_Job(b, "cold"), _Job(c, "cold")][:self.slots],
                      [_Job(b, "warm"), _Job(c, "warm")][:self.slots]]
        return waves

    def _run_job(self, job: _Job) -> None:
        job.specs = self._cold(*job.cell)
        start = time.perf_counter()
        record = self.client.submit(list(job.specs), name="mix")
        submitted = time.perf_counter()
        final = self.client.wait(record["id"], timeout=120.0)
        fetched = time.perf_counter()
        job.result = self.client.experiment(record["id"])
        end = time.perf_counter()
        job.submit_ms = (submitted - start) * 1e3
        job.fetch_ms = (end - fetched) * 1e3
        job.latency_ms = (end - start) * 1e3
        job.record = final

    def round(self, index: int) -> Round:
        jobs = []
        start = time.perf_counter()
        for wave in self._waves(index):
            threads = [threading.Thread(target=self._run_job, args=(job,))
                       for job in wave[1:]]
            for thread in threads:
                thread.start()
            self._run_job(wave[0])
            for thread in threads:
                thread.join()
            jobs += wave
        wall = time.perf_counter() - start
        self.jobs += jobs
        self.round_jobs = len(jobs)
        done = [job for job in jobs
                if job.record is not None and job.record["state"] == "done"]
        accesses = sum(result.memory_accesses
                       for job in done if job.record["cache_hits"] == 0
                       and not job.record.get("deduped_against")
                       for result in _runs(job.result))
        return Round(wall_s=wall, accesses=accesses,
                     job_ms=[job.latency_ms for job in done],
                     attempted=len(jobs), failed=len(jobs) - len(done),
                     exec_s=sum(job.record["finished_unix"]
                                - job.record["started_unix"]
                                for job in done))

    def check(self, outcome: Outcome) -> None:
        session = self.repro.Session(scale=self.scale, executor="serial",
                                     workers=1)
        distinct: Dict[str, List[_Job]] = {}
        # Failed jobs are counted in the result's "failed"; only the
        # results that came back are compared.
        for job in (job for job in self.jobs if job.result is not None):
            distinct.setdefault(_spec_key(job.specs), []).append(job)
        for jobs in distinct.values():
            expected = session.run(list(jobs[0].specs))
            for job in jobs:
                got = _runs(job.result)
                outcome.expect(
                    len(got) == len(expected) and all(
                        _results_equal(left, right)
                        for left, right in zip(got, expected)),
                    f"serve job {job.record['id']} ({job.kind}) != "
                    f"in-process serial run of its specs")
        self._check_trace_file(outcome)

    def _check_trace_file(self, outcome: Outcome) -> None:
        """The trace file must replay exactly as its in-memory twin."""
        from repro.platforms import registry
        from repro.workloads.registry import TraceSpec, build_trace
        memory = TraceSpec(self.trace_workload, self.scale).build()
        from_file = build_trace(f"trace:{self.trace_path}")
        outcome.expect(from_file.stream == memory.stream,
                       "trace file content != in-memory trace")
        config = self.repro.scale_system_config(self.repro.default_config(),
                                                self.scale)
        platform = SERVE_CELLS[SERVE_TRACE_CELL][0]
        outcome.expect(
            _results_equal(
                registry.create_platform(platform, config).run(from_file),
                registry.create_platform(platform, config).run(memory)),
            f"{platform} {self.trace_workload}: file replay != in-memory "
            f"replay")

    def layer_extras(self) -> Dict[str, float]:
        from common import median
        jobs = [job for job in self.jobs if job.record is not None]
        records = [job.record for job in jobs]
        rounds = len(self.jobs) / self.round_jobs
        return {
            "serve.submit_ms": median([job.submit_ms for job in jobs]),
            "serve.queue_wait_ms": median(
                [(r["started_unix"] - r["submitted_unix"]) * 1e3
                 for r in records]),
            "serve.exec_ms": median(
                [(r["finished_unix"] - r["started_unix"]) * 1e3
                 for r in records]),
            "serve.result_fetch_ms": median([job.fetch_ms for job in jobs]),
            "serve.jobs_deduped": sum(
                1 for r in records if r.get("deduped_against")) / rounds,
            "serve.jobs_cache_only": sum(
                1 for r in records if not r.get("deduped_against")
                and r["cache_hits"] == r["total"]) / rounds,
        }

    def close(self) -> None:
        daemon, self.daemon = self.daemon, None
        daemon.request_shutdown(drain=True)
        daemon.wait(timeout=60.0)
        remove_scratch(self.state)


def _spec_key(specs) -> str:
    return json.dumps([spec.to_dict() for spec in specs], sort_keys=True)


def _runs(experiment) -> list:
    return list(experiment.results.values())


WORKLOADS = {cls.name: cls for cls in (Fig16Cold, FaultLong, ServeMix)}
