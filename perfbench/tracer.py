"""Span recorder installed around repro's public calls for the traced runs.

Nothing under ``src/`` knows about this module: :class:`Tracer.install`
replaces selected functions and methods with wrappers at run time and
:meth:`Tracer.uninstall` puts the originals back.  Every wrapped call
records one span — name, start, end, parent — on a per-thread stack, so a
layer's *self* time is its duration minus the time its child spans cover.
Aggregates (self time, calls) are exact; the raw span list is capped so a
long traced run stays small in memory, and is written out at the end.

Counters that the program already keeps (cache hits, writebacks, HAMS
fills, ...) are harvested from each platform after its ``run`` returns,
instead of being re-counted per call.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Raw spans kept in memory per traced run (aggregates are never capped).
SPAN_CAP = 50_000


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[list] = []


class Tracer:
    """Wraps repro's layer boundaries and aggregates per-layer self time."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        #: Time inside outermost spans, per thread name.
        self.top_s: Dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn: Callable, after=None,
             key: Optional[Callable] = None) -> Callable:
        """Wrap *fn* so each call records a span called *name*.

        *after(tracer, args, result)* runs once the call returns, outside
        the span; *key(args)* names the span per call (e.g. per platform).
        A call nested directly inside a span of the same name (an
        override calling its base method) is passed through, so it is
        neither double counted nor split.
        """
        local = self._local
        lock = self._lock
        tracer = self

        def wrapper(*args, **kwargs):
            stack = local.stack
            span_name = name if key is None else key(args)
            if stack and stack[-1][0] == span_name:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            with lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_name, 0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with lock:
                    if not stack:
                        tracer.top_s[threading.current_thread().name] += \
                            duration
                    tracer.self_s[span_name] += duration - frame[1]
                    tracer.total_s[span_name] += duration
                    tracer.calls[span_name] += 1
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append(
                            (span_id, span_name, start, end, parent))
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] += value

    # -- patching -------------------------------------------------------------

    def _set(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def patch_method(self, cls: type, method: str, name: str,
                     after=None, key=None) -> None:
        """Wrap *method* on *cls* and on every subclass that overrides it."""
        for klass in [cls] + _subclasses(cls):
            if method in vars(klass):
                self._set(klass, method,
                          self.span(name, vars(klass)[method], after, key))

    def patch_function(self, fn: Callable, name: str, after=None) -> None:
        """Wrap module-level *fn* in every ``repro`` module that binds it."""
        wrapper = self.span(name, fn, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- reporting ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ---------------------------------------------------------------------------
# The layer map: which public call is which layer
# ---------------------------------------------------------------------------


def _harvest_platform(tracer: Tracer, args, result) -> None:
    """Read the counters a finished run left on its platform object."""
    from repro.flash.ssd import SSD
    from repro.host.os_stack import PageCache

    platform = args[0]
    caches = platform.caches
    tracer.add("host.l1_hits", caches.l1.hits)
    tracer.add("host.l2_hits", caches.l2.hits)
    tracer.add("host.cache_misses", caches.l2.misses)
    tracer.add("platforms.offchip_requests", result.offchip_accesses)
    tracer.add("platforms.accesses", result.memory_accesses)
    for value in vars(platform).values():
        if isinstance(value, PageCache):
            tracer.add("host.page_cache_hits", value.hits)
            tracer.add("host.page_cache_misses", value.misses)
            tracer.add("host.dirty_writebacks", value.dirty_writebacks)
    controller = getattr(platform, "controller", None)
    ssds = {id(ssd): ssd for ssd in (getattr(platform, "ssd", None),
                                     getattr(controller, "ssd", None))
            if isinstance(ssd, SSD)}
    for ssd in ssds.values():
        tracer.add("flash.page_reads", ssd.fil.page_reads)
        tracer.add("flash.page_programs", ssd.fil.page_programs)
    if hasattr(controller, "fills"):
        tracer.add("core.hams_fills", controller.fills)
        tracer.add("core.hams_evictions", controller.evictions)


def _count_precondition(tracer: Tracer, args, result) -> None:
    tracer.add("flash.precondition_pages", args[2])


def _count_cache_load(tracer: Tracer, args, result) -> None:
    tracer.add("runner.cache_hits" if result is not None
               else "runner.cache_misses", 1)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core.hams_controller import HAMSController
    from repro.energy.accounting import EnergyAccount
    from repro.flash.ssd import SSD
    from repro.host.caches import CacheHierarchy
    from repro.host.os_stack import PageCache
    from repro.numerics import sequential_add
    from repro.nvme.controller import NVMeController
    from repro.platforms.base import Platform
    from repro.platforms.registry import create_platform
    from repro.runner.artifacts import RunCache, run_cache_key
    from repro.runner.parallel import execute_spec
    from repro.trace.reader import TraceReader
    from repro.trace.writer import build_trace_file
    from repro.workloads.registry import build_trace

    tracer.patch_function(build_trace, "workloads.trace_build")
    tracer.patch_function(build_trace_file, "trace.write")
    tracer.patch_method(TraceReader, "window", "trace.read")
    tracer.patch_function(create_platform, "platforms.construct")
    tracer.patch_method(Platform, "prepare", "platforms.prepare")
    tracer.patch_method(SSD, "precondition", "flash.precondition",
                        after=_count_precondition)
    tracer.patch_method(Platform, "run", "platforms.run",
                        after=_harvest_platform,
                        key=lambda args: "platforms.run." + args[0].name)
    tracer.patch_method(CacheHierarchy, "access_batch", "host.cache_filter")
    tracer.patch_method(CacheHierarchy, "access", "host.cache_filter")
    tracer.patch_method(Platform, "service_batch", "platforms.service_batch")
    for method in ("access", "install", "access_batch"):
        tracer.patch_method(PageCache, method, "host.page_cache")
    tracer.patch_method(SSD, "submit_batch", "flash.submit_batch")
    tracer.patch_method(NVMeController, "execute", "nvme.execute")
    tracer.patch_method(HAMSController, "classify_batch",
                        "core.classify_batch")
    tracer.patch_method(HAMSController, "replay_miss", "core.replay_miss")
    tracer.patch_method(HAMSController, "access", "core.replay_miss")
    tracer.patch_function(sequential_add, "numerics.sequential_add")
    tracer.patch_method(Platform, "collect_energy", "energy.collect")
    tracer.patch_method(EnergyAccount, "breakdown", "energy.collect")
    tracer.patch_function(execute_spec, "runner.execute_spec")
    tracer.patch_function(run_cache_key, "runner.cache_key")
    tracer.patch_method(RunCache, "load", "runner.cache_load",
                        after=_count_cache_load)
    tracer.patch_method(RunCache, "store", "runner.cache_store")
    return tracer
