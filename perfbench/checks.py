"""Correctness checks, computed apart from the batched replay path.

The reference models here are plain per-access loops written from the
model's stated rules (per-set LRU caches, an LRU page cache with mmap's
readahead and dirty bits), not calls into the code under test; the
properties are ones the method must have whatever the inputs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple


def check_matrix(outcome, results: Dict[Tuple[str, str], object],
                 traces: Dict[str, object], page_workloads) -> None:
    """Properties every (platform, workload) result must have.

    * accesses are conserved: the run saw exactly the trace's accesses,
      the cache hierarchy counted every one, and each retired one memory
      instruction plus the workload's compute instructions;
    * off-chip requests never exceed accesses, and equal them on
      page-granular traces (which bypass L1/L2);
    * the oracle (everything in DRAM) is at least as fast as every
      platform on every workload.
    """
    for (platform, workload), result in results.items():
        trace = traces[workload]
        accesses = len(trace.stream)
        label = f"{platform} {workload}"
        outcome.expect(result.memory_accesses == accesses,
                       f"{label}: {result.memory_accesses} accesses "
                       f"recorded, trace has {accesses}")
        outcome.expect(result.extras.get("accesses") == accesses,
                       f"{label}: cache hierarchy counted "
                       f"{result.extras.get('accesses')} of {accesses}")
        per_access = 1 + int(trace.compute_instructions_per_access)
        outcome.expect(result.instructions == accesses * per_access,
                       f"{label}: {result.instructions} instructions "
                       f"!= {accesses} x {per_access}")
        outcome.expect(result.offchip_accesses <= accesses,
                       f"{label}: {result.offchip_accesses} off-chip "
                       f"of {accesses}")
        if workload in page_workloads:
            outcome.expect(result.offchip_accesses == accesses,
                           f"{label}: page-granular trace kept "
                           f"{accesses - result.offchip_accesses} on chip")
    workloads = {workload for _platform, workload in results}
    for workload in sorted(workloads):
        oracle = results.get(("oracle", workload))
        if oracle is None:
            continue
        for (platform, other), result in results.items():
            if other == workload:
                outcome.expect(
                    oracle.operations_per_second
                    >= result.operations_per_second,
                    f"{workload}: {platform} "
                    f"({result.operations_per_second:.1f} ops/s) beats the "
                    f"oracle ({oracle.operations_per_second:.1f})")


def check_scalar(outcome, key, batched, platform, trace) -> None:
    """The scalar reference loop must reproduce a batched result exactly."""
    from repro.runner.artifacts import run_result_to_dict

    scalar = platform.run(trace, execution="scalar")
    left, right = run_result_to_dict(scalar), run_result_to_dict(batched)
    differing = sorted(name for name in left if left[name] != right[name])
    outcome.expect(not differing,
                   f"{key}: scalar replay differs in {differing}")


def reference_caches(trace, config) -> Tuple[int, int, int, int]:
    """(L1 hits, L1 misses, L2 hits, L2 misses) of a plain LRU walk.

    L1 (8-way) sees every fine-grained access; L2 (16-way) sees only L1's
    misses.  Each set is a list ordered least- to most-recently used.
    Page-granular accesses bypass both levels.
    """
    line = config.line_size
    l1_sets = max(1, config.l1_size_bytes // (line * 8))
    l2_sets = max(1, config.l2_size_bytes // (line * 16))
    l1 = [[] for _ in range(l1_sets)]
    l2 = [[] for _ in range(l2_sets)]
    l1_hits = l1_misses = l2_hits = l2_misses = 0
    stream = trace.stream
    for address, size in zip(stream.addresses.tolist(),
                             stream.sizes.tolist()):
        if size > line:
            continue
        tag = address // line
        ways = l1[tag % l1_sets]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            l1_hits += 1
            continue
        l1_misses += 1
        ways.append(tag)
        if len(ways) > 8:
            del ways[0]
        ways = l2[tag % l2_sets]
        if tag in ways:
            ways.remove(tag)
            l2_hits += 1
        else:
            l2_misses += 1
            if len(ways) == 16:
                del ways[0]
        ways.append(tag)
    return l1_hits, l1_misses, l2_hits, l2_misses


def check_caches(outcome, workload, trace, config, results) -> None:
    """Every platform's L1/L2 statistics must match the reference walk."""
    l1_hits, l1_misses, l2_hits, l2_misses = reference_caches(trace, config)
    expected = {"l1_hit_rate": l1_hits / (l1_hits + l1_misses),
                "l2_hit_rate": l2_hits / (l2_hits + l2_misses),
                "memory_accesses": float(l2_misses)}
    for platform, result in results.items():
        seen = {name: result.extras.get(name) for name in expected}
        outcome.expect(seen == expected,
                       f"{platform} {workload}: caches {seen} != "
                       f"reference {expected}")


def reference_mmap(trace, cache_pages: int, page_bytes: int,
                   readahead: int) -> Tuple[float, float]:
    """(major faults, dirty writebacks) of mmap on a page-granular trace.

    A fault on the page right after the previously faulted one reads
    *readahead* pages; any other fault reads one.  The faulting page is
    dirty when the access stores; read-ahead pages arrive clean, and a
    store to a resident page dirties it.  The page cache is LRU over
    *cache_pages*; evicting a dirty page is one writeback.
    """
    resident: "OrderedDict[int, bool]" = OrderedDict()
    last_fault = -2
    faults = writebacks = 0
    stream = trace.stream
    for address, is_write in zip(stream.addresses.tolist(),
                                 stream.writes.tolist()):
        page = address // page_bytes
        if page in resident:
            resident.move_to_end(page)
            resident[page] = resident[page] or is_write
            continue
        faults += 1
        count = readahead if page == last_fault + 1 else 1
        last_fault = page
        for offset in range(count):
            target = page + offset
            dirty = is_write and offset == 0
            if target in resident:
                resident.move_to_end(target)
                resident[target] = resident[target] or dirty
                continue
            if len(resident) >= cache_pages:
                _victim, victim_dirty = resident.popitem(last=False)
                writebacks += victim_dirty
            resident[target] = dirty
    return float(faults), float(writebacks)


def check_mmap(outcome, workload, trace, result, config) -> None:
    """mmap's major faults and writebacks must equal the reference's."""
    page_bytes = 4096
    faults, writebacks = reference_mmap(
        trace, config.nvdimm.cacheable_bytes // page_bytes, page_bytes,
        config.os_stack.readahead_pages)
    extras = result.extras
    outcome.expect(
        (extras["major_faults"], extras["writebacks"])
        == (faults, writebacks),
        f"mmap {workload}: faults/writebacks "
        f"{extras['major_faults']}/{extras['writebacks']} != "
        f"reference {faults}/{writebacks}")
