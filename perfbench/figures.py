#!/usr/bin/env python3
"""Regenerate every reference figure the README quotes.

Usage (from the root of a checkout)::

    python3 perfbench/figures.py

Prints, in order:

1. the per-layer table of every workload (one traced run each, see
   ``layers.py``), with the tracing overhead and the layer coverage;
2. the simulated speedups over mmap on the Fig. 16 matrix (simulated
   time, not host time), at the fig16-cold scale and at the library's
   default scale.

The host-spread tables come from ``steady.py``.  Takes about three
minutes.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_repro  # noqa: E402
from layers import print_table  # noqa: E402
from steady import load_benchmark, run_once  # noqa: E402

SPEEDUP_PLATFORMS = ("hams-LE", "hams-TE", "nvdimm-C")
#: The paper's headline: HAMS +97%, advanced HAMS +119% over mmap.
PAPER_SPEEDUPS = {"hams-LE": 1.97, "hams-TE": 2.19}


def speedups(scale) -> dict:
    """(geometric, arithmetic) mean simulated speedup over mmap.

    Both means run over the 12 workloads; the arithmetic one is what
    ``ExperimentResult.mean_speedup`` reports.
    """
    repro = import_repro()
    from repro.runner.specs import matrix_specs
    session = repro.Session(scale=scale, executor="serial", workers=1)
    experiment = session.collect(matrix_specs(
        ["mmap", *SPEEDUP_PLATFORMS], repro.all_workload_names()))
    means = {}
    for platform in SPEEDUP_PLATFORMS:
        ratios = list(experiment.speedup_over(platform, "mmap").values())
        means[platform] = (math.prod(ratios) ** (1 / len(ratios)),
                           experiment.mean_speedup(platform, "mmap"))
    return means


def main() -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    print("== per-layer tables (one traced run per workload, seed 1)")
    for workload in workloads:
        print_table(workload,
                    run_once(bench, workload, 1, seconds, trace=1)["metrics"])

    repro = import_repro()
    from workloads import FIG16_SCALE
    scales = {"fig16-cold scale": repro.ExperimentScale(seed=1,
                                                        **FIG16_SCALE),
              "default scale": repro.ExperimentScale()}
    print("\n== simulated speedup over mmap, 12 workloads "
          "(geometric mean / arithmetic mean)")
    for label, scale in scales.items():
        for platform, (geometric, arithmetic) in speedups(scale).items():
            paper = PAPER_SPEEDUPS.get(platform)
            print(f"  {label:17s} {platform:9s} {geometric:.2f}x / "
                  f"{arithmetic:.2f}x"
                  + (f"  (paper {paper:.2f}x)" if paper else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
