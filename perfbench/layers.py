#!/usr/bin/env python3
"""Per-layer table of one workload, from a traced run.

Usage (from the root of a checkout)::

    python3 perfbench/layers.py --workload fault-long [--seed 1]

Runs the benchmark once with ``--trace 1`` (rounds alternate untraced and
traced in one process) and prints, per layer, its self time per traced
round and its share of the traced round's wall time, then the counts, the
share of traced wall the named layers cover and the tracing overhead
against the untraced rounds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from steady import load_benchmark, run_once  # noqa: E402


def shares(metrics: dict) -> dict:
    """Self seconds of each timed layer as a share of traced wall."""
    wall = metrics["bench.traced_wall_s"]["value"]
    return {name: metrics[name]["value"] / wall for name in metrics
            if metrics[name]["unit"] == "s" and not name.startswith(
                ("bench.", "platforms.run_s."))}


def print_table(workload: str, metrics: dict) -> None:
    wall = metrics["bench.traced_wall_s"]["value"]
    print(f"\n{workload}: traced round {wall:.3f} s")
    print(f"  {'layer':32s} {'self s':>10s} {'share':>8s}")
    for name, share in sorted(shares(metrics).items(),
                              key=lambda item: -item[1]):
        if metrics[name]["value"]:
            print(f"  {name:32s} {metrics[name]['value']:10.4f} "
                  f"{share:8.1%}")
    print(f"  {'count':32s} {'per round':>10s}")
    for name, value in metrics.items():
        if value["unit"] == "count" and value["value"]:
            print(f"  {name:32s} {value['value']:10.6g}")
    for name, value in metrics.items():
        if name.startswith("platforms.run_s.") and value["value"]:
            print(f"  {name:32s} {value['value']:10.4f} s (inclusive)")
    for name, value in metrics.items():
        if value["unit"] == "ms" and value["value"]:
            print(f"  {name:32s} {value['value']:10.2f} ms (median job)")
    print(f"  named layers cover {metrics['bench.trace_coverage']['value']:.1%}"
          f" of traced wall; tracing overhead "
          f"{metrics['bench.trace_overhead']['value']:+.1%} against the "
          f"untraced rounds")


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    result = run_once(bench, args.workload, args.seed, args.seconds,
                      trace=1)
    print_table(args.workload, result["metrics"])
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
