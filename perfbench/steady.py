#!/usr/bin/env python3
"""Steadiness check: two sets of runs, taken apart in time, must agree.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py [--runs 10] [--gap 60] [--workload NAME ...]

Each set runs every workload ``--runs`` times, each run in its own process
with its own seed, exactly as ``BENCHMARK.json``'s command does.  For each
set the script prints, per workload and end-to-end metric, the median, the
quartiles, the quartile spread as a share of the median, and the per-run
values in run order (so host drift within a set is visible).  It then
reports, per metric, whether each set's spread is within the metric's
``bound`` (``setup_s`` excepted) and whether the second set's median is
no worse than the first's by more than the bound; and whether the share
of failed operations is identical.  The record is written to
``.perfbench_out/steady-<time>.json``.  Exit status 0 means every check
passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ROOT, median, quartiles  # noqa: E402


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(bench: dict, workload: str, seed: int, seconds: int,
             trace: int = 0) -> dict:
    """One benchmark run in a fresh process; returns its result object."""
    command = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    process = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if process.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{process.returncode}:\n{process.stderr}")
    result = json.loads(process.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarise(values) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median(values), "values": values}


def run_set(bench: dict, workloads, runs: int, seed_base: int,
            seconds: int) -> dict:
    record = {}
    for workload in workloads:
        results = []
        for index in range(runs):
            result = run_once(bench, workload, seed_base + index, seconds)
            results.append(result)
            print(f"  {workload} seed {seed_base + index}: "
                  f"{result['elapsed_s']:.1f} s, correct={result['correct']}"
                  f", " + ", ".join(f"{name}={value['value']:.4g}"
                                    for name, value
                                    in result["metrics"].items()),
                  flush=True)
        record[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted({r["failed"] / r["attempted"]
                                    for r in results}),
            "elapsed_s": [r["elapsed_s"] for r in results],
            "metrics": {name: summarise([r["metrics"][name]["value"]
                                         for r in results])
                        for name in results[0]["metrics"]},
        }
    return record


def print_set(label: str, record: dict) -> None:
    print(f"\n== {label}")
    for workload, data in record.items():
        print(f"{workload}: correct={data['correct']} failed share "
              f"{data['failed_share']}, run seconds "
              f"{min(data['elapsed_s']):.1f}-{max(data['elapsed_s']):.1f}")
        for name, stats in data["metrics"].items():
            values = " ".join(f"{value:.4g}" for value in stats["values"])
            print(f"  {name:15s} median {stats['median']:.5g} "
                  f"[{stats['q1']:.5g}, {stats['q3']:.5g}] spread "
                  f"{stats['spread']:6.2%} | {values}")


def compare(bench: dict, first: dict, second: dict) -> bool:
    """Apply the acceptance rule to two sets; prints one line per metric."""
    ok = True
    print("\n== agreement (spread: quartile distance / median; "
          "drift: worsening of the second median)")
    for workload in first:
        same_failures = (first[workload]["failed_share"]
                         == second[workload]["failed_share"]
                         and len(first[workload]["failed_share"]) == 1)
        correct = first[workload]["correct"] and second[workload]["correct"]
        ok &= same_failures and correct
        print(f"{workload}: correct={correct} "
              f"failed share identical={same_failures}")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a = first[workload]["metrics"][name]
            b = second[workload]["metrics"][name]
            change = (b["median"] - a["median"]) / a["median"]
            drift = change if spec["better"] == "lower" else -change
            spreads = (a["spread"], b["spread"])
            spread_ok = name == "setup_s" or max(spreads) <= bound
            drift_ok = drift <= bound
            ok &= spread_ok and drift_ok
            print(f"  {name:15s} bound {bound:.2f} spreads "
                  f"{spreads[0]:6.2%} {spreads[1]:6.2%} drift {drift:+7.2%}"
                  f" {'ok' if spread_ok and drift_ok else 'FAIL'}"
                  f"{'' if max(spreads) <= bound / 3 or name == 'setup_s' else ' (spread above a third of the bound)'}")
    return ok


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--gap", type=float, default=60.0,
                        help="seconds to wait between the two sets")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sets = []
    for number, seed_base in ((1, 1000), (2, 2000)):
        if number == 2:
            time.sleep(args.gap)
        print(f"set {number}: {args.runs} runs x {len(workloads)} "
              f"workloads, {args.seconds} s each", flush=True)
        sets.append(run_set(bench, workloads, args.runs, seed_base,
                            args.seconds))
    for number, record in enumerate(sets, 1):
        print_set(f"set {number}", record)
    ok = compare(bench, *sets)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"sets": sets, "ok": ok}, indent=1))
    print(f"\n{'PASS' if ok else 'FAIL'}; record in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
