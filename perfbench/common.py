"""Shared plumbing: locating the source tree, scratch space and statistics."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

#: The checkout the benchmark measures: the directory above ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives here (gitignored), one subdirectory per
#: process, removed when the run ends.
SCRATCH = ROOT / ".perfbench_tmp"
#: Span dumps and steadiness records (gitignored).
OUT = ROOT / ".perfbench_out"


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to measure."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SourceMissing(f"imported repro from {repro.__file__}, "
                            f"not from {SRC}")
    return repro


def scratch_dir(tag: str) -> Path:
    path = SCRATCH / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run still uses it


def cpu_count() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (``statistics.quantiles``' exclusive method).

    Refuses fewer than 100 samples: below that a tail percentile rests on
    a handful of points and moves with them.
    """
    if len(values) < 100:
        raise ValueError(f"percentile over {len(values)} < 100 samples")
    return statistics.quantiles(values, n=100)[q - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
