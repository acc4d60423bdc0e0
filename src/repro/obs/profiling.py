"""Experiment-engine profiling: worker utilization and memory.

The parallel engine (:mod:`repro.experiments.parallel`) already times
every cell; this module adds the two measurements that explain *why* a
grid took as long as it did:

- **queue wait vs. compute** — how long a cell sat in the pool's inbox
  before a worker picked it up (``perf_counter`` is CLOCK_MONOTONIC on
  Linux, shared across forked workers, so parent-submit minus
  worker-start is a real duration);
- **per-cell peak RSS** — ``getrusage`` high-water mark of the worker
  process after the cell, catching cells whose working set balloons.

:func:`worker_profiles` folds per-cell timings into per-worker
utilization (busy seconds over the engine invocation's wall clock).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    resource = None


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 if unavailable)."""
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        peak //= 1024
    return int(peak)


@dataclass(frozen=True)
class WorkerProfile:
    """One worker process's share of an engine invocation."""

    pid: int
    cells: int
    busy_s: float
    queue_wait_s: float
    utilization: float
    peak_rss_kb: int


def worker_profiles(timings: Sequence, wall_s: float
                    ) -> List[WorkerProfile]:
    """Aggregate per-cell timings into per-worker utilization.

    ``timings`` are :class:`repro.experiments.parallel.CellTiming`
    records; cells are grouped by the worker pid that executed them.
    Utilization is busy time over the engine's wall clock — with a
    balanced grid every worker approaches 1.0, and a long serial tail
    shows up as most workers idling far below it.
    """
    by_pid: Dict[int, List] = {}
    for timing in timings:
        by_pid.setdefault(timing.worker_pid, []).append(timing)
    profiles: List[WorkerProfile] = []
    for pid in sorted(by_pid):
        cells = by_pid[pid]
        busy = sum(cell.seconds for cell in cells)
        waited = sum(getattr(cell, "queue_wait_s", 0.0) for cell in cells)
        rss = max(getattr(cell, "peak_rss_kb", 0) for cell in cells)
        profiles.append(WorkerProfile(
            pid=pid, cells=len(cells), busy_s=busy, queue_wait_s=waited,
            utilization=busy / wall_s if wall_s > 0 else 0.0,
            peak_rss_kb=rss))
    return profiles
