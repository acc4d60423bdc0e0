"""Figure 13: compression ratio across log sizes and active-log counts.

Limit studies with unlimited tags and LMT entries (paper §5.4.3):

- 13a sweeps the log size (64B - 4096B) at 8 active logs.  Larger logs
  amortise dictionary warm-up and should increase ratio, but the paper
  finds 512B nearly optimal once real constraints return.
- 13b sweeps the number of active logs (1 - 64) at 512B.  More logs give
  content-aware placement more choices; 8 is close to the knee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import series_table
from repro.experiments.runner import (
    instructions_for,
    DEFAULT_INSTRUCTIONS,
    scale_instructions,
)

LOG_SIZES = (64, 256, 512, 1024, 2048, 4096)
ACTIVE_LOG_COUNTS = (1, 4, 8, 16, 32, 64)
SWEEP_BENCHMARKS = ("astar", "gcc", "mcf", "omnetpp", "cactusADM",
                    "h264ref", "soplex", "sphinx3")


@dataclass
class FigureThirteenResult:
    """Ratio matrices for both sweeps."""

    benchmarks: List[str]
    #: log size (bytes) -> per-benchmark ratios
    by_log_size: Dict[int, List[float]] = field(default_factory=dict)
    #: active-log count -> per-benchmark ratios
    by_active_logs: Dict[int, List[float]] = field(default_factory=dict)


def run(benchmarks: Optional[Sequence[str]] = None,
        log_sizes: Sequence[int] = LOG_SIZES,
        active_counts: Sequence[int] = ACTIVE_LOG_COUNTS,
        n_instructions: Optional[int] = None,
        engine: Optional[EngineOptions] = None) -> FigureThirteenResult:
    benchmarks = list(benchmarks or SWEEP_BENCHMARKS)
    # Limit studies need the cache's capacity to bind (logs recycling);
    # short traces leave every configuration residency-capped and flat.
    if n_instructions is None:
        n_instructions = scale_instructions(DEFAULT_INSTRUCTIONS * 2)
    # Both sweeps flattened into one grid for the pool.
    specs = [RunSpec(benchmark, "MORC",
                     config=SystemConfig().with_morc(
                         log_size_bytes=log_size, unlimited_metadata=True),
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions),
                     label=f"{benchmark}/log={log_size}B")
             for log_size in log_sizes for benchmark in benchmarks]
    specs += [RunSpec(benchmark, "MORC",
                      config=SystemConfig().with_morc(
                          n_active_logs=count, unlimited_metadata=True),
                      n_instructions=instructions_for(benchmark,
                                                      n_instructions),
                      label=f"{benchmark}/logs={count}")
              for count in active_counts for benchmark in benchmarks]
    runs = iter(run_cells(specs, engine=engine))
    result = FigureThirteenResult(benchmarks=benchmarks)
    for log_size in log_sizes:
        result.by_log_size[log_size] = [
            next(runs).compression_ratio for _ in benchmarks]
    for count in active_counts:
        result.by_active_logs[count] = [
            next(runs).compression_ratio for _ in benchmarks]
    return result


def render(result: FigureThirteenResult) -> str:
    size_series = {f"{size}B": values
                   for size, values in result.by_log_size.items()}
    count_series = {f"{count} logs": values
                    for count, values in result.by_active_logs.items()}
    return "\n\n".join([
        series_table("Figure 13a: compression ratio vs log size "
                     "(8 active logs, unlimited metadata)",
                     result.benchmarks, size_series),
        series_table("Figure 13b: compression ratio vs active logs "
                     "(512B logs, unlimited metadata)",
                     result.benchmarks, count_series),
    ])
