"""Figure 6: single-program compression ratio, off-chip bandwidth, IPC
improvement, and 4-thread throughput improvement.

The paper's headline result: at 100 MB/s per program, MORC's ~3x mean
compression translates into ~27% mean bandwidth savings, ~22% IPC gain
and ~37% throughput gain — versus ~1.5-2x compression / ~11% bandwidth /
~20% for the best prior scheme (SC2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import series_table
from repro.experiments.runner import (
    instructions_for,
    DEFAULT_BENCHMARKS,
    DEFAULT_INSTRUCTIONS,
    scale_instructions,
)
from repro.sim.system import ALL_SCHEMES, COMPRESSED_SCHEMES, SingleRunResult
from repro.sim.throughput import ipc_improvement, throughput_improvement


@dataclass
class FigureSixResult:
    """All four panels of Figure 6."""

    benchmarks: List[str]
    #: scheme -> per-benchmark results (including the baseline)
    runs: Dict[str, List[SingleRunResult]] = field(default_factory=dict)

    def ratio_series(self) -> Dict[str, List[float]]:
        return {scheme: [run.compression_ratio for run in self.runs[scheme]]
                for scheme in COMPRESSED_SCHEMES}

    def bandwidth_series(self) -> Dict[str, List[float]]:
        return {scheme: [run.bandwidth_gb for run in self.runs[scheme]]
                for scheme in ALL_SCHEMES}

    def ipc_improvement_series(self) -> Dict[str, List[float]]:
        baseline = self.runs["Uncompressed"]
        return {scheme: [ipc_improvement(run.metrics, base.metrics)
                         for run, base in zip(self.runs[scheme], baseline)]
                for scheme in COMPRESSED_SCHEMES}

    def throughput_improvement_series(self,
                                      threads: int = 4,
                                      ) -> Dict[str, List[float]]:
        baseline = self.runs["Uncompressed"]
        return {scheme: [throughput_improvement(run.metrics, base.metrics,
                                                threads)
                         for run, base in zip(self.runs[scheme], baseline)]
                for scheme in COMPRESSED_SCHEMES}


def run(benchmarks: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        config: Optional[SystemConfig] = None,
        schemes: Sequence[str] = ALL_SCHEMES,
        engine: Optional[EngineOptions] = None) -> FigureSixResult:
    """Run every (benchmark, scheme) pair of Figure 6, in parallel."""
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    if n_instructions is None:
        n_instructions = scale_instructions(DEFAULT_INSTRUCTIONS)
    config = config or SystemConfig()
    specs = [RunSpec(benchmark, scheme, config=config,
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions))
             for scheme in schemes for benchmark in benchmarks]
    runs = run_cells(specs, engine=engine)
    result = FigureSixResult(benchmarks=benchmarks)
    for index, scheme in enumerate(schemes):
        result.runs[scheme] = runs[index * len(benchmarks):
                                   (index + 1) * len(benchmarks)]
    return result


def render(result: FigureSixResult) -> str:
    names = result.benchmarks
    return "\n\n".join([
        series_table("Figure 6a: compression ratio (x)", names,
                     result.ratio_series()),
        series_table("Figure 6b: off-chip GB per billion instructions",
                     names, result.bandwidth_series()),
        series_table("Figure 6c: IPC improvement (%)", names,
                     result.ipc_improvement_series(), precision=1),
        series_table("Figure 6d: throughput improvement (%)", names,
                     result.throughput_improvement_series(), precision=1),
    ])
