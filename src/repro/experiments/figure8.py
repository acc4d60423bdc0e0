"""Figure 8: multi-program workloads — compression ratio, bandwidth
reduction, IPC, and completion-time improvement.

Sixteen threads share the LLC (16 x 128KB) and 1600 MB/s of memory
bandwidth.  The paper's findings reproduced here: the replicated S-sets
compress dramatically under MORC (cross-program commonality), random
M-mixes dilute every scheme (SC2's shared dictionary and MORC's shared
log pool both suffer), and completion time — the tail thread — improves
more than unweighted IPC for the mixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import (EngineOptions, MultiProgramSpec,
                                        run_multi_cells)
from repro.experiments.report import series_table
from repro.experiments.runner import (
    DEFAULT_MULTI_INSTRUCTIONS,
    scale_instructions,
)
from repro.sim.system import (ALL_SCHEMES, COMPRESSED_SCHEMES,
                               MultiProgramResult)
from repro.workloads.mixes import ALL_MULTI_WORKLOADS

#: one mixed + two same-program sets keep the default bench minutes-level;
#: REPRO_BENCH_FULL runs all twelve Table 6 workloads
DEFAULT_MIXES = ("M3", "S2", "S7")


@dataclass
class FigureEightResult:
    """All four panels of Figure 8."""

    mixes: List[str]
    runs: Dict[str, List[MultiProgramResult]] = field(default_factory=dict)

    def ratio_series(self) -> Dict[str, List[float]]:
        return {scheme: [run.compression_ratio for run in self.runs[scheme]]
                for scheme in COMPRESSED_SCHEMES}

    def bandwidth_reduction_series(self) -> Dict[str, List[float]]:
        baseline = self.runs["Uncompressed"]
        series: Dict[str, List[float]] = {}
        for scheme in COMPRESSED_SCHEMES:
            values = []
            for run, base in zip(self.runs[scheme], baseline):
                if base.total_offchip_bytes == 0:
                    values.append(0.0)
                else:
                    values.append((1.0 - run.total_offchip_bytes
                                   / base.total_offchip_bytes) * 100.0)
            series[scheme] = values
        return series

    def ipc_improvement_series(self) -> Dict[str, List[float]]:
        baseline = self.runs["Uncompressed"]
        return {scheme: [
            (run.geomean_ipc / base.geomean_ipc - 1.0) * 100.0
            if base.geomean_ipc else 0.0
            for run, base in zip(self.runs[scheme], baseline)]
            for scheme in COMPRESSED_SCHEMES}

    def completion_improvement_series(self) -> Dict[str, List[float]]:
        baseline = self.runs["Uncompressed"]
        return {scheme: [
            (base.completion_cycles / run.completion_cycles - 1.0) * 100.0
            if run.completion_cycles else 0.0
            for run, base in zip(self.runs[scheme], baseline)]
            for scheme in COMPRESSED_SCHEMES}


def run(mixes: Optional[Sequence[str]] = None,
        n_instructions_each: Optional[int] = None,
        config: Optional[SystemConfig] = None,
        schemes: Sequence[str] = ALL_SCHEMES,
        engine: Optional[EngineOptions] = None) -> FigureEightResult:
    """Run the multi-program workloads under every scheme, in parallel."""
    mixes = list(mixes or DEFAULT_MIXES)
    for mix in mixes:
        if mix not in ALL_MULTI_WORKLOADS:
            raise KeyError(f"unknown mix {mix!r}")
    n_each = (scale_instructions(DEFAULT_MULTI_INSTRUCTIONS)
              if n_instructions_each is None else n_instructions_each)
    specs = [MultiProgramSpec(mix, scheme, config=config,
                              n_instructions_each=n_each)
             for scheme in schemes for mix in mixes]
    runs = run_multi_cells(specs, engine=engine)
    result = FigureEightResult(mixes=mixes)
    for index, scheme in enumerate(schemes):
        result.runs[scheme] = runs[index * len(mixes):
                                   (index + 1) * len(mixes)]
    return result


def render(result: FigureEightResult) -> str:
    names = result.mixes
    return "\n\n".join([
        series_table("Figure 8a: compression ratio (x)", names,
                     result.ratio_series()),
        series_table("Figure 8b: bandwidth reduction (%)", names,
                     result.bandwidth_reduction_series(), precision=1),
        series_table("Figure 8c: IPC improvement (%)", names,
                     result.ipc_improvement_series(), precision=1),
        series_table("Figure 8d: completion-time improvement (%)", names,
                     result.completion_improvement_series(), precision=1),
    ])
