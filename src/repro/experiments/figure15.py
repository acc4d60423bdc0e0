"""Figure 15: MORC vs MORCMerged (tag/data co-location).

MORCMerged removes the dedicated tag store and lets compressed tags grow
from the right end of each data log (paper §3.2.6), cutting area overhead
from 25% to 17.2% (Table 4).  The paper finds the compression-ratio cost
is small (< 0.5x for most workloads) and occasionally *negative* — when
both tags and data compress well, sharing the space is more efficient.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class MergedOutcome:
    """One benchmark's split-vs-merged ratios."""

    benchmark: str
    morc_ratio: float
    merged_ratio: float


def run(benchmarks: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        config: Optional[SystemConfig] = None,
        engine: Optional[EngineOptions] = None) -> List[MergedOutcome]:
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    if n_instructions is None:
        n_instructions = scale_instructions(DEFAULT_INSTRUCTIONS)
    config = config or SystemConfig()
    specs = [RunSpec(benchmark, scheme, config=config,
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions))
             for benchmark in benchmarks
             for scheme in ("MORC", "MORCMerged")]
    runs = run_cells(specs, engine=engine)
    return [MergedOutcome(
                benchmark=benchmark,
                morc_ratio=runs[2 * index].compression_ratio,
                merged_ratio=runs[2 * index + 1].compression_ratio)
            for index, benchmark in enumerate(benchmarks)]


def render(outcomes: List[MergedOutcome]) -> str:
    names = [o.benchmark for o in outcomes]
    series: Dict[str, List[float]] = {
        "MORC": [o.morc_ratio for o in outcomes],
        "MORCMerged": [o.merged_ratio for o in outcomes],
    }
    return series_table("Figure 15: separated vs merged tag/data stores",
                        names, series)
