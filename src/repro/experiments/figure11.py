"""Figure 11: MORC at other cache sizes (64KB - 4MB per core).

For each LLC capacity, reports MORC's mean compression ratio plus its
bandwidth and throughput normalized to an uncompressed cache of the same
size.  The paper: savings hold from 64KB to 1MB (33-37% bandwidth, 35-46%
throughput) and fade by 4MB once working sets fit.
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
    amean,
    geomean,
    scale_instructions,
)
from repro.sim.throughput import coarse_grain_throughput

CACHE_SIZES_KB = (64, 128, 256, 1024, 4096)
SWEEP_BENCHMARKS = ("gcc", "mcf", "soplex", "h264ref", "sphinx3")


@dataclass
class FigureElevenResult:
    """Per-cache-size aggregates."""

    sizes_kb: List[int]
    compression_ratio: List[float] = field(default_factory=list)
    normalized_bandwidth: List[float] = field(default_factory=list)
    normalized_throughput: List[float] = field(default_factory=list)


def run(benchmarks: Optional[Sequence[str]] = None,
        sizes_kb: Sequence[int] = CACHE_SIZES_KB,
        n_instructions: Optional[int] = None,
        engine: Optional[EngineOptions] = None) -> FigureElevenResult:
    benchmarks = list(benchmarks or SWEEP_BENCHMARKS)
    if n_instructions is None:
        n_instructions = scale_instructions(DEFAULT_INSTRUCTIONS // 2)
    specs = [RunSpec(benchmark, scheme,
                     config=SystemConfig().with_llc_size(size_kb * 1024),
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions),
                     label=f"{benchmark}/{scheme}@{size_kb}KB")
             for size_kb in sizes_kb
             for benchmark in benchmarks
             for scheme in ("Uncompressed", "MORC")]
    runs = iter(run_cells(specs, engine=engine))
    result = FigureElevenResult(sizes_kb=list(sizes_kb))
    for _ in sizes_kb:
        ratios, bw_ratios, tp_ratios = [], [], []
        for _ in benchmarks:
            base = next(runs)
            morc = next(runs)
            ratios.append(morc.compression_ratio)
            if base.bandwidth_gb > 0:
                bw_ratios.append(morc.bandwidth_gb / base.bandwidth_gb)
            tp_ratios.append(
                coarse_grain_throughput(morc.metrics)
                / max(coarse_grain_throughput(base.metrics), 1e-12))
        result.compression_ratio.append(amean(ratios))
        result.normalized_bandwidth.append(geomean(bw_ratios or [1.0]))
        result.normalized_throughput.append(geomean(tp_ratios))
    return result


def render(result: FigureElevenResult) -> str:
    names = [f"{kb}KB" for kb in result.sizes_kb]
    series: Dict[str, List[float]] = {
        "Compression Ratio": result.compression_ratio,
        "Normalized Bandwidth": result.normalized_bandwidth,
        "Normalized Throughput": result.normalized_throughput,
    }
    return series_table("Figure 11: MORC across cache sizes", names,
                        series, means=False)
