"""Microbenchmark calibration table.

Runs the canonical microbenchmarks (stream, pointer chase, memset,
incompressible random, hot loop, producer-consumer) through every LLC
scheme.  Each micro isolates one behaviour, so this table is the
quickest way to see *why* a scheme wins or loses before reaching for
the full SPEC surrogates — and a regression net for the simulator
(e.g. memset must compress to z256 symbols under MORC, a stream must
defeat every cache equally).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, parallel_map
from repro.experiments.report import series_table
from repro.experiments.runner import scale_instructions
from repro.mem.controller import MemoryChannel
from repro.sim.core import CoreSimulator
from repro.sim.system import make_llc
from repro.workloads.micro import MICROBENCHMARKS, make_micro_trace

SCHEMES = ("Uncompressed", "Adaptive", "SC2", "MORC")
DEFAULT_MICRO_INSTRUCTIONS = 40_000


@dataclass
class MicrobenchResult:
    """Ratio and miss-rate tables across the micro suite."""

    micros: List[str]
    ratio: Dict[str, List[float]] = field(default_factory=dict)
    miss_rate: Dict[str, List[float]] = field(default_factory=dict)


def _micro_cell(cell: tuple) -> tuple:
    """One (micro, scheme) cell — module-level for the pool."""
    micro, scheme, n_instructions = cell
    config = SystemConfig()
    llc = make_llc(scheme, config)
    core = CoreSimulator(llc, MemoryChannel(config.memory), config)
    metrics = core.run(make_micro_trace(micro, n_instructions))
    accesses = metrics.llc_hits + metrics.llc_misses
    return (llc.mean_compression_ratio(),
            metrics.llc_misses / accesses if accesses else 0.0)


def run(micros: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        schemes: Sequence[str] = SCHEMES,
        engine: Optional[EngineOptions] = None) -> MicrobenchResult:
    micros = list(micros or MICROBENCHMARKS)
    if n_instructions is None:
        n_instructions = scale_instructions(DEFAULT_MICRO_INSTRUCTIONS)
    cells = [(micro, scheme, n_instructions)
             for scheme in schemes for micro in micros]
    outcomes = iter(parallel_map(_micro_cell, cells, label="micro",
                                 engine=engine))
    result = MicrobenchResult(micros=micros)
    for scheme in schemes:
        ratios, miss_rates = [], []
        for _ in micros:
            ratio, miss_rate = next(outcomes)
            ratios.append(ratio)
            miss_rates.append(miss_rate)
        result.ratio[scheme] = ratios
        result.miss_rate[scheme] = miss_rates
    return result


def render(result: MicrobenchResult) -> str:
    return "\n\n".join([
        series_table("Microbenchmarks: compression ratio", result.micros,
                     result.ratio, means=False),
        series_table("Microbenchmarks: LLC miss rate", result.micros,
                     result.miss_rate, means=False),
    ])
