"""Extension experiments beyond the paper's evaluation.

Two future-work directions the paper names:

- **Memory-link compression** (§6, "complementary to cache compression"):
  MORC reduces the *number* of off-chip transfers; link compression makes
  each transfer cheaper.  The experiment stacks them and reports the
  throughput of Uncompressed, MORC, Uncompressed+link, and MORC+link.
- **Banked DRAM** (§4's FCFS closed-page controller in more detail):
  re-runs MORC with the bank-level DDR3 model to show the headline
  results do not depend on the single-server channel simplification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import series_table
from repro.experiments.runner import (
    DEFAULT_INSTRUCTIONS,
    instructions_for,
    scale_instructions,
)
from repro.sim.throughput import coarse_grain_throughput

EXTENSION_BENCHMARKS = ("gcc", "mcf", "h264ref", "soplex", "cactusADM")


@dataclass
class ExtensionResult:
    """Throughputs per configuration."""

    benchmarks: List[str]
    link_throughput: Dict[str, List[float]] = field(default_factory=dict)
    banked_vs_simple: Dict[str, List[float]] = field(default_factory=dict)


def run(benchmarks: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        engine: Optional[EngineOptions] = None) -> ExtensionResult:
    benchmarks = list(benchmarks or EXTENSION_BENCHMARKS)
    if n_instructions is None:
        n_instructions = scale_instructions(DEFAULT_INSTRUCTIONS // 2)
    result = ExtensionResult(benchmarks=benchmarks)
    config = SystemConfig()

    # Memory channels travel as spec keys, so the whole grid is one
    # parallel fan-out.
    configurations = (
        ("Uncompressed", "Uncompressed", "simple"),
        ("MORC", "MORC", "simple"),
        ("Uncompressed+link", "Uncompressed", "link"),
        ("MORC+link", "MORC", "link"),
        ("simple channel", "MORC", "simple"),
        ("banked DDR3", "MORC", "banked"),
    )
    specs = [RunSpec(benchmark, scheme, config=config,
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions),
                     memory=channel,
                     label=f"{benchmark}/{label}")
             for label, scheme, channel in configurations
             for benchmark in benchmarks]
    runs = iter(run_cells(specs, engine=engine))
    throughputs = {
        label: [coarse_grain_throughput(next(runs).metrics)
                for _ in benchmarks]
        for label, _, _ in configurations}
    result.link_throughput = {label: throughputs[label]
                              for label, _, _ in configurations[:4]}
    result.banked_vs_simple = {label: throughputs[label]
                               for label, _, _ in configurations[4:]}
    return result


def render(result: ExtensionResult) -> str:
    return "\n\n".join([
        series_table("Extension: memory-link compression "
                     "(4-thread throughput)", result.benchmarks,
                     result.link_throughput, precision=4),
        series_table("Extension: MORC under banked DDR3 "
                     "(4-thread throughput)", result.benchmarks,
                     result.banked_vs_simple, precision=4),
    ])
