"""Figure 7: normalized distribution of LBE encoding symbols.

For each benchmark, the total bytes represented by each symbol family
(m256/m128/m64/m32/u32/u16/u8 — the z* symbols fold into their mX column,
as in the paper's left bars) and the portion of those bytes that were
zeros (the paper's right bars).  Benchmarks like cactusADM/gamess show
significant *non-zero* m256 usage — the coarse inter-line duplication
only LBE captures — while gcc is zero-dominated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import format_table
from repro.experiments.runner import (
    instructions_for,
    DEFAULT_BENCHMARKS,
    DEFAULT_INSTRUCTIONS,
    scale_instructions,
)

#: figure column order; zX folds into the matching mX column
COLUMNS = ("m256", "m128", "m64", "m32", "u32", "u16", "u8")

_FOLD = {"z256": "m256", "z128": "m128", "z64": "m64", "z32": "m32"}


@dataclass
class SymbolDistribution:
    """One benchmark's normalized symbol usage."""

    benchmark: str
    total: Dict[str, float]       # column -> fraction of bytes
    zero_portion: Dict[str, float]  # column -> fraction of bytes (zeros)


def run(benchmarks: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        config: Optional[SystemConfig] = None,
        engine: Optional[EngineOptions] = None) -> List[SymbolDistribution]:
    """Collect LBE symbol usage from MORC runs."""
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    if n_instructions is None:
        n_instructions = scale_instructions(DEFAULT_INSTRUCTIONS)
    specs = [RunSpec(benchmark, "MORC", config=config,
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions))
             for benchmark in benchmarks]
    return [_distribution(benchmark, run_result.symbol_counters,
                          run_result.symbol_zero_counters)
            for benchmark, run_result
            in zip(benchmarks, run_cells(specs, engine=engine))]


def _distribution(benchmark: str, counters: Dict[str, float],
                  zero_counters: Dict[str, float]) -> SymbolDistribution:
    usage: Dict[str, float] = {column: 0.0 for column in COLUMNS}
    zeros: Dict[str, float] = {column: 0.0 for column in COLUMNS}
    grand_total = sum(counters.values()) or 1.0
    for kind, count in counters.items():
        column = _FOLD.get(kind, kind)
        usage[column] += count / grand_total
    for kind, count in zero_counters.items():
        column = _FOLD.get(kind, kind)
        zeros[column] += count / grand_total
    return SymbolDistribution(benchmark, usage, zeros)


def render(distributions: List[SymbolDistribution]) -> str:
    headers = ["workload"] + [f"{c}" for c in COLUMNS] + \
              [f"{c}(zero)" for c in COLUMNS]
    rows = []
    for dist in distributions:
        rows.append([dist.benchmark]
                    + [f"{dist.total[c]:.2f}" for c in COLUMNS]
                    + [f"{dist.zero_portion[c]:.2f}" for c in COLUMNS])
    return format_table(headers, rows,
                        title="Figure 7: normalized LBE symbol usage "
                              "(fraction of bytes; zero portion right)")
