"""The benchmark's workloads: fixed grids of simulation cells.

A workload is a slice of one of the paper's figures: a fixed list of
(benchmark or mix, scheme) cells at a fixed instruction budget.  The seed
perturbs only the access streams the cells replay (``seed_offset`` of
``repro.workloads.spec.make_trace``), so every seed runs the same amount
of the same kind of work.

Functions import ``repro`` when called, so this file imports before
:func:`load_repro` has put ``src/`` on the path.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: seed -> access-stream offset; wide enough that neighbouring seeds do
#: not share the per-slot offsets ``7 * slot`` of a multi-program mix
SEED_STRIDE = 7919

#: the warm-up fractions of the Figure 6 and Figure 8 pipelines
SINGLE_WARMUP = 0.4
MULTI_WARMUP = 0.3
N_THREADS = 16


@dataclass(frozen=True)
class Cell:
    """One simulation: a single program, or a 16-thread mix."""

    kind: str          # "single" | "multi"
    name: str          # benchmark or Table 6 mix
    scheme: str
    n_instructions: int  # measured region (per thread for a mix)

    @property
    def label(self) -> str:
        return f"{self.name}/{self.scheme}"

    @property
    def total_instructions(self) -> int:
        """Instructions simulated, warm-up included (the input size)."""
        if self.kind == "single":
            return int(self.n_instructions / (1.0 - SINGLE_WARMUP))
        return N_THREADS * int(self.n_instructions / (1.0 - MULTI_WARMUP))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    names: Tuple[str, ...]
    schemes: Tuple[str, ...]
    n_instructions: int
    #: the program the data-integrity replay runs under each scheme
    data_check: str


#: Why each workload: see ``BENCHMARK.json`` and README.md.  The four
#: programs span Figure 6's data archetypes (zero-heavy gcc and soplex,
#: pointer-rich mcf, narrow-valued h264ref); M3 mixes eight programs.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig6-morc", "single", ("gcc", "mcf", "h264ref", "soplex"),
             ("MORC",), 20_000, "gcc"),
    Workload("fig6-sets", "single", ("gcc", "mcf", "h264ref", "soplex"),
             ("Uncompressed", "Adaptive", "Decoupled", "SC2"), 20_000, "gcc"),
    Workload("fig8-mix", "multi", ("M3",), ("Uncompressed", "MORC"), 4_000,
             "gcc_5"),
)}


def load_repro() -> None:
    """Import the simulator from this checkout's ``src/`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source at {SRC}")
    sys.path.insert(0, str(SRC))
    repro = importlib.import_module("repro")
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {SRC}")


def cells_for(workload: Workload) -> List[Cell]:
    from repro.experiments.runner import instructions_for
    cells = []
    for scheme in workload.schemes:
        for name in workload.names:
            n = (instructions_for(name, workload.n_instructions)
                 if workload.kind == "single" else workload.n_instructions)
            cells.append(Cell(workload.kind, name, scheme, n))
    return cells


def seed_offset(seed: int) -> int:
    return seed * SEED_STRIDE


def build_multi(cell: Cell, seed: int):
    """The Figure 8 system for ``cell``, with seeded access streams.

    Mirrors ``repro.sim.system.run_multi_program`` (16 slices of LLC, 16x
    the per-thread bandwidth, disjoint address ranges) but offsets every
    thread's access seed by the benchmark seed.
    """
    from repro.common.config import SystemConfig
    from repro.mem.controller import MemoryChannel
    from repro.sim.multicore import MultiCoreSystem
    from repro.sim.system import make_llc
    from repro.workloads.mixes import ALL_MULTI_WORKLOADS, PROGRAM_STRIDE_LINES
    from repro.workloads.spec import make_trace

    config = SystemConfig()
    shared = config.with_bandwidth(
        config.memory.bandwidth_bytes_per_sec * N_THREADS)
    llc = make_llc(cell.scheme, config,
                   capacity_bytes=config.llc_per_core.size_bytes * N_THREADS)
    system = MultiCoreSystem(llc, MemoryChannel(shared.memory), config,
                             n_threads=N_THREADS)
    total_each = cell.total_instructions // N_THREADS
    traces = [make_trace(name, total_each,
                         seed_offset=seed_offset(seed) + 7 * slot,
                         base_line=slot * PROGRAM_STRIDE_LINES)
              for slot, name in enumerate(ALL_MULTI_WORKLOADS[cell.name])]
    return system, traces, total_each - cell.n_instructions


def run_cell(cell: Cell, seed: int):
    """Simulate one cell; returns the program's result object."""
    if cell.kind == "single":
        from repro.sim.system import run_single_program
        return run_single_program(cell.name, cell.scheme,
                                  n_instructions=cell.n_instructions,
                                  warmup_fraction=SINGLE_WARMUP,
                                  seed_offset=seed_offset(seed))
    system, traces, warmup = build_multi(cell, seed)
    return system.run(traces, warmup_instructions=warmup)


def build_cell(cell: Cell, seed: int) -> None:
    """Construct a cell's models and start its traces, simulating nothing.

    This is the work a run does before its first simulated access; the
    set-up probe times it.
    """
    if cell.kind == "multi":
        _, traces, _ = build_multi(cell, seed)
    else:
        from repro.common.config import SystemConfig
        from repro.mem.controller import MemoryChannel
        from repro.sim.core import CoreSimulator
        from repro.sim.system import make_llc
        from repro.workloads.spec import make_trace
        config = SystemConfig()
        CoreSimulator(make_llc(cell.scheme, config),
                      MemoryChannel(config.memory), config)
        traces = [make_trace(cell.name, cell.total_instructions,
                             seed_offset=seed_offset(seed))]
    for trace in traces:
        next(iter(trace))
