"""repro — a from-scratch reproduction of MORC (MICRO 2015).

MORC is a log-based, inter-line compressed last-level cache for
throughput-oriented manycores.  This package implements the MORC
architecture, the prior-work baselines it was evaluated against
(Adaptive, Decoupled, SC2), the compression algorithms involved (LBE,
C-Pack, LZ, Huffman, tag base-delta), synthetic SPEC2006 surrogate
workloads, and a trace-driven simulation harness reproducing every table
and figure in the paper's evaluation (see DESIGN.md / EXPERIMENTS.md).

Quick start::

    from repro import run_single_program
    result = run_single_program("gcc", "MORC", n_instructions=100_000)
    print(result.compression_ratio, result.ipc)
"""

from repro.common.config import (
    CacheGeometry,
    EnergyParams,
    MemoryConfig,
    MorcConfig,
    SystemConfig,
)
from repro.morc.cache import MorcCache
from repro.sim.system import (
    ALL_SCHEMES,
    COMPRESSED_SCHEMES,
    MultiProgramResult,
    SingleRunResult,
    make_llc,
    run_multi_program,
    run_single_program,
)
from repro.workloads.spec import ALL_SINGLE_PROGRAMS, make_trace

__version__ = "1.0.0"

__all__ = [
    "ALL_SCHEMES",
    "ALL_SINGLE_PROGRAMS",
    "COMPRESSED_SCHEMES",
    "CacheGeometry",
    "EnergyParams",
    "MemoryConfig",
    "MorcCache",
    "MorcConfig",
    "MultiProgramResult",
    "SingleRunResult",
    "SystemConfig",
    "__version__",
    "make_llc",
    "make_trace",
    "run_multi_program",
    "run_single_program",
]
