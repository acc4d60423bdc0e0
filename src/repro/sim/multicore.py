"""General multi-core, shared-LLC system simulation.

`run_multi_program` covers the paper's fixed Table 6 setup (16 threads,
2MB LLC, 1600 MB/s); this class is the general form: any number of
threads, any traces, any LLC model and memory channel — the building
block for custom co-scheduling studies.

Threads interleave round-robin (one access per turn) with independent
clocks; the shared channel arbitrates FCFS on those clocks.  Each thread
opens its measured region when it crosses the warm-up boundary
(:meth:`repro.sim.core.CoreSimulator.start_measurement`), with its clock
running on; the shared statistics restart once every thread has crossed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.cache.base import LLCInterface
from repro.cache.l1 import L1Cache
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.mem.controller import MemoryChannel
from repro.sim.core import CoreSimulator, restart_shared_stats
from repro.sim.metrics import RunMetrics
from repro.workloads.trace import accesses


@dataclass
class MultiCoreResult:
    """Per-thread metrics plus shared-LLC state."""

    per_thread: List[RunMetrics]
    compression_ratio: float
    llc_stats: dict = field(default_factory=dict)

    @property
    def completion_cycles(self) -> float:
        return max((m.cycles for m in self.per_thread), default=0.0)

    @property
    def total_instructions(self) -> int:
        return sum(m.instructions for m in self.per_thread)

    @property
    def total_offchip_bytes(self) -> int:
        return sum(m.offchip_bytes for m in self.per_thread)


class MultiCoreSystem:
    """N cores with private L1s sharing one LLC and one memory channel."""

    def __init__(self, llc: LLCInterface, memory: MemoryChannel,
                 config: Optional[SystemConfig] = None,
                 n_threads: int = 16,
                 inclusive_writes: Optional[bool] = None) -> None:
        if n_threads < 1:
            raise ConfigError("need at least one thread")
        self.config = config or SystemConfig()
        self.llc = llc
        self.memory = memory
        if inclusive_writes is None:
            inclusive_writes = self.config.morc.inclusive_writes
        self.cores = [
            CoreSimulator(llc, memory, self.config,
                          l1=L1Cache(self.config.l1),
                          inclusive_writes=inclusive_writes)
            for _ in range(n_threads)
        ]

    def run(self, traces: List[Iterable],
            warmup_instructions: int = 0) -> MultiCoreResult:
        """Interleave ``traces`` across the cores to completion."""
        if len(traces) != len(self.cores):
            raise ConfigError(
                f"{len(traces)} traces for {len(self.cores)} threads")
        live = [(index, core, accesses(trace)) for index, (core, trace)
                in enumerate(zip(self.cores, traces))]
        warming = [warmup_instructions > 0] * len(self.cores)
        waiting = sum(warming)
        while live:
            still_live = []
            for thread in live:
                index, core, stream = thread
                access = next(stream, None)
                if access is None:
                    continue
                core.step(*access)
                if (warming[index]
                        and core.metrics.instructions
                        >= warmup_instructions):
                    warming[index] = False
                    core.start_measurement()
                    waiting -= 1
                    if not waiting:
                        restart_shared_stats(self.llc, self.memory)
                still_live.append(thread)
            live = still_live
        self.llc.sample_ratio()
        return MultiCoreResult(
            per_thread=[core.measured() for core in self.cores],
            compression_ratio=self.llc.mean_compression_ratio(),
            llc_stats=self.llc.stats.as_dict())
