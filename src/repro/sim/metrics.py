"""Run metrics collected by the core simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.words import LINE_SIZE
from repro.obs.reservoir import MissSeries, series_total


@dataclass
class RunMetrics:
    """Counters and timing for one simulated program.

    ``miss_latencies``/``miss_gaps`` are bounded
    :class:`~repro.obs.reservoir.MissSeries` reservoirs, not plain
    lists: they stream exact count/sum (so ``len`` and the mean-based
    properties never degrade) and keep at most
    ``MissSeries.DEFAULT_CAPACITY`` samples, fixing the unbounded
    per-miss memory growth long runs used to pay.
    """

    instructions: int = 0
    cycles: float = 0.0
    l1_accesses: int = 0
    l1_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    #: total LLC-and-beyond service latency per L1 miss (throughput model)
    miss_latencies: MissSeries = field(default_factory=MissSeries)
    #: compute cycles between consecutive L1 misses (event-driven CGMT)
    miss_gaps: MissSeries = field(default_factory=MissSeries)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle (single thread)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def offchip_bytes(self) -> int:
        """Total demand + write-back traffic to memory."""
        return (self.memory_reads + self.memory_writes) * LINE_SIZE

    @property
    def gb_per_billion_instructions(self) -> float:
        """The paper's Figure 6b bandwidth metric."""
        if not self.instructions:
            return 0.0
        bytes_per_instruction = self.offchip_bytes / self.instructions
        return bytes_per_instruction * 1e9 / 1e9  # bytes/instr == GB/1e9 instr

    @property
    def compute_cycles(self) -> float:
        """Cycles net of memory stalls (gap execution under CPI=1)."""
        return self.cycles - series_total(self.miss_latencies)
