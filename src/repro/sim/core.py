"""The in-order core model driving a trace through L1 → LLC → memory.

Table 5's cores are 2 GHz in-order x86 with CPI 1 for non-memory
instructions and single-cycle L1s, so timing is additive: every
instruction costs one cycle, an L1 miss additionally stalls the core for
the LLC's reported latency, and an LLC miss further stalls for the memory
channel's latency (queueing included).  That additivity is what lets a
functional cache simulation produce the paper's timing metrics without a
cycle-by-cycle core (see DESIGN.md §1).

The fill policy implements the paper's non-inclusive design (§3.1 and
Figure 12): read misses fill L1 and LLC, *write* misses fill only the L1,
and dirty L1 evictions are written back (appended) to the LLC.
``inclusive_writes=True`` switches to the inclusive behaviour that
Figure 12 shows bloats logs with dead lines.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from repro.cache.base import FillResult, LLCInterface
from repro.cache.l1 import L1Cache
from repro.common.config import SystemConfig
from repro.mem.controller import MemoryChannel
from repro.obs import trace as obs_trace
from repro.sim.metrics import RunMetrics
from repro.workloads.trace import TraceRecord

DEFAULT_SAMPLE_INTERVAL = 50_000


class CoreSimulator:
    """Runs one thread's trace against a (possibly shared) LLC."""

    def __init__(self, llc: LLCInterface, memory: MemoryChannel,
                 config: Optional[SystemConfig] = None,
                 l1: Optional[L1Cache] = None,
                 inclusive_writes: bool = False,
                 sample_interval: int = DEFAULT_SAMPLE_INTERVAL) -> None:
        self.config = config or SystemConfig()
        self.llc = llc
        self.memory = memory
        self.l1 = l1 or L1Cache(self.config.l1)
        self.inclusive_writes = inclusive_writes
        self.sample_interval = sample_interval
        self.metrics = RunMetrics()
        self._next_sample = sample_interval
        self._cycles_at_last_miss = 0.0
        self._measure_start = 0.0

    def run(self, trace: Iterable[TraceRecord],
            warmup_instructions: int = 0) -> RunMetrics:
        """Execute the whole trace; returns this thread's measured metrics.

        ``warmup_instructions`` mirrors the paper's methodology (100M
        warm-up before a 30M measured region): the caches, the memory
        channel and the core clock run on through the boundary, while
        counters and statistics restart there.
        """
        warming = warmup_instructions > 0
        for record in trace:
            self.step(record)
            if warming and self.metrics.instructions >= warmup_instructions:
                warming = False
                self.start_measurement()
                restart_shared_stats(self.llc, self.memory)
        self.llc.sample_ratio()
        return self.measured()

    def start_measurement(self) -> None:
        """Open this thread's measured region, keeping all state warm.

        Counters and miss series restart empty but the clock keeps
        running, so the memory channel's schedule and the miss gaps see
        one monotonic time line.  The ratio-sample schedule restarts with
        the instruction count.
        """
        clock = self.metrics.cycles
        self.metrics = RunMetrics(cycles=clock)
        self._measure_start = clock
        self._next_sample = self.sample_interval
        self.l1.stats.reset()

    def measured(self) -> RunMetrics:
        """This thread's metrics, cycles counted from the measurement start."""
        return replace(self.metrics,
                       cycles=self.metrics.cycles - self._measure_start)

    def step(self, record: TraceRecord) -> None:
        """Execute one memory access (plus its preceding gap)."""
        metrics = self.metrics
        metrics.instructions += 1 + record.gap
        metrics.cycles += (1 + record.gap) * self.config.base_cpi
        metrics.l1_accesses += 1
        if self.l1.lookup(record.address, record.is_write, record.data):
            self._maybe_sample()
            return
        metrics.l1_misses += 1
        metrics.miss_gaps.append(metrics.cycles - self._cycles_at_last_miss)
        latency = self._service_miss(record)
        metrics.cycles += latency
        metrics.miss_latencies.append(latency)
        self._cycles_at_last_miss = metrics.cycles
        self._maybe_sample()

    def _service_miss(self, record: TraceRecord) -> float:
        """Fetch the line below the L1; returns the added stall cycles."""
        metrics = self.metrics
        now = metrics.cycles
        result = self.llc.read(record.address)
        if result.hit:
            metrics.llc_hits += 1
            latency = result.latency_cycles
            fill_data = result.data
        else:
            metrics.llc_misses += 1
            latency = result.latency_cycles + self.memory.read(
                now, record.address, record.data)
            metrics.memory_reads += 1
            fill_data = record.data
            if not record.is_write or self.inclusive_writes:
                fill = self.llc.fill(record.address, fill_data)
                self._drain_writebacks(fill, now)
        l1_data = record.data if record.is_write else fill_data
        victim = self.l1.fill(record.address, l1_data,
                              dirty=record.is_write)
        if victim is not None:
            victim_address, victim_data, victim_dirty = victim
            if victim_dirty:
                wb = self.llc.writeback(victim_address, victim_data)
                self._drain_writebacks(wb, now)
        return latency

    def _drain_writebacks(self, fill: FillResult, now: float) -> None:
        """Send LLC-evicted dirty lines to memory (posted writes)."""
        for address, data in fill.writebacks:
            self.memory.write(now, address, data)
            self.metrics.memory_writes += 1

    def _maybe_sample(self) -> None:
        if self.metrics.instructions >= self._next_sample:
            self.llc.sample_ratio()
            self._next_sample += self.sample_interval


def restart_shared_stats(llc: LLCInterface, memory: MemoryChannel) -> None:
    """Restart the shared LLC's and channel's statistics at the boundary."""
    llc.stats.reset()
    memory.stats.reset()
    histogram = getattr(llc, "latency_bytes_histogram", None)
    if histogram is not None:
        histogram.clear()
    channel = obs_trace.RUN
    if channel is not None:
        # Lets the trace summariser discard warm-up ratio samples,
        # mirroring the stats reset above.
        channel.emit("measure_start", cache=llc.name)
