"""FCFS memory channel with a per-thread bandwidth cap.

The paper's evaluation is bandwidth-capped: each program is statically
allocated 100 MB/s (Figure 6) and multi-program workloads share
1600 MB/s (Figure 8).  The dominant effect is channel *occupancy*: at
100 MB/s and 2 GHz, one 64-byte transfer holds the channel for 1280 core
cycles, so queueing delay explodes as miss rate rises — the bandwidth
wall the paper targets.  The model is a single FCFS server:

- a read's latency = queue wait + closed-page DRAM access + transfer time,
- a write (write-back) occupies the channel but completes asynchronously
  (posted), contributing no direct stall.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MemoryConfig
from repro.common.stats import StatGroup
from repro.obs import trace as obs_trace


class MemoryChannel:
    """A serialised, bandwidth-capped FCFS channel."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        # ``config`` is frozen, so one line's transfer time never changes.
        self._transfer_cycles = config.cycles_per_line_transfer
        self._free_at = 0.0
        self.stats = StatGroup("memory")
        self._obs_countdown = 0

    def _sample_occupancy(self, now: float, queue_wait: float) -> None:
        """Trace every Nth request's queueing state (``REPRO_OBS_SAMPLE``).

        ``backlog`` is how far the channel's next free slot sits past
        ``now`` after scheduling this transfer — the queue depth in
        cycles that produces the paper's bandwidth-starvation curves.
        """
        channel = obs_trace.MEM
        if channel is None:
            return
        self._obs_countdown -= 1
        if self._obs_countdown > 0:
            return
        self._obs_countdown = obs_trace.mem_sample_interval()
        channel.emit("queue_sample", channel=self.stats.name, now=now,
                     wait=queue_wait, backlog=self._free_at - now,
                     reads=int(self.stats.get("reads")),
                     writes=int(self.stats.get("writes")))

    @property
    def transfer_cycles(self) -> float:
        """Channel occupancy of one 64B line, in core cycles."""
        return self._transfer_cycles

    def read(self, now: float, address: int = 0,
             data: Optional[bytes] = None) -> float:
        """Issue a demand read at core-cycle ``now``; returns its latency.

        ``address`` and ``data`` are accepted for interface compatibility
        with the banked and link-compressed channels; the base model
        ignores them.
        """
        occupancy = self._occupancy(data)
        start = max(now, self._free_at)
        self._free_at = start + occupancy
        self.stats.add("reads")
        queue_wait = start - now
        self.stats.add("queue_wait_cycles", queue_wait)
        if obs_trace.MEM is not None:
            self._sample_occupancy(now, queue_wait)
        return queue_wait + self.config.dram_latency_cycles + occupancy

    def write(self, now: float, address: int = 0,
              data: Optional[bytes] = None) -> None:
        """Issue a posted write-back at ``now``; occupies the channel only."""
        start = max(now, self._free_at)
        self._free_at = start + self._occupancy(data)
        self.stats.add("writes")
        if obs_trace.MEM is not None:
            self._sample_occupancy(now, start - now)

    def _occupancy(self, data: Optional[bytes]) -> float:
        """Channel occupancy of one transfer (subclass hook)."""
        return self._transfer_cycles

    @property
    def total_transfers(self) -> int:
        """Lines moved in either direction (for bandwidth/energy metrics)."""
        return int(self.stats.get("reads") + self.stats.get("writes"))
