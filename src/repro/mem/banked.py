"""Bank-level DDR3 memory model (optional detailed mode).

The single-server channel in :mod:`repro.mem.controller` captures the
bandwidth wall the paper's evaluation turns on; this module refines it to
a closed-page, FCFS, multi-bank DDR3 (Table 5: quad-rank style DIMM):

- the *data bus* is the serialised, bandwidth-capped resource,
- each *bank* additionally needs its activate->read->precharge window
  (``tRCD+tCL`` before data, ``tRP`` after) before accepting the next
  request mapped to it,
- requests are served FCFS per bank; bank conflicts stall behind the
  in-flight row cycle, bank-level parallelism overlaps access latency of
  requests to different banks.

The refined model changes absolute latencies slightly but preserves the
headline behaviour (the bus cap dominates at 100 MB/s/thread), which the
test suite checks against the simple channel.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import MemoryConfig
from repro.common.stats import StatGroup
from repro.mem.dram import DEFAULT_DDR3, Ddr3Timing
from repro.obs import trace as obs_trace

DEFAULT_N_BANKS = 8


class BankedMemoryChannel:
    """FCFS, closed-page, multi-bank DDR3 behind a capped data bus.

    Drop-in replacement for :class:`repro.mem.controller.MemoryChannel`.
    """

    def __init__(self, config: MemoryConfig,
                 timing: Ddr3Timing = DEFAULT_DDR3,
                 n_banks: int = DEFAULT_N_BANKS) -> None:
        if n_banks < 1:
            raise ValueError("need at least one bank")
        self.config = config
        self.timing = timing
        self.n_banks = n_banks
        core_hz = config.clock_hz
        self._access_cycles = timing.access_latency_core_cycles(core_hz)
        self._restore_cycles = timing.restore_latency_core_cycles(core_hz)
        # DDR burst duration converted to core cycles: timing.data_cycles
        # is in memory-clock cycles and cannot be subtracted from
        # core-cycle timestamps directly.
        self._burst_cycles = timing.data_cycles / timing.frequency_hz * core_hz
        self._bank_free: List[float] = [0.0] * n_banks
        self._bus_free = 0.0
        self.stats = StatGroup("banked-memory")
        self._obs_countdown = 0

    @property
    def transfer_cycles(self) -> float:
        """Bus occupancy of one 64B line, in core cycles."""
        return self.config.cycles_per_line_transfer

    def _bank_for(self, address: int) -> int:
        # Closed-page interleave: consecutive lines hit different banks.
        return (address // 64) % self.n_banks

    def _serve(self, now: float, address: int) -> tuple:
        """Schedule one access; returns (data_ready_time, bus_done)."""
        bank = self._bank_for(address)
        start = max(now, self._bank_free[bank])
        data_at = start + self._access_cycles
        # The data burst must also win the shared bus.
        bus_start = max(data_at - self._burst_cycles, self._bus_free)
        bus_done = bus_start + self.transfer_cycles
        self._bus_free = bus_done
        # Closed page: the bank restores after the access completes.
        self._bank_free[bank] = bus_done + self._restore_cycles
        self.stats.add(f"bank{bank}_accesses")
        return bus_done, bus_done

    def read(self, now: float, address: int = 0,
             data: Optional[bytes] = None) -> float:
        """Issue a demand read; returns its latency in core cycles."""
        data_ready, _ = self._serve(now, address)
        self.stats.add("reads")
        latency = data_ready - now
        queue_wait = max(0.0, latency - self._access_cycles
                         - self.transfer_cycles)
        self.stats.add("queue_wait_cycles", queue_wait)
        channel = obs_trace.MEM
        if channel is not None:
            self._obs_countdown = getattr(self, "_obs_countdown", 0) - 1
            if self._obs_countdown <= 0:
                self._obs_countdown = obs_trace.mem_sample_interval()
                channel.emit("queue_sample", channel=self.stats.name,
                             now=now, wait=queue_wait,
                             backlog=self._bus_free - now,
                             reads=int(self.stats.get("reads")),
                             writes=int(self.stats.get("writes")))
        return latency

    def write(self, now: float, address: int = 0,
              data: Optional[bytes] = None) -> None:
        """Issue a posted write-back; occupies bank + bus only."""
        self._serve(now, address)
        self.stats.add("writes")

    @property
    def total_transfers(self) -> int:
        return int(self.stats.get("reads") + self.stats.get("writes"))

    def bytes_transferred(self, line_size: int = 64) -> int:
        return self.total_transfers * line_size
