"""DDR3 timing model (Table 5: DDR3-1600, 9-9-9, closed page).

With a closed-page policy every access pays a full activate-read-precharge
sequence: ``tRCD + tCL`` before data, ``tRP`` to restore, plus four memory
bus cycles to move a 64-byte line over an 8-byte-wide DDR interface.  The
model converts those to core cycles at 2 GHz.  This feeds the fixed
``dram_latency_cycles`` in :class:`repro.common.config.MemoryConfig`;
queueing and per-thread bandwidth caps live in
:class:`repro.mem.controller.MemoryChannel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CLOCK_HZ, LINE_SIZE


@dataclass(frozen=True)
class Ddr3Timing:
    """DDR3 sub-timings in memory-clock cycles."""

    frequency_hz: float = 800e6  # DDR3-1600: 800 MHz bus clock
    t_rcd: int = 9
    t_cl: int = 9
    t_rp: int = 9
    burst_length: int = 8
    bus_bytes: int = 8

    @property
    def data_cycles(self) -> float:
        """Memory-clock cycles to stream one cache line (DDR: 2/cycle)."""
        beats = LINE_SIZE / self.bus_bytes
        return beats / 2.0

    def access_latency_s(self) -> float:
        """Seconds from request to full line, closed page (no queueing)."""
        mem_cycles = self.t_rcd + self.t_cl + self.data_cycles
        return mem_cycles / self.frequency_hz

    def access_latency_core_cycles(self, core_hz: float = CLOCK_HZ) -> int:
        """Closed-page access latency expressed in core cycles."""
        return round(self.access_latency_s() * core_hz)

    def restore_latency_core_cycles(self, core_hz: float = CLOCK_HZ) -> int:
        """Precharge (bank-restore) time in core cycles."""
        return round(self.t_rp / self.frequency_hz * core_hz)

DEFAULT_DDR3 = Ddr3Timing()
