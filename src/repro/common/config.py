"""Configuration dataclasses encoding the paper's Tables 5 and 7 defaults.

Table 5 (system configuration)::

    Core            2.0 GHz in-order x86, CPI 1 for non-memory instructions
    L1              32KB private, single-cycle, 64B blocks, 4-way
    LLC             128KB per core, shared non-inclusive, 14-cycle, 8-way
    Memory          FCFS controller, closed page, DDR3-1600 9-9-9
    Decompression   8B / 8B / 16B per cycle (C-Pack / SC2 / LBE)

The evaluated MORC (paper §4): 2x tag-store, LMT provisioned for 8x
compression, column-associative (2-way) LMT, 512-byte logs, LBE, 8 active
logs, tag compression with 2 bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError

CLOCK_HZ = 2_000_000_000
"""Core clock (Table 5: 2.0 GHz)."""

LINE_SIZE = 64
"""Cache block size in bytes."""

PHYSICAL_ADDRESS_BITS = 48
"""Physical address width assumed by the overhead analysis (paper §3.3)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of a set-associative cache."""

    size_bytes: int
    ways: int
    line_size: int = LINE_SIZE

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.ways > 0, "associativity must be positive")
        _require(self.line_size > 0, "line size must be positive")
        _require(
            self.size_bytes % (self.ways * self.line_size) == 0,
            f"cache of {self.size_bytes}B does not divide into "
            f"{self.ways}-way sets of {self.line_size}B lines",
        )

    @property
    def n_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // self.line_size

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.n_lines // self.ways

    @property
    def index_bits(self) -> int:
        """Bits of the address used as the set index."""
        return int(math.log2(self.n_sets)) if self.n_sets > 1 else 0

    @property
    def tag_bits(self) -> int:
        """Width of a stored tag (excludes index and offset bits)."""
        offset_bits = int(math.log2(self.line_size))
        return PHYSICAL_ADDRESS_BITS - self.index_bits - offset_bits

    def set_index(self, address: int) -> int:
        """Map a byte address to its set index."""
        return (address // self.line_size) % self.n_sets


DEFAULT_L1 = CacheGeometry(size_bytes=32 * 1024, ways=4)
DEFAULT_LLC = CacheGeometry(size_bytes=128 * 1024, ways=8)


@dataclass(frozen=True)
class MorcConfig:
    """MORC-specific parameters (paper §3 and §4 defaults); FIFO log
    replacement, serial tag access and the 2x tag store are fixed."""

    log_size_bytes: int = 512
    n_active_logs: int = 8
    lmt_overprovision: int = 8
    lmt_ways: int = 2
    tag_bases: int = 2
    merged_tags: bool = False
    fudge_factor: float = 0.05
    inclusive_writes: bool = False
    unlimited_metadata: bool = False

    def __post_init__(self) -> None:
        _require(self.log_size_bytes >= LINE_SIZE,
                 "log must hold at least one uncompressed line")
        _require(self.n_active_logs >= 1, "need at least one active log")
        _require(self.lmt_overprovision >= 1, "LMT factor must be >= 1")
        _require(self.lmt_ways in (1, 2, 4, 8),
                 "LMT associativity must be a small power of two")
        _require(self.tag_bases in (1, 2), "tag compression supports 1 or 2 bases")
        _require(0.0 <= self.fudge_factor < 1.0, "fudge factor must be in [0,1)")


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory model parameters.

    ``bandwidth_bytes_per_sec`` is the per-thread cap used throughout the
    evaluation (100 MB/s by default; Figure 10 sweeps 12.5-1600 MB/s).
    ``dram_latency_cycles`` approximates a closed-page DDR3-1600 9-9-9
    access (activate + CAS + restore, ~28 ns at 2 GHz core clock).
    """

    bandwidth_bytes_per_sec: float = 100e6
    dram_latency_cycles: int = 56
    clock_hz: float = CLOCK_HZ

    def __post_init__(self) -> None:
        _require(self.bandwidth_bytes_per_sec > 0, "bandwidth must be positive")
        _require(self.dram_latency_cycles >= 0, "DRAM latency cannot be negative")

    @property
    def cycles_per_line_transfer(self) -> float:
        """Channel occupancy of one 64B transfer, in core cycles."""
        return LINE_SIZE * self.clock_hz / self.bandwidth_bytes_per_sec


@dataclass(frozen=True)
class SystemConfig:
    """Whole-system configuration (Table 5 defaults)."""

    n_cores: int = 1
    l1: CacheGeometry = DEFAULT_L1
    llc_per_core: CacheGeometry = DEFAULT_LLC
    llc_latency_cycles: int = 14
    l1_latency_cycles: int = 1
    base_cpi: float = 1.0
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    morc: MorcConfig = field(default_factory=MorcConfig)
    threads_per_core: int = 4
    intra_decompression_cycles: int = 4
    morc_decompression_bytes_per_cycle: int = 16
    tag_decode_tags_per_cycle: int = 8

    def __post_init__(self) -> None:
        _require(self.n_cores >= 1, "need at least one core")
        _require(self.llc_latency_cycles >= 0, "LLC latency cannot be negative")
        _require(self.threads_per_core >= 1, "need at least one thread per core")

    def with_bandwidth(self, bytes_per_sec: float) -> "SystemConfig":
        """Copy of this config with a different per-thread bandwidth cap."""
        return replace(self, memory=replace(
            self.memory, bandwidth_bytes_per_sec=bytes_per_sec))

    def with_llc_size(self, size_bytes: int) -> "SystemConfig":
        """Copy of this config with a different per-core LLC capacity."""
        return replace(self, llc_per_core=replace(
            self.llc_per_core, size_bytes=size_bytes))

    def with_morc(self, **kwargs) -> "SystemConfig":
        """Copy of this config with MORC parameter overrides."""
        return replace(self, morc=replace(self.morc, **kwargs))

    def describe(self) -> str:
        """Table 5-style configuration summary (for reports/logs)."""
        memory = self.memory
        morc = self.morc
        return "\n".join([
            f"Core         {CLOCK_HZ / 1e9:.1f} GHz in-order, CPI "
            f"{self.base_cpi:g} non-memory, {self.threads_per_core} "
            f"threads (CGMT)",
            f"L1           {self.l1.size_bytes // 1024}KB private, "
            f"{self.l1.ways}-way, {self.l1.line_size}B lines, "
            f"{self.l1_latency_cycles}-cycle",
            f"LLC          {self.llc_per_core.size_bytes // 1024}KB/core "
            f"x {self.n_cores} core(s), {self.llc_per_core.ways}-way, "
            f"{self.llc_latency_cycles}-cycle, shared non-inclusive",
            f"Memory       "
            f"{memory.bandwidth_bytes_per_sec / 1e6:g} MB/s per thread, "
            f"{memory.dram_latency_cycles}-cycle DRAM, FCFS",
            f"MORC         {morc.log_size_bytes}B logs x "
            f"{morc.n_active_logs} active, LMT "
            f"{morc.lmt_overprovision}x/{morc.lmt_ways}-way, tag store "
            f"2x ({morc.tag_bases} bases), "
            f"fudge {morc.fudge_factor:.0%}"
            + (", merged tags" if morc.merged_tags else ""),
            f"Decompress   LBE "
            f"{self.morc_decompression_bytes_per_cycle}B/cycle, tags "
            f"{self.tag_decode_tags_per_cycle}/cycle, intra-line +"
            f"{self.intra_decompression_cycles} cycles",
        ])


@dataclass(frozen=True)
class EnergyParams:
    """Energy model constants (paper Table 7, 32 nm).

    Access energies are per cache line; powers are static.  Units: joules
    and watts.
    """

    l1_static_w: float = 7.0e-3
    llc_static_w: float = 20.0e-3
    l1_access_j: float = 61.0e-12
    llc_data_access_j: float = 32.0e-12
    cpack_compress_j: float = 50.0e-12
    cpack_decompress_j: float = 37.5e-12
    lbe_compress_j: float = 200.0e-12
    lbe_decompress_j: float = 150.0e-12
    sc2_compress_j: float = 144.0e-12
    sc2_decompress_j: float = 148.0e-12
    dram_static_w_per_core: float = 10.9e-3
    offchip_access_j: float = 74.8e-9

    def scaled_llc_static(self, size_bytes: int,
                          reference_bytes: int = 128 * 1024) -> float:
        """Static power scaled linearly with LLC capacity.

        Used for the Uncompressed-1MB baseline in Figure 9a.
        """
        return self.llc_static_w * (size_bytes / reference_bytes)


DEFAULT_ENERGY = EnergyParams()
