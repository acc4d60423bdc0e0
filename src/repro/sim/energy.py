"""Memory-subsystem energy model (paper Table 7 and §5.3).

Components, per the paper's Figure 9b breakdown:

- **Static** — L1 + LLC leakage over the run's wall-clock time (LLC
  leakage scales with capacity, which is how the 1MB uncompressed
  baseline loses).
- **DRAM** — static DRAM power plus 74.8 nJ per 64-byte off-chip access;
  this is the term compression attacks.
- **SRAM** — L1 and LLC dynamic access energy.
- **Comp / Decomp** — compression engine energy.  MORC pays per *line
  decompressed during log replay* (reaching the end of a log decompresses
  everything before it), which is why its decompression bar is visible in
  Figure 9b while remaining far below the DRAM savings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CLOCK_HZ, DEFAULT_ENERGY, EnergyParams
from repro.common.stats import StatGroup
from repro.sim.metrics import RunMetrics
from repro.sim.schemes import get_scheme


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules per component over one run."""

    static_j: float
    dram_j: float
    sram_j: float
    compression_j: float
    decompression_j: float

    @property
    def total_j(self) -> float:
        return (self.static_j + self.dram_j + self.sram_j
                + self.compression_j + self.decompression_j)

    def normalized_to(self, baseline: "EnergyBreakdown") -> "EnergyBreakdown":
        """Each component divided by the baseline's *total* (Figure 9b)."""
        total = baseline.total_j
        if total == 0:
            return self
        return EnergyBreakdown(
            static_j=self.static_j / total,
            dram_j=self.dram_j / total,
            sram_j=self.sram_j / total,
            compression_j=self.compression_j / total,
            decompression_j=self.decompression_j / total,
        )


def compute_energy(scheme: str, metrics: RunMetrics, llc_stats: StatGroup,
                   params: EnergyParams = DEFAULT_ENERGY,
                   llc_size_bytes: int = 128 * 1024,
                   n_cores: int = 1,
                   clock_hz: float = CLOCK_HZ) -> EnergyBreakdown:
    """Energy of the memory subsystem for one run (paper Figure 9a), with
    the engine's joules per line from ``scheme``'s row (``sim.schemes``)."""
    seconds = metrics.cycles / clock_hz
    llc_static = params.scaled_llc_static(llc_size_bytes) * n_cores
    static = (params.l1_static_w * n_cores + llc_static) * seconds
    dram_static = params.dram_static_w_per_core * n_cores * seconds
    dram = (dram_static
            + params.offchip_access_j
            * (metrics.memory_reads + metrics.memory_writes))
    llc_ops = (llc_stats.get("read_hits") + llc_stats.get("fills")
               + llc_stats.get("writebacks_in")
               + llc_stats.get("read_misses"))
    sram = (params.l1_access_j * metrics.l1_accesses
            + params.llc_data_access_j * llc_ops)
    engine = get_scheme(scheme).engine
    compress_j, decompress_j = ([getattr(params, name) for name in engine]
                                if engine else (0.0, 0.0))
    compression = compress_j * llc_stats.get("compressions")
    decompression = decompress_j * llc_stats.get("decompressed_lines")
    return EnergyBreakdown(static_j=static, dram_j=dram, sram_j=sram,
                           compression_j=compression,
                           decompression_j=decompression)
