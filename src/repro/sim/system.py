"""System-level orchestration: scheme factory, single- and multi-program runs.

This is the main entry point the examples and experiments drive:

>>> from repro.sim.system import run_single_program
>>> result = run_single_program("gcc", "MORC", n_instructions=200_000)
>>> result.compression_ratio  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.base import LLCInterface
from repro.cache.l1 import L1Cache
from repro.cache.set_assoc import (
    AdaptiveCache,
    DecoupledCache,
    Sc2Cache,
    UncompressedCache,
)
from repro.common.config import CacheGeometry, SystemConfig
from repro.common.errors import ConfigError
from repro.mem.controller import MemoryChannel
from repro.morc.cache import MorcCache
from repro.obs import trace as obs_trace
from repro.sim.core import CoreSimulator
from repro.sim.energy import EnergyBreakdown, compute_energy
from repro.sim.metrics import RunMetrics
from repro.sim.throughput import coarse_grain_throughput
from repro.workloads.mixes import mix_programs
from repro.workloads.spec import make_trace

ALL_SCHEMES = ("Uncompressed", "Adaptive", "Decoupled", "SC2", "MORC")
COMPRESSED_SCHEMES = ("Adaptive", "Decoupled", "SC2", "MORC")


def make_llc(scheme: str, config: Optional[SystemConfig] = None,
             capacity_bytes: Optional[int] = None,
             compression_enabled: bool = True) -> LLCInterface:
    """Instantiate an LLC model by scheme name.

    ``capacity_bytes`` defaults to the per-core LLC size times core count
    (the paper's shared non-inclusive LLC).
    """
    config = config or SystemConfig()
    if capacity_bytes is None:
        capacity_bytes = config.llc_per_core.size_bytes * config.n_cores
    decomp = config.intra_decompression_cycles
    base = config.llc_latency_cycles

    def geometry(size: int) -> CacheGeometry:
        return CacheGeometry(size_bytes=size, ways=config.llc_per_core.ways,
                             line_size=config.llc_per_core.line_size)

    if scheme == "Uncompressed":
        return UncompressedCache(geometry(capacity_bytes),
                                 base_latency_cycles=base)
    if scheme == "Uncompressed8x":
        from repro.hw.area import SramModel
        # A physically larger SRAM is slower (the paper's §5.3 point that
        # compression beats simply building a bigger cache).
        slow_base = SramModel(capacity_bytes * 8).access_latency_cycles(
            reference_cycles=base, reference_bytes=capacity_bytes)
        return UncompressedCache(geometry(capacity_bytes * 8),
                                 base_latency_cycles=slow_base)
    if scheme == "Adaptive":
        return AdaptiveCache(geometry(capacity_bytes),
                             base_latency_cycles=base,
                             decompression_cycles=decomp)
    if scheme == "Decoupled":
        return DecoupledCache(geometry(capacity_bytes),
                              base_latency_cycles=base,
                              decompression_cycles=decomp)
    if scheme == "SC2":
        return Sc2Cache(geometry(capacity_bytes), base_latency_cycles=base,
                        decompression_cycles=decomp)
    if scheme == "Skewed":
        from repro.cache.skewed import SkewedCompressedCache
        return SkewedCompressedCache(geometry(capacity_bytes),
                                     base_latency_cycles=base,
                                     decompression_cycles=decomp)
    if scheme in ("MORC", "MORCMerged", "MORC-CPack", "MORC-LZ"):
        morc_config = config.morc
        if scheme == "MORCMerged" and not morc_config.merged_tags:
            morc_config = config.with_morc(merged_tags=True).morc
        algorithm = {"MORC-CPack": "cpack", "MORC-LZ": "lz"}.get(
            scheme, "lbe")
        llc = MorcCache(
            capacity_bytes, config=morc_config, base_latency_cycles=base,
            decompress_bytes_per_cycle=config.morc_decompression_bytes_per_cycle,
            tag_decode_tags_per_cycle=config.tag_decode_tags_per_cycle,
            compression_enabled=compression_enabled, algorithm=algorithm)
        if scheme in ("MORC-CPack", "MORC-LZ"):
            llc.name = scheme
        return llc
    raise ConfigError(f"unknown scheme {scheme!r}")


@dataclass
class SingleRunResult:
    """Everything an experiment needs from one (benchmark, scheme) run."""

    benchmark: str
    scheme: str
    metrics: RunMetrics
    compression_ratio: float
    llc_stats: Dict[str, float]
    energy: EnergyBreakdown
    latency_histogram: Dict[int, int] = field(default_factory=dict)
    invalid_fraction: float = 0.0
    symbol_counters: Dict[str, float] = field(default_factory=dict)
    symbol_zero_counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.metrics.ipc

    @property
    def bandwidth_gb(self) -> float:
        return self.metrics.gb_per_billion_instructions

    def throughput(self, threads: int = 4) -> float:
        return coarse_grain_throughput(self.metrics, threads)


def run_single_program(benchmark: str, scheme: str,
                       config: Optional[SystemConfig] = None,
                       n_instructions: int = 200_000,
                       warmup_fraction: float = 0.4,
                       inclusive_writes: Optional[bool] = None,
                       compression_enabled: bool = True,
                       llc: Optional[LLCInterface] = None,
                       memory: Optional[MemoryChannel] = None,
                       seed_offset: int = 0,
                       ) -> SingleRunResult:
    """Simulate one benchmark under one LLC scheme (Figure 6 pipeline).

    Following the paper's methodology, the first ``warmup_fraction`` of
    the trace warms the caches; metrics cover only the remainder.
    ``memory`` may supply an alternative channel model (banked DDR3,
    link-compressed).
    """
    config = config or SystemConfig()
    if inclusive_writes is None:
        inclusive_writes = config.morc.inclusive_writes
    traced = obs_trace.tracing_active()
    if traced:
        obs_trace.set_context(run=obs_trace.next_run_id(),
                              benchmark=benchmark, scheme=scheme)
        run_channel = obs_trace.RUN
        if run_channel is not None:
            run_channel.emit("run_start", n_instructions=n_instructions)
    try:
        llc = llc or make_llc(scheme, config,
                              compression_enabled=compression_enabled)
        memory = memory or MemoryChannel(config.memory)
        core = CoreSimulator(llc, memory, config,
                             inclusive_writes=inclusive_writes)
        total = int(n_instructions / max(1e-9, 1.0 - warmup_fraction))
        trace = make_trace(benchmark, total, seed_offset=seed_offset)
        metrics = core.run(trace,
                           warmup_instructions=total - n_instructions)
        result = _finish_single(benchmark, scheme, metrics, llc)
        if traced:
            run_channel = obs_trace.RUN
            if run_channel is not None:
                run_channel.emit("run_end",
                                 ratio=result.compression_ratio,
                                 ipc=result.ipc,
                                 bandwidth_gb=result.bandwidth_gb)
        return result
    finally:
        if traced:
            obs_trace.clear_context("run", "benchmark", "scheme")


def _finish_single(benchmark: str, scheme: str, metrics: RunMetrics,
                   llc: LLCInterface) -> SingleRunResult:
    """Package a finished core run into a :class:`SingleRunResult`."""
    # Static power scales with the LLC actually simulated (the 8x
    # baseline must pay for its 8x larger array — Figure 9a's point).
    llc_bytes = getattr(llc, "capacity_bytes", None)
    if llc_bytes is None:
        llc_bytes = llc.geometry.size_bytes
    energy = compute_energy(scheme, metrics, llc.stats,
                            llc_size_bytes=llc_bytes)
    histogram: Dict[int, int] = {}
    invalid_fraction = 0.0
    symbols: Dict[str, float] = {}
    zero_symbols: Dict[str, float] = {}
    if isinstance(llc, MorcCache):
        histogram = dict(llc.latency_bytes_histogram)
        invalid_fraction = llc.mean_invalid_fraction()
        symbols = dict(llc.symbol_usage)
        zero_symbols = dict(llc.symbol_zero_usage)
    return SingleRunResult(
        benchmark=benchmark, scheme=scheme, metrics=metrics,
        compression_ratio=llc.mean_compression_ratio(),
        llc_stats=llc.stats.as_dict(), energy=energy,
        latency_histogram=histogram, invalid_fraction=invalid_fraction,
        symbol_counters=symbols, symbol_zero_counters=zero_symbols)


@dataclass
class MultiProgramResult:
    """Results of a 16-thread shared-LLC run (Figure 8 pipeline)."""

    mix: str
    scheme: str
    per_thread: List[RunMetrics]
    compression_ratio: float
    llc_stats: Dict[str, float]

    @property
    def completion_cycles(self) -> float:
        """Tail latency: the longest-running thread (Figure 8d)."""
        return max(metrics.cycles for metrics in self.per_thread)

    @property
    def geomean_ipc(self) -> float:
        """Unweighted geometric-mean IPC across threads (Figure 8c)."""
        product = 1.0
        for metrics in self.per_thread:
            product *= max(metrics.ipc, 1e-12)
        return product ** (1.0 / len(self.per_thread))

    @property
    def total_offchip_bytes(self) -> int:
        return sum(metrics.offchip_bytes for metrics in self.per_thread)

    @property
    def total_instructions(self) -> int:
        return sum(metrics.instructions for metrics in self.per_thread)

    @property
    def bandwidth_gb(self) -> float:
        if not self.total_instructions:
            return 0.0
        return self.total_offchip_bytes / self.total_instructions


def run_multi_program(mix: str, scheme: str,
                      config: Optional[SystemConfig] = None,
                      n_instructions_each: int = 50_000,
                      warmup_fraction: float = 0.3,
                      synchronized: bool = False,
                      ) -> MultiProgramResult:
    """Simulate a Table 6 mix: 16 threads, shared LLC, shared channel.

    The shared LLC aggregates 16 per-core slices (2MB at the default
    128KB/core); total channel bandwidth is 16x the per-thread allocation
    (1600 MB/s at the default 100 MB/s).  Mirroring the paper's 1B-region
    methodology, the first ``warmup_fraction`` of each thread's trace
    warms the hierarchy: per-thread metrics reset as each thread crosses
    the boundary, shared-LLC statistics reset once every thread has.
    """
    from repro.sim.multicore import MultiCoreSystem
    config = config or SystemConfig()
    traced = obs_trace.tracing_active()
    if traced:
        obs_trace.set_context(run=obs_trace.next_run_id(),
                              benchmark=mix, scheme=scheme)
        run_channel = obs_trace.RUN
        if run_channel is not None:
            run_channel.emit("run_start", mix=mix,
                             n_instructions=n_instructions_each)
    try:
        n_threads = 16
        shared_config = config.with_bandwidth(
            config.memory.bandwidth_bytes_per_sec * n_threads)
        llc = make_llc(
            scheme, config,
            capacity_bytes=config.llc_per_core.size_bytes * n_threads)
        memory = MemoryChannel(shared_config.memory)
        total_each = int(n_instructions_each
                         / max(1e-9, 1.0 - warmup_fraction))
        warmup_each = total_each - n_instructions_each
        system = MultiCoreSystem(llc, memory, config, n_threads=n_threads)
        result = system.run(mix_programs(mix, total_each,
                                         synchronized=synchronized),
                            warmup_instructions=warmup_each)
        multi = MultiProgramResult(
            mix=mix, scheme=scheme, per_thread=result.per_thread,
            compression_ratio=result.compression_ratio,
            llc_stats=result.llc_stats)
        if traced:
            run_channel = obs_trace.RUN
            if run_channel is not None:
                run_channel.emit("run_end",
                                 ratio=multi.compression_ratio,
                                 ipc=multi.geomean_ipc,
                                 bandwidth_gb=multi.bandwidth_gb)
        return multi
    finally:
        if traced:
            obs_trace.clear_context("run", "benchmark", "scheme")
