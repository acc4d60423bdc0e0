"""Tests for the core simulator driving L1 -> LLC -> memory."""

import pytest

from repro.cache.set_assoc import UncompressedCache
from repro.common.config import CacheGeometry, MemoryConfig, SystemConfig
from repro.mem.controller import MemoryChannel
from repro.morc.cache import MorcCache
from repro.common.config import MorcConfig
from repro.sim.core import CoreSimulator, restart_shared_stats
from repro.sim.multicore import MultiCoreSystem
from repro.sim.system import ALL_SCHEMES, make_llc, run_single_program
from repro.workloads.spec import make_trace
from repro.workloads.trace import TraceRecord


def record(line, is_write=False, gap=0, byte=1):
    return TraceRecord(address=line * 64, is_write=is_write, gap=gap,
                       data=bytes([byte]) * 64)


def make_sim(inclusive_writes=False, llc=None):
    config = SystemConfig()
    llc = llc or UncompressedCache(CacheGeometry(8 * 1024, ways=8))
    memory = MemoryChannel(MemoryConfig())
    return CoreSimulator(llc, memory, config,
                         inclusive_writes=inclusive_writes), llc, memory


class TestTiming:
    def test_instruction_accounting(self):
        sim, _, _ = make_sim()
        sim.step(record(0, gap=9))
        assert sim.metrics.instructions == 10
        # cold miss: 10 compute + 14 LLC + memory
        assert sim.metrics.cycles > 10 + 14

    def test_l1_hit_costs_nothing_extra(self):
        sim, _, _ = make_sim()
        sim.step(record(0))
        cycles_after_miss = sim.metrics.cycles
        sim.step(record(0))
        assert sim.metrics.cycles == cycles_after_miss + 1

    def test_llc_hit_latency(self):
        sim, llc, _ = make_sim()
        llc.fill(0, bytes(64))
        sim.step(record(0))
        assert sim.metrics.cycles == pytest.approx(1 + 14)
        assert sim.metrics.llc_hits == 1

    def test_memory_latency_included_on_llc_miss(self):
        sim, _, memory = make_sim()
        sim.step(record(0))
        assert sim.metrics.llc_misses == 1
        assert sim.metrics.memory_reads == 1
        assert sim.metrics.cycles > memory.transfer_cycles

    def test_miss_latencies_recorded(self):
        sim, _, _ = make_sim()
        sim.step(record(0))
        sim.step(record(0))  # L1 hit, no entry
        assert len(sim.metrics.miss_latencies) == 1


class TestDataPath:
    def test_read_miss_fills_l1_and_llc(self):
        sim, llc, _ = make_sim()
        sim.step(record(0, byte=7))
        assert sim.l1.contains(0)
        assert llc.contains(0)
        assert llc.read(0).data == bytes([7]) * 64

    def test_write_miss_fills_only_l1_when_non_inclusive(self):
        sim, llc, _ = make_sim(inclusive_writes=False)
        sim.step(record(0, is_write=True))
        assert sim.l1.contains(0)
        assert not llc.contains(0)

    def test_write_miss_fills_llc_when_inclusive(self):
        sim, llc, _ = make_sim(inclusive_writes=True)
        sim.step(record(0, is_write=True))
        assert llc.contains(0)

    def test_dirty_l1_eviction_reaches_llc(self):
        sim, llc, _ = make_sim()
        n_sets = sim.l1.geometry.n_sets
        sim.step(record(0, is_write=True, byte=9))
        # Evict line 0 from its L1 set by filling the set's 4 ways + 1.
        for i in range(1, 6):
            sim.step(record(i * n_sets))
        assert llc.contains(0)
        assert llc.read(0).data == bytes([9]) * 64

    def test_llc_dirty_eviction_reaches_memory(self):
        llc = UncompressedCache(CacheGeometry(512, ways=8))  # one set
        sim, _, memory = make_sim(llc=llc)
        n_l1_sets = sim.l1.geometry.n_sets
        # Write lines, force them through the L1 into the tiny LLC.
        for i in range(10):
            sim.step(record(i * n_l1_sets, is_write=True))
        for i in range(10, 24):
            sim.step(record(i * n_l1_sets))
        assert memory.stats.get("writes") > 0
        assert sim.metrics.memory_writes > 0

    def test_llc_hit_data_used_for_l1_fill(self):
        sim, llc, _ = make_sim()
        llc.fill(0, bytes([5]) * 64)
        sim.step(record(0, byte=1))  # record data ignored on LLC hit
        assert sim.l1.line_data(0) == bytes([5]) * 64


def record_boundary(core, warmup):
    """Wrap ``core.step`` to note (misses so far, clock) when the core
    first reaches ``warmup`` instructions, as a warm-up run would."""
    seen = []
    step = core.step

    def recording_step(*access):
        step(*access)
        if not seen and core.metrics.instructions >= warmup:
            seen.append((len(core.metrics.miss_latencies),
                         core.metrics.cycles))

    core.step = recording_step
    return seen


def assert_measured_tail(warm, cold, boundary):
    """A warm-up run measures exactly the cold run's post-boundary tail."""
    misses, clock = boundary
    assert list(warm.miss_latencies) == list(cold.miss_latencies)[misses:]
    assert list(warm.miss_gaps) == list(cold.miss_gaps)[misses:]
    assert warm.cycles == cold.cycles - clock
    assert warm.l1_misses == cold.l1_misses - misses


@pytest.mark.conformance
class TestWarmup:
    """Warm-up keeps one monotonic clock: the measured region of a run is
    the tail of the same run without warm-up, with no phantom stall."""

    TOTAL, WARMUP = 12_000, 7_000

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_single_run_measures_the_cold_tail(self, scheme):
        def build():
            config = SystemConfig()
            return CoreSimulator(make_llc(scheme, config),
                                 MemoryChannel(config.memory), config)

        warm = build().run(make_trace("gcc", self.TOTAL),
                           warmup_instructions=self.WARMUP)
        cold_sim = build()
        boundary = record_boundary(cold_sim, self.WARMUP)
        cold = cold_sim.run(make_trace("gcc", self.TOTAL))
        assert warm.l1_misses > 0
        assert_measured_tail(warm, cold, boundary[0])

    def test_multicore_measures_the_cold_tail(self):
        def build():
            config = SystemConfig()
            llc = UncompressedCache(CacheGeometry(16 * 1024, ways=8))
            memory = MemoryChannel(MemoryConfig(bandwidth_bytes_per_sec=400e6))
            return MultiCoreSystem(llc, memory, config, n_threads=2)

        def traces():
            return [make_trace("gcc", self.TOTAL, seed_offset=i)
                    for i in range(2)]

        warm = build().run(traces(), warmup_instructions=self.WARMUP)
        cold_system = build()
        boundaries = [record_boundary(core, self.WARMUP)
                      for core in cold_system.cores]
        cold = cold_system.run(traces())
        for warm_m, cold_m, seen in zip(warm.per_thread, cold.per_thread,
                                        boundaries):
            assert_measured_tail(warm_m, cold_m, seen[0])

    def test_measurement_start_keeps_cache_state_and_clock(self):
        sim, llc, _ = make_sim()
        sim.step(record(0))
        clock = sim.metrics.cycles
        sim.start_measurement()
        assert sim.metrics.instructions == 0
        assert sim.metrics.cycles == clock
        assert llc.contains(0)
        sim.step(record(0))  # L1 hit now
        assert sim.metrics.l1_misses == 0
        assert sim.measured().cycles == 1

    def test_run_with_warmup(self):
        sim, _, _ = make_sim()
        trace = [record(i % 4, gap=0) for i in range(100)]
        metrics = sim.run(trace, warmup_instructions=50)
        assert metrics.instructions <= 50

    def test_run_without_warmup(self):
        sim, _, _ = make_sim()
        metrics = sim.run([record(i % 4) for i in range(100)])
        assert metrics.instructions == 100

    def test_morc_histogram_cleared_at_boundary(self):
        llc = MorcCache(8 * 1024, config=MorcConfig(n_active_logs=2))
        sim, _, memory = make_sim(llc=llc)
        sim.step(record(0))
        llc.latency_bytes_histogram[64] += 1
        restart_shared_stats(llc, memory)
        assert not llc.latency_bytes_histogram
        assert memory.stats.get("reads") == 0

    def test_morc_symbol_usage_covers_only_measured_fills(self):
        """Figure 7's bytes per symbol kind restart with the LLC stats:
        each measured LBE compression accounts for one 64-byte line."""
        result = run_single_program("gcc", "MORC", n_instructions=20_000,
                                    warmup_fraction=0.4)
        compressions = result.llc_stats["compressions"]
        assert compressions > 0
        assert sum(result.symbol_counters.values()) == 64 * compressions


class TestSampling:
    def test_ratio_sampled_periodically(self):
        sim, llc, _ = make_sim()
        sim.sample_interval = 10
        sim._next_sample = 10
        for i in range(50):
            sim.step(record(i, gap=0))
        assert llc.stats.get("ratio_samples") >= 4
