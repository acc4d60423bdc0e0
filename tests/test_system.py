"""Integration tests: whole-system single- and multi-program runs."""

import pytest

from repro.cache.set_assoc import (
    AdaptiveCache,
    DecoupledCache,
    Sc2Cache,
    UncompressedCache,
)
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.morc.cache import MorcCache
from repro.sim.system import (
    ALL_SCHEMES,
    make_llc,
    run_multi_program,
    run_single_program,
)

SMALL = 30_000


class TestMakeLlc:
    def test_scheme_types(self):
        config = SystemConfig()
        assert isinstance(make_llc("Uncompressed", config),
                          UncompressedCache)
        assert isinstance(make_llc("Adaptive", config), AdaptiveCache)
        assert isinstance(make_llc("Decoupled", config), DecoupledCache)
        assert isinstance(make_llc("SC2", config), Sc2Cache)
        assert isinstance(make_llc("MORC", config), MorcCache)

    def test_morc_merged(self):
        llc = make_llc("MORCMerged", SystemConfig())
        assert isinstance(llc, MorcCache)
        assert llc.config.merged_tags

    def test_uncompressed8x_capacity(self):
        llc = make_llc("Uncompressed8x", SystemConfig())
        assert llc.geometry.size_bytes == 8 * 128 * 1024

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            make_llc("LZ4", SystemConfig())

    def test_capacity_override(self):
        llc = make_llc("Uncompressed", SystemConfig(),
                       capacity_bytes=64 * 1024)
        assert llc.geometry.size_bytes == 64 * 1024


class TestSingleProgram:
    def test_every_scheme_runs(self):
        for scheme in ALL_SCHEMES:
            result = run_single_program("gcc", scheme,
                                        n_instructions=SMALL)
            assert result.metrics.instructions >= SMALL * 0.9
            assert result.metrics.cycles > 0
            assert 0 < result.ipc <= 1.0
            assert result.compression_ratio > 0

    def test_compressed_schemes_beat_baseline_ratio(self):
        base = run_single_program("gcc", "Uncompressed",
                                  n_instructions=SMALL)
        morc = run_single_program("gcc", "MORC", n_instructions=SMALL)
        assert base.compression_ratio <= 1.0
        assert morc.compression_ratio > 1.2

    def test_morc_reduces_bandwidth_on_compressible(self):
        base = run_single_program("gcc", "Uncompressed",
                                  n_instructions=60_000)
        morc = run_single_program("gcc", "MORC", n_instructions=60_000)
        assert morc.bandwidth_gb < base.bandwidth_gb

    def test_results_are_reproducible(self):
        a = run_single_program("astar", "MORC", n_instructions=SMALL)
        b = run_single_program("astar", "MORC", n_instructions=SMALL)
        assert a.metrics.cycles == b.metrics.cycles
        assert a.compression_ratio == b.compression_ratio

    def test_energy_populated(self):
        result = run_single_program("gcc", "MORC", n_instructions=SMALL)
        assert result.energy.total_j > 0
        assert result.energy.dram_j > 0
        assert result.energy.decompression_j > 0

    def test_morc_extras_populated(self):
        result = run_single_program("gcc", "MORC", n_instructions=SMALL)
        assert result.latency_histogram
        assert result.symbol_counters

    def test_non_morc_extras_empty(self):
        result = run_single_program("gcc", "SC2", n_instructions=SMALL)
        assert not result.latency_histogram
        assert not result.symbol_counters

    def test_compression_disabled(self):
        result = run_single_program("gcc", "MORC-Raw", n_instructions=SMALL)
        assert result.compression_ratio <= 1.0
        assert result.llc_stats["compressions"] > 0
        # No codec runs, so no codec energy is charged.
        assert result.energy.compression_j == 0
        assert result.energy.decompression_j == 0


class TestMultiProgram:
    def test_s2_runs_all_threads(self):
        result = run_multi_program("S2", "MORC",
                                   n_instructions_each=4_000)
        assert len(result.per_thread) == 16
        assert all(m.instructions >= 4_000 * 0.9
                   for m in result.per_thread)
        assert result.completion_cycles >= max(
            m.cycles for m in result.per_thread)

    def test_mix_runs(self):
        result = run_multi_program("M0", "Uncompressed",
                                   n_instructions_each=3_000)
        assert result.geomean_ipc > 0
        assert result.total_instructions >= 16 * 3_000 * 0.9

    def test_same_set_compresses_across_programs(self):
        """S-sets share data values across copies; MORC packs the same
        fills into far fewer bits than the baseline (paper §5.2).  At
        test-sized budgets the 2MB shared LLC never fills, so the check
        compares residency against the uncompressed run instead of
        asserting an absolute ratio."""
        morc = run_multi_program("S2", "MORC", n_instructions_each=6_000)
        base = run_multi_program("S2", "Uncompressed",
                                 n_instructions_each=6_000)
        assert morc.compression_ratio >= base.compression_ratio * 0.9
        assert morc.total_offchip_bytes <= base.total_offchip_bytes * 1.02

    def test_completion_time_definition(self):
        result = run_multi_program("S6", "Uncompressed",
                                   n_instructions_each=2_000)
        assert result.completion_cycles == max(m.cycles
                                               for m in result.per_thread)


class TestSeedOffsetAndMemoryChannel:
    def test_seed_offset_changes_runs(self):
        a = run_single_program("gcc", "MORC", n_instructions=SMALL,
                               seed_offset=0)
        b = run_single_program("gcc", "MORC", n_instructions=SMALL,
                               seed_offset=123)
        assert a.metrics.cycles != b.metrics.cycles

    def test_custom_memory_channel_accepted(self):
        from repro.mem.link import LinkCompressedChannel
        from repro.common.config import MemoryConfig
        result = run_single_program(
            "gcc", "MORC", n_instructions=SMALL,
            memory=LinkCompressedChannel(MemoryConfig()))
        assert result.metrics.cycles > 0


class TestSynchronizedMultiProgram:
    def test_synchronization_flag_plumbs_through(self):
        synced = run_multi_program("S6", "MORC",
                                   n_instructions_each=2_500,
                                   synchronized=True)
        drifted = run_multi_program("S6", "MORC",
                                    n_instructions_each=2_500,
                                    synchronized=False)
        assert synced.compression_ratio != drifted.compression_ratio
