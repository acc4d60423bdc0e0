"""Tests for the Table 7 energy model."""

import pytest

from repro.common.config import CLOCK_HZ, EnergyParams
from repro.common.errors import ConfigError
from repro.common.stats import StatGroup
from repro.sim.energy import EnergyBreakdown, compute_energy
from repro.sim.metrics import RunMetrics


def run_metrics(cycles=2e6, l1_accesses=1000, reads=10, writes=5):
    m = RunMetrics()
    m.instructions = int(cycles)
    m.cycles = cycles
    m.l1_accesses = l1_accesses
    m.memory_reads = reads
    m.memory_writes = writes
    return m


def llc_stats(**counters):
    stats = StatGroup("llc")
    for key, value in counters.items():
        stats.add(key, value)
    return stats


class TestComputeEnergy:
    def test_static_scales_with_time(self):
        short = compute_energy("Uncompressed", run_metrics(cycles=2e6),
                               llc_stats())
        long = compute_energy("Uncompressed", run_metrics(cycles=4e6),
                              llc_stats())
        assert long.static_j == pytest.approx(2 * short.static_j)

    def test_dram_energy_counts_both_directions(self):
        params = EnergyParams()
        a = compute_energy("Uncompressed", run_metrics(reads=10, writes=0),
                           llc_stats())
        b = compute_energy("Uncompressed", run_metrics(reads=0, writes=10),
                           llc_stats())
        assert a.dram_j == pytest.approx(b.dram_j)
        delta = a.dram_j - compute_energy(
            "Uncompressed", run_metrics(reads=0, writes=0),
            llc_stats()).dram_j
        assert delta == pytest.approx(10 * params.offchip_access_j)

    def test_uncompressed_has_no_engine_energy(self):
        breakdown = compute_energy(
            "Uncompressed", run_metrics(),
            llc_stats(compressions=100, decompressed_lines=100))
        assert breakdown.compression_j == 0.0
        assert breakdown.decompression_j == 0.0

    def test_morc_engine_energy(self):
        params = EnergyParams()
        breakdown = compute_energy(
            "MORC", run_metrics(),
            llc_stats(compressions=100, decompressed_lines=300))
        assert breakdown.compression_j == pytest.approx(
            100 * params.lbe_compress_j)
        assert breakdown.decompression_j == pytest.approx(
            300 * params.lbe_decompress_j)

    def test_cpack_schemes(self):
        params = EnergyParams()
        for scheme in ("Adaptive", "Decoupled"):
            breakdown = compute_energy(
                scheme, run_metrics(), llc_stats(compressions=10))
            assert breakdown.compression_j == pytest.approx(
                10 * params.cpack_compress_j)

    def test_uncompressed8x_pays_more_static(self):
        small = compute_energy("Uncompressed", run_metrics(), llc_stats(),
                               llc_size_bytes=128 * 1024)
        big = compute_energy("Uncompressed8x", run_metrics(), llc_stats(),
                             llc_size_bytes=1024 * 1024)
        assert big.static_j > small.static_j

    def test_unknown_scheme_raises(self):
        with pytest.raises(ConfigError):
            compute_energy("Mystery", run_metrics(), llc_stats())

    def test_seconds_conversion(self):
        breakdown = compute_energy("Uncompressed",
                                   run_metrics(cycles=CLOCK_HZ),
                                   llc_stats())
        params = EnergyParams()
        expected_static = (params.l1_static_w + params.llc_static_w) * 1.0
        assert breakdown.static_j == pytest.approx(expected_static)


class TestBreakdown:
    def test_total(self):
        breakdown = EnergyBreakdown(1.0, 2.0, 3.0, 0.5, 0.25)
        assert breakdown.total_j == pytest.approx(6.75)

    def test_normalized(self):
        baseline = EnergyBreakdown(2.0, 2.0, 0.0, 0.0, 0.0)
        mine = EnergyBreakdown(1.0, 1.0, 1.0, 0.5, 0.5)
        normalized = mine.normalized_to(baseline)
        assert normalized.total_j == pytest.approx(1.0)
        assert normalized.static_j == pytest.approx(0.25)

    def test_normalized_zero_baseline(self):
        zero = EnergyBreakdown(0, 0, 0, 0, 0)
        mine = EnergyBreakdown(1, 1, 1, 1, 1)
        assert mine.normalized_to(zero) is mine
