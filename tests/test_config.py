"""Tests for configuration dataclasses (Table 5 / Table 7 defaults)."""

import pytest

from repro.common.config import (
    CacheGeometry,
    DEFAULT_ENERGY,
    EnergyParams,
    MemoryConfig,
    MorcConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError


class TestCacheGeometry:
    def test_default_llc_shape(self):
        geometry = CacheGeometry(size_bytes=128 * 1024, ways=8)
        assert geometry.n_lines == 2048
        assert geometry.n_sets == 256
        assert geometry.index_bits == 8

    def test_default_l1_shape(self):
        geometry = CacheGeometry(size_bytes=32 * 1024, ways=4)
        assert geometry.n_lines == 512
        assert geometry.n_sets == 128

    def test_tag_bits(self):
        geometry = CacheGeometry(size_bytes=128 * 1024, ways=8)
        # 48 - 8 index - 6 offset
        assert geometry.tag_bits == 34

    def test_set_index_wraps(self):
        geometry = CacheGeometry(size_bytes=128 * 1024, ways=8)
        assert geometry.set_index(0) == 0
        assert geometry.set_index(64) == 1
        assert geometry.set_index(64 * geometry.n_sets) == 0

    def test_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=1000, ways=3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=0, ways=1)


class TestMorcConfig:
    def test_paper_defaults(self):
        config = MorcConfig()
        assert config.log_size_bytes == 512
        assert config.n_active_logs == 8
        assert config.lmt_overprovision == 8
        assert config.tag_bases == 2
        assert config.fudge_factor == pytest.approx(0.05)
        assert not config.merged_tags

    def test_rejects_tiny_log(self):
        with pytest.raises(ConfigError):
            MorcConfig(log_size_bytes=32)

    def test_rejects_bad_bases(self):
        with pytest.raises(ConfigError):
            MorcConfig(tag_bases=3)

    def test_rejects_bad_fudge(self):
        with pytest.raises(ConfigError):
            MorcConfig(fudge_factor=1.5)


class TestMemoryConfig:
    def test_transfer_occupancy_at_100mbs(self):
        config = MemoryConfig(bandwidth_bytes_per_sec=100e6)
        # 64B at 100MB/s and 2GHz core clock = 1280 cycles
        assert config.cycles_per_line_transfer == pytest.approx(1280.0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ConfigError):
            MemoryConfig(bandwidth_bytes_per_sec=0)


class TestSystemConfig:
    def test_table5_defaults(self):
        config = SystemConfig()
        assert config.l1.size_bytes == 32 * 1024
        assert config.llc_per_core.size_bytes == 128 * 1024
        assert config.llc_latency_cycles == 14
        assert config.intra_decompression_cycles == 4
        assert config.morc_decompression_bytes_per_cycle == 16
        assert config.threads_per_core == 4

    def test_with_bandwidth(self):
        config = SystemConfig().with_bandwidth(12.5e6)
        assert config.memory.bandwidth_bytes_per_sec == 12.5e6
        # original untouched (frozen dataclasses)
        assert SystemConfig().memory.bandwidth_bytes_per_sec == 100e6

    def test_with_llc_size(self):
        config = SystemConfig().with_llc_size(1024 * 1024)
        assert config.llc_per_core.size_bytes == 1024 * 1024

    def test_with_morc(self):
        config = SystemConfig().with_morc(n_active_logs=16)
        assert config.morc.n_active_logs == 16


class TestEnergyParams:
    def test_table7_values(self):
        p = DEFAULT_ENERGY
        assert p.l1_static_w == pytest.approx(7.0e-3)
        assert p.llc_static_w == pytest.approx(20.0e-3)
        assert p.lbe_compress_j == pytest.approx(200e-12)
        assert p.lbe_decompress_j == pytest.approx(150e-12)
        assert p.offchip_access_j == pytest.approx(74.8e-9)

    def test_scaled_static(self):
        p = EnergyParams()
        assert p.scaled_llc_static(1024 * 1024) == pytest.approx(
            p.llc_static_w * 8)


class TestDescribe:
    def test_contains_table5_facts(self):
        text = SystemConfig().describe()
        assert "32KB" in text
        assert "128KB" in text
        assert "100 MB/s" in text
        assert "512B logs" in text
        assert "14-cycle" in text

    def test_reflects_overrides(self):
        text = SystemConfig().with_morc(merged_tags=True).describe()
        assert "merged tags" in text
        text = SystemConfig().with_bandwidth(12.5e6).describe()
        assert "12.5 MB/s" in text
