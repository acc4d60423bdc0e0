"""Tests for the CACTI-lite hardware model."""

import pytest

from repro.hw.area import SramModel


class TestSramModel:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SramModel(0)


class TestSramLatency:
    def test_anchor(self):
        assert SramModel(128 * 1024).access_latency_cycles() == 14

    def test_sqrt_scaling(self):
        assert SramModel(1024 * 1024).access_latency_cycles() == \
            round(14 * 8 ** 0.5)

    def test_uncompressed8x_uses_scaled_latency(self):
        from repro.common.config import SystemConfig
        from repro.sim.system import make_llc
        big = make_llc("Uncompressed8x", SystemConfig())
        small = make_llc("Uncompressed", SystemConfig())
        assert big.base_latency_cycles > small.base_latency_cycles
