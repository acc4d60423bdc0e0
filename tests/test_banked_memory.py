"""Tests for the bank-level DDR3 model."""

import pytest

from repro.common.config import MemoryConfig
from repro.mem.banked import BankedMemoryChannel
from repro.mem.controller import MemoryChannel


def channel(bandwidth=100e6, n_banks=8):
    return BankedMemoryChannel(
        MemoryConfig(bandwidth_bytes_per_sec=bandwidth), n_banks=n_banks)


class TestBankedChannel:
    def test_idle_read_latency(self):
        banked = channel()
        latency = banked.read(now=0.0, address=0)
        # access window + bus transfer, no queueing
        assert latency >= banked.transfer_cycles
        assert latency < banked.transfer_cycles + 200

    def test_bank_conflict_serialises(self):
        banked = channel()
        first = banked.read(0.0, address=0)
        conflict = banked.read(0.0, address=8 * 64)  # same bank (8 banks)
        assert conflict > first

    def test_different_banks_overlap_access(self):
        fast_bus = channel(bandwidth=1600e6)
        fast_bus.read(0.0, address=0)
        other_bank = fast_bus.read(0.0, address=64)
        same_bank_channel = channel(bandwidth=1600e6)
        same_bank_channel.read(0.0, address=0)
        same_bank = same_bank_channel.read(0.0, address=8 * 64)
        assert other_bank < same_bank

    def test_bus_still_caps_bandwidth(self):
        """At 100 MB/s the shared bus dominates regardless of banking."""
        banked = channel()
        latencies = [banked.read(0.0, address=i * 64) for i in range(8)]
        assert latencies[-1] > 7 * banked.transfer_cycles

    def test_tracks_per_bank_stats(self):
        banked = channel(n_banks=4)
        for i in range(8):
            banked.read(0.0, address=i * 64)
        for bank in range(4):
            assert banked.stats.get(f"bank{bank}_accesses") == 2

    def test_writes_occupy(self):
        banked = channel()
        banked.write(0.0, address=0)
        delayed = banked.read(0.0, address=64)
        assert delayed > banked.transfer_cycles

    def test_traffic_accounting(self):
        banked = channel()
        banked.read(0.0, 0)
        banked.write(0.0, 64)
        assert banked.total_transfers == 2

    def test_rejects_zero_banks(self):
        with pytest.raises(ValueError):
            channel(n_banks=0)

    def test_agrees_with_simple_channel_under_saturation(self):
        """Back-to-back traffic: the banked model converges to the simple
        bus-occupancy model (the paper-relevant regime)."""
        config = MemoryConfig(bandwidth_bytes_per_sec=100e6)
        simple = MemoryChannel(config)
        banked = BankedMemoryChannel(config)
        n = 50
        simple_total = sum(simple.read(0.0) for _ in range(n))
        banked_total = sum(banked.read(0.0, address=i * 64)
                           for i in range(n))
        assert banked_total == pytest.approx(simple_total, rel=0.1)
