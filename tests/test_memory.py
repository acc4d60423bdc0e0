"""Tests for the DDR3 timing and FCFS bandwidth channel."""

import pytest

from repro.common.config import MemoryConfig
from repro.mem.controller import MemoryChannel
from repro.mem.dram import DEFAULT_DDR3, Ddr3Timing


class TestDdr3Timing:
    def test_data_cycles(self):
        assert DEFAULT_DDR3.data_cycles == pytest.approx(4.0)

    def test_access_latency_reasonable(self):
        # tRCD + tCL + 4 beats at 800 MHz = 22 mem cycles = 27.5ns -> 55
        # core cycles at 2 GHz
        assert DEFAULT_DDR3.access_latency_core_cycles() == 55

    def test_restore_latency(self):
        assert DEFAULT_DDR3.restore_latency_core_cycles() == \
            round(9 / 800e6 * 2e9)

    def test_custom_timing(self):
        fast = Ddr3Timing(t_rcd=5, t_cl=5, t_rp=5)
        assert fast.access_latency_s() < DEFAULT_DDR3.access_latency_s()


class TestMemoryChannel:
    def test_idle_read_latency(self):
        channel = MemoryChannel(MemoryConfig(bandwidth_bytes_per_sec=100e6,
                                             dram_latency_cycles=56))
        latency = channel.read(now=0.0)
        assert latency == pytest.approx(56 + 1280)

    def test_queueing_delay_accumulates(self):
        config = MemoryConfig(bandwidth_bytes_per_sec=100e6,
                              dram_latency_cycles=56)
        channel = MemoryChannel(config)
        first = channel.read(now=0.0)
        second = channel.read(now=0.0)
        assert second == pytest.approx(first + 1280)

    def test_channel_drains_over_time(self):
        config = MemoryConfig(bandwidth_bytes_per_sec=100e6,
                              dram_latency_cycles=56)
        channel = MemoryChannel(config)
        channel.read(now=0.0)
        # Arriving after the transfer completes sees an idle channel.
        latency = channel.read(now=5000.0)
        assert latency == pytest.approx(56 + 1280)

    def test_writes_occupy_but_do_not_stall(self):
        config = MemoryConfig(bandwidth_bytes_per_sec=100e6)
        channel = MemoryChannel(config)
        channel.write(now=0.0)
        # The posted write still delays a subsequent read (FCFS).
        latency = channel.read(now=0.0)
        assert latency > config.dram_latency_cycles + 1280 - 1

    def test_bandwidth_scales_occupancy(self):
        slow = MemoryChannel(MemoryConfig(bandwidth_bytes_per_sec=12.5e6))
        fast = MemoryChannel(MemoryConfig(bandwidth_bytes_per_sec=1600e6))
        assert slow.transfer_cycles == pytest.approx(10240)
        assert fast.transfer_cycles == pytest.approx(80)

    def test_traffic_accounting(self):
        channel = MemoryChannel(MemoryConfig())
        channel.read(0.0)
        channel.read(0.0)
        channel.write(0.0)
        assert channel.total_transfers == 3
        assert channel.stats.get("reads") == 2
        assert channel.stats.get("writes") == 1

    def test_queue_wait_recorded(self):
        channel = MemoryChannel(MemoryConfig())
        channel.read(0.0)
        channel.read(0.0)
        assert channel.stats.get("queue_wait_cycles") > 0
