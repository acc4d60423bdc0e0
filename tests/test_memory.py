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


class TestTransferCycles:
    """Each channel takes one line's transfer time from its frozen
    config once; every latency must be what the config gives per
    transfer.  The event-list references recompute it on every request."""

    BANDWIDTHS = (12.5e6, 100e6, 333e6, 1600e6)

    @staticmethod
    def requests():
        """A fixed stream of (now, address, data, is_read): bursts that
        queue, gaps that drain, and lines of different compressibility."""
        import random
        rng = random.Random(7)
        now = 0.0
        stream = []
        for index in range(200):
            now += rng.choice((0.0, 0.0, 3.0, 700.0, 20_000.0))
            data = (bytes(64) if index % 3 == 0
                    else bytes(rng.randrange(256) for _ in range(64)))
            stream.append((now, rng.randrange(1 << 20) * 64, data,
                           rng.random() < 0.75))
        return stream

    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    def test_fcfs_channel(self, bandwidth):
        from repro.conformance.reference import RefFcfsChannel

        config = MemoryConfig(bandwidth_bytes_per_sec=bandwidth)
        channel, gold = MemoryChannel(config), RefFcfsChannel(config)
        assert channel.transfer_cycles == config.cycles_per_line_transfer
        for now, address, data, is_read in self.requests():
            if is_read:
                assert (channel.read(now, address, data)
                        == gold.read(now, address, data))
            else:
                channel.write(now, address, data)
                gold.write(now, address, data)
        assert channel._free_at == gold._server_free_at()

    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    def test_banked_channel(self, bandwidth):
        from repro.conformance.reference import RefBankedChannel
        from repro.mem.banked import BankedMemoryChannel

        config = MemoryConfig(bandwidth_bytes_per_sec=bandwidth)
        channel, gold = BankedMemoryChannel(config), RefBankedChannel(config)
        assert channel.transfer_cycles == config.cycles_per_line_transfer
        for now, address, data, is_read in self.requests():
            if is_read:
                assert (channel.read(now, address, data)
                        == gold.read(now, address, data))
            else:
                channel.write(now, address, data)
                gold.write(now, address, data)

    @pytest.mark.parametrize("bandwidth", BANDWIDTHS)
    def test_link_compressed_channel(self, bandwidth):
        from repro.compression.cpack import CPackCompressor
        from repro.mem.link import MIN_TRANSFER_FRACTION, LinkCompressedChannel

        config = MemoryConfig(bandwidth_bytes_per_sec=bandwidth)
        channel = LinkCompressedChannel(config)
        assert channel.transfer_cycles == config.cycles_per_line_transfer
        sizer = CPackCompressor()
        free_at = 0.0
        for now, address, data, is_read in self.requests():
            fraction = min(1.0, max(MIN_TRANSFER_FRACTION,
                                    sizer.compress(data).size_bytes / 64))
            occupancy = config.cycles_per_line_transfer * fraction
            start = max(now, free_at)
            free_at = start + occupancy
            if is_read:
                assert channel.read(now, address, data) == (
                    start - now + config.dram_latency_cycles + occupancy)
            else:
                channel.write(now, address, data)
        assert channel._free_at == free_at

    def test_transfer_cycles_is_read_only(self):
        channel = MemoryChannel(MemoryConfig())
        with pytest.raises(AttributeError):
            channel.transfer_cycles = 1.0
