"""Tests for memory-link compression and the extension harness."""

import pytest

from repro.common.config import MemoryConfig
from repro.common.words import from_words32
from repro.mem.link import LinkCompressedChannel


def channel(**kwargs):
    return LinkCompressedChannel(MemoryConfig(), **kwargs)


class TestLinkCompressedChannel:
    def test_compressible_transfer_is_cheaper(self):
        link = channel()
        zero = bytes(64)
        latency = link.read(0.0, 0, zero)
        plain_latency = link.read(1e9, 0, None)
        assert latency < plain_latency

    def test_floor_applies(self):
        link = channel(min_fraction=0.5)
        latency = link.read(0.0, 0, bytes(64))
        expected_occupancy = link.transfer_cycles * 0.5
        assert latency == pytest.approx(
            expected_occupancy + link.config.dram_latency_cycles)

    def test_incompressible_costs_full_slot(self):
        import random
        rng = random.Random(0)
        link = channel()
        data = from_words32([rng.randrange(1 << 24, 1 << 32)
                             for _ in range(16)])
        latency = link.read(0.0, 0, data)
        assert latency >= link.config.dram_latency_cycles \
            + link.transfer_cycles * 0.9

    def test_missing_data_falls_back(self):
        link = channel()
        assert link.read(0.0, 0, None) == pytest.approx(
            link.config.dram_latency_cycles + link.transfer_cycles)

    def test_mean_fraction_tracked(self):
        link = channel()
        link.read(0.0, 0, bytes(64))
        stats = link.stats
        assert stats.get("compressed_transfers") == 1
        assert 0.0 < stats.get("transfer_fraction_sum") <= 1.0

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            channel(min_fraction=0.0)

    def test_writes_also_compress(self):
        link = channel()
        link.write(0.0, 0, bytes(64))
        assert link.stats.get("compressed_transfers") == 1


class TestExtensionHarness:
    def test_link_compression_stacks_with_morc(self):
        from repro.experiments import extensions
        result = extensions.run(benchmarks=["gcc"],
                                n_instructions=25_000)
        tp = result.link_throughput
        assert tp["MORC+link"][0] >= tp["MORC"][0] * 0.98
        assert tp["Uncompressed+link"][0] >= tp["Uncompressed"][0] * 0.98
        # Both banked and simple channels produce live results.
        assert all(v > 0 for values in result.banked_vs_simple.values()
                   for v in values)

    def test_render(self):
        from repro.experiments import extensions
        result = extensions.run(benchmarks=["gcc"],
                                n_instructions=15_000)
        text = extensions.render(result)
        assert "link" in text and "banked" in text
