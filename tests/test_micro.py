"""Tests for the canonical microbenchmarks."""

import pytest

from repro.common.config import SystemConfig
from repro.mem.controller import MemoryChannel
from repro.sim.core import CoreSimulator
from repro.sim.system import make_llc
from repro.workloads.micro import MICROBENCHMARKS, make_micro_trace


class TestMicrobenchmarks:
    def test_all_build(self):
        for name in MICROBENCHMARKS:
            trace = make_micro_trace(name, 5_000)
            assert sum(1 + r.gap for r in trace) >= 5_000

    def test_unknown_micro(self):
        with pytest.raises(KeyError):
            make_micro_trace("fibonacci")

    def _run(self, name, scheme="MORC", n=20_000):
        config = SystemConfig()
        llc = make_llc(scheme, config)
        core = CoreSimulator(llc, MemoryChannel(config.memory), config)
        metrics = core.run(make_micro_trace(name, n))
        return llc, metrics

    def test_stream_misses_everything(self):
        llc, metrics = self._run("stream")
        assert metrics.llc_hits < 0.05 * metrics.l1_misses

    def test_hot_loop_hits_in_l1(self):
        _, metrics = self._run("hot_loop")
        assert metrics.l1_misses < 0.2 * metrics.l1_accesses

    def test_memset_compresses_maximally(self):
        llc, _ = self._run("memset")
        stats = llc.stats
        mean_bits = (stats.get("compressed_data_bits")
                     / max(1, stats.get("compressions")))
        assert mean_bits == pytest.approx(10.0)  # two z256 symbols

    def test_random_incompressible_stays_near_1x(self):
        llc, _ = self._run("random_incompressible")
        assert llc.compression_ratio() < 1.15

    def test_producer_consumer_creates_dead_lines(self):
        llc, _ = self._run("producer_consumer")
        assert llc.invalid_fraction() > 0.02
