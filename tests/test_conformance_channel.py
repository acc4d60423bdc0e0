"""Differential conformance: FCFS/banked memory channels vs the naive
event-list references.

The references recompute every service horizon by scanning the full
event history; the production channels keep one incremental float per
resource.  The two must agree bit-for-bit — same max/add arithmetic in
the same order — so latency comparisons here use exact equality.
"""

import pytest

from repro.common.config import MemoryConfig
from repro.conformance import run_check
from repro.conformance.reference import RefBankedChannel, RefFcfsChannel
from repro.mem.banked import BankedMemoryChannel
from repro.mem.controller import MemoryChannel
from repro.mem.dram import DEFAULT_DDR3

pytestmark = pytest.mark.conformance

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_channels_conform(seed):
    report = run_check(seeds=[seed], components=["channels"])
    assert report.passed, report.render()


def test_reference_fcfs_matches_incremental_horizon():
    config = MemoryConfig()
    prod, gold = MemoryChannel(config), RefFcfsChannel(config)
    arrivals = [0.0, 10.0, 10.0, 5000.0, 5100.0]
    for now in arrivals:
        assert prod.read(now) == gold.read(now)
    assert prod._free_at == gold._server_free_at()


def test_banked_burst_duration_is_in_core_cycles():
    """Regression: the bus hand-off used to subtract memory-clock cycles
    (4.0 for DDR3-1600) from core-cycle timestamps; the burst lasts
    ``data_cycles / f_mem * f_core`` core cycles (10 at 2 GHz)."""
    config = MemoryConfig()
    channel = BankedMemoryChannel(config)
    expected = (DEFAULT_DDR3.data_cycles / DEFAULT_DDR3.frequency_hz
                * config.clock_hz)
    assert channel._burst_cycles == pytest.approx(expected)
    assert channel._burst_cycles == pytest.approx(10.0)

