"""Only MORC's active logs hold codec state (paper §3.2.1, §3.2.5).

A log gets fresh codec state and a tag stream as it goes active, and
drops both when it closes: a closed log is read-only, and a decompressor
replays it from its own stream.  These tests drive every data codec
under every tag layout long enough to close, reuse and flush logs, and
check after every fill that no closed or never-used log holds codec
state or a tag stream, that each active log holds what its codecs hand
out, and that the ``REPRO_VERIFY`` audit agrees.
"""

import contextlib
import random

import pytest

from repro.common.config import MorcConfig, SystemConfig
from repro.mem.controller import MemoryChannel
from repro.morc.cache import MorcCache
from repro.morc.codecs import ALGORITHMS
from repro.morc.log import Log
from repro.resilience import verify as res_verify
from repro.sim.core import CoreSimulator
from repro.workloads.spec import make_trace

LAYOUTS = {
    "separate": {},
    "merged": {"merged_tags": True},
    "unlimited": {"unlimited_metadata": True},
}


@contextlib.contextmanager
def at_each_close(check):
    """Run ``check(log)`` on every log just before it closes, while it
    still holds its codec state."""
    close = Log.close

    def checked_close(log):
        check(log)
        close(log)

    Log.close = checked_close
    try:
        yield
    finally:
        Log.close = close


class LifecycleCheckedMorc(MorcCache):
    """A MORC cache that checks which logs hold codec state after every
    fill and write-back."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checked = 0
        fresh_state = self._codec.new_state()
        fresh_stream = self._tag_compressor.new_stream()
        self._state_type = type(fresh_state)
        self._stream_type = type(fresh_stream)
        self._stream_bases = getattr(fresh_stream, "n_bases", None)

    def _insert(self, address, data, modified):
        result = super()._insert(address, data, modified)
        self.check_codec_state()
        return result

    def check_codec_state(self):
        active = set(self._active)
        assert len(active) == self.config.n_active_logs
        holding = 0
        for log in self.logs:
            if log.codec_state is not None or log.tag_stream is not None:
                holding += 1
            if log.index in active:
                assert not log.closed
                assert type(log.codec_state) is self._state_type
                assert type(log.tag_stream) is self._stream_type
                assert (getattr(log.tag_stream, "n_bases", None)
                        == self._stream_bases)
            else:
                # Closed or never used.
                assert log.codec_state is None
                assert log.tag_stream is None
        assert holding <= self.config.n_active_logs
        res_verify.audit(self)
        self.checked += 1


def _random_line(rng, pool):
    if rng.random() < 0.2:
        return bytes(64)
    return rng.choice(pool) + bytes(rng.randrange(256) for _ in range(32))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_small_cache_fills_close_reuse_and_flush(algorithm, layout):
    config = MorcConfig(n_active_logs=2, lmt_overprovision=8, lmt_ways=2,
                        **LAYOUTS[layout])
    cache = LifecycleCheckedMorc(8 * 1024, config=config,
                                 algorithm=algorithm)
    closing = []
    rng = random.Random(11)
    pool = [bytes(rng.randrange(256) for _ in range(32)) for _ in range(6)]
    with at_each_close(lambda log: closing.append(
            (log.codec_state, log.tag_stream))):
        # Superseding a few hot lines leaves closed logs all dead, so
        # they are reused without a flush; a wide sweep flushes.
        for round_number in range(30):
            for index in range(8):
                cache.writeback(index * 64, _random_line(rng, pool))
        for index in range(600):
            cache.fill((64 + index) * 64, _random_line(rng, pool))
    assert cache.stats.get("log_reuses") > 0
    assert cache.stats.get("log_flushes") > 0
    assert len(closing) == cache.stats.get("log_closures")
    assert cache.checked == 840
    # Each log closed holding what an active log holds.
    for codec_state, tag_stream in closing:
        assert type(codec_state) is cache._state_type
        assert type(tag_stream) is cache._stream_type


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trace_replay_keeps_codec_state_on_active_logs_only(algorithm,
                                                            layout):
    config = SystemConfig()
    morc = MorcConfig(**LAYOUTS[layout])
    # An 8KB LLC, so logs close and are flushed within a short replay.
    llc = LifecycleCheckedMorc(8 * 1024, config=morc, algorithm=algorithm)
    core = CoreSimulator(llc, MemoryChannel(config.memory), config)
    for record in make_trace("mcf", 3_000):
        core.step(record)
    assert llc.checked > 100
    assert llc.stats.get("log_closures") > 0
    assert llc.stats.get("log_flushes") > 0
