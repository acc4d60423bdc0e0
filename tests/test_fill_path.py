"""Differential test of MORC's fill path against the LBE oracles.

Every fill of a real trace replay is checked as it happens: the trial
size against each active log equals the oracle measure, the committed
symbol stream equals the oracle encoder's, and the chosen log's
dictionary ends up exactly where the oracle leaves its copy.  Unit cases
cover the dictionary freeze edge and the compressor's per-line plan
cache.
"""

import random

import pytest

from repro.common.config import SystemConfig
from repro.compression.lbe import DICT_CAPACITY, LbeCompressor, LbeDictionary
from repro.conformance.oracles import (
    reference_lbe_compress,
    reference_lbe_measure,
)
from repro.mem.controller import MemoryChannel
from repro.morc.cache import UNCOMPRESSED_LINE_BITS, MorcCache
from repro.sim.core import CoreSimulator
from repro.workloads.spec import make_trace

pytestmark = pytest.mark.conformance


class OracleCheckedMorc(MorcCache):
    """A MORC cache that checks each fill against the oracles."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trials = 0
        self.commits = 0

    def _trial_all(self, line_address, data):
        logs = [self.logs[index] for index in self._active]
        expected = [reference_lbe_measure(data, log.dictionary)
                    for log in logs]
        candidates = super()._trial_all(line_address, data)
        assert [candidate.data_bits for candidate in candidates] == [
            min(bits, UNCOMPRESSED_LINE_BITS) for bits in expected]
        # Unclamped sizes: answered from the memo the trial just filled.
        assert [self._compressor.measure(data, log.dictionary)
                for log in logs] == expected
        self.trials += len(logs)
        return candidates

    def _commit_append(self, log, line_address, data):
        oracle_dictionary = log.dictionary.copy()
        expected = reference_lbe_compress(data, oracle_dictionary)
        entry = super()._commit_append(log, line_address, data)
        assert entry.compressed.symbols == expected.symbols
        assert log.dictionary._maps == oracle_dictionary._maps
        assert log.dictionary._values == oracle_dictionary._values
        self.commits += 1
        return entry


@pytest.mark.parametrize("program", ["gcc", "mcf", "h264ref", "soplex"])
def test_every_fill_matches_the_oracles(program):
    config = SystemConfig()
    # A 16KB LLC, so logs close and are flushed within a short replay.
    llc = OracleCheckedMorc(16 * 1024, config=config.morc)
    core = CoreSimulator(llc, MemoryChannel(config.memory), config)
    for record in make_trace(program, 4_000):
        core.step(record)
    assert llc.commits > 100
    assert llc.trials == config.morc.n_active_logs * llc.commits


# -- the freeze edge ----------------------------------------------------


def _one_short_of_capacity() -> LbeDictionary:
    """A dictionary with room for exactly one more entry per granularity;
    its blocks start with 0xA5, which no probe line below contains."""
    dictionary = LbeDictionary()
    for size, capacity in DICT_CAPACITY.items():
        for index in range(capacity - 1):
            assert dictionary.insert(
                b"\xa5" + index.to_bytes(size - 1, "big"))
    return dictionary


def _probe_lines():
    rng = random.Random(7)

    def block(size):
        return bytes(rng.randrange(1, 0xA5) for _ in range(size))

    chunk, half, quarter, word = block(32), block(16), block(8), block(4)
    narrow = (b"\x00\x00\x00\x17" + b"\x00\x00\x12\x34"
              + bytes(8) + block(16))
    return [
        block(64),                                  # nothing repeats
        chunk + chunk,                              # repeated 256b chunk
        half + half + block(32),                    # repeated 128b half
        quarter * 8,                                # repeated 64b quarter
        word * 16,                                  # repeated 32b word
        narrow + narrow[::-1],                      # u8/u16 and zero words
    ]


@pytest.mark.parametrize("index", range(len(_probe_lines())))
def test_freeze_edge_matches_the_oracles(index):
    line = _probe_lines()[index]
    live, oracle = _one_short_of_capacity(), _one_short_of_capacity()
    compressor = LbeCompressor()
    assert (compressor.measure(line, live)
            == reference_lbe_measure(line, oracle))
    encoded = compressor.compress(line, live)
    expected = reference_lbe_compress(line, oracle)
    assert encoded.symbols == expected.symbols
    assert live._maps == oracle._maps
    assert live._values == oracle._values
    for size, capacity in DICT_CAPACITY.items():
        assert live.entry_count(size) <= capacity
    # Frozen now: the same line again must not grow the dictionary.
    assert (compressor.measure(line, live)
            == reference_lbe_measure(line, oracle))
    assert (compressor.compress(line, live).symbols
            == reference_lbe_compress(line, oracle).symbols)
    assert live._values == oracle._values


# -- the plan cache -----------------------------------------------------


def test_plan_cache_keys_on_content_not_identity():
    compressor = LbeCompressor()
    warm, cold = LbeDictionary(), LbeDictionary()
    line = bytes(range(1, 65))
    reference_lbe_compress(bytes(range(3, 67)), warm)
    twin = bytes(bytearray(line))
    assert twin is not line and twin == line
    assert compressor.measure(line, warm) == reference_lbe_measure(line, warm)
    assert compressor.measure(twin, cold) == reference_lbe_measure(twin, cold)
    assert (compressor.measure(bytearray(line), cold)
            == reference_lbe_measure(line, cold))
    # Lines that differ only in their last byte never share a plan.
    for last in range(1, 33):
        probe = line[:-1] + bytes([last])
        assert (compressor.measure(probe, warm)
                == reference_lbe_measure(probe, warm))
        assert (compressor.compress(probe, cold, commit=False).symbols
                == reference_lbe_compress(probe, cold, commit=False).symbols)
    # Short-lived lines of different content.
    for seed in range(64):
        probe = bytes((seed * 37 + offset * (seed % 5)) % 251 + 1
                      for offset in range(64))
        assert (compressor.measure(probe, warm)
                == reference_lbe_measure(probe, warm))
        assert (compressor.compress(probe, cold, commit=False).symbols
                == reference_lbe_compress(probe, cold, commit=False).symbols)
