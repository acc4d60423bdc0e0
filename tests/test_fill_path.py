"""Differential test of MORC's fill path against the LBE oracles.

Every fill of a real trace replay is checked as it happens.  The trial
returns the log the literal placement rule of
:mod:`repro.conformance.reference` picks from all-exact oracle trials of
every active log, and leaves every dictionary as it was; the commit,
which keeps no symbol stream, charges the oracle stream's clamped size
and adds the oracle stream's bytes per symbol kind to Figure 7's
counters; the production encoder's stream equals the oracle's; and the
chosen log's dictionary ends up exactly where the oracle leaves its
copy.  Unit cases cover the dictionary freeze edge and the compressor's
per-line plan cache; the last ones check what a filled cache keeps.
"""

import gc
import random

import pytest

from repro.common.config import SystemConfig
from repro.compression.lbe import (
    DICT_CAPACITY,
    CompressedLine,
    LbeCompressor,
    LbeDictionary,
    Symbol,
)
from repro.conformance.oracles import (
    reference_lbe_compress,
    reference_lbe_measure,
)
from repro.mem.controller import MemoryChannel
from repro.morc.cache import MorcCache
from repro.morc.codecs import UNCOMPRESSED_LINE_BITS
from repro.sim.core import CoreSimulator
from repro.workloads.spec import make_trace
from tests.test_placement import literal_choice

pytestmark = pytest.mark.conformance


class OracleCheckedMorc(MorcCache):
    """A MORC cache that checks each fill against the oracles."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fills = 0
        self.commits = 0
        self.left_out = 0
        self._expected_log = None

    def _trial_all(self, line_address, data):
        logs = [self.logs[index] for index in self._active]
        exact = [min(reference_lbe_measure(data, log.codec_state),
                     UNCOMPRESSED_LINE_BITS) for log in logs]
        tags = [self._tag_compressor.measure(log.tag_stream, line_address)
                for log in logs]
        self.left_out += sum(not log.fits(bits, tag)
                             for log, bits, tag in zip(logs, exact, tags))
        # The pass picks the log the literal rule picks from all-exact
        # oracle trials of every active log, or None when none fits.
        self._expected_log = literal_choice(self, line_address, data)
        before = [log.codec_state.copy() for log in logs]
        choice = super()._trial_all(line_address, data)
        assert choice is self._expected_log
        # The bounded trials left every dictionary as it was.
        for log, copy in zip(logs, before):
            assert log.codec_state._values == copy._values
        self.fills += 1
        return choice

    def _commit_append(self, log, line_address, data):
        if self._expected_log is None:
            # Nothing fits: a fresh log replaced a retired active one.
            assert not log.entries
        else:
            assert log is self._expected_log
        oracle_dictionary = log.codec_state.copy()
        encoded = LbeCompressor().compress(data, log.codec_state,
                                           commit=False)
        expected = reference_lbe_compress(data, oracle_dictionary)
        assert encoded.symbols == expected.symbols
        usage, zero_usage = (dict(self.symbol_usage),
                             dict(self.symbol_zero_usage))
        entry = super()._commit_append(log, line_address, data)
        assert entry.data_bits == min(expected.size_bits,
                                      UNCOMPRESSED_LINE_BITS)
        # Figure 7's counters grow by the oracle stream's bytes per kind,
        # and a kind new to them joins in the stream's order.
        kind_bytes = expected.kind_bytes()
        assert {kind: total - usage.get(kind, 0)
                for kind, total in self.symbol_usage.items()
                if total != usage.get(kind, 0)} == kind_bytes
        assert list(self.symbol_usage) == list(usage) + [
            kind for kind in kind_bytes if kind not in usage]
        assert {kind: total - zero_usage.get(kind, 0)
                for kind, total in self.symbol_zero_usage.items()
                if total != zero_usage.get(kind, 0)} == {
            kind: size for kind, size in kind_bytes.items()
            if kind.startswith("z")}
        assert log.codec_state._maps == oracle_dictionary._maps
        assert log.codec_state._values == oracle_dictionary._values
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
    assert llc.fills == llc.commits
    # The trial count still covers every active log of every fill, and
    # some fills did leave logs out.
    assert (llc.stats.get("trial_compressions")
            == config.morc.n_active_logs * llc.commits)
    assert llc.left_out > 0


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


# -- what a filled cache keeps ------------------------------------------


def _filled_cache(program="gcc", instructions=4_000):
    config = SystemConfig()
    llc = MorcCache(16 * 1024, config=config.morc)
    core = CoreSimulator(llc, MemoryChannel(config.memory), config)
    for record in make_trace(program, instructions):
        core.step(record)
    return llc


def _live(kinds):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, kinds))


def test_filled_cache_keeps_no_symbol_streams():
    streams = (Symbol, CompressedLine)
    before = _live(streams)
    llc = _filled_cache()
    assert llc.stats.get("compressions") > 100
    assert sum(llc.symbol_usage.values()) > 0
    # A commit builds no symbols, and a verified one drops the stream it
    # checked against.
    assert _live(streams) <= before


def test_only_active_logs_hold_codec_state():
    config = SystemConfig()
    llc = MorcCache(128 * 1024, config=config.morc)
    for index in llc._free_pool:
        assert llc.logs[index].codec_state is None
        assert llc.logs[index].tag_stream is None
    core = CoreSimulator(llc, MemoryChannel(config.memory), config)
    for record in make_trace("mcf", 3_000):
        core.step(record)
    never_used = set(llc._free_pool)
    assert never_used and len(never_used) < len(llc.logs)
    assert llc.stats.get("log_closures") > 0
    for log in llc.logs:
        if log.index in llc._active:
            assert isinstance(log.codec_state, LbeDictionary)
            assert log.tag_stream is not None
            continue
        # Never used, or closed: a closed log dropped its state.
        assert log.codec_state is None and log.tag_stream is None
        if log.index in never_used:
            assert log.generation == 0 and not log.entries
        else:
            assert log.closed and log.entries
