"""The MORC codec contract (:mod:`repro.morc.codecs`), for every algorithm.

A fill trials every active log and commits to one, so a trial must be
exact and free of side effects: ``trial`` leaves a log's codec state as
it was, and equals the bits ``commit`` then charges against that state;
bounded by a log's room, it reports the same size or "over".
Checked on the line contents of real traces, the way the fill path calls
the codec: trial against every active log, then commit to one of them.
LBE's commit builds no symbols, so it is held to the symbol encoder
here, and ``REPRO_VERIFY`` holds every commit of a run to it.
"""

import itertools

import pytest

from repro import settings
from repro.common.config import MorcConfig
from repro.common.errors import VerificationError
from repro.common.words import LINE_SIZE
from repro.compression.lbe import DICT_CAPACITY, LbeCompressor, LbeDictionary
from repro.compression.lz import LzHistory
from repro.morc.cache import MorcCache
from repro.morc.codecs import UNCOMPRESSED_LINE_BITS, make_codecs
from repro.workloads.spec import make_trace

ALGORITHMS = ("raw", "lbe", "cpack", "lz")
N_LOGS = 4
LINES_PER_LOG = 16


def _contents(state):
    """What a log's codec state holds, as plain comparable values."""
    if state is None:
        return None
    if isinstance(state, LbeDictionary):
        return ({size: dict(entries) for size, entries in state._maps.items()},
                {size: list(values) for size, values in state._values.items()})
    assert isinstance(state, LzHistory)
    return (bytes(state.data),
            {anchor: list(positions)
             for anchor, positions in state._anchors.items()})


def _trace_lines(program, count):
    return [record.data
            for record in itertools.islice(make_trace(program, 20_000), count)]


@pytest.mark.parametrize("program", ["gcc", "mcf"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trial_is_pure_and_equals_commit(algorithm, program):
    codec, _ = make_codecs(algorithm, tag_bases=2, verify=False)
    states = [codec.new_state() for _ in range(N_LOGS)]
    appended = [0] * N_LOGS
    for index, data in enumerate(_trace_lines(program, 300)):
        before = [_contents(state) for state in states]
        trials = [codec.trial(state, data, UNCOMPRESSED_LINE_BITS)
                  for state in states]
        # Bounded by a log's room, a trial is the same size, or None
        # exactly when the line needs more than the room.
        for state, bits in zip(states, trials):
            for limit in (0, bits - 1, bits, 300, 2 * UNCOMPRESSED_LINE_BITS):
                assert codec.trial(state, data, limit) == (
                    bits if bits <= limit else None)
        assert [_contents(state) for state in states] == before
        assert all(0 <= bits <= UNCOMPRESSED_LINE_BITS for bits in trials)
        target = index % N_LOGS
        bits, usage = codec.commit(states[target], data, "contract")
        assert bits == trials[target]
        if algorithm == "lbe":
            # Figure 7's bytes per kind cover the whole line.
            assert sum(usage.values()) == LINE_SIZE
        else:
            assert usage is None
        appended[target] += 1
        if appended[target] == LINES_PER_LOG:
            # The log closes; its reuse starts from a fresh state.
            states[target] = codec.new_state()
            appended[target] = 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_committed_lines_change_later_trials_only_for_stream_codecs(
        algorithm):
    codec, _ = make_codecs(algorithm, tag_bases=2, verify=False)
    state = codec.new_state()
    line = bytes(range(64))
    first = codec.trial(state, line, UNCOMPRESSED_LINE_BITS)
    codec.commit(state, line, "contract")
    again = codec.trial(state, line, UNCOMPRESSED_LINE_BITS)
    if algorithm in ("lbe", "lz"):
        assert again < first  # the log now holds the line
    else:
        assert again == first


def test_unknown_algorithm_rejected():
    from repro.common.errors import CacheError
    with pytest.raises(CacheError, match="unknown MORC data algorithm"):
        make_codecs("bdi", tag_bases=2, verify=False)


# -- LBE's commit against the symbol encoder ------------------------------


@pytest.mark.parametrize("program", ["gcc", "mcf", "h264ref"])
def test_lbe_commit_equals_the_symbol_encoder(program):
    """The commit allocates what ``compress`` allocates and returns its
    stream's size and bytes per kind, key order included, while the
    dictionary fills up and after it freezes."""
    lean, encoder = LbeCompressor(), LbeCompressor()
    committed, encoded = LbeDictionary(), LbeDictionary()
    for data in _trace_lines(program, 600):
        bits, usage = lean.commit(data, committed)
        compressed = encoder.compress(data, encoded)
        assert bits == compressed.size_bits
        assert list(usage.items()) == list(compressed.kind_bytes().items())
        assert committed._maps == encoded._maps
        assert committed._values == encoded._values
    assert all(committed.entry_count(size) == capacity
               for size, capacity in DICT_CAPACITY.items())


@pytest.fixture
def verified():
    settings.configure(verify=True)
    yield
    settings.reset()


def _slip_bits(commit):
    def one_bit_off(self, line, dictionary):
        bits, usage = commit(self, line, dictionary)
        return bits + 1, usage
    return one_bit_off


def _slip_usage(commit):
    def kinds_swapped(self, line, dictionary):
        bits, usage = commit(self, line, dictionary)
        return bits, dict(reversed(usage.items()))
    return kinds_swapped


def _slip_entry(commit):
    def entry_dropped(self, line, dictionary):
        result = commit(self, line, dictionary)
        dictionary._maps[4].pop(dictionary._values[4].pop())
        return result
    return entry_dropped


@pytest.mark.parametrize("slip, message", [
    (_slip_bits, "sized the line"),
    (_slip_usage, "bytes per symbol kind"),
    (_slip_entry, "left the log dictionary"),
], ids=["bits", "usage-order", "dictionary"])
def test_verify_catches_a_lean_commit_slip(verified, monkeypatch, slip,
                                           message):
    cache = MorcCache(8 * 1024, config=MorcConfig(n_active_logs=2))
    # Two literal words, a zero word and more: several kinds per line.
    data = (bytes(range(1, 9)) + bytes(4) + b"\x00\x00\x00\x07") * 4
    cache.fill(0, data)  # an honest commit passes
    monkeypatch.setattr(LbeCompressor, "commit",
                        slip(LbeCompressor.commit))
    with pytest.raises(VerificationError, match=message):
        cache.fill(64, bytes(reversed(data)))
