"""The MORC codec contract (:mod:`repro.morc.codecs`), for every algorithm.

A fill trials every active log and commits to one, so a trial must be
exact and free of side effects: ``trial`` leaves a log's codec state as
it was, and equals the bits ``commit`` then charges against that state;
bounded by a log's room, it reports the same size or "over".
Checked on the line contents of real traces, the way the fill path calls
the codec: trial against every active log, then commit to one of them.
"""

import itertools

import pytest

from repro.compression.lbe import CompressedLine, LbeDictionary
from repro.compression.lz import LzHistory
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
        bits, symbols = codec.commit(states[target], data, "contract")
        assert bits == trials[target]
        if algorithm == "lbe":
            assert isinstance(symbols, CompressedLine)
        else:
            assert symbols is None
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
