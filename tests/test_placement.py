"""MORC's one-pass placement against the literal rule, on real logs.

:meth:`MorcCache._trial_all` sizes the tag only where a log's room
depends on it, bounds every trial by the room left and, once two sizes
differ by more than the fudge factor, by one bit under the smallest.
Each case here builds active logs with real LBE dictionaries and tag
streams, under the separate, merged and unlimited tag layouts, and
holds the log the pass returns to the literal rule of
:mod:`repro.conformance.reference`: every active log sized exactly by
the seed oracle, the tag measured, then min/max with the fudge factor.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import MorcConfig
from repro.conformance.oracles import reference_lbe_measure
from repro.conformance.reference import RefMorcCache
from repro.morc.cache import MorcCache
from repro.morc.codecs import UNCOMPRESSED_LINE_BITS

LAYOUTS = {
    "separate": {},
    "merged": {"merged_tags": True},
    "unlimited": {"unlimited_metadata": True},
}


class _LiteralLog:
    """A production log as the reference's placement rule reads one."""

    def __init__(self, log) -> None:
        self.log = log

    def fits(self, data_bits: int, tag_bits: int) -> bool:
        return self.log.fits(data_bits, tag_bits)

    def free_data_bits(self) -> int:
        return self.log.free_data_bits


def literal_choice(cache, line_address, data):
    """The log the reference's rule picks over exact sizes in every
    active log, or None."""
    candidates = []
    for index in cache._active:
        log = cache.logs[index]
        bits = min(reference_lbe_measure(data, log.codec_state),
                   UNCOMPRESSED_LINE_BITS)
        tag = cache._tag_compressor.measure(log.tag_stream, line_address)
        candidates.append((_LiteralLog(log), bits, tag))
    choice = RefMorcCache._choose_log(cache, candidates)
    return None if choice is None else choice[0].log


def checked_choice(cache, line_address, data):
    """The pass's choice, held to the literal one; every active log still
    counts as a trial."""
    expected = literal_choice(cache, line_address, data)
    trials = cache.stats.get("trial_compressions")
    choice = cache._trial_all(line_address, data)
    assert choice is expected
    assert (cache.stats.get("trial_compressions")
            == trials + len(cache._active))
    return choice


def make_cache(layout, n_active, fudge_factor):
    return MorcCache(8 * 1024, MorcConfig(n_active_logs=n_active,
                                          fudge_factor=fudge_factor,
                                          **LAYOUTS[layout]))


def active(cache):
    return [cache.logs[index] for index in cache._active]


def pool(seed):
    """A probe line and lines sharing some of its 32/16/8/4-byte blocks,
    so logs that saw different lines size the probe differently, and
    logs that saw the same ones tie."""
    rng = random.Random(seed)

    def block(size):
        return bytes(rng.choice((0, 0, 1, 7, 0x40, 0xFF))
                     if rng.random() < 0.3 else rng.randrange(256)
                     for _ in range(size))

    probe = block(64)
    other = block(64)
    return probe, [
        probe,
        probe[:32] + other[32:],                    # the first chunk
        other[:16] + probe[16:32] + other[32:],     # one half
        probe[40:48] * 4 + other[:32],              # a quarter, moved
        probe[4:8] * 16,                            # a word
        other,
        bytes(32) + probe[32:],                     # zeros and a chunk
    ]


def fill(cache, log, lines, base):
    """Commit ``lines`` to ``log`` as fills would."""
    for offset, line in enumerate(lines):
        cache._commit_append(log, base + offset, line)


def pad(cache, log, line_address, data, room_offset, tag_left):
    """Leave the log ``room_offset`` bits more data room than ``data``
    needs beside its tag, and ``tag_left`` bits of a separate tag
    region, where it can: rooms near the fit boundary."""
    data_bits = tag_bits = 0
    if room_offset is not None:
        needed = min(reference_lbe_measure(data, log.codec_state),
                     UNCOMPRESSED_LINE_BITS) + room_offset
        if log.merged:
            needed += cache._tag_compressor.measure(log.tag_stream,
                                                    line_address)
        data_bits = max(0, log.free_data_bits - needed)
    if tag_left is not None and log.tag_capacity_bits is not None:
        tag_bits = max(0, log.tag_capacity_bits - log.tag_bits_used
                       - tag_left)
    if (data_bits or tag_bits) and log.fits(data_bits, tag_bits):
        log.append(0, bytes(64), data_bits, tag_bits)


log_specs = st.lists(
    st.tuples(st.lists(st.integers(0, 6), max_size=3),
              st.none() | st.integers(-64, 64),
              st.none() | st.integers(0, 60)),
    min_size=1, max_size=6)


@settings(max_examples=400, deadline=None)
@given(layout=st.sampled_from(sorted(LAYOUTS)),
       fudge_factor=st.sampled_from([0.0, 0.05, 0.99]),
       seed=st.integers(0, 7),
       specs=log_specs,
       address=st.sampled_from([0, 3, 40, 1_000, 1_000_000]))
def test_the_pass_returns_the_literal_rules_log(layout, fudge_factor, seed,
                                                specs, address):
    cache = make_cache(layout, len(specs), fudge_factor)
    probe, lines = pool(seed)
    for position, (log, (picks, room_offset, tag_left)) in enumerate(
            zip(active(cache), specs)):
        fill(cache, log, [lines[pick] for pick in picks], 100 * position)
        pad(cache, log, address, probe, room_offset, tag_left)
    checked_choice(cache, address, probe)


# -- the cases the bound must get right ------------------------------------


def settled_logs(layout="separate"):
    """Three active logs: one that saw the probe, one that saw only a
    stranger, and a last one set by each test; the first two differ by
    far more than the 5% fudge factor."""
    cache = make_cache(layout, 3, 0.05)
    probe, lines = pool(3)
    seen, stranger, last = active(cache)
    fill(cache, seen, [lines[1]], 0)
    fill(cache, stranger, [lines[5]], 100)
    return cache, probe, lines, last


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_later_log_beats_the_settled_smallest(layout):
    cache, probe, lines, last = settled_logs(layout)
    fill(cache, last, [lines[0]], 200)
    assert checked_choice(cache, 1, probe) is last


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_later_tie_with_the_settled_smallest_loses(layout):
    cache, probe, lines, last = settled_logs(layout)
    fill(cache, last, [lines[1]], 200)
    seen = active(cache)[0]
    assert checked_choice(cache, 1, probe) is seen


def test_a_merged_log_is_sized_with_its_own_tag():
    """A merged log whose room fits the line beside its measured tag, but
    not beside the largest tag, still takes the line."""
    cache = make_cache("merged", 2, 0.05)
    probe, lines = pool(5)
    roomy, tight = active(cache)
    fill(cache, tight, [lines[1]], 1_000)
    bits = min(reference_lbe_measure(probe, tight.codec_state),
               UNCOMPRESSED_LINE_BITS)
    tag = cache._tag_compressor.measure(tight.tag_stream, 1_001)
    pad(cache, tight, 1_001, probe, 0, None)
    assert tight.data_room(tag) == bits
    beside_largest = tight.data_room(cache._tag_compressor.max_token_bits)
    assert beside_largest is not None and beside_largest < bits
    # The roomy log has seen none of the probe, so the tight one is
    # smaller by far more than the fudge factor.
    assert checked_choice(cache, 1_001, probe) is tight
