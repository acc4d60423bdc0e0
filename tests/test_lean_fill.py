"""MORC's lean fill path against the rules it replaced.

Each piece below was rewritten to do less work per fill and must make
exactly the decisions of the plain rule it replaced, kept here as the
reference:

- :func:`repro.morc.policies.choose_log` takes one pass over the
  candidates; the reference takes ``min``/``max`` with key functions.
- :meth:`repro.compression.tag_compression.TagCompressor.append` sizes
  each base by :meth:`~TagCompressor.measure`'s O(1) rule and builds one
  token; the reference builds a token per base with
  :func:`distance_code` and keeps the first smallest.
- :func:`repro.compression.lbe._decompose` builds word nodes inline and
  shares its zero nodes; the reference nests a loop per level.

The floor that lets a bounded LBE trial skip its walk is held to the
seed oracle at every limit by ``tests/test_size_kernels.py``
(``assert_bounded_measure_exact``); here it is also shown to be
reached.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.words import from_words32
from repro.compression.lbe import (
    LbeCompressor,
    LbeDictionary,
    _decompose,
    _plan_floor,
)
from repro.compression.tag_compression import (
    MAX_DISTANCE,
    TagCompressor,
    TagToken,
    distance_code,
)
from repro.morc.log import Log
from repro.morc.policies import PlacementCandidate, choose_log


# -- references: the rules the lean code replaced -----------------------------

def reference_choose_log(candidates, fudge_factor=0.05):
    if not candidates:
        return None
    best = min(candidates, key=lambda c: c.data_bits)
    worst = max(candidates, key=lambda c: c.data_bits)
    if worst.data_bits == 0:
        return best
    spread = (worst.data_bits - best.data_bits) / worst.data_bits
    if spread <= fudge_factor:
        return max(candidates, key=lambda c: c.log.free_data_bits)
    return best


def reference_append(compressor, stream, line_address):
    best = None
    for slot, base in enumerate(stream.bases):
        if base is None:
            continue
        delta = line_address - base
        if delta == 0 or abs(delta) > MAX_DISTANCE:
            continue
        code, extra, value = distance_code(abs(delta))
        token = TagToken("delta", slot, compressor._delta_base_bits + extra,
                         code=code, sign=1 if delta < 0 else 0,
                         precision_value=value)
        if best is None or token.size_bits < best.size_bits:
            best = token
    if best is None:
        best = TagToken("new_base", stream.lru[0], compressor._new_base_bits,
                        line_address=line_address)
    TagCompressor._apply(stream, best, line_address)
    stream.total_bits += best.size_bits
    stream.n_tags += 1
    return best


_Z4, _Z8, _Z16, _Z32 = bytes(4), bytes(8), bytes(16), bytes(32)
_U8, _U16, _U32 = 12, 19, 34


def reference_decompose(line):
    tree = []
    for chunk in (line[:32], line[32:]):
        if chunk == _Z32:
            tree.append((None, ()))
            continue
        halves = []
        for half in (chunk[:16], chunk[16:]):
            if half == _Z16:
                halves.append((None, ()))
                continue
            quarters = []
            for quarter in (half[:8], half[8:]):
                if quarter == _Z8:
                    quarters.append((None, ()))
                    continue
                words = []
                for word in (quarter[:4], quarter[4:]):
                    if word == _Z4:
                        words.append((None, 0))
                        continue
                    if word[0] or word[1]:
                        words.append((word, _U32))
                    elif word[2]:
                        words.append((word, _U16))
                    else:
                        words.append((word, _U8))
                quarters.append((quarter, tuple(words)))
            halves.append((half, tuple(quarters)))
        tree.append((chunk, tuple(halves)))
    return tuple(tree)


# -- choose_log ------------------------------------------------------------------

def log_with(index, used_bits):
    log = Log(index=index, data_capacity_bits=4096, tag_capacity_bits=None)
    if used_bits:
        log.append(0, bytes(64), used_bits, 0)
    return log


#: few distinct values, so sizes and free space tie often
candidate_specs = st.lists(
    st.tuples(st.sampled_from([0, 1, 95, 96, 97, 100, 120, 512]),
              st.sampled_from([0, 8, 2000]),
              st.integers(0, 40)),
    max_size=8)


@settings(max_examples=300, deadline=None)
@given(candidate_specs, st.sampled_from([0.0, 0.05, 0.2, 1.0]))
def test_choose_log_matches_the_min_max_rule(specs, fudge_factor):
    candidates = [PlacementCandidate(log_with(index, used), data_bits, tag)
                  for index, (data_bits, used, tag) in enumerate(specs)]
    assert (choose_log(candidates, fudge_factor)
            is reference_choose_log(candidates, fudge_factor))


def test_choose_log_ties_go_to_the_earliest():
    fuller, emptier, twin = log_with(0, 2000), log_with(1, 8), log_with(2, 8)
    same = [PlacementCandidate(log, 100, 10) for log in (fuller, emptier, twin)]
    assert choose_log(same).log is emptier      # tied free space
    split = [PlacementCandidate(fuller, 50, 10),
             PlacementCandidate(emptier, 100, 10),
             PlacementCandidate(twin, 50, 10)]
    assert choose_log(split).log is fuller      # tied smallest size


# -- TagCompressor.append ----------------------------------------------------------

#: addresses that repeat, sit within every distance code of each other,
#: straddle MAX_DISTANCE, or need a new base
addresses = st.lists(
    st.one_of(st.integers(0, 40),
              st.integers(MAX_DISTANCE - 2, MAX_DISTANCE + 42),
              st.integers(0, 1 << 20)),
    min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2]), addresses)
def test_append_matches_the_per_slot_scan(n_bases, line_addresses):
    compressor = TagCompressor(n_bases=n_bases)
    live, reference = compressor.new_stream(), compressor.new_stream()
    for line_address in line_addresses:
        measured = compressor.measure(live, line_address)
        token = compressor.append(live, line_address)
        expected = reference_append(compressor, reference, line_address)
        assert tuple(token) == tuple(expected)
        assert token._fields == expected._fields
        assert measured == expected.size_bits
        assert live == reference


def test_append_tie_goes_to_the_first_base():
    compressor = TagCompressor(n_bases=2)
    stream = compressor.new_stream()
    for line_address in (100, 40_100, 20_100):
        token = compressor.append(stream, line_address)
    # 20,100 is 20,000 lines from both bases: the first slot wins
    assert (token.kind, token.base_slot, token.sign) == ("delta", 0, 0)


# -- the LBE plan -------------------------------------------------------------------

words = st.one_of(st.just(0), st.integers(1, 0xFF), st.integers(0x100, 0xFFFF),
                  st.integers(0x10000, 0xFFFFFF), st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(words, min_size=16, max_size=16),
       st.sampled_from(["as-is", "zero low chunk", "zero high chunk",
                        "zero half", "zero quarter", "repeat"]))
def test_plan_matches_the_nested_builder(values, shape):
    if shape == "zero low chunk":
        values[:8] = [0] * 8
    elif shape == "zero high chunk":
        values[8:] = [0] * 8
    elif shape == "zero half":
        values[4:8] = [0] * 4
    elif shape == "zero quarter":
        values[10:12] = [0] * 2
    elif shape == "repeat":
        values[8:] = values[:8]
    line = from_words32(values)
    assert _decompose(line) == reference_decompose(line)


def test_plan_floor_is_reached():
    """The floor is each chunk's smallest encoding, and lines reach it."""
    compressor = LbeCompressor()
    assert _plan_floor(_decompose(bytes(64))) == 10
    assert compressor.measure(bytes(64), LbeDictionary()) == 10
    line = from_words32([0x12345678 + i for i in range(16)])
    dictionary = LbeDictionary()
    compressor.commit(line, dictionary)
    assert _plan_floor(_decompose(line)) == 18
    assert compressor.measure(line, dictionary) == 18
    assert compressor.measure(line, dictionary, 17) is None
