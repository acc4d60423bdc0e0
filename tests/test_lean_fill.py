"""MORC's lean fill path against the rules it replaced.

Each piece below was rewritten to do less work per fill and must make
exactly the decisions of the plain rule it replaced, kept here as the
reference:

- :meth:`repro.morc.cache.MorcCache._trial_all` chooses the log in the
  same pass that sizes the line, bounding later trials once the choice
  is settled; the reference takes ``min``/``max`` with key functions
  over every size.
- :meth:`repro.compression.tag_compression.TagCompressor.append` sizes
  each base by :meth:`~TagCompressor.measure`'s O(1) rule and builds no
  token (:meth:`~TagCompressor.append_token` rebuilds the one it
  emitted); the reference builds a token per base with
  :func:`distance_code` and keeps the first smallest.
- :func:`repro.compression.lbe._decompose` builds each 64-bit node with
  its two words inline and shares its zero nodes; the reference nests a
  loop per level.

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
    TagStream,
    TagToken,
    distance_code,
)
from tests.test_policies import active, sized_cache


# -- references: the rules the lean code replaced -----------------------------

def reference_choose_log(candidates, fudge_factor=0.05):
    """``candidates``: (log, data bits) for each log the line fits in."""
    if not candidates:
        return None
    best = min(candidates, key=lambda c: c[1])
    worst = max(candidates, key=lambda c: c[1])
    if worst[1] == 0:
        return best[0]
    spread = (worst[1] - best[1]) / worst[1]
    if spread <= fudge_factor:
        return max(candidates, key=lambda c: c[0].free_data_bits)[0]
    return best[0]


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
    TagCompressor._apply(stream, best.base_slot, line_address)
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
                    quarters.append((None, None, 0, None, 0))
                    continue
                node = [quarter]
                for word in (quarter[:4], quarter[4:]):
                    if word == _Z4:
                        node += [None, 0]
                    elif word[0] or word[1]:
                        node += [word, _U32]
                    elif word[2]:
                        node += [word, _U16]
                    else:
                        node += [word, _U8]
                quarters.append(tuple(node))
            halves.append((half, tuple(quarters)))
        tree.append((chunk, tuple(halves)))
    return tuple(tree)


# -- the log choice --------------------------------------------------------------

#: few distinct values, so sizes and free space tie often
candidate_specs = st.lists(
    st.tuples(st.sampled_from([0, 1, 95, 96, 97, 100, 120, 512]),
              st.sampled_from([0, 8, 2000, 3600])),
    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(candidate_specs, st.sampled_from([0.0, 0.05, 0.2, 0.99]))
def test_choose_log_matches_the_min_max_rule(specs, fudge_factor):
    sizes, used = zip(*specs)
    cache = sized_cache(list(sizes), used, fudge_factor)
    candidates = [(log, bits) for log, bits in zip(active(cache), sizes)
                  if bits <= log.free_data_bits]
    assert (cache._trial_all(7, bytes(64))
            is reference_choose_log(candidates, fudge_factor))


def test_choose_log_ties_go_to_the_earliest():
    cache = sized_cache([100, 100, 100], used=[2000, 8, 8])
    assert cache._trial_all(7, bytes(64)) is active(cache)[1]  # tied free
    cache = sized_cache([50, 100, 50], used=[2000, 8, 8])
    assert cache._trial_all(7, bytes(64)) is active(cache)[0]  # tied size


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
        twin = TagStream(n_bases, list(live.bases), list(live.lru),
                         live.total_bits, live.n_tags)
        token = compressor.append_token(live, line_address)
        expected = reference_append(compressor, reference, line_address)
        assert compressor.append(twin, line_address) == expected.size_bits
        assert twin == reference
        assert tuple(token) == tuple(expected)
        assert token._fields == expected._fields
        assert measured == expected.size_bits
        assert live == reference


def test_append_tie_goes_to_the_first_base():
    compressor = TagCompressor(n_bases=2)
    stream = compressor.new_stream()
    for line_address in (100, 40_100, 20_100):
        token = compressor.append_token(stream, line_address)
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
