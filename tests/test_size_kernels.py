"""The set-associative baselines' size kernels against their references.

C-Pack's :meth:`~repro.compression.cpack.CPackCompressor.compress` sizes
a line in one pass with three sets of pushed words instead of building
tokens; it must equal the seed oracle
(:func:`repro.conformance.oracles.reference_cpack_bits`) and the length
of the bit stream the token path serialises.  SC2's
:meth:`~repro.compression.sc2dict.Sc2Dictionary.compress` sizes a line
from a word-to-bits table rebuilt at every training; it must equal the
per-word sum of the current Huffman code's lengths (escape plus 32 bits
for a word outside the code) before training, after it and after every
retrain.

The line shapes target what a size-only kernel can get wrong: partial
matches on the upper 24 and 16 bits, the ``word < 256`` boundary
(``zzzx`` words are never pushed), sixteen pushed words, and a word
that repeats one pushed after a partial match.  Real traffic comes from
every line filled into an LLC on the perfbench programs' traces.

MORC's bounded LBE trial
(:meth:`~repro.compression.lbe.LbeCompressor.measure` with a ``limit``)
must equal the seed oracle (:func:`repro.conformance.oracles.
reference_lbe_measure`) whenever that size is within the limit, report
"over" (None) otherwise, also when a limit below the plan's floor
skips the walk.  The limit it gets is a log's
:meth:`~repro.morc.log.Log.data_room`, which must agree with the
reference's literal fit rule in every layout.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import SystemConfig
from repro.common.words import from_words32, words32
from repro.compression.cpack import CPackCompressor
from repro.compression.huffman import ESCAPE, HuffmanCode
from repro.compression.lbe import (
    DICT_CAPACITY,
    LbeCompressor,
    LbeDictionary,
    _decompose,
    _measure_tree,
)
from repro.compression.sc2dict import ESCAPE_PAYLOAD_BITS, Sc2Dictionary
from repro.conformance.oracles import (
    reference_cpack_bits,
    reference_lbe_compress,
    reference_lbe_measure,
)
from repro.conformance.reference import _RefLog, _RefLogEntry
from repro.experiments.runner import instructions_for
from repro.morc.codecs import UNCOMPRESSED_LINE_BITS
from repro.morc.log import Log
from repro.sim.system import make_llc, run_single_program

pytestmark = pytest.mark.conformance

#: the programs of perfbench's Figure 6 grids
GRID_PROGRAMS = ("gcc", "mcf", "h264ref", "soplex")
#: perfbench's measured instructions per Figure 6 cell, and its warm-up
GRID_INSTRUCTIONS = 20_000
GRID_WARMUP = 0.4

#: upper bits several words of a line share, and the 0xFF/0x100 edge
BASES = (0xDEADBEEF, 0xDEADBE00, 0xDEAD0000, 0x12345678, 0x00000100,
         0x000001FF, 0x0000FF00, 0xFFFFFFFF)


# -- C-Pack ---------------------------------------------------------------


def cpack_token_bits(line: bytes) -> int:
    """Length of the serialised token stream of ``line``."""
    codec = CPackCompressor()
    return len(codec.to_bitstream(codec.compress_tokens(line)))


def assert_cpack_exact(line: bytes) -> None:
    bits = CPackCompressor().compress(line).size_bits
    assert bits == reference_cpack_bits(line)
    assert bits == cpack_token_bits(line)


def related_word(rng: random.Random) -> int:
    """A word that often shares upper 24 or 16 bits with a base."""
    base = rng.choice(BASES)
    shape = rng.randrange(7)
    if shape == 0:
        return base
    if shape == 1:
        return (base & ~0xFF) | rng.randrange(1 << 8)
    if shape == 2:
        return (base & ~0xFFFF) | rng.randrange(1 << 16)
    if shape == 3:
        return rng.randrange(0x200)          # either side of 0xFF/0x100
    if shape == 4:
        return 0
    if shape == 5:
        return rng.randrange(1 << 24)
    return rng.randrange(1 << 32)


def test_cpack_seeded_lines_match_the_oracle():
    rng = random.Random(20_151)
    for _ in range(10_000):
        assert_cpack_exact(from_words32(
            [related_word(rng) for _ in range(16)]))


word_strategy = st.one_of(
    st.sampled_from(BASES),
    st.builds(lambda b, low: (b & ~0xFF) | low,
              st.sampled_from(BASES), st.integers(0, 0xFF)),
    st.builds(lambda b, low: (b & ~0xFFFF) | low,
              st.sampled_from(BASES), st.integers(0, 0xFFFF)),
    st.integers(0, 0x1FF),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=300)
@given(st.lists(word_strategy, min_size=16, max_size=16))
def test_cpack_hypothesis_lines_match_the_oracle(words):
    assert_cpack_exact(from_words32(words))


@pytest.mark.parametrize("words, expected", [
    # sixteen distinct upper halves: sixteen pushes, all xxxx
    ([(i + 1) << 24 | 0x10000 * i | 0xABCD for i in range(16)], 16 * 34),
    # sixteen pushes sharing their upper 24 bits: one xxxx, fifteen mmmx
    ([0xCAFEBA00 | i for i in range(0x10, 0x20)], 34 + 15 * 16),
    # sixteen pushes sharing only their upper 16 bits
    ([0xCAFE0000 | i << 8 for i in range(1, 17)], 34 + 15 * 24),
    # a word pushed after a partial match, then repeated: mmmm
    ([0xDEADBEEF, 0xDEADBE00, 0xDEADBE00] + [0] * 13,
     34 + 16 + 6 + 13 * 2),
    # a partial push is itself matched on 24 bits by a later word
    ([0xDEAD0000, 0xDEADBE00, 0xDEADBE11] + [0] * 13,
     34 + 24 + 16 + 13 * 2),
    # 0xFF is zzzx and never pushed, so 0x1FF matches nothing
    ([0xFF, 0x1FF] + [0] * 14, 12 + 34 + 14 * 2),
    # 0x100 is pushed; 0x1FF shares its upper 24 bits, 0x100 repeats
    ([0x100, 0x1FF, 0x100, 0xFF] + [0] * 12, 34 + 16 + 6 + 12 + 12 * 2),
])
def test_cpack_edge_lines(words, expected):
    line = from_words32(words)
    assert_cpack_exact(line)
    assert CPackCompressor().compress(line).size_bits == expected


class RecordingCPack(CPackCompressor):
    """C-Pack that keeps the first size it reports for every line."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes = {}

    def compress(self, line):
        size = super().compress(line)
        self.sizes.setdefault(bytes(line), size.size_bits)
        return size


@pytest.mark.parametrize("program", GRID_PROGRAMS)
def test_cpack_every_filled_line_matches_the_oracle(program):
    config = SystemConfig()
    llc = make_llc("Decoupled", config)
    llc.compressor = RecordingCPack()
    run_single_program(program, "Decoupled", config=config,
                       n_instructions=instructions_for(program,
                                                       GRID_INSTRUCTIONS),
                       warmup_fraction=GRID_WARMUP, llc=llc)
    sizes = llc.compressor.sizes
    assert len(sizes) > 1_000
    for line, bits in sizes.items():
        assert bits == reference_cpack_bits(line)
        assert bits == cpack_token_bits(line)


# -- SC2 ------------------------------------------------------------------


def sc2_expected_bits(dictionary: Sc2Dictionary, line: bytes) -> int:
    """The line's size under the dictionary's current Huffman code."""
    code: HuffmanCode = dictionary._code
    if code is None:
        return 8 * len(line)
    escape = code.length(ESCAPE) + ESCAPE_PAYLOAD_BITS
    return sum(code.length(word) if word in code else escape
               for word in words32(line))


def line_of(*words: int) -> bytes:
    return from_words32(list(words) * (16 // len(words)))


def test_sc2_before_training_is_uncompressed():
    dictionary = Sc2Dictionary(sample_lines=4)
    for _ in range(3):
        dictionary.observe(line_of(1))
    assert dictionary.compress(line_of(1)).size_bits == 512
    assert dictionary.compress(line_of(1)).size_bits == sc2_expected_bits(
        dictionary, line_of(1))


def test_sc2_after_training_and_after_a_retrain():
    dictionary = Sc2Dictionary(sample_lines=4, retrain_interval=8)
    probes = [line_of(1), line_of(2), line_of(1, 2), line_of(3, 0xDEAD)]
    for _ in range(4):
        dictionary.observe(line_of(1, 1, 1, 3))
    assert dictionary.stats.get("trainings") == 1
    for line in probes:
        assert dictionary.compress(line).size_bits == sc2_expected_bits(
            dictionary, line)
    before = dictionary.compress(line_of(2)).size_bits
    for _ in range(8):
        dictionary.observe(line_of(2))
    assert dictionary.stats.get("trainings") == 2
    # 2 escaped under the first code and has a short code now
    assert dictionary.compress(line_of(2)).size_bits < before
    for line in probes:
        assert dictionary.compress(line).size_bits == sc2_expected_bits(
            dictionary, line)


def test_sc2_sampled_value_cut_by_max_entries_escapes():
    dictionary = Sc2Dictionary(max_entries=2, sample_lines=1)
    # 7 and 9 outnumber 5, so only they are kept; 5 was sampled
    dictionary.observe(from_words32([7] * 8 + [9] * 6 + [5] * 2))
    code = dictionary._code
    assert 5 not in code and 7 in code and 9 in code
    line = from_words32([5] + [7] * 15)
    expected = (code.length(ESCAPE) + ESCAPE_PAYLOAD_BITS
                + 15 * code.length(7))
    assert dictionary.compress(line).size_bits == expected
    assert expected == sc2_expected_bits(dictionary, line)


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(0, 12), min_size=16, max_size=16),
                min_size=1, max_size=40),
       st.integers(1, 6), st.integers(1, 5), st.integers(2, 20))
def test_sc2_matches_the_code_through_retrains(lines, sample_lines,
                                               retrain_interval,
                                               max_entries):
    dictionary = Sc2Dictionary(max_entries=max_entries,
                               sample_lines=sample_lines,
                               retrain_interval=retrain_interval)
    for words in lines:
        line = from_words32(words)
        dictionary.observe(line)
        assert dictionary.compress(line).size_bits == sc2_expected_bits(
            dictionary, line)
        probe = from_words32(list(reversed(words)))
        assert dictionary.compress(probe).size_bits == sc2_expected_bits(
            dictionary, probe)


def test_sc2_every_filled_line_matches_the_code():
    config = SystemConfig()
    llc = make_llc("SC2", config)
    dictionary = llc.dictionary
    checked = Counter()
    compress = dictionary.compress

    def checked_compress(line):
        size = compress(line)
        assert size.size_bits == sc2_expected_bits(dictionary, line)
        checked[dictionary.stats.get("trainings")] += 1
        return size

    dictionary.compress = checked_compress
    run_single_program("mcf", "SC2", config=config,
                       n_instructions=instructions_for("mcf",
                                                       GRID_INSTRUCTIONS),
                       warmup_fraction=GRID_WARMUP, llc=llc)
    # sampled, trained, and retrained at least once on real fills
    assert {0, 1, 2} <= set(checked)


# -- LBE bounded by a log's room -------------------------------------------


def lbe_word(rng: random.Random) -> int:
    """A word from a small pool, so blocks repeat within and across lines;
    zero and narrow words give z*, u8 and u16 symbols."""
    shape = rng.randrange(5)
    if shape == 0:
        return 0
    if shape == 1:
        return rng.randrange(1, 1 << 8)
    if shape == 2:
        return rng.randrange(1 << 8, 1 << 16)
    if shape == 3:
        return rng.choice(BASES)
    return rng.randrange(1 << 32)


def lbe_line(rng: random.Random) -> bytes:
    words = [lbe_word(rng) for _ in range(16)]
    shape = rng.randrange(4)
    if shape == 1:
        words[8:] = words[:8]            # repeated 256b chunk
    elif shape == 2:
        words[4:8] = words[:4]           # repeated 128b half
    elif shape == 3:
        words = [0] * 8 + words[8:]      # a zero chunk
    return from_words32(words)


def lbe_dictionaries():
    """An empty, a warm and a freeze-edge dictionary (one entry short of
    capacity at every granularity)."""
    rng = random.Random(2015)
    warm = LbeDictionary()
    for _ in range(6):
        reference_lbe_compress(lbe_line(rng), warm)
    edge = LbeDictionary()
    for size, capacity in DICT_CAPACITY.items():
        for index in range(capacity - 1):
            assert edge.insert(b"\xa5" + index.to_bytes(size - 1, "big"))
    return {"empty": LbeDictionary(), "warm": warm, "edge": edge}


def assert_bounded_measure_exact(line: bytes,
                                 dictionary: LbeDictionary) -> None:
    """Every limit from 0 to a raw line against the oracle's size."""
    compressor = LbeCompressor()
    exact = reference_lbe_measure(line, dictionary)
    for limit in range(UNCOMPRESSED_LINE_BITS + 1):
        bounded = compressor.measure(line, dictionary, limit)
        assert bounded == (exact if exact <= limit else None), limit
        assert compressor.measure(line, dictionary) == exact
        assert compressor.measure(line, dictionary, limit) == bounded


def test_lbe_bounded_seeded_lines_match_the_oracle():
    rng = random.Random(16)
    dictionaries = lbe_dictionaries()
    for _ in range(12):
        line = lbe_line(rng)
        for dictionary in dictionaries.values():
            assert_bounded_measure_exact(line, dictionary)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 0xFF), st.integers(0, 0xFFFF),
                          st.sampled_from(BASES), st.integers(0, 2**32 - 1)),
                min_size=16, max_size=16),
       st.sampled_from(["empty", "warm", "edge"]))
def test_lbe_bounded_hypothesis_lines_match_the_oracle(words, name):
    assert_bounded_measure_exact(from_words32(words),
                                 lbe_dictionaries()[name])


def test_lbe_bounded_walk_stops_early():
    """A walk over the limit stops rather than finishing the line."""
    line = from_words32([0xDEADBEEF + 977 * i for i in range(16)])
    dictionary = LbeDictionary()
    plan = _decompose(line)
    assert _measure_tree(plan, dictionary) == 16 * 34
    assert _measure_tree(plan, dictionary, 100) is None
    assert _measure_tree(plan, dictionary, 16 * 34) == 16 * 34
    compressor = LbeCompressor()
    assert compressor.measure(line, dictionary, 100) is None


#: (data capacity, tag capacity, merged): separate, merged and unlimited
FIT_LAYOUTS = [(96, 40, False), (96, None, True), (96, None, False)]


@pytest.mark.parametrize("data_capacity, tag_capacity, merged", FIT_LAYOUTS)
def test_data_room_agrees_with_the_literal_fit_rule(data_capacity,
                                                    tag_capacity, merged):
    for used_data in range(0, data_capacity + 1, 4):
        for used_tag in range(0, 61, 3):
            if merged and used_data + used_tag > data_capacity:
                continue
            if tag_capacity is not None and used_tag > tag_capacity:
                continue
            for closed in (False, True):
                log = Log(index=0, data_capacity_bits=data_capacity,
                          tag_capacity_bits=tag_capacity, merged=merged)
                literal = _RefLog(0, data_capacity, tag_capacity, merged,
                                  tag_bases=2)
                if used_data or used_tag:
                    log.append(0, bytes(64), used_data, used_tag)
                    literal.entries.append(
                        _RefLogEntry(0, bytes(64), used_data, used_tag))
                log.closed = literal.closed = closed
                for tag_bits in range(0, 70):
                    room = log.data_room(tag_bits)
                    if room is None:
                        assert not literal.fits(0, tag_bits)
                    else:
                        assert literal.fits(room, tag_bits)
                        assert not literal.fits(room + 1, tag_bits)
                    for data_bits in (0, 1, 37, data_capacity):
                        assert (log.fits(data_bits, tag_bits)
                                == literal.fits(data_bits, tag_bits))
