"""Tests for Large-Block Encoding (paper §3.2.5, Table 3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitio import BitReader
from repro.common.words import LINE_SIZE
from repro.compression.lbe import (
    CHUNK_BYTES,
    DICT_CAPACITY,
    LbeCompressor,
    LbeDictionary,
    PREFIX_CODES,
    POINTER_BITS,
    Symbol,
)


@pytest.fixture
def lbe():
    return LbeCompressor()


def line_of(pattern: bytes) -> bytes:
    """Repeat a pattern to fill a 64-byte line."""
    reps = -(-LINE_SIZE // len(pattern))
    return (pattern * reps)[:LINE_SIZE]


class TestPrefixCodes:
    def test_prefix_free(self):
        """No code is a prefix of another (Table 3 is a prefix code)."""
        codes = [(format(prefix, f"0{width}b"))
                 for prefix, width in PREFIX_CODES.values()]
        for a in codes:
            for b in codes:
                if a is not b:
                    assert not b.startswith(a) or a == b

    def test_table3_widths(self):
        widths = {kind: width for kind, (_, width) in PREFIX_CODES.items()}
        assert widths == {"u32": 2, "m32": 2, "u16": 3, "z32": 4, "u8": 4,
                          "m64": 4, "z64": 4, "m128": 5, "z128": 5,
                          "m256": 5, "z256": 5}


class TestSymbol:
    def test_match_sizes(self):
        assert Symbol("m32", index=0).size_bits == 2 + POINTER_BITS[4]
        assert Symbol("m256", index=0).size_bits == 5 + POINTER_BITS[32]

    def test_zero_sizes(self):
        assert Symbol("z32").size_bits == 4
        assert Symbol("z256").size_bits == 5

    def test_literal_sizes(self):
        assert Symbol("u8", value=1).size_bits == 4 + 8
        assert Symbol("u16", value=256).size_bits == 3 + 16
        assert Symbol("u32", value=1 << 16).size_bits == 2 + 32

    def test_data_bytes(self):
        assert Symbol("m256", index=0).data_bytes == 32
        assert Symbol("u8", value=0).data_bytes == 4


class TestCompressBasics:
    def test_zero_line_is_two_z256(self, lbe):
        compressed = lbe.compress(bytes(LINE_SIZE), LbeDictionary())
        assert [s.kind for s in compressed.symbols] == ["z256", "z256"]
        assert compressed.size_bits == 10

    def test_random_line_is_literals(self, lbe):
        rng = random.Random(0)
        line = bytes(rng.randrange(1 << 7, 1 << 8) for _ in range(LINE_SIZE))
        compressed = lbe.compress(line, LbeDictionary())
        assert all(s.kind.startswith("u") for s in compressed.symbols)

    def test_narrow_words_truncate(self, lbe):
        # Each 4B word holds a value < 256 -> u8
        line = b"".join((7).to_bytes(4, "big") for _ in range(16))
        compressed = lbe.compress(line, LbeDictionary())
        # first word u8, later identical words become m32 matches
        assert compressed.symbols[0].kind == "u8"
        assert any(s.kind == "m32" for s in compressed.symbols)

    def test_repeat_line_matches_m256(self, lbe):
        rng = random.Random(1)
        line = bytes(rng.randrange(256) for _ in range(LINE_SIZE))
        dictionary = LbeDictionary()
        lbe.compress(line, dictionary)
        again = lbe.compress(line, dictionary)
        assert [s.kind for s in again.symbols] == ["m256", "m256"]
        assert again.size_bits == 18

    def test_chunk_self_match_within_line(self, lbe):
        """Identical second chunk matches the first via m256."""
        rng = random.Random(2)
        chunk = bytes(rng.randrange(256) for _ in range(CHUNK_BYTES))
        compressed = lbe.compress(chunk + chunk, LbeDictionary())
        assert compressed.symbols[-1].kind == "m256"

    def test_no_coarse_self_match_within_chunk(self, lbe):
        """Coarse entries allocate at end-of-chunk (paper §3.2.5), so the
        second 128b half of one chunk cannot match the first half."""
        rng = random.Random(3)
        half = bytes(rng.randrange(256) for _ in range(16))
        line = (half + half) * 2
        compressed = lbe.compress(line, LbeDictionary())
        kinds = [s.kind for s in compressed.symbols]
        # chunk 1 decomposes fully; chunk 2 matches it as m256
        assert "m128" not in kinds[:len(kinds) // 2] or \
            kinds.index("m128") > 0
        assert kinds[-1] == "m256"

    def test_trial_does_not_mutate(self, lbe):
        rng = random.Random(4)
        line = bytes(rng.randrange(256) for _ in range(LINE_SIZE))
        dictionary = LbeDictionary()
        lbe.compress(line, dictionary, commit=False)
        assert all(dictionary.entry_count(g) == 0 for g in (4, 8, 16, 32))

    def test_commit_mutates(self, lbe):
        rng = random.Random(5)
        line = bytes(rng.randrange(256) for _ in range(LINE_SIZE))
        dictionary = LbeDictionary()
        lbe.compress(line, dictionary, commit=True)
        assert dictionary.entry_count(4) > 0

    def test_rejects_short_line(self, lbe):
        with pytest.raises(ValueError):
            lbe.compress(bytes(32), LbeDictionary())


class TestDictionary:
    def test_freezes_when_full(self):
        dictionary = LbeDictionary()
        for i in range(DICT_CAPACITY[4] + 10):
            dictionary.insert(i.to_bytes(4, "big"))
        assert dictionary.entry_count(4) == DICT_CAPACITY[4]

    def test_no_duplicate_entries(self):
        dictionary = LbeDictionary()
        block = b"\x01\x02\x03\x04"
        assert dictionary.insert(block)
        assert not dictionary.insert(block)
        assert dictionary.entry_count(4) == 1

    def test_lookup_and_value_at(self):
        dictionary = LbeDictionary()
        block = b"\xAA\xBB\xCC\xDD"
        dictionary.insert(block)
        index = dictionary.lookup(block)
        assert dictionary.value_at(4, index) == block

    def test_copy_is_independent(self):
        dictionary = LbeDictionary()
        dictionary.insert(b"\x01\x02\x03\x04")
        clone = dictionary.copy()
        clone.insert(b"\x05\x06\x07\x08")
        assert dictionary.entry_count(4) == 1
        assert clone.entry_count(4) == 2


class TestDecompression:
    def _roundtrip(self, lbe, lines):
        dictionary = LbeDictionary()
        stream = [lbe.compress(line, dictionary) for line in lines]
        return lbe.decompress(stream)

    def test_single_line(self, lbe):
        rng = random.Random(6)
        line = bytes(rng.randrange(256) for _ in range(LINE_SIZE))
        assert self._roundtrip(lbe, [line]) == [line]

    def test_log_stream(self, lbe):
        rng = random.Random(7)
        pool = [bytes(rng.randrange(256) for _ in range(8))
                for _ in range(4)]
        lines = []
        for _ in range(20):
            lines.append(b"".join(rng.choice(pool) for _ in range(8)))
        assert self._roundtrip(lbe, lines) == lines

    def test_upto_stops_early(self, lbe):
        rng = random.Random(8)
        lines = [bytes(rng.randrange(256) for _ in range(LINE_SIZE))
                 for _ in range(5)]
        dictionary = LbeDictionary()
        stream = [lbe.compress(line, dictionary) for line in lines]
        partial = lbe.decompress(stream, upto=2)
        assert partial == lines[:3]

    def test_zero_heavy_stream(self, lbe):
        lines = [bytes(LINE_SIZE), line_of(b"\x00\x00\x00\x2A"),
                 bytes(LINE_SIZE)]
        assert self._roundtrip(lbe, lines) == lines


class TestBitstream:
    def test_exact_size(self, lbe):
        rng = random.Random(9)
        line = bytes(rng.randrange(256) for _ in range(LINE_SIZE))
        compressed = lbe.compress(line, LbeDictionary())
        writer = LbeCompressor.to_bitstream(compressed)
        assert writer.bit_length == compressed.size_bits

    def test_parse_back(self, lbe):
        rng = random.Random(10)
        dictionary = LbeDictionary()
        for _ in range(3):
            line = bytes(rng.choice((0, rng.randrange(256)))
                         for _ in range(LINE_SIZE))
            compressed = lbe.compress(line, dictionary)
            reader = BitReader.from_writer(
                LbeCompressor.to_bitstream(compressed))
            parsed = LbeCompressor.from_bitstream(reader)
            assert parsed.symbols == compressed.symbols


def _pooled_lines(draw_random, n_lines):
    """Build compressible lines from a small block pool."""
    pool = [bytes(draw_random(256) for _ in range(16)) for _ in range(6)]
    lines = []
    for _ in range(n_lines):
        lines.append(b"".join(
            pool[draw_random(len(pool))] for _ in range(4)))
    return lines


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 12))
def test_stream_roundtrip_property(seed, n_lines):
    """A whole log's symbol stream always replays to the original lines."""
    rng = random.Random(seed)
    lines = _pooled_lines(lambda n: rng.randrange(n), n_lines)
    lbe = LbeCompressor()
    dictionary = LbeDictionary()
    stream = [lbe.compress(line, dictionary) for line in lines]
    assert lbe.decompress(stream) == lines


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE))
def test_arbitrary_line_roundtrip(data):
    """Any 64-byte value survives compress->decompress exactly."""
    lbe = LbeCompressor()
    dictionary = LbeDictionary()
    stream = [lbe.compress(data, dictionary)]
    assert lbe.decompress(stream) == [data]


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=LINE_SIZE, max_size=LINE_SIZE))
def test_size_bits_matches_bitstream(data):
    """The accounted size equals the serialised size, bit for bit."""
    lbe = LbeCompressor()
    compressed = lbe.compress(data, LbeDictionary())
    assert LbeCompressor.to_bitstream(compressed).bit_length \
        == compressed.size_bits


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_compression_monotone_on_repeats(seed):
    """Re-compressing the same line never grows once committed."""
    rng = random.Random(seed)
    line = bytes(rng.randrange(256) for _ in range(LINE_SIZE))
    lbe = LbeCompressor()
    dictionary = LbeDictionary()
    first = lbe.compress(line, dictionary)
    second = lbe.compress(line, dictionary)
    assert second.size_bits <= first.size_bits
    assert second.size_bits == 18  # two m256 pointers


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(0, 30))
def test_measure_equals_compress(seed, warm_lines):
    """The fast trial path must agree bit-for-bit with the encoder."""
    rng = random.Random(seed)
    pool = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(5)]
    lbe = LbeCompressor()
    dictionary = LbeDictionary()
    for _ in range(warm_lines):
        warm = b"".join(rng.choice(pool) for _ in range(8))
        lbe.compress(warm, dictionary)
    probes = [
        bytes(LINE_SIZE),
        b"".join(rng.choice(pool) for _ in range(8)),
        bytes(rng.randrange(256) for _ in range(LINE_SIZE)),
        bytes(16) + b"".join(rng.choice(pool) for _ in range(6)),
    ]
    for probe in probes:
        measured = lbe.measure(probe, dictionary)
        encoded = lbe.compress(probe, dictionary, commit=False)
        assert measured == encoded.size_bits
