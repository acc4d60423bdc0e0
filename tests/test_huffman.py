"""Tests for the canonical Huffman substrate used by SC2."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CompressionError
from repro.compression.huffman import ESCAPE, HuffmanCode


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(CompressionError):
            HuffmanCode.from_frequencies({})

    def test_single_symbol(self):
        code = HuffmanCode.from_frequencies({"a": 10})
        assert code.length("a") == 1

    def test_two_symbols(self):
        code = HuffmanCode.from_frequencies({"a": 10, "b": 1})
        assert code.length("a") == 1
        assert code.length("b") == 1

    def test_frequent_symbols_get_shorter_codes(self):
        frequencies = {"common": 1000, "rare": 1, "mid": 50}
        code = HuffmanCode.from_frequencies(frequencies)
        assert code.length("common") <= code.length("mid") \
            <= code.length("rare")

    def test_contains(self):
        code = HuffmanCode.from_frequencies({"a": 1, "b": 1})
        assert "a" in code and "c" not in code

    def test_escape_symbol_usable(self):
        code = HuffmanCode.from_frequencies({1: 100, ESCAPE: 1})
        assert ESCAPE in code


class TestCanonicalProperties:
    def _codes(self, frequencies):
        return HuffmanCode.from_frequencies(frequencies)

    def test_prefix_free(self):
        code = self._codes({i: i + 1 for i in range(20)})
        bits = [format(c.value, f"0{c.length}b")
                for c in (code.encode(s) for s in code.symbols())]
        for a in bits:
            for b in bits:
                if a != b:
                    assert not b.startswith(a)

    def test_kraft_equality(self):
        code = self._codes({i: (i % 5) + 1 for i in range(17)})
        kraft = sum(2.0 ** -code.length(s) for s in code.symbols())
        assert kraft <= 1.0 + 1e-9

    def test_deterministic(self):
        frequencies = {i: (i * 7) % 13 + 1 for i in range(30)}
        a = self._codes(frequencies)
        b = self._codes(frequencies)
        for symbol in frequencies:
            assert a.encode(symbol) == b.encode(symbol)

    def test_decoder_table_inverts(self):
        code = self._codes({i: i + 1 for i in range(10)})
        decoder = code.build_decoder()
        for symbol in code.symbols():
            c = code.encode(symbol)
            assert decoder[(c.length, c.value)] == symbol

    def test_length_limit_respected(self):
        # A geometric distribution forces long codes without a limit.
        frequencies = {i: 2 ** min(i, 40) for i in range(40)}
        code = HuffmanCode.from_frequencies(frequencies, max_length=12)
        assert max(code.length(s) for s in code.symbols()) <= 12
        kraft = sum(2.0 ** -code.length(s) for s in code.symbols())
        assert kraft <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=1000),
                       st.integers(min_value=1, max_value=10_000),
                       min_size=1, max_size=60))
def test_huffman_is_always_prefix_free(frequencies):
    code = HuffmanCode.from_frequencies(frequencies)
    bits = sorted(format(code.encode(s).value, f"0{code.encode(s).length}b")
                  for s in code.symbols())
    for i, a in enumerate(bits):
        for b in bits[i + 1:]:
            assert not b.startswith(a)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=1000),
                       st.integers(min_value=1, max_value=10_000),
                       min_size=2, max_size=60))
def test_huffman_beats_fixed_width_on_skew(frequencies):
    """Weighted average length never exceeds ceil(log2(n)) + 1."""
    import math
    code = HuffmanCode.from_frequencies(frequencies)
    total = sum(frequencies.values())
    avg = sum(frequencies[s] * code.length(s) for s in frequencies) / total
    assert avg <= math.ceil(math.log2(len(frequencies))) + 1


class TestStreamCodec:
    def _codec(self):
        from repro.compression.huffman import HuffmanStreamCodec
        frequencies = {i: 100 - i for i in range(50)}
        frequencies[ESCAPE] = 1
        return HuffmanStreamCodec(HuffmanCode.from_frequencies(frequencies))

    def test_roundtrip_known_words(self):
        from repro.common.bitio import BitReader, BitWriter
        codec = self._codec()
        words = [0, 1, 2, 49, 3, 3, 3]
        writer = BitWriter()
        bits = codec.encode_words(words, writer)
        assert bits == writer.bit_length
        reader = BitReader.from_writer(writer)
        assert codec.decode_words(reader, len(words)) == words

    def test_roundtrip_with_escapes(self):
        from repro.common.bitio import BitReader, BitWriter
        codec = self._codec()
        words = [0, 0xDEADBEEF, 7, 0xFFFF_FFFF]
        writer = BitWriter()
        codec.encode_words(words, writer)
        reader = BitReader.from_writer(writer)
        assert codec.decode_words(reader, len(words)) == words

    def test_requires_escape(self):
        from repro.compression.huffman import HuffmanStreamCodec
        code = HuffmanCode.from_frequencies({1: 2, 2: 1})
        with pytest.raises(CompressionError):
            HuffmanStreamCodec(code)

    def test_size_matches_dictionary_accounting(self):
        """The cache model's line size equals the real bitstream."""
        from repro.common.bitio import BitWriter
        from repro.common.words import from_words32, words32
        from repro.compression.huffman import HuffmanStreamCodec
        from repro.compression.sc2dict import Sc2Dictionary
        dictionary = Sc2Dictionary(sample_lines=4)
        line = from_words32([5, 6, 7, 8] * 4)
        for _ in range(4):
            dictionary.observe(line)
        codec = HuffmanStreamCodec(dictionary._code)
        writer = BitWriter()
        bits = codec.encode_words(words32(line), writer)
        assert bits == dictionary.compress(line).size_bits
