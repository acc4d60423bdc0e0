"""Fuzz and round-trip property tests for every codec's bit stream.

Two contracts, checked per codec (LBE, C-Pack, Huffman):

- **Exactness**: seeded-random lines round-trip bit-exactly through the
  token layer and through the serialised bit stream.
- **Fail-safety**: truncated streams raise
  :class:`CorruptBitstreamError`; bit-flipped streams either raise it or
  decode to a *valid* 64-byte line — never a bare ``IndexError``, never
  a hang, never a wrong-length result.

All randomness is seeded, so failures reproduce.
"""

import random

import pytest

from repro.common.bitio import BitReader
from repro.common.errors import CorruptBitstreamError
from repro.common.words import LINE_SIZE
from repro.compression.cpack import CPackCompressor
from repro.compression.huffman import (
    ESCAPE,
    HuffmanCode,
    HuffmanStreamCodec,
)
from repro.compression.lbe import LbeCompressor, LbeDictionary

N_LINES = 32


def make_lines(seed, count=N_LINES):
    """Deterministic mix of line shapes the codecs care about."""
    rng = random.Random(seed)
    lines = []
    for index in range(count):
        style = index % 4
        if style == 0:  # uniform random (incompressible)
            line = bytes(rng.getrandbits(8) for _ in range(LINE_SIZE))
        elif style == 1:  # sparse: mostly zero with a few hot bytes
            buf = bytearray(LINE_SIZE)
            for _ in range(rng.randrange(1, 8)):
                buf[rng.randrange(LINE_SIZE)] = rng.getrandbits(8)
            line = bytes(buf)
        elif style == 2:  # one 32-bit word repeated (dictionary-friendly)
            word = rng.getrandbits(32).to_bytes(4, "little")
            line = word * (LINE_SIZE // 4)
        else:  # small signed integers
            line = b"".join(
                (rng.randrange(-128, 128) & 0xFFFFFFFF).to_bytes(
                    4, "little")
                for _ in range(LINE_SIZE // 4))
        lines.append(line)
    return lines


def truncate(writer, drop):
    """Reader over the stream with the trailing ``drop`` bits removed."""
    value, bits = writer.getvalue()
    keep = max(0, bits - drop)
    return BitReader(value >> (bits - keep), keep)


def flip(writer, position):
    """Reader over the stream with one bit (MSB-first index) inverted."""
    value, bits = writer.getvalue()
    return BitReader(value ^ (1 << (bits - 1 - position)), bits)


def cut_points(rng, bits, count=6):
    """A deterministic sample of truncation depths, always including 1."""
    depths = {1, bits}  # drop the last bit; drop everything
    while len(depths) < count and bits > 1:
        depths.add(rng.randrange(1, bits + 1))
    return sorted(depths)


# -- LBE ------------------------------------------------------------------


class TestLbeFuzz:
    def _streams(self, seed):
        """Compress a stream of lines against one evolving dictionary."""
        compressor = LbeCompressor()
        dictionary = LbeDictionary()
        for line in make_lines(seed):
            snapshot = dictionary.copy()
            compressed = compressor.compress(line, dictionary)
            yield compressor, line, snapshot, compressed

    def test_roundtrip_exact(self):
        for compressor, line, snapshot, compressed in self._streams(7):
            decoded = compressor._decode_line(compressed, snapshot.copy())
            assert decoded == line

    def test_bitstream_reparse_exact(self):
        for compressor, _line, _snap, compressed in self._streams(11):
            writer = compressor.to_bitstream(compressed)
            reparsed = compressor.from_bitstream(
                BitReader.from_writer(writer, strict=True))
            assert reparsed.symbols == compressed.symbols

    def test_truncated_stream_raises(self):
        rng = random.Random(13)
        for compressor, _line, _snap, compressed in self._streams(13):
            writer = compressor.to_bitstream(compressed)
            for drop in cut_points(rng, writer.bit_length):
                with pytest.raises(CorruptBitstreamError):
                    compressor.from_bitstream(truncate(writer, drop))

    def test_bit_flips_never_index_error(self):
        rng = random.Random(17)
        for compressor, _line, snapshot, compressed in self._streams(17):
            writer = compressor.to_bitstream(compressed)
            for _ in range(8):
                position = rng.randrange(writer.bit_length)
                try:
                    parsed = compressor.from_bitstream(
                        flip(writer, position))
                    decoded = compressor._decode_line(
                        parsed, snapshot.copy())
                except CorruptBitstreamError:
                    continue
                assert len(decoded) == LINE_SIZE


# -- intra-line codecs (C-Pack) -------------------------------------------


INTRA_LINE = [CPackCompressor]


@pytest.mark.parametrize("make_codec", INTRA_LINE,
                         ids=lambda cls: cls.__name__)
class TestIntraLineFuzz:
    def test_roundtrip_exact(self, make_codec):
        codec = make_codec()
        for line in make_lines(19):
            assert codec.roundtrip(line) == line

    def test_bitstream_reparse_exact(self, make_codec):
        codec = make_codec()
        for line in make_lines(23):
            tokens = codec.compress_tokens(line)
            writer = codec.to_bitstream(tokens)
            reader = BitReader.from_writer(writer, strict=True)
            assert codec.from_bitstream(reader) == tokens

    def test_truncated_stream_raises(self, make_codec):
        codec = make_codec()
        rng = random.Random(29)
        for line in make_lines(29):
            writer = codec.to_bitstream(codec.compress_tokens(line))
            for drop in cut_points(rng, writer.bit_length):
                with pytest.raises(CorruptBitstreamError):
                    codec.from_bitstream(truncate(writer, drop))

    def test_bit_flips_never_index_error(self, make_codec):
        codec = make_codec()
        rng = random.Random(31)
        for line in make_lines(31):
            writer = codec.to_bitstream(codec.compress_tokens(line))
            for _ in range(8):
                position = rng.randrange(writer.bit_length)
                try:
                    tokens = codec.from_bitstream(flip(writer, position))
                    decoded = codec.decompress_tokens(tokens)
                except CorruptBitstreamError:
                    continue
                assert len(decoded) == LINE_SIZE


# -- canonical Huffman (SC2's codec) --------------------------------------


def _sample_code(seed):
    """A code over the words of a seeded sample, plus ESCAPE."""
    rng = random.Random(seed)
    frequencies = {}
    for line in make_lines(seed, count=8):
        for start in range(0, LINE_SIZE, 4):
            word = int.from_bytes(line[start:start + 4], "little")
            frequencies[word] = frequencies.get(word, 0) + 1
    # keep the table small so ESCAPE is exercised too
    top = dict(sorted(frequencies.items(), key=lambda kv: -kv[1])[:48])
    top[ESCAPE] = max(1, sum(top.values()) // 16)
    del rng
    return HuffmanCode.from_frequencies(top)


def _line_words(line):
    return [int.from_bytes(line[start:start + 4], "little")
            for start in range(0, LINE_SIZE, 4)]


class TestHuffmanFuzz:
    def test_roundtrip_exact(self):
        codec = HuffmanStreamCodec(_sample_code(37))
        from repro.common.bitio import BitWriter
        for line in make_lines(41):
            words = _line_words(line)
            writer = BitWriter()
            codec.encode_words(words, writer)
            reader = BitReader.from_writer(writer, strict=True)
            assert codec.decode_words(reader, len(words)) == words

    def test_truncated_stream_raises(self):
        codec = HuffmanStreamCodec(_sample_code(43))
        from repro.common.bitio import BitWriter
        rng = random.Random(43)
        for line in make_lines(43, count=8):
            words = _line_words(line)
            writer = BitWriter()
            codec.encode_words(words, writer)
            for drop in cut_points(rng, writer.bit_length):
                with pytest.raises(CorruptBitstreamError):
                    codec.decode_words(truncate(writer, drop),
                                       len(words))

    def test_bit_flips_never_index_error(self):
        codec = HuffmanStreamCodec(_sample_code(47))
        from repro.common.bitio import BitWriter
        rng = random.Random(47)
        for line in make_lines(47, count=8):
            words = _line_words(line)
            writer = BitWriter()
            codec.encode_words(words, writer)
            for _ in range(8):
                position = rng.randrange(writer.bit_length)
                try:
                    decoded = codec.decode_words(flip(writer, position),
                                                 len(words))
                except CorruptBitstreamError:
                    continue
                assert len(decoded) == len(words)
                assert all(0 <= word < 2 ** 32 for word in decoded)
