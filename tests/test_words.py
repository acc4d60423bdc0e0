"""Tests for cache-line word utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.common import words


class TestCheckLine:
    def test_accepts_64_bytes(self):
        line = bytes(64)
        assert words.check_line(line) == line

    def test_accepts_bytearray(self):
        assert isinstance(words.check_line(bytearray(64)), bytes)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            words.check_line(bytes(63))

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            words.check_line([0] * 64)


class TestWords32:
    def test_roundtrip(self):
        line = bytes(range(64))
        assert words.from_words32(words.words32(line)) == line

    def test_count(self):
        assert len(words.words32(bytes(64))) == 16

    def test_big_endian(self):
        line = b"\x01\x02\x03\x04" + bytes(60)
        assert words.words32(line)[0] == 0x01020304

    def test_full_line_is_a_list_of_word_slices(self):
        line = bytes((7 * i + 3) % 256 for i in range(64))
        unpacked = words.words32(line)
        assert type(unpacked) is list
        assert unpacked == [int.from_bytes(line[i:i + 4], "big")
                            for i in range(0, 64, 4)]
        assert words.words32(bytearray(line)) == unpacked

    @pytest.mark.parametrize("data, expected", [
        (b"", []),
        (b"\x00\x00\x01\x00", [0x100]),
        (bytes(range(1, 9)), [0x01020304, 0x05060708]),
        (b"\x01\x02\x03\x04\x05\x06", [0x01020304, 0x0506]),
    ])
    def test_other_lengths_unchanged(self, data, expected):
        assert words.words32(data) == expected


class TestChunks:
    def test_sizes(self):
        line = bytes(64)
        for size in words.GRANULARITIES:
            pieces = list(words.chunks(line, size))
            assert len(pieces) == 64 // size
            assert all(len(p) == size for p in pieces)

    def test_reassembles(self):
        line = bytes(range(64))
        assert b"".join(words.chunks(line, 16)) == line


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                min_size=16, max_size=16))
def test_words_roundtrip_property(values):
    assert words.words32(words.from_words32(values)) == values
