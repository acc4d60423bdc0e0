"""Tests for base-delta tag compression (paper §3.2.4, Table 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CompressionError
from repro.compression.tag_compression import (
    DISTANCE_TABLE,
    FULL_TAG_BITS,
    MAX_DISTANCE,
    TagCompressor,
    decode_distance,
    distance_code,
)


class TestDistanceTable:
    @pytest.mark.parametrize("distance,code,extra", [
        (1, 0, 0), (2, 1, 0), (3, 2, 0), (4, 3, 0),
        (5, 4, 1), (6, 4, 1), (7, 5, 1), (8, 5, 1),
        (9, 6, 2), (16, 7, 2),
        (8193, 26, 12), (16384, 27, 12),
        (16385, 28, 13), (32768, 29, 13),
    ])
    def test_table2_rows(self, distance, code, extra):
        got_code, got_extra, _ = distance_code(distance)
        assert got_code == code
        assert got_extra == extra

    def test_every_distance_matches_a_table_scan(self):
        """The O(1) code equals a scan of Table 2's rows, and decodes back,
        for every codable distance."""
        def scan(distance):
            for code in range(len(DISTANCE_TABLE) - 1, -1, -1):
                first, extra = DISTANCE_TABLE[code]
                if distance >= first:
                    return code, extra, distance - first

        for distance in range(1, MAX_DISTANCE + 1):
            code, extra, value = distance_code(distance)
            assert (code, extra, value) == scan(distance)
            assert decode_distance(code, value) == distance

    @pytest.mark.parametrize("distance", [-1, 0, MAX_DISTANCE + 1, 1 << 40])
    def test_uncodable_distances_raise(self, distance):
        with pytest.raises(CompressionError):
            distance_code(distance)

    def test_out_of_range_raises(self):
        with pytest.raises(CompressionError):
            distance_code(0)
        with pytest.raises(CompressionError):
            distance_code(MAX_DISTANCE + 1)

    @given(st.integers(min_value=1, max_value=MAX_DISTANCE))
    def test_roundtrip(self, distance):
        code, _, extra_value = distance_code(distance)
        assert decode_distance(code, extra_value) == distance

    def test_decode_rejects_bad_code(self):
        with pytest.raises(CompressionError):
            decode_distance(30, 0)

    def test_decode_rejects_bad_precision(self):
        with pytest.raises(CompressionError):
            decode_distance(4, 2)  # code 4 has 1 precision bit


class TestAppend:
    def test_first_tag_is_new_base(self):
        compressor = TagCompressor(n_bases=2)
        stream = compressor.new_stream()
        token = compressor.append_token(stream, 1000)
        assert token.kind == "new_base"
        assert token.size_bits == 2 + 5 + FULL_TAG_BITS

    def test_nearby_tag_is_delta(self):
        compressor = TagCompressor(n_bases=2)
        stream = compressor.new_stream()
        compressor.append(stream, 1000)
        token = compressor.append_token(stream, 1001)
        assert token.kind == "delta"
        assert token.sign == 0
        # valid + base-select + code + sign, 0 precision bits
        assert token.size_bits == 1 + 1 + 5 + 1

    def test_negative_delta(self):
        compressor = TagCompressor(n_bases=2)
        stream = compressor.new_stream()
        compressor.append(stream, 1000)
        token = compressor.append_token(stream, 996)
        assert token.kind == "delta"
        assert token.sign == 1

    def test_far_tag_forces_new_base(self):
        compressor = TagCompressor(n_bases=1)
        stream = compressor.new_stream()
        compressor.append(stream, 0)
        token = compressor.append_token(stream, MAX_DISTANCE + 1)
        assert token.kind == "new_base"

    def test_repeat_tag_forces_new_base(self):
        """Delta zero is not encodable (Table 2 starts at distance 1)."""
        compressor = TagCompressor(n_bases=1)
        stream = compressor.new_stream()
        compressor.append(stream, 7)
        token = compressor.append_token(stream, 7)
        assert token.kind == "new_base"

    def test_two_bases_track_two_regions(self):
        """The second base captures a second address stream (§3.2.4)."""
        compressor = TagCompressor(n_bases=2)
        stream = compressor.new_stream()
        compressor.append(stream, 1000)       # base 0
        compressor.append(stream, 1_000_000)  # replaces LRU -> base 1
        token_a = compressor.append_token(stream, 1001)
        token_b = compressor.append_token(stream, 1_000_001)
        assert token_a.kind == "delta"
        assert token_b.kind == "delta"

    def test_single_base_thrashes_on_two_regions(self):
        compressor = TagCompressor(n_bases=1)
        stream = compressor.new_stream()
        compressor.append(stream, 1000)
        compressor.append(stream, 1_000_000)
        token = compressor.append_token(stream, 1001)
        assert token.kind == "new_base"

    def test_single_base_has_no_select_bit(self):
        compressor = TagCompressor(n_bases=1)
        stream = compressor.new_stream()
        compressor.append(stream, 0)
        token = compressor.append_token(stream, 1)
        assert token.size_bits == 1 + 5 + 1  # valid + code + sign

    def test_measure_matches_append(self):
        compressor = TagCompressor(n_bases=2)
        stream = compressor.new_stream()
        compressor.append(stream, 500)
        for tag in (501, 503, 400, 5_000_000, 500):
            measured = compressor.measure(stream, tag)
            token = compressor.append_token(stream, tag)
            assert measured == token.size_bits

    def test_stream_totals(self):
        compressor = TagCompressor()
        stream = compressor.new_stream()
        sizes = [compressor.append(stream, t) for t in (10, 11, 12)]
        assert stream.n_tags == 3
        assert stream.total_bits == sum(sizes)

    def test_negative_address_rejected(self):
        compressor = TagCompressor()
        with pytest.raises(CompressionError):
            compressor.append(compressor.new_stream(), -1)


class TestDecode:
    def test_decode_replays_addresses(self):
        compressor = TagCompressor(n_bases=2)
        stream = compressor.new_stream()
        tags = [100, 101, 105, 90, 2_000_000, 2_000_004, 102, 2_000_001]
        tokens = [compressor.append_token(stream, t) for t in tags]
        assert compressor.decode(tokens) == tags


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 40),
                min_size=1, max_size=40),
       st.sampled_from([1, 2]))
def test_tag_stream_roundtrip_property(tags, n_bases):
    compressor = TagCompressor(n_bases=n_bases)
    stream = compressor.new_stream()
    tokens = [compressor.append_token(stream, t) for t in tags]
    assert compressor.decode(tokens) == tags


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1 << 20, max_value=1 << 30),
       st.lists(st.integers(min_value=1, max_value=100),
                min_size=2, max_size=50))
def test_local_streams_compress_well(start, deltas):
    """Sequentially-local tag streams average far below a raw 42b tag:
    after the opening new-base, every entry is a short delta."""
    compressor = TagCompressor(n_bases=2)
    stream = compressor.new_stream()
    tag = start
    compressor.append(stream, tag)
    for delta in deltas:
        tag += delta
        compressor.append(stream, tag)
    delta_bits = stream.total_bits - (2 + 5 + FULL_TAG_BITS)
    mean_delta_bits = delta_bits / (stream.n_tags - 1)
    assert mean_delta_bits <= 1 + 1 + 5 + 1 + 13  # worst Table 2 entry
