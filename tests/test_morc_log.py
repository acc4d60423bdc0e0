"""Tests for the MORC log structure."""

import pytest

from repro.common.errors import CacheError
from repro.compression.lbe import LbeDictionary
from repro.compression.tag_compression import TagStream
from repro.morc.log import Log


def make_log(capacity_bits=4096, tag_bits=672, merged=False):
    return Log(index=0, data_capacity_bits=capacity_bits,
               tag_capacity_bits=tag_bits, merged=merged)


def line(byte):
    return bytes([byte]) * 64


class TestAppend:
    def test_positions_are_sequential(self):
        log = make_log()
        entries = [log.append(i, line(i), 100, 10) for i in range(5)]
        assert [e.position for e in entries] == [0, 1, 2, 3, 4]
        assert log.n_entries == 5
        assert log.valid_count == 5

    def test_accounting(self):
        log = make_log()
        log.append(0, line(0), 100, 10)
        log.append(1, line(1), 50, 8)
        assert log.data_bits_used == 150
        assert log.tag_bits_used == 18

    def test_fits_respects_data_capacity(self):
        log = make_log(capacity_bits=200, tag_bits=None)
        assert log.fits(200, 0)
        log.append(0, line(0), 150, 0)
        assert not log.fits(51, 0)
        assert log.fits(50, 0)

    def test_fits_respects_tag_capacity(self):
        log = make_log(tag_bits=20)
        assert log.fits(10, 20)
        assert not log.fits(10, 21)

    def test_unlimited_tags(self):
        log = make_log(tag_bits=None)
        assert log.fits(10, 10_000)

    def test_merged_shares_capacity(self):
        log = make_log(capacity_bits=100, tag_bits=None, merged=True)
        assert log.fits(60, 40)
        assert not log.fits(60, 41)
        log.append(0, line(0), 60, 40)
        assert not log.fits(1, 0)

    def test_overflow_raises(self):
        log = make_log(capacity_bits=100, tag_bits=None)
        with pytest.raises(CacheError):
            log.append(0, line(0), 101, 0)

    def test_append_to_closed_raises(self):
        log = make_log()
        log.closed = True
        with pytest.raises(CacheError):
            log.append(0, line(0), 10, 1)

    def test_output_bytes_through(self):
        log = make_log()
        entries = [log.append(i, line(i), 10, 1) for i in range(3)]
        assert [e.output_bytes_through for e in entries] == [64, 128, 192]

    def test_log_index_recorded(self):
        log = make_log()
        assert log.append(0, line(0), 10, 1).log_index == 0


class TestInvalidate:
    def test_invalidate_decrements(self):
        log = make_log()
        entry = log.append(0, line(0), 10, 1)
        log.invalidate(entry)
        assert not entry.valid
        assert log.valid_count == 0

    def test_double_invalidate_is_idempotent(self):
        log = make_log()
        entry = log.append(0, line(0), 10, 1)
        log.invalidate(entry)
        log.invalidate(entry)
        assert log.valid_count == 0

    def test_all_invalid(self):
        log = make_log()
        assert not log.all_invalid  # empty log is not "all invalid"
        entries = [log.append(i, line(i), 10, 1) for i in range(2)]
        assert not log.all_invalid
        for entry in entries:
            log.invalidate(entry)
        assert log.all_invalid


class TestReset:
    def test_reset_clears_everything(self):
        log = make_log()
        log.append(0, line(0), 10, 1)
        log.closed = True
        generation = log.generation
        codec_state, tag_stream = LbeDictionary(), TagStream(n_bases=1)
        log.reset(codec_state=codec_state, tag_stream=tag_stream)
        assert log.n_entries == 0
        assert log.data_bits_used == 0
        assert log.tag_bits_used == 0
        assert log.valid_count == 0
        assert not log.closed
        assert log.generation == generation + 1
        assert log.codec_state is codec_state
        assert log.tag_stream is tag_stream


class TestUtilization:
    def test_split_counts_data_only(self):
        log = make_log(capacity_bits=100, tag_bits=50)
        log.append(0, line(0), 50, 10)
        assert log.utilization == pytest.approx(0.5)

    def test_merged_counts_tags(self):
        log = make_log(capacity_bits=100, tag_bits=None, merged=True)
        log.append(0, line(0), 50, 10)
        assert log.utilization == pytest.approx(0.6)


class TestDataRoom:
    """The one fit rule: a line fits iff its data is within the room."""

    def test_fits_is_data_bits_within_room(self):
        log = make_log(capacity_bits=100, tag_bits=None)
        assert log.data_room(5) == 100
        assert log.fits(100, 5)
        assert not log.fits(101, 5)

    def test_tiny_log_room(self):
        log = make_log(capacity_bits=100, tag_bits=None)
        log.append(0, line(0), 90, 0)
        assert log.data_room(10) == 10
        assert not log.fits(20, 10)

    def test_closed_log_has_no_room(self):
        log = make_log()
        log.closed = True
        assert log.data_room(0) is None
        assert not log.fits(0, 0)

    def test_tag_region_full(self):
        log = make_log(tag_bits=20)
        log.append(0, line(0), 10, 12)
        assert log.data_room(8) == 4096 - 10
        assert log.data_room(9) is None

    def test_merged_room_counts_the_new_tag(self):
        log = make_log(capacity_bits=100, tag_bits=None, merged=True)
        log.append(0, line(0), 50, 10)
        assert log.data_room(15) == 25
        assert log.data_room(40) == 0
        assert log.data_room(41) is None

    def test_unlimited_tags_never_block(self):
        log = make_log(tag_bits=None)
        log.append(0, line(0), 96, 10_000)
        assert log.data_room(10_000) == 4000
