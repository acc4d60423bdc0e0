"""Tests for the full MORC cache (paper §3.1 operations)."""

import random

import pytest

from repro.common.config import MorcConfig
from repro.common.errors import CacheError
from repro.compression.lbe import LbeCompressor, LbeDictionary
from repro.morc.cache import MorcCache
from repro.morc.codecs import UNCOMPRESSED_LINE_BITS
from tests.test_morc_lifecycle import at_each_close


def small_cache(**overrides):
    defaults = dict(n_active_logs=2, lmt_overprovision=8, lmt_ways=2)
    defaults.update(overrides)
    return MorcCache(8 * 1024, config=MorcConfig(**defaults))


def line(byte):
    return bytes([byte]) * 64


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(64))


class TestReadFill:
    def test_cold_miss(self):
        cache = small_cache()
        result = cache.read(0)
        assert not result.hit
        assert result.latency_cycles == 14

    def test_fill_then_hit(self):
        cache = small_cache()
        cache.fill(0, line(1))
        result = cache.read(0)
        assert result.hit
        assert result.data == line(1)

    def test_hit_latency_grows_with_position(self):
        cache = small_cache(n_active_logs=1)
        for i in range(6):
            cache.fill(i * 64, line(i))
        early = cache.read(0).latency_cycles
        late = cache.read(5 * 64).latency_cycles
        assert late > early

    def test_hit_latency_formula(self):
        cache = small_cache(n_active_logs=1)
        cache.fill(0, line(1))
        # position 0: 14 base + ceil(1/8) tag + ceil(64/16) data = 19
        assert cache.read(0).latency_cycles == 14 + 1 + 4

    def test_latency_histogram_populated(self):
        cache = small_cache()
        cache.fill(0, line(1))
        cache.read(0)
        assert cache.latency_bytes_histogram[64] == 1

    def test_compression_ratio_counts_valid(self):
        cache = small_cache()
        for i in range(16):
            cache.fill(i * 64, bytes(64))  # zero lines, hugely compressible
        assert cache.compression_ratio() == pytest.approx(16 / 128)

    def test_contains(self):
        cache = small_cache()
        cache.fill(0, line(1))
        assert cache.contains(0)
        assert not cache.contains(64)


class TestWriteback:
    def test_writeback_supersedes(self):
        cache = small_cache()
        cache.fill(0, line(1))
        cache.writeback(0, line(2))
        assert cache.read(0).data == line(2)
        assert cache.stats.get("superseded_lines") == 1
        assert cache.invalid_fraction() > 0

    def test_writeback_to_absent_line_allocates(self):
        """Non-inclusive LLC: write-backs may arrive for absent lines."""
        cache = small_cache()
        cache.writeback(0, line(3))
        assert cache.read(0).data == line(3)

    def test_modified_state_survives_flush_to_memory(self):
        cache = small_cache(n_active_logs=1, log_size_bytes=512)
        cache.writeback(0, random_line(0))
        # Force every log to be recycled by filling with incompressible data.
        writebacks = []
        for i in range(1, 400):
            result = cache.fill(i * 64, random_line(i))
            writebacks.extend(result.writebacks)
        assert any(address == 0 for address, _ in writebacks)

    def test_clean_lines_are_dropped_silently(self):
        cache = small_cache(n_active_logs=1)
        cache.fill(0, random_line(0))
        writebacks = []
        for i in range(1, 400):
            writebacks.extend(cache.fill(i * 64, random_line(i)).writebacks)
        assert not any(address == 0 for address, _ in writebacks)


class TestLogLifecycle:
    def test_logs_close_and_recycle(self):
        cache = small_cache()
        for i in range(600):
            cache.fill(i * 64, random_line(i))
        assert cache.stats.get("log_closures") > 0
        assert cache.stats.get("log_flushes") > 0

    def test_dead_log_reuse_skips_flush(self):
        """A closed log whose lines were all superseded is reused without
        a flush (paper §3.2.1)."""
        cache = small_cache(n_active_logs=1)
        n_lines = 6
        for i in range(n_lines):
            cache.fill(i * 64, random_line(i))
        # Supersede everything via write-backs until the first log closes.
        for round_number in range(1, 40):
            for i in range(n_lines):
                cache.writeback(i * 64, random_line(1000 + i + round_number))
            if cache.stats.get("log_reuses") > 0:
                break
        assert cache.stats.get("log_reuses") > 0

    def test_flush_releases_lmt_entries(self):
        cache = small_cache(n_active_logs=1)
        for i in range(400):
            cache.fill(i * 64, random_line(i))
        # Flushed lines must be true misses now.
        assert not cache.contains(0)

    def test_recycled_logs_get_fresh_codec_state_and_tag_bases(self):
        checked = []

        def check_recycled(log):
            if log.generation == 0:
                return
            assert log.tag_stream.n_bases == 1
            # The dictionary holds only what this generation appended.
            replay = LbeDictionary()
            for entry in log.entries:
                LbeCompressor().compress(entry.data, replay)
            assert log.codec_state._values == replay._values
            checked.append(log.index)

        cache = small_cache(n_active_logs=1, tag_bases=1)
        # Each recycled log is checked as it closes, while it still
        # holds its state, and the one still active at the end.
        with at_each_close(check_recycled):
            for i in range(400):
                cache.fill(i * 64, random_line(i % 50))
        check_recycled(cache.logs[cache._active[0]])
        assert len(checked) > 1

    def test_reuse_takes_the_oldest_all_dead_closed_log(self):
        """Priority 1 reuses the all-dead closed log that closed first,
        whatever order the closed logs' lines died in."""
        cache = small_cache(n_active_logs=1)
        address = 0
        while len(cache._closed_fifo) < 3:
            cache.fill(address * 64, random_line(address))
            address += 1
        first, second, third = (cache.logs[index]
                                for index in cache._closed_fifo)
        # Drop the third closed log's lines first, then the first's, as
        # write-backs superseding them would, without appending.
        for log in (third, first):
            for entry in log.entries:
                cache.lmt.release(entry.lmt_ref)
                cache._invalidate(log, entry)
        assert cache._dead_closed == 2 and not second.all_invalid
        reused = []
        while len(reused) < 2:
            before = cache.stats.get("log_reuses")
            cache.fill(address * 64, random_line(address))
            address += 1
            if cache.stats.get("log_reuses") > before:
                reused.append(cache.logs[cache._active[0]])
        assert [log.index for log in reused] == [first.index, third.index]
        assert cache._dead_closed == 0
        assert list(cache._closed_fifo)[0] == second.index

    def test_capacity_never_exceeded(self):
        cache = small_cache()
        for i in range(500):
            cache.fill(i * 64, bytes(64))
        for log in cache.logs:
            used = log.data_bits_used + (log.tag_bits_used if log.merged
                                         else 0)
            assert used <= log.data_capacity_bits
            if log.tag_capacity_bits is not None and not log.merged:
                assert log.tag_bits_used <= log.tag_capacity_bits

    def test_needs_enough_logs_for_active_set(self):
        with pytest.raises(CacheError):
            MorcCache(512, config=MorcConfig(n_active_logs=8))

    def test_capacity_must_divide_into_logs(self):
        with pytest.raises(CacheError):
            MorcCache(8 * 1024 + 17, config=MorcConfig())


class TestLmtIntegration:
    def test_conflict_eviction_writes_back_dirty(self):
        cache = small_cache(lmt_overprovision=1, lmt_ways=1)
        n_sets = cache.lmt.n_sets
        cache.writeback(0, line(1))  # modified
        result = cache.fill(n_sets * 64, line(2))  # LMT conflict with 0
        assert (0, line(1)) in result.writebacks
        assert not cache.contains(0)
        assert cache.stats.get("lmt_conflict_evictions") == 1

    def test_conflict_eviction_drops_clean(self):
        cache = small_cache(lmt_overprovision=1, lmt_ways=1)
        n_sets = cache.lmt.n_sets
        cache.fill(0, line(1))
        result = cache.fill(n_sets * 64, line(2))
        assert result.writebacks == []
        assert not cache.contains(0)

    def test_aliased_miss_reported(self):
        cache = small_cache(lmt_overprovision=1, lmt_ways=1)
        n_sets = cache.lmt.n_sets
        cache.fill(0, line(1))
        result = cache.read(n_sets * 64)
        assert not result.hit
        assert result.aliased_miss

    def test_unlimited_metadata_has_no_conflicts(self):
        cache = small_cache(unlimited_metadata=True)
        for i in range(300):
            cache.fill(i * 64, bytes(64))
        assert cache.stats.get("lmt_conflict_evictions") == 0


class TestCompressionDisabled:
    def test_uncompressed_lines_cost_full_size(self):
        cache = MorcCache(8 * 1024, config=MorcConfig(n_active_logs=2),
                          algorithm="raw")
        for i in range(200):
            cache.fill(i * 64, bytes(64))
        # 512B logs hold at most 8 raw lines minus tag space.
        for log in cache.logs:
            assert log.n_entries <= 8
        assert cache.compression_ratio() <= 1.0

    def test_invalid_fraction_tracks_writebacks(self):
        cache = MorcCache(8 * 1024, config=MorcConfig(n_active_logs=2),
                          algorithm="raw")
        for i in range(8):
            cache.fill(i * 64, line(i))
        for i in range(8):
            cache.writeback(i * 64, line(100 + i))
        assert cache.invalid_fraction() == pytest.approx(0.5)


class TestMerged:
    def test_merged_name(self):
        cache = MorcCache(8 * 1024,
                          config=MorcConfig(n_active_logs=2,
                                            merged_tags=True))
        assert cache.name == "MORCMerged"

    def test_merged_shares_log_space(self):
        cache = MorcCache(8 * 1024,
                          config=MorcConfig(n_active_logs=2,
                                            merged_tags=True))
        for i in range(300):
            cache.fill(i * 64, bytes(64))
        for log in cache.logs:
            assert (log.data_bits_used + log.tag_bits_used
                    <= log.data_capacity_bits)

    def test_merged_roughly_tracks_split(self):
        split = small_cache()
        merged = MorcCache(8 * 1024,
                           config=MorcConfig(n_active_logs=2,
                                             merged_tags=True))
        for i in range(400):
            data = random_line(i % 40)
            split.fill(i * 64, data)
            merged.fill(i * 64, data)
        assert merged.compression_ratio() == pytest.approx(
            split.compression_ratio(), rel=0.5)


class TestDataIntegrity:
    def test_log_streams_decompress_to_stored_lines(self):
        """End-to-end: each log's entries, re-encoded in append order
        against a fresh dictionary, cost the bits the cache charged and
        leave the log's dictionary; the streams replay to the entries'
        data — the cache's bit-accounting corresponds to real symbols."""
        lbe = LbeCompressor()

        def replay(log):
            dictionary = LbeDictionary()
            stream = [lbe.compress(entry.data, dictionary)
                      for entry in log.entries]
            assert [min(compressed.size_bits, UNCOMPRESSED_LINE_BITS)
                    for compressed in stream] == [
                entry.data_bits for entry in log.entries]
            return dictionary, stream

        def check_dictionary(log):
            dictionary, _ = replay(log)
            assert dictionary._values == log.codec_state._values

        cache = small_cache()
        rng = random.Random(7)
        pool = [bytes(rng.randrange(256) for _ in range(16))
                for _ in range(4)]
        # A log's dictionary is compared as it closes, while it still
        # holds one; the active logs' at the end.
        with at_each_close(check_dictionary):
            for i in range(120):
                data = b"".join(rng.choice(pool) for _ in range(4))
                cache.fill(i * 64, data)
        checked = 0
        for log in cache.logs:
            if not log.entries:
                continue
            dictionary, stream = replay(log)
            if log.closed:
                assert log.codec_state is None
            else:
                assert dictionary._values == log.codec_state._values
            decoded = lbe.decompress(stream)
            assert len(decoded) == len(log.entries)
            for entry, data in zip(log.entries, decoded):
                assert entry.data == data
                checked += 1
        assert checked >= 120


class TestContainsIsReadOnly:
    """``contains`` is a probe: like the set-associative caches', it must
    not change which way a later LMT conflict evicts."""

    @staticmethod
    def conflict_outcome(probe):
        cache = small_cache()
        n_sets = cache.lmt.n_sets
        older, newer, third = 0, n_sets * 64, 2 * n_sets * 64
        cache.fill(older, line(1))
        cache.fill(newer, line(2))
        if probe:
            assert cache.contains(older)
        lookups = cache.lmt.stats.get("lookups")
        cache.fill(third, line(3))  # both ways taken: a conflict
        return ([cache.contains(address)
                 for address in (older, newer, third)],
                cache.stats.get("lmt_conflict_evictions"), lookups)

    def test_probe_leaves_the_conflict_victim_alone(self):
        probed = self.conflict_outcome(probe=True)
        assert probed == self.conflict_outcome(probe=False)
        assert probed[0] == [False, True, True]  # LRU: the older line
        assert probed[1] == 1

    def test_unlimited_table_probe(self):
        cache = small_cache(unlimited_metadata=True)
        cache.fill(0, line(1))
        assert cache.contains(0)
        assert not cache.contains(64)
