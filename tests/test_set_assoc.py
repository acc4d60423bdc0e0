"""Tests for the set-associative LLC models (baseline + compressed)."""

import pytest

from repro.cache.set_assoc import (
    AdaptiveCache,
    DecoupledCache,
    Sc2Cache,
    SEGMENT_BYTES,
    SetAssociativeCache,
    UncompressedCache,
)
from repro.common.config import CacheGeometry
from repro.common.words import from_words32


def tiny_geometry(ways=4, sets=2):
    return CacheGeometry(size_bytes=ways * sets * 64, ways=ways)


def line(byte):
    return bytes([byte]) * 64


def zero_line():
    return bytes(64)


class TestUncompressed:
    def test_miss_then_hit(self):
        cache = UncompressedCache(tiny_geometry())
        assert not cache.read(0).hit
        cache.fill(0, line(1))
        result = cache.read(0)
        assert result.hit
        assert result.data == line(1)
        assert result.latency_cycles == 14

    def test_capacity_eviction(self):
        cache = UncompressedCache(tiny_geometry(ways=2, sets=1))
        cache.fill(0, line(1))
        cache.fill(64, line(2))
        cache.fill(128, line(3))
        assert not cache.contains(0)
        assert cache.contains(64) and cache.contains(128)

    def test_dirty_eviction_writes_back(self):
        cache = UncompressedCache(tiny_geometry(ways=2, sets=1))
        cache.writeback(0, line(1))
        cache.fill(64, line(2))
        result = cache.fill(128, line(3))
        assert result.writebacks == [(0, line(1))]

    def test_clean_eviction_is_silent(self):
        cache = UncompressedCache(tiny_geometry(ways=2, sets=1))
        cache.fill(0, line(1))
        cache.fill(64, line(2))
        result = cache.fill(128, line(3))
        assert result.writebacks == []

    def test_ratio_never_exceeds_one(self):
        cache = UncompressedCache(tiny_geometry())
        for i in range(32):
            cache.fill(i * 64, line(i % 250))
        assert cache.compression_ratio() <= 1.0

    def test_lru_on_read(self):
        cache = UncompressedCache(tiny_geometry(ways=2, sets=1))
        cache.fill(0, line(1))
        cache.fill(64, line(2))
        cache.read(0)
        cache.fill(128, line(3))
        assert cache.contains(0)
        assert not cache.contains(64)


class TestAdaptive:
    def test_compressed_lines_share_a_set(self):
        """Zero lines compress to one segment; 2x tags allow 8 lines in a
        4-way set."""
        cache = AdaptiveCache(tiny_geometry(ways=4, sets=1))
        for i in range(8):
            cache.fill(i * 64, zero_line())
        assert sum(cache.contains(i * 64) for i in range(8)) == 8
        assert cache.compression_ratio() == pytest.approx(2.0)

    def test_tag_cap_limits_to_2x(self):
        cache = AdaptiveCache(tiny_geometry(ways=4, sets=1))
        for i in range(9):
            cache.fill(i * 64, zero_line())
        assert sum(cache.contains(i * 64) for i in range(9)) == 8

    def test_decompression_latency_on_hits(self):
        cache = AdaptiveCache(tiny_geometry())
        cache.fill(0, zero_line())
        assert cache.read(0).latency_cycles == 14 + 4

    def test_incompressible_lines_behave_like_uncompressed(self):
        import random
        rng = random.Random(0)
        cache = AdaptiveCache(tiny_geometry(ways=2, sets=1))
        lines = [bytes(rng.randrange(256) for _ in range(64))
                 for _ in range(3)]
        for i, l in enumerate(lines):
            cache.fill(i * 64, l)
        resident = sum(cache.contains(i * 64) for i in range(3))
        assert resident == 2

    def test_writeback_expansion_evicts(self):
        """A dirty update that grows must push something out."""
        import random
        rng = random.Random(1)
        cache = AdaptiveCache(tiny_geometry(ways=1, sets=1))
        cache.fill(0, zero_line())
        cache.fill(64, zero_line())
        incompressible = bytes(rng.randrange(1, 256) for _ in range(64))
        cache.writeback(0, incompressible)
        assert cache.contains(0)
        assert cache.stats.get("expansions") >= 1
        assert not cache.contains(64)

    def test_writeback_missing_line_allocates(self):
        cache = AdaptiveCache(tiny_geometry())
        cache.writeback(0, zero_line())
        assert cache.contains(0)


class TestDecoupled:
    def test_4x_tags(self):
        cache = DecoupledCache(tiny_geometry(ways=4, sets=1))
        assert cache.tags_per_set == 16

    def test_more_effective_capacity_than_adaptive(self):
        adaptive = AdaptiveCache(tiny_geometry(ways=4, sets=1))
        decoupled = DecoupledCache(tiny_geometry(ways=4, sets=1))
        for i in range(16):
            adaptive.fill(i * 64, zero_line())
            decoupled.fill(i * 64, zero_line())
        resident_a = sum(adaptive.contains(i * 64) for i in range(16))
        resident_d = sum(decoupled.contains(i * 64) for i in range(16))
        assert resident_d > resident_a


class TestSc2:
    def test_shared_dictionary_trains_on_fills(self):
        cache = Sc2Cache(tiny_geometry())
        for i in range(40):
            cache.fill((i * 64) % (8 * 64), line(7))
        assert cache.dictionary.stats.get("trainings") > 0 or \
            cache.dictionary.stats.get("uncompressed_lines") >= 0

    def test_trained_dictionary_compresses(self):
        from repro.compression.sc2dict import Sc2Dictionary
        dictionary = Sc2Dictionary(sample_lines=4)
        cache = Sc2Cache(tiny_geometry(ways=4, sets=1),
                         dictionary=dictionary)
        for i in range(16):
            cache.fill(i * 64, from_words32([42] * 16))
        resident = sum(cache.contains(i * 64) for i in range(16))
        assert resident > 8  # beyond uncompressed capacity


class TestGenericInvariants:
    def test_segments_never_exceed_budget(self):
        import random
        rng = random.Random(2)
        cache = AdaptiveCache(tiny_geometry(ways=4, sets=2))
        for i in range(100):
            data = (zero_line() if rng.random() < 0.5 else
                    bytes(rng.randrange(256) for _ in range(64)))
            if rng.random() < 0.3:
                cache.writeback(rng.randrange(32) * 64, data)
            else:
                cache.fill(rng.randrange(32) * 64, data)
            for cache_set in cache._sets:
                assert cache_set.used_segments <= cache.segments_per_set
                assert len(cache_set.lines) <= cache.tags_per_set

    def test_used_segments_consistent(self):
        import random
        rng = random.Random(3)
        cache = DecoupledCache(tiny_geometry())
        for i in range(60):
            cache.fill(rng.randrange(64) * 64,
                       bytes(rng.randrange(256) for _ in range(64)))
        for cache_set in cache._sets:
            assert cache_set.used_segments == sum(
                l.segments for l in cache_set.lines.values())

    def test_custom_name(self):
        cache = SetAssociativeCache(tiny_geometry(), name="Custom")
        assert cache.name == "Custom"
        assert cache.stats.name == "Custom"


class TestAdaptivePredictor:
    def test_starts_compressing(self):
        cache = AdaptiveCache(tiny_geometry())
        assert cache.compression_predicted_beneficial

    def test_benefit_hits_push_positive(self):
        """Hits on lines beyond the uncompressed ways reward compression."""
        cache = AdaptiveCache(tiny_geometry(ways=2, sets=1))
        for i in range(4):  # 4 zero lines in a 2-way set (2x tags)
            cache.fill(i * 64, zero_line())
        cache.read(0)  # deepest line: stack position 4 > 2 ways
        assert cache.stats.get("predictor_benefits") >= 1
        assert cache.compression_predicted_beneficial

    def test_penalty_hits_accumulate(self):
        """MRU hits on compressed lines charge decompression latency."""
        cache = AdaptiveCache(tiny_geometry(ways=2, sets=1),
                              memory_penalty_cycles=400)
        cache.fill(0, zero_line())
        for _ in range(200):
            cache.read(0)  # always MRU, always compressed
        assert cache.stats.get("predictor_penalties") >= 200
        assert cache._predictor < 0
        assert not cache.compression_predicted_beneficial

    def test_negative_predictor_stores_uncompressed(self):
        cache = AdaptiveCache(tiny_geometry(ways=2, sets=1))
        cache._predictor = -100
        cache.fill(0, zero_line())
        line = cache._sets[0].lines[0]
        assert line.segments == 8  # full uncompressed footprint
        assert cache.stats.get("uncompressed_fills") == 1

    def test_counter_saturates(self):
        cache = AdaptiveCache(tiny_geometry(ways=2, sets=1))
        cache._predictor = AdaptiveCache.COUNTER_MAX
        for i in range(4):
            cache.fill(i * 64, zero_line())
        cache.read(0)
        assert cache._predictor <= AdaptiveCache.COUNTER_MAX
