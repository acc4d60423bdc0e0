"""Tests for the private L1 cache."""

import pytest

from repro.cache.l1 import L1Cache
from repro.common.config import CacheGeometry


def tiny_l1(ways=2, sets=2):
    return L1Cache(CacheGeometry(size_bytes=ways * sets * 64, ways=ways))


def line(byte):
    return bytes([byte]) * 64


class TestLookup:
    def test_cold_miss(self):
        l1 = tiny_l1()
        assert not l1.lookup(0, is_write=False)
        assert l1.stats.get("read_misses") == 1

    def test_hit_after_fill(self):
        l1 = tiny_l1()
        l1.fill(0, line(1))
        assert l1.lookup(0, is_write=False)
        assert l1.line_data(0) == line(1)

    def test_write_hit_dirties_and_updates(self):
        l1 = tiny_l1()
        l1.fill(0, line(1))
        assert l1.lookup(0, is_write=True, data=line(2))
        assert l1.line_data(0) == line(2)
        victim = None
        # evict it by filling the set
        for i in (2, 4):  # same set (stride = n_sets lines)
            victim = l1.fill(i * 64, line(9)) or victim
        assert victim is not None
        address, data, dirty = victim
        assert address == 0
        assert dirty
        assert data == line(2)

    def test_clean_eviction(self):
        l1 = tiny_l1()
        l1.fill(0, line(1))
        l1.fill(2 * 64, line(2))
        victim = l1.fill(4 * 64, line(3))
        assert victim is not None
        assert victim[2] is False

    def test_lru_order(self):
        l1 = tiny_l1()
        l1.fill(0, line(1))
        l1.fill(2 * 64, line(2))
        l1.lookup(0, is_write=False)  # refresh line 0
        victim = l1.fill(4 * 64, line(3))
        assert victim[0] == 2 * 64

    def test_fill_existing_replaces(self):
        l1 = tiny_l1()
        l1.fill(0, line(1))
        assert l1.fill(0, line(2)) is None
        assert l1.line_data(0) == line(2)

    def test_dirty_fill(self):
        l1 = tiny_l1()
        l1.fill(0, line(1), dirty=True)
        l1.fill(2 * 64, line(2))
        victim = l1.fill(4 * 64, line(3))
        assert victim[2] is True

    def test_counters(self):
        l1 = tiny_l1()
        l1.fill(0, line(1))
        l1.lookup(0, is_write=False)
        l1.lookup(64 * 100, is_write=True)
        assert l1.stats.get("hits") + l1.stats.get("misses") == 2
        assert l1.stats.get("misses") == 1
        assert l1.stats.get("write_misses") == 1

    def test_rejects_bad_line(self):
        l1 = tiny_l1()
        with pytest.raises(ValueError):
            l1.fill(0, b"short")

    def test_sets_are_independent(self):
        l1 = tiny_l1()
        l1.fill(0, line(1))      # set 0
        l1.fill(64, line(2))     # set 1
        l1.fill(2 * 64, line(3))  # set 0
        l1.fill(4 * 64, line(4))  # set 0 -> evicts line 0 only
        assert l1.contains(64)
        assert not l1.contains(0)
