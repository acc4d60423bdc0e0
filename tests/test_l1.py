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


class TestStatsView:
    """``stats`` reads the L1's int counters as a StatGroup."""

    def test_keys_appear_once_counted(self):
        l1 = tiny_l1()
        assert l1.stats.as_dict() == {}
        l1.lookup(0, is_write=False)
        assert l1.stats.as_dict() == {"misses": 1.0, "read_misses": 1.0}
        assert "write_misses" not in l1.stats
        l1.fill(0, line(1))
        l1.lookup(0, is_write=True, data=line(2))
        assert l1.stats.as_dict() == {"hits": 1.0, "misses": 1.0,
                                      "write_hits": 1.0,
                                      "read_misses": 1.0}

    def test_values_are_floats(self):
        l1 = tiny_l1()
        for i in (0, 2, 4):          # one set: the third fill evicts
            l1.fill(i * 64, line(i), dirty=True)
        l1.lookup(4 * 64, is_write=False)
        assert l1.stats.get("evictions") == 1.0
        assert l1.stats.get("dirty_evictions") == 1.0
        assert all(type(v) is float for v in l1.stats.as_dict().values())

    def test_reset_empties(self):
        l1 = tiny_l1()
        l1.fill(0, line(1))
        l1.lookup(0, is_write=False)
        l1.lookup(64, is_write=True)
        l1.stats.reset()
        assert l1.stats.as_dict() == {}
        assert l1.stats.get("hits") == 0.0
        l1.lookup(0, is_write=False)
        assert l1.stats.as_dict() == {"hits": 1.0, "read_hits": 1.0}

    def test_the_view_takes_no_counts(self):
        with pytest.raises(TypeError):
            tiny_l1().stats.add("hits")

    def test_counts_every_access_of_a_real_trace(self):
        from repro.common.config import SystemConfig
        from repro.mem.controller import MemoryChannel
        from repro.sim.core import CoreSimulator
        from repro.sim.system import make_llc
        from repro.workloads.spec import make_trace

        config = SystemConfig()
        core = CoreSimulator(make_llc("Uncompressed", config),
                             MemoryChannel(config.memory), config)
        metrics = core.run(make_trace("gcc", 20_000))
        stats = core.l1.stats
        assert metrics.l1_accesses > 0
        assert stats.get("hits") + stats.get("misses") == metrics.l1_accesses
        assert stats.get("misses") == metrics.l1_misses


class TestLineChecks:
    """A line that is not exactly 64 bytes of ``bytes`` is rejected or
    converted by ``check_line`` wherever a line enters a cache."""

    BAD = (b"short", bytes(65), bytearray(10))

    @pytest.mark.parametrize("bad", BAD)
    def test_short_lines_are_rejected(self, bad):
        from repro.cache.set_assoc import UncompressedCache

        l1 = tiny_l1()
        with pytest.raises(ValueError):
            l1.fill(0, bad)
        assert not l1.contains(0)
        l1.fill(0, line(1))
        with pytest.raises(ValueError):
            l1.lookup(0, is_write=True, data=bad)
        assert l1.line_data(0) == line(1)
        llc = UncompressedCache(CacheGeometry(8 * 1024, ways=8))
        with pytest.raises(ValueError):
            llc.fill(0, bad)
        assert not llc.contains(0)

    def test_non_bytes_lines_are_rejected(self):
        l1 = tiny_l1()
        with pytest.raises(TypeError):
            l1.fill(0, [0] * 64)
        l1.fill(0, line(1))
        with pytest.raises(TypeError):
            l1.lookup(0, is_write=True, data=memoryview(line(2)))

    def test_bytearray_lines_are_stored_as_bytes(self):
        from repro.cache.set_assoc import UncompressedCache

        l1 = tiny_l1()
        l1.fill(0, bytearray(line(1)))
        assert type(l1.line_data(0)) is bytes
        assert l1.line_data(0) == line(1)
        l1.lookup(0, is_write=True, data=bytearray(line(2)))
        assert type(l1.line_data(0)) is bytes
        assert l1.line_data(0) == line(2)
        llc = UncompressedCache(CacheGeometry(8 * 1024, ways=8))
        llc.fill(0, bytearray(line(3)))
        result = llc.read(0)
        assert result.hit and type(result.data) is bytes
        assert result.data == line(3)

    def test_a_read_hit_ignores_the_data(self):
        l1 = tiny_l1()
        l1.fill(0, line(1))
        assert l1.lookup(0, is_write=False, data=b"short")
        assert l1.line_data(0) == line(1)
