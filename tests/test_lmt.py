"""Tests for the Line-Map Table."""

import pytest

from repro.common.config import MorcConfig, SystemConfig
from repro.common.errors import CacheError
from repro.conformance.reference import RefMorcCache
from repro.conformance.streams import STREAM_MIXES, collect_stream
from repro.morc import lmt as lmt_module
from repro.morc.cache import MorcCache
from repro.morc.lmt import LineMapTable, LmtState
from repro.sim.system import make_llc


class TestLookup:
    def test_cold_lookup_misses(self):
        lmt = LineMapTable(n_entries=8, ways=2)
        entry, aliased = lmt.lookup(5)
        assert entry is None
        assert not aliased

    def test_allocate_then_lookup(self):
        lmt = LineMapTable(n_entries=8, ways=2)
        entry, conflict = lmt.allocate(5)
        assert conflict is None
        entry.state = LmtState.VALID
        entry.log_index = 3
        found, aliased = lmt.lookup(5)
        assert found is entry
        assert not aliased

    def test_aliased_miss(self):
        """A valid entry for a conflicting address triggers a tag check
        that then misses — the paper's 'LMT aliased-miss'."""
        lmt = LineMapTable(n_entries=8, ways=2)
        entry, _ = lmt.allocate(1)
        entry.state = LmtState.VALID
        found, aliased = lmt.lookup(1 + lmt.n_sets)  # same set, other line
        assert found is None
        assert aliased
        assert lmt.stats.get("aliased_misses") == 1

    def test_invalid_entries_do_not_alias(self):
        lmt = LineMapTable(n_entries=8, ways=2)
        lmt.allocate(1)  # left INVALID
        _, aliased = lmt.lookup(1 + lmt.n_sets)
        assert not aliased


class TestAllocate:
    def test_reuses_own_entry(self):
        lmt = LineMapTable(n_entries=8, ways=2)
        first, _ = lmt.allocate(5)
        first.state = LmtState.VALID
        second, conflict = lmt.allocate(5)
        assert second is first
        assert conflict is None

    def test_second_way_used_before_conflict(self):
        lmt = LineMapTable(n_entries=8, ways=2)
        a, _ = lmt.allocate(0)
        a.state = LmtState.VALID
        b, conflict = lmt.allocate(lmt.n_sets)  # same set
        assert conflict is None
        assert b is not a

    def test_conflict_evicts_lru_way(self):
        lmt = LineMapTable(n_entries=8, ways=2)
        a, _ = lmt.allocate(0)
        a.state = LmtState.VALID
        b, _ = lmt.allocate(lmt.n_sets)
        b.state = LmtState.VALID
        lmt.lookup(0)  # touch a
        entry, conflict = lmt.allocate(2 * lmt.n_sets)
        assert conflict is not None
        assert conflict.line_address == lmt.n_sets  # b was LRU
        assert entry is b
        assert lmt.stats.get("conflict_evictions") == 1

    def test_conflict_preserves_victim_contents(self):
        lmt = LineMapTable(n_entries=4, ways=1)
        a, _ = lmt.allocate(0)
        a.state = LmtState.MODIFIED
        a.log_index = 7
        _, conflict = lmt.allocate(lmt.n_sets)
        assert conflict.is_modified
        assert conflict.log_index == 7

    def test_release(self):
        lmt = LineMapTable(n_entries=8, ways=2)
        entry, _ = lmt.allocate(3)
        entry.state = LmtState.VALID
        lmt.release(entry)
        assert lmt.lookup(3) == (None, False)
        assert lmt.valid_count() == 0


class TestUnlimited:
    def test_never_conflicts(self):
        lmt = LineMapTable(n_entries=0, ways=1, unlimited=True)
        for address in range(1000):
            entry, conflict = lmt.allocate(address)
            entry.state = LmtState.VALID
            assert conflict is None
        assert lmt.valid_count() == 1000

    def test_lookup_and_release(self):
        lmt = LineMapTable(n_entries=0, ways=1, unlimited=True)
        entry, _ = lmt.allocate(42)
        entry.state = LmtState.VALID
        found, _ = lmt.lookup(42)
        assert found is entry
        lmt.release(entry)
        assert lmt.lookup(42) == (None, False)


class TestValidation:
    def test_rejects_indivisible(self):
        with pytest.raises(CacheError):
            LineMapTable(n_entries=7, ways=2)

    def test_rejects_nonpositive(self):
        with pytest.raises(CacheError):
            LineMapTable(n_entries=0, ways=2)


class TestLazySets:
    """The table is sized for 8x compression but built only where used."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``LmtEntry`` the table constructs."""
        built = []

        class CountedEntry(lmt_module.LmtEntry):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(lmt_module, "LmtEntry", CountedEntry)
        return built

    def test_untouched_table_allocates_nothing(self, built):
        # The shared 2MB LLC of the Figure 8 mixes (16 x 128KB slices).
        config = SystemConfig()
        llc = make_llc("MORC", config,
                       capacity_bytes=config.llc_per_core.size_bytes * 16)
        assert llc.lmt.n_entries == 262_144
        for address in range(0, 5_000 * 64, 64):
            assert not llc.read(address).hit
            assert not llc.contains(address)
        assert built == []
        assert llc.lmt.valid_count() == 0
        assert llc.lmt.audit() == []

    def test_allocate_builds_one_set(self, built):
        lmt = LineMapTable(n_entries=1024, ways=2)
        entry, _ = lmt.allocate(7)
        assert len(built) == 2
        entry.state = LmtState.VALID
        entry.entry_ref = object()
        assert lmt.lookup(7 + lmt.n_sets) == (None, True)
        assert lmt.lookup(8) == (None, False)
        assert len(built) == 2
        assert lmt.valid_count() == 1
        assert lmt.audit() == []

    @pytest.mark.parametrize("mix", list(STREAM_MIXES)[:2])
    def test_replay_agrees_with_eager_reference(self, mix):
        config = MorcConfig()
        prod = MorcCache(8 * 1024, config)
        gold = RefMorcCache(8 * 1024, config, algorithm="lbe")
        for step, record in enumerate(collect_stream(
                mix, 400, seed=3, working_set_lines=320)):
            address = record.address
            assert prod.contains(address) == gold.contains(address)
            hit = prod.read(address).hit
            assert hit == gold.read(address)[0], step
            if not hit:
                prod.fill(address, record.data)
                gold.fill(address, record.data)
            if record.is_write:
                prod.writeback(address, record.data)
                gold.writeback(address, record.data)
        assert prod.lmt.valid_count() == sum(
            way.is_valid for ways in gold.lmt_sets for way in ways)
        assert prod.lmt.audit() == []
        assert 0 < len(prod.lmt._sets) < prod.lmt.n_sets
