"""Tests for replacement policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.replacement import (
    FifoPolicy,
    LruPolicy,
    RoundRobinCounter,
)


class TestLru:
    def test_victim_is_least_recent(self):
        lru = LruPolicy("abc")
        assert lru.victim() == "a"

    def test_touch_reorders(self):
        lru = LruPolicy("abc")
        lru.touch("a")
        assert lru.victim() == "b"

    def test_insert_refreshes(self):
        lru = LruPolicy("abc")
        lru.insert("a")
        assert lru.victim() == "b"

    def test_remove(self):
        lru = LruPolicy("abc")
        lru.remove("a")
        assert lru.victim() == "b"
        assert len(lru) == 2

    def test_remove_absent_is_noop(self):
        lru = LruPolicy("ab")
        lru.remove("z")
        assert len(lru) == 2

    def test_empty_victim_raises(self):
        with pytest.raises(LookupError):
            LruPolicy().victim()

    def test_touch_nonresident_raises_named_lookup_error(self):
        """Regression: touching an absent key used to surface as a bare
        OrderedDict KeyError; the policy now names itself and the key."""
        with pytest.raises(LookupError, match=r"LruPolicy.*'ghost'"):
            LruPolicy("ab").touch("ghost")

    def test_contains(self):
        lru = LruPolicy("ab")
        assert "a" in lru and "z" not in lru


class TestFifo:
    def test_victim_is_oldest(self):
        fifo = FifoPolicy("abc")
        assert fifo.victim() == "a"

    def test_touch_does_not_reorder(self):
        fifo = FifoPolicy("abc")
        fifo.touch("a")
        assert fifo.victim() == "a"

    def test_reinsert_does_not_reorder(self):
        fifo = FifoPolicy("abc")
        fifo.insert("a")
        assert fifo.victim() == "a"

    def test_empty_victim_raises(self):
        with pytest.raises(LookupError):
            FifoPolicy().victim()

    def test_touch_nonresident_raises_named_lookup_error(self):
        """FIFO ignores uses of resident keys but must reject absent
        ones just like LRU (consistent policy contract)."""
        with pytest.raises(LookupError, match=r"FifoPolicy.*'ghost'"):
            FifoPolicy("ab").touch("ghost")


class TestRoundRobin:
    def test_wraps(self):
        counter = RoundRobinCounter(3)
        assert [counter.next() for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RoundRobinCounter(0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "touch", "remove"]),
                          st.integers(min_value=0, max_value=9)),
                max_size=100))
def test_lru_victim_invariant(operations):
    """The LRU victim is always the resident key least recently
    inserted/touched — checked against a reference list model."""
    lru = LruPolicy()
    reference = []
    for op, key in operations:
        if op == "insert":
            if key in reference:
                reference.remove(key)
            reference.append(key)
            lru.insert(key)
        elif op == "touch":
            if key in reference:
                reference.remove(key)
                reference.append(key)
                lru.touch(key)
        else:
            if key in reference:
                reference.remove(key)
            lru.remove(key)
    assert len(lru) == len(reference)
    if reference:
        assert lru.victim() == reference[0]
