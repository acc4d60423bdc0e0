"""Tests for the statistics registry."""

from repro.common.stats import StatGroup


class TestStatGroup:
    def test_defaults_to_zero(self):
        stats = StatGroup("test")
        assert stats.get("anything") == 0.0
        assert stats["anything"] == 0.0

    def test_add(self):
        stats = StatGroup("test")
        stats.add("hits")
        stats.add("hits", 2)
        assert stats.get("hits") == 3

    def test_set_overwrites(self):
        stats = StatGroup("test")
        stats.add("gauge", 5)
        stats.set("gauge", 1)
        assert stats.get("gauge") == 1

    def test_contains(self):
        stats = StatGroup("test")
        assert "hits" not in stats
        stats.add("hits")
        assert "hits" in stats

    def test_iteration_sorted(self):
        stats = StatGroup("test")
        stats.add("b")
        stats.add("a")
        assert list(stats) == ["a", "b"]

    def test_reset(self):
        stats = StatGroup("test")
        stats.add("x")
        stats.reset()
        assert stats.get("x") == 0.0
        assert "x" not in stats

    def test_ratio(self):
        stats = StatGroup("test")
        stats.add("hits", 3)
        stats.add("accesses", 4)
        assert stats.ratio("hits", "accesses") == 0.75

    def test_ratio_zero_denominator(self):
        stats = StatGroup("test")
        assert stats.ratio("hits", "accesses") == 0.0

    def test_as_dict_snapshot(self):
        stats = StatGroup("test")
        stats.add("x")
        snapshot = stats.as_dict()
        stats.add("x")
        assert snapshot == {"x": 1.0}

    def test_repr(self):
        stats = StatGroup("test")
        stats.add("x")
        assert "test" in repr(stats) and "x=1" in repr(stats)
