"""Tests for ASCII report rendering."""

from repro.experiments.report import format_table, series_table


class TestFormatTable:
    def test_basic(self):
        table = format_table(["a", "b"], [["x", 1.234], ["y", 5.0]])
        lines = table.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "1.23" in table
        assert "5.00" in table

    def test_title(self):
        table = format_table(["a"], [["x"]], title="My Title")
        assert table.splitlines()[0] == "My Title"

    def test_precision(self):
        table = format_table(["v"], [[3.14159]], precision=4)
        assert "3.1416" in table

    def test_alignment_consistent(self):
        table = format_table(["name", "v"], [["short", 1.0],
                                             ["muchlongername", 2.0]])
        lines = [l for l in table.splitlines() if l and "-" not in l[:2]]
        assert len({len(line.rstrip()) for line in lines[1:]}) <= 2


class TestSeriesTable:
    def test_means_appended(self):
        table = series_table("t", ["w1", "w2"],
                             {"A": [1.0, 3.0], "B": [2.0, 2.0]})
        assert "AMean" in table and "GMean" in table
        assert "2.00" in table  # amean of A

    def test_gmean_correct(self):
        table = series_table("t", ["w1", "w2"], {"A": [1.0, 4.0]})
        assert "2.00" in table  # gmean(1,4)=2

    def test_no_means(self):
        table = series_table("t", ["w1"], {"A": [1.0]}, means=False)
        assert "AMean" not in table

    def test_empty_rows(self):
        table = series_table("t", [], {"A": []})
        assert "workload" in table


class TestBarCharts:
    def test_bar_chart(self):
        from repro.experiments.report import bar_chart
        chart = bar_chart("t", ["a", "bb"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert lines[0] == "t"
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 10

    def test_bar_chart_zero_peak(self):
        from repro.experiments.report import bar_chart
        chart = bar_chart("t", ["a"], [0.0])
        assert "#" not in chart

    def test_bar_chart_mismatched_raises(self):
        import pytest
        from repro.experiments.report import bar_chart
        with pytest.raises(ValueError):
            bar_chart("t", ["a"], [1.0, 2.0])
