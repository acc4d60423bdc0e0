"""Streaming reservoir + bounded miss series: exactness and sampling.

The contract that keeps tier-1 results byte-identical: a series is a
drop-in list while below capacity (same values, same order, same sum),
and past capacity it keeps ``count``/``total``/``min``/``max`` exact
while the stored samples become a deterministic uniform sample.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.reservoir import (
    MissSeries,
    Reservoir,
    series_scale,
    series_total,
)


# -- Reservoir ----------------------------------------------------------

def test_exact_below_capacity():
    reservoir = Reservoir(capacity=8)
    values = [3.0, 1.0, 4.0, 1.0, 5.0]
    for value in values:
        reservoir.observe(value)
    assert reservoir.exact
    assert reservoir.samples == values
    assert reservoir.count == 5
    assert reservoir.total == pytest.approx(14.0)
    assert reservoir.mean == pytest.approx(14.0 / 5)
    assert reservoir.min == 1.0
    assert reservoir.max == 5.0


def test_exact_aggregates_past_capacity():
    reservoir = Reservoir(capacity=16)
    for value in range(1000):
        reservoir.observe(float(value))
    assert not reservoir.exact
    assert reservoir.count == 1000
    assert reservoir.total == pytest.approx(sum(range(1000)))
    assert reservoir.min == 0.0
    assert reservoir.max == 999.0
    assert len(reservoir.samples) == 16
    # every retained sample really was observed
    assert all(value == int(value) and 0 <= value < 1000
               for value in reservoir.samples)


def test_quantiles_exact_on_known_inputs():
    reservoir = Reservoir(capacity=128)
    for value in range(101):  # 0..100
        reservoir.observe(float(value))
    assert reservoir.quantile(0.0) == 0.0
    assert reservoir.quantile(0.5) == 50.0
    assert reservoir.quantile(0.25) == 25.0
    assert reservoir.quantile(1.0) == 100.0
    # interpolation between order statistics
    two = Reservoir(capacity=8)
    two.observe(10.0)
    two.observe(20.0)
    assert two.quantile(0.5) == pytest.approx(15.0)


def test_quantile_validates_range():
    reservoir = Reservoir()
    with pytest.raises(ValueError):
        reservoir.quantile(1.5)
    assert reservoir.quantile(0.5) == 0.0  # empty -> 0


def test_deterministic_replacement():
    first, second = Reservoir(capacity=8), Reservoir(capacity=8)
    for value in range(500):
        first.observe(float(value))
        second.observe(float(value))
    assert first.samples == second.samples


def test_capacity_validation():
    with pytest.raises(ValueError):
        Reservoir(capacity=0)


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1))
def test_aggregates_always_exact(values):
    reservoir = Reservoir(capacity=4)
    for value in values:
        reservoir.observe(value)
    assert reservoir.count == len(values)
    assert reservoir.total == pytest.approx(sum(values))
    assert reservoir.min == min(values)
    assert reservoir.max == max(values)


# -- MissSeries ---------------------------------------------------------

def test_list_compatibility_below_capacity():
    series = MissSeries()
    series.append(1.0)
    series.extend([2.0, 3.0])
    assert len(series) == 3
    assert list(series) == [1.0, 2.0, 3.0]
    assert series[1:] == [2.0, 3.0]
    assert series == [1.0, 2.0, 3.0]
    assert series != [1.0, 2.0]


def test_len_stays_exact_past_capacity():
    series = MissSeries(capacity=32)
    for value in range(10_000):
        series.append(float(value))
    assert len(series) == 10_000
    assert len(list(series)) == 32  # stored samples are bounded


def test_pair_preserving_sampling():
    """Lock-step series keep zip() yielding true pairs after overflow."""
    gaps, latencies = MissSeries(capacity=64), MissSeries(capacity=64)
    for index in range(5000):
        gaps.append(float(index))
        latencies.append(float(index) + 0.5)
    assert len(list(gaps)) == len(list(latencies)) == 64
    for gap, latency in zip(gaps, latencies):
        assert latency == gap + 0.5


def test_extend_merges_overflowed_series_exactly():
    donor = MissSeries(capacity=8)
    for value in range(100):
        donor.append(2.0)
    merged = MissSeries(capacity=8)
    merged.append(1.0)
    merged.extend(donor)
    assert merged.count == 101
    assert merged.total == pytest.approx(1.0 + 200.0)
    assert merged.max == 2.0


def test_series_helpers():
    assert series_total([1.0, 2.0]) == 3.0
    assert series_scale([1.0, 2.0]) == 1.0
    series = MissSeries(capacity=4)
    for value in range(4):
        series.append(1.0)
    assert series_total(series) == 4.0
    assert series_scale(series) == 1.0  # exact => each sample counts once
    for value in range(12):
        series.append(1.0)
    assert series_scale(series) == pytest.approx(16 / 4)
    assert series_scale(MissSeries()) == 1.0
