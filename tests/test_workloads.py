"""Tests for the synthetic workload generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.datamodel import (
    AccessProfile,
    AddressModel,
    DataProfile,
    LineDataModel,
)
from repro.workloads.mixes import (
    ALL_MULTI_WORKLOADS,
    MIXED_WORKLOADS,
    SAME_WORKLOADS,
    mix_programs,
)
from repro.workloads.spec import (
    ALL_SINGLE_PROGRAMS,
    BASE_BENCHMARKS,
    benchmark_profile,
    make_trace,
)
from repro.workloads.trace import SyntheticTrace


class TestDataProfile:
    def test_defaults_valid(self):
        DataProfile()

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            DataProfile(p_zero_chunk=1.5)

    def test_rejects_oversubscribed_chunk(self):
        with pytest.raises(ValueError):
            DataProfile(p_zero_chunk=0.7, p_pool256=0.7)

    def test_rejects_oversubscribed_words(self):
        with pytest.raises(ValueError):
            DataProfile(p_zero_word=0.5, p_narrow8=0.3, p_narrow16=0.3,
                        p_pool32=0.2)

    def test_rejects_zero_families(self):
        with pytest.raises(ValueError):
            DataProfile(n_families=0)

    @pytest.mark.parametrize("field", ["pool256_size", "pool128_size",
                                       "pool64_size", "pool32_size"])
    @pytest.mark.parametrize("size", [0, -1])
    def test_rejects_empty_pool(self, field, size):
        # An empty pool used to construct, then fail mid-trace with a
        # bare IndexError from the first draw out of it.
        with pytest.raises(ValueError, match=field):
            DataProfile(**{field: size})

    def test_rejects_negative_phase_length(self):
        with pytest.raises(ValueError, match="phase_instructions"):
            DataProfile(phase_instructions=-1)


class TestAccessProfile:
    @pytest.mark.parametrize("size", [0, -4])
    def test_rejects_empty_hot_set(self, size):
        # An empty hot set used to construct, then fail at the first
        # access with a bare IndexError.
        with pytest.raises(ValueError, match="hot_set_lines"):
            AccessProfile(hot_set_lines=size)

    def test_one_line_hot_set_generates(self):
        trace = SyntheticTrace("t", DataProfile(),
                               AccessProfile(hot_set_lines=1), 2_000)
        assert sum(1 + r.gap for r in trace.generate()) >= 2_000


class TestLineDataModel:
    def test_deterministic(self):
        model_a = LineDataModel(DataProfile(), seed=42)
        model_b = LineDataModel(DataProfile(), seed=42)
        for address in (0, 17, 123456):
            assert model_a.line_data(address) == model_b.line_data(address)

    def test_seed_changes_data(self):
        a = LineDataModel(DataProfile(), seed=1)
        b = LineDataModel(DataProfile(), seed=2)
        assert a.line_data(0) != b.line_data(0)

    def test_version_changes_data(self):
        model = LineDataModel(DataProfile(), seed=0)
        assert model.line_data(5, version=0) != model.line_data(5, version=1)

    def test_line_length(self):
        model = LineDataModel(DataProfile(), seed=0)
        assert len(model.line_data(0)) == 64

    def test_families_partition_regions(self):
        profile = DataProfile(n_families=4, family_region_lines=16)
        model = LineDataModel(profile, seed=0)
        assert model.family_of(0) == model.family_of(15)
        assert model.family_of(0) != model.family_of(16)

    def test_zero_heavy_profile_produces_zeros(self):
        profile = DataProfile(p_zero_chunk=1.0, p_pool256=0.0)
        model = LineDataModel(profile, seed=0)
        assert model.line_data(3) == bytes(64)

    def test_pool_reuse_across_lines(self):
        """High pool probabilities make identical 32B chunks recur across
        lines — the inter-line duplication MORC exploits."""
        profile = DataProfile(p_zero_chunk=0.0, p_pool256=1.0,
                              pool256_size=2, n_families=1)
        model = LineDataModel(profile, seed=0)
        chunks = set()
        for address in range(40):
            data = model.line_data(address)
            chunks.add(data[:32])
            chunks.add(data[32:])
        assert len(chunks) <= 2


class TestAddressModel:
    def test_stays_in_working_set(self):
        profile = AccessProfile(working_set_lines=100)
        model = AddressModel(profile, seed=0)
        for _ in range(1000):
            line, _, _ = model.next_access()
            assert 0 <= line < 100

    def test_base_line_offsets(self):
        profile = AccessProfile(working_set_lines=100)
        model = AddressModel(profile, seed=0, base_line=1_000_000)
        line, _, _ = model.next_access()
        assert line >= 1_000_000

    def test_write_fraction_roughly_respected(self):
        profile = AccessProfile(write_fraction=0.5)
        model = AddressModel(profile, seed=0)
        writes = sum(model.next_access()[1] for _ in range(4000))
        assert 0.4 < writes / 4000 < 0.6

    def test_gap_mean_roughly_respected(self):
        profile = AccessProfile(mean_gap=10.0)
        model = AddressModel(profile, seed=0)
        gaps = [model.next_access()[2] for _ in range(4000)]
        assert 8 < sum(gaps) / len(gaps) < 12

    def test_zero_gap(self):
        profile = AccessProfile(mean_gap=0.0)
        model = AddressModel(profile, seed=0)
        assert all(model.next_access()[2] == 0 for _ in range(50))

    def test_sequential_runs_visit_neighbours(self):
        profile = AccessProfile(working_set_lines=10_000, p_sequential=1.0,
                                mean_run_lines=64, p_hot=0.0)
        model = AddressModel(profile, seed=0)
        lines = [model.next_access()[0] for _ in range(200)]
        deltas = [b - a for a, b in zip(lines, lines[1:])]
        assert deltas.count(1) > len(deltas) // 2


class TestSyntheticTrace:
    def test_replayable(self):
        trace = make_trace("gcc", 5_000)
        first = [(r.address, r.is_write, r.gap, r.data) for r in trace]
        second = [(r.address, r.is_write, r.gap, r.data) for r in trace]
        assert first == second

    def test_instruction_budget(self):
        trace = make_trace("gcc", 5_000)
        produced = sum(1 + r.gap for r in trace)
        assert produced >= 5_000

    def test_reads_see_last_write(self):
        """Per-line versioning: after a write, reads return its data."""
        profile = AccessProfile(working_set_lines=4, write_fraction=0.5,
                                mean_gap=0.0)
        trace = SyntheticTrace("t", DataProfile(), profile, 3_000, seed=3)
        last = {}
        for record in trace:
            if record.is_write:
                last[record.line_address] = record.data
            elif record.line_address in last:
                assert record.data == last[record.line_address]

    def test_data_seed_separable(self):
        read_only = AccessProfile(write_fraction=0.0,
                                  working_set_lines=64)
        a = SyntheticTrace("t", DataProfile(), read_only, 2_000,
                           seed=1, data_seed=9)
        b = SyntheticTrace("t", DataProfile(), read_only, 2_000,
                           seed=2, data_seed=9)
        data_a = {r.line_address: r.data for r in a if not r.is_write}
        data_b = {r.line_address: r.data for r in b if not r.is_write}
        shared = set(data_a) & set(data_b)
        assert shared
        assert all(data_a[line] == data_b[line] for line in shared)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            SyntheticTrace("t", DataProfile(), AccessProfile(), 0)


class TestSpecTable:
    def test_all_base_benchmarks_resolve(self):
        for name in BASE_BENCHMARKS:
            spec = benchmark_profile(name)
            assert spec.name == name

    def test_variant_resolution(self):
        base = benchmark_profile("gcc")
        variant = benchmark_profile("gcc_3")
        assert variant.seed != base.seed
        assert variant.access.working_set_lines \
            > base.access.working_set_lines

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            benchmark_profile("quake3")

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError):
            benchmark_profile("gcc_x")

    def test_figure6_count(self):
        # 28 base benchmarks + 26 extra reference inputs
        assert len(ALL_SINGLE_PROGRAMS) == len(BASE_BENCHMARKS) + 26

    def test_all_single_programs_resolve(self):
        for name in ALL_SINGLE_PROGRAMS:
            benchmark_profile(name)


class TestMixes:
    def test_table6_shape(self):
        assert set(MIXED_WORKLOADS) == {"M0", "M1", "M2", "M3"}
        assert set(SAME_WORKLOADS) == {f"S{i}" for i in range(8)}
        for programs in ALL_MULTI_WORKLOADS.values():
            assert len(programs) == 16

    def test_same_sets_replicate(self):
        assert SAME_WORKLOADS["S2"] == ["gcc"] * 16

    def test_mix_programs_builds_disjoint_traces(self):
        traces = mix_programs("S2", 2_000)
        assert len(traces) == 16
        bases = {t.base_line for t in traces}
        assert len(bases) == 16

    def test_same_program_copies_share_data_values(self):
        traces = mix_programs("S2", 2_000)
        assert len({t.data_seed for t in traces}) == 1
        assert len({t.seed for t in traces}) == 16

    def test_unknown_mix_raises(self):
        with pytest.raises(KeyError):
            mix_programs("M9", 1_000)

    def test_all_mix_members_are_valid_benchmarks(self):
        for programs in ALL_MULTI_WORKLOADS.values():
            for name in programs:
                benchmark_profile(name)


class TestPhases:
    def test_stationary_by_default(self):
        profile = DataProfile()
        assert profile.phase_instructions == 0

    def test_phase_changes_written_values(self):
        """After a phase boundary, written lines draw from fresh pools."""
        profile = DataProfile(p_zero_chunk=0.0, p_pool256=1.0,
                              pool256_size=2, n_families=1,
                              phase_instructions=500)
        access = AccessProfile(working_set_lines=8, write_fraction=1.0,
                               mean_gap=0.0)
        trace = SyntheticTrace("t", profile, access, 2_000, seed=1)
        chunks_by_phase = {}
        produced = 0
        for record in trace:
            phase = produced // 500
            produced += 1 + record.gap
            chunks_by_phase.setdefault(phase, set()).update(
                (record.data[:32], record.data[32:]))
        # Pools differ across phases (2 blocks each, disjoint with
        # overwhelming probability for random 32B values).
        assert len(chunks_by_phase) >= 3
        assert chunks_by_phase[0].isdisjoint(chunks_by_phase[2])

    def test_unwritten_lines_keep_birth_phase(self):
        """A read-only line returns identical data across phases."""
        profile = DataProfile(phase_instructions=200)
        access = AccessProfile(working_set_lines=4, write_fraction=0.0,
                               mean_gap=0.0)
        trace = SyntheticTrace("t", profile, access, 1_500, seed=2)
        seen = {}
        for record in trace:
            if record.line_address in seen:
                assert record.data == seen[record.line_address]
            else:
                seen[record.line_address] = record.data


class TestSynchronizedMixes:
    def test_synchronized_copies_share_access_streams(self):
        drifted = mix_programs("S2", 2_000)
        synced = mix_programs("S2", 2_000, synchronized=True)
        assert len({t.seed for t in drifted}) == 16
        assert len({t.seed for t in synced}) == 1
        # address streams are replicas modulo the base offset
        a = [r.line_address - synced[0].base_line
             for r in list(synced[0])[:50]]
        b = [r.line_address - synced[1].base_line
             for r in list(synced[1])[:50]]
        assert a == b
