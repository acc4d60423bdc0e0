"""Smoke + semantics tests for every experiment module.

Each test runs the experiment on a tiny configuration and checks the
structural properties the paper's corresponding table/figure rests on.
"""

import pytest

from repro.experiments import (
    figure2,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    table1,
    table4,
)
from repro.sim.system import ALL_SCHEMES, COMPRESSED_SCHEMES

TINY = ["gcc", "h264ref"]
TINY_N = 20_000


class TestTable1:
    def test_rows(self):
        operations = table1.run()
        assert len(operations) == 6
        assert operations[0].energy_j < operations[-1].energy_j

    def test_offchip_gap(self):
        # DDR3 access vs on-chip SRAM: three orders of magnitude.
        assert table1.offchip_onchip_ratio() > 1000

    def test_render(self):
        text = table1.render()
        assert "DDR3" in text and "Scale" in text


class TestTable4:
    def test_all_schemes_present(self):
        assert [row.name for row in table4.run()] == [
            "Adaptive", "Decoupled", "SC2", "MORC", "MORCMerged"]

    def test_tag_percentages_match_paper(self):
        by_name = {row.name: row.overheads for row in table4.run()}
        assert by_name["Adaptive"].tags_pct == pytest.approx(7.81, abs=0.05)
        assert by_name["MORC"].tags_pct == pytest.approx(7.81, abs=0.05)
        assert by_name["MORCMerged"].tags_pct == 0.0
        assert by_name["Decoupled"].tags_pct == 0.0
        assert by_name["SC2"].tags_pct == pytest.approx(23.43, abs=0.05)

    def test_merged_total_below_split(self):
        by_name = {row.name: row.overheads for row in table4.run()}
        assert by_name["MORCMerged"].total_pct < by_name["MORC"].total_pct

    def test_lmt_metadata_dominates_morc(self):
        by_name = {row.name: row.overheads for row in table4.run()}
        assert by_name["MORC"].metadata_pct == pytest.approx(17.18, abs=0.7)

    def test_render(self):
        assert "MORCMerged" in table4.render()


class TestFigure2:
    def test_inter_dominates_intra(self):
        outcomes = figure2.run(benchmarks=TINY, n_instructions=TINY_N)
        for outcome in outcomes:
            assert outcome.inter_ratio >= outcome.intra_ratio
            assert (outcome.inter_bandwidth_reduction_pct
                    >= outcome.intra_bandwidth_reduction_pct - 1e-9)

    def test_render(self):
        outcomes = figure2.run(benchmarks=["gcc"], n_instructions=TINY_N)
        text = figure2.render(outcomes)
        assert "Oracle-Intra" in text and "Oracle-Inter" in text


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return figure6.run(benchmarks=TINY, n_instructions=TINY_N)

    def test_all_series_complete(self, result):
        assert set(result.runs) == set(ALL_SCHEMES)
        for runs in result.runs.values():
            assert len(runs) == len(TINY)

    def test_ratio_ordering(self, result):
        ratios = result.ratio_series()
        for i in range(len(TINY)):
            assert ratios["MORC"][i] >= ratios["Adaptive"][i] * 0.9

    def test_improvement_series_shape(self, result):
        for series in (result.ipc_improvement_series(),
                       result.throughput_improvement_series()):
            assert set(series) == set(COMPRESSED_SCHEMES)

    def test_render(self, result):
        text = figure6.render(result)
        for panel in ("6a", "6b", "6c", "6d"):
            assert panel in text


class TestFigure7:
    def test_distributions_normalised(self):
        distributions = figure7.run(benchmarks=["gcc"],
                                    n_instructions=TINY_N)
        dist = distributions[0]
        assert sum(dist.total.values()) == pytest.approx(1.0, abs=1e-6)
        for column in figure7.COLUMNS:
            assert dist.zero_portion[column] <= dist.total[column] + 1e-9

    def test_gcc_is_zero_heavy(self):
        distributions = figure7.run(benchmarks=["gcc"],
                                    n_instructions=TINY_N)
        dist = distributions[0]
        zero_total = sum(dist.zero_portion.values())
        assert zero_total > 0.3

    def test_render(self):
        distributions = figure7.run(benchmarks=["gcc"],
                                    n_instructions=TINY_N)
        assert "m256" in figure7.render(distributions)


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return figure8.run(mixes=["S2"], n_instructions_each=2_500)

    def test_series(self, result):
        # At this tiny budget the 2MB shared LLC is far from full, so the
        # absolute ratio is small; it must still exceed the uncompressed
        # residency (same fills, packed into fewer bits).
        uncompressed = result.runs["Uncompressed"][0].compression_ratio
        assert result.ratio_series()["MORC"][0] >= uncompressed * 0.9
        assert "MORC" in result.bandwidth_reduction_series()

    def test_render(self, result):
        text = figure8.render(result)
        assert "8a" in text and "8d" in text


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return figure9.run(benchmarks=["gcc"], n_instructions=TINY_N)

    def test_breakdown_components(self, result):
        breakdown = result.morc_breakdowns()[0]
        assert breakdown.total_j > 0
        assert breakdown.dram_j > 0

    def test_uncompressed8x_pays_static(self, result):
        energy = result.energy_series()
        assert energy["Uncompressed8x"][0] != energy["Uncompressed"][0]

    def test_render(self, result):
        assert "Figure 9a" in figure9.render(result)


class TestFigure10:
    def test_sweep_shape(self):
        result = figure10.run(benchmarks=["gcc"],
                              bandwidths_mb_s=(1600.0, 100.0),
                              n_instructions=TINY_N)
        assert len(result.normalized_ipc["MORC"]) == 2
        assert all(v > 0 for v in result.normalized_throughput["MORC"])

    def test_starved_bandwidth_amplifies_morc(self):
        result = figure10.run(benchmarks=["gcc"],
                              bandwidths_mb_s=(1600.0, 50.0),
                              n_instructions=30_000)
        assert result.normalized_throughput["MORC"][1] >= \
            result.normalized_throughput["MORC"][0] - 0.05

    def test_render(self):
        result = figure10.run(benchmarks=["gcc"],
                              bandwidths_mb_s=(100.0,),
                              n_instructions=TINY_N)
        assert "10a" in figure10.render(result)


class TestFigure11:
    def test_sweep(self):
        result = figure11.run(benchmarks=["gcc"], sizes_kb=(64, 4096),
                              n_instructions=TINY_N)
        assert len(result.compression_ratio) == 2
        # At 4MB the working set fits: bandwidth ratio approaches 1.
        assert result.normalized_bandwidth[1] >= \
            result.normalized_bandwidth[0] - 0.3

    def test_render(self):
        result = figure11.run(benchmarks=["gcc"], sizes_kb=(128,),
                              n_instructions=TINY_N)
        assert "Figure 11" in figure11.render(result)


class TestFigure12:
    def test_inclusive_worse(self):
        outcomes = figure12.run(benchmarks=["gcc"], n_instructions=TINY_N)
        outcome = outcomes[0]
        assert outcome.inclusive_pct >= outcome.non_inclusive_pct - 1.0
        assert 0 <= outcome.non_inclusive_pct <= 100

    def test_render(self):
        outcomes = figure12.run(benchmarks=["gcc"], n_instructions=TINY_N)
        assert "Non-Inclusive" in figure12.render(outcomes)


class TestFigure13:
    def test_limit_study(self):
        # The limit study needs the cache's capacity to actually bind
        # (log recycling), which takes a longer trace.
        result = figure13.run(benchmarks=["gcc"], log_sizes=(64, 2048),
                              active_counts=(1, 8),
                              n_instructions=250_000)
        # Bigger logs amortise dictionary warm-up (Fig. 13a's trend).
        assert result.by_log_size[2048][0] > result.by_log_size[64][0]

    def test_render(self):
        result = figure13.run(benchmarks=["gcc"], log_sizes=(512,),
                              active_counts=(8,), n_instructions=TINY_N)
        assert "13a" in figure13.render(result)


class TestFigure14:
    def test_bins_normalised(self):
        distributions = figure14.run(benchmarks=["gcc"],
                                     n_instructions=TINY_N)
        fractions = distributions[0].fractions
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-6)

    def test_bin_histogram_edges(self):
        binned = figure14.bin_histogram({64: 1, 65: 1, 512: 1, 513: 1})
        assert binned["<64"] == pytest.approx(0.25)
        assert binned["65-128"] == pytest.approx(0.25)
        assert binned["449-512"] == pytest.approx(0.25)
        assert binned[">512"] == pytest.approx(0.25)

    def test_empty_histogram(self):
        assert sum(figure14.bin_histogram({}).values()) == 0.0

    def test_render(self):
        distributions = figure14.run(benchmarks=["gcc"],
                                     n_instructions=TINY_N)
        assert ">512" in figure14.render(distributions)


class TestFigure15:
    def test_merged_close_to_split(self):
        outcomes = figure15.run(benchmarks=["gcc"], n_instructions=TINY_N)
        outcome = outcomes[0]
        assert outcome.merged_ratio > 0.5 * outcome.morc_ratio

    def test_render(self):
        outcomes = figure15.run(benchmarks=["gcc"], n_instructions=TINY_N)
        assert "MORCMerged" in figure15.render(outcomes)


class TestMicrobench:
    def test_runs_and_calibrates(self):
        from repro.experiments import microbench
        result = microbench.run(micros=["memset", "stream"],
                                n_instructions=15_000)
        # memset: MORC compresses zeros far beyond the baselines' caps
        memset_index = result.micros.index("memset")
        assert result.ratio["MORC"][memset_index] > \
            result.ratio["Uncompressed"][memset_index]
        # stream: nothing helps the miss rate (no reuse at all)
        stream_index = result.micros.index("stream")
        assert result.miss_rate["MORC"][stream_index] > 0.9

    def test_render(self):
        from repro.experiments import microbench
        result = microbench.run(micros=["hot_loop"],
                                n_instructions=10_000)
        text = microbench.render(result)
        assert "miss rate" in text


class TestVariance:
    def test_seed_stability(self):
        from repro.experiments import variance
        result = variance.run(benchmarks=["gcc"], n_seeds=2,
                              n_instructions=20_000)
        samples = result.samples[("gcc", "MORC")]
        assert len(samples) == 2
        assert samples[0] != samples[1]  # different seeds, different runs
        # ...but close: the metric is seed-stable
        assert abs(samples[0] - samples[1]) < 0.5 * max(samples)
        assert result.stdev("gcc", "MORC") >= 0

    def test_ordering_check(self):
        from repro.experiments import variance
        result = variance.run(benchmarks=["gcc"], n_seeds=2,
                              n_instructions=20_000)
        assert result.ordering_holds_everywhere()

    def test_render(self):
        from repro.experiments import variance
        result = variance.run(benchmarks=["gcc"], n_seeds=2,
                              n_instructions=15_000)
        text = variance.render(result)
        assert "±" in text and "replicate" in text


class TestEnergyScaling:
    def test_uncompressed8x_pays_8x_static(self):
        """The 1MB baseline must be charged for its own array (Figure
        9a's argument for compressing instead of enlarging)."""
        from repro.sim.system import run_single_program
        small = run_single_program("hmmer", "Uncompressed",
                                   n_instructions=12_000)
        big = run_single_program("hmmer", "Uncompressed8x",
                                 n_instructions=12_000)
        # static J per cycle must be larger for the 8x array
        small_rate = small.energy.static_j / small.metrics.cycles
        big_rate = big.energy.static_j / big.metrics.cycles
        assert big_rate > 3 * small_rate
