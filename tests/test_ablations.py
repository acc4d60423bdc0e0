"""Tests for the ablation harness and the MORC-CPack variant."""

import pytest

from repro.common.config import MorcConfig, SystemConfig
from repro.common.errors import CacheError
from repro.experiments import ablations
from repro.morc.cache import MorcCache
from repro.sim.system import make_llc, run_single_program


class TestMorcCpackVariant:
    def test_make_llc(self):
        llc = make_llc("MORC-CPack", SystemConfig())
        assert isinstance(llc, MorcCache)
        assert llc.algorithm == "cpack"
        assert llc.name == "MORC-CPack"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(CacheError):
            MorcCache(8192, config=MorcConfig(n_active_logs=2),
                      algorithm="lz4")

    def test_lbe_beats_cpack_on_interline_duplication(self):
        import random
        rng = random.Random(0)
        pool = [rng.getrandbits(256).to_bytes(32, "big") for _ in range(4)]
        ratios = {}
        for algorithm in ("lbe", "cpack"):
            cache = MorcCache(8192, config=MorcConfig(n_active_logs=2),
                              algorithm=algorithm)
            for i in range(1500):
                cache.fill(i * 64, rng.choice(pool) + rng.choice(pool))
            ratios[algorithm] = cache.compression_ratio()
        assert ratios["lbe"] > 2 * ratios["cpack"]

    def test_cpack_variant_runs_end_to_end(self):
        result = run_single_program("gcc", "MORC-CPack",
                                    n_instructions=25_000)
        assert result.compression_ratio > 0
        assert result.energy.total_j > 0

    def test_cpack_entries_have_no_symbol_stream(self):
        cache = MorcCache(8192, config=MorcConfig(n_active_logs=2),
                          algorithm="cpack")
        cache.fill(0, bytes(64))
        log = cache.logs[cache._active[0]]
        assert log.entries[0].data_bits > 0
        # Per-line C-Pack keeps no log dictionary and counts no LBE
        # symbols for Figure 7.
        assert log.codec_state is None
        assert not cache.symbol_usage and not cache.symbol_zero_usage


class TestAblationHarness:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run(benchmarks=["gcc"], n_instructions=25_000)

    def test_all_arms_present(self, result):
        assert set(result.algorithm_ratio) == {"MORC (LBE)",
                                               "MORC (C-Pack)",
                                               "MORC (LZ)"}
        assert len(result.fudge_ratio) == 3
        assert len(result.tag_bases_ratio) == 2
        assert len(result.lmt_conflict_rate) == 2

    def test_rates_are_percentages(self, result):
        for rates in result.lmt_conflict_rate.values():
            assert all(0.0 <= rate <= 100.0 for rate in rates)

    def test_render(self, result):
        text = ablations.render(result)
        assert "fudge" in text and "LMT" in text
