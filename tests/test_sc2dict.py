"""Tests for SC2's sampled system-wide dictionary."""

import random

from repro.common.words import from_words32
from repro.compression.sc2dict import Sc2Dictionary


def make_line(words):
    return from_words32(list(words))


class TestSampling:
    def test_untrained_reports_uncompressed(self):
        dictionary = Sc2Dictionary(sample_lines=100)
        line = make_line([1] * 16)
        assert dictionary.compress(line).size_bits == 512
        assert dictionary.stats.get("trainings") == 0

    def test_trains_after_sample_threshold(self):
        dictionary = Sc2Dictionary(sample_lines=10)
        line = make_line([1] * 16)
        for _ in range(10):
            dictionary.observe(line)
        assert dictionary.stats.get("trainings") == 1

    def test_frequent_value_compresses_well(self):
        dictionary = Sc2Dictionary(sample_lines=8)
        common = make_line([42] * 16)
        for _ in range(8):
            dictionary.observe(common)
        size = dictionary.compress(common)
        assert size.size_bits < 100  # 16 words, short codes

    def test_unseen_value_pays_escape(self):
        dictionary = Sc2Dictionary(sample_lines=4)
        for _ in range(4):
            dictionary.observe(make_line([1] * 16))
        rare = make_line([0xDEADBEEF] * 16)
        size = dictionary.compress(rare)
        assert size.size_bits >= 16 * 32  # escape + 32b payload each

    def test_dictionary_capacity_limits_tracking(self):
        rng = random.Random(0)
        dictionary = Sc2Dictionary(max_entries=16, sample_lines=64)
        for _ in range(64):
            dictionary.observe(make_line(
                rng.randrange(1 << 30) for _ in range(16)))
        assert dictionary.stats.get("trainings") == 1
        assert dictionary.stats.get("dictionary_entries") <= 16

    def test_retraining(self):
        dictionary = Sc2Dictionary(sample_lines=4, retrain_interval=8)
        for _ in range(4):
            dictionary.observe(make_line([1] * 16))
        assert dictionary.stats.get("trainings") == 1
        for _ in range(8):
            dictionary.observe(make_line([2] * 16))
        assert dictionary.stats.get("trainings") == 2

    def test_shared_across_lines(self):
        """The dictionary is system-wide: values from one line help
        compress another (the inter-line capability the paper credits
        SC2 with)."""
        dictionary = Sc2Dictionary(sample_lines=6)
        for _ in range(6):
            dictionary.observe(make_line([7, 8] * 8))
        other = make_line([8, 7] * 8)
        assert dictionary.compress(other).size_bits < 128
