"""Tests for multi-log placement (paper §3.2.3).

:meth:`MorcCache._trial_all` offers only the active logs a line fits in;
:func:`choose_log` picks among them.
"""

import random

from repro.common.config import MorcConfig
from repro.compression.tag_compression import TagCompressor
from repro.morc.cache import MorcCache
from repro.morc.log import Log
from repro.morc.policies import PlacementCandidate, choose_log


def make_log(index, capacity_bits=4096, used_bits=0):
    log = Log(index=index, data_capacity_bits=capacity_bits,
              tag_capacity_bits=None)
    if used_bits:
        log.append(0, bytes(64), used_bits, 0)
    return log


def candidate(log, data_bits, tag_bits=10):
    return PlacementCandidate(log=log, data_bits=data_bits,
                              tag_bits=tag_bits)


class TestChooseLog:
    def test_clear_winner(self):
        logs = [make_log(0), make_log(1)]
        choice = choose_log([candidate(logs[0], 500),
                             candidate(logs[1], 50)])
        assert choice.log is logs[1]

    def test_tag_bits_do_not_drive_choice(self):
        """Tag-stream warm-up must not attract every line to one log."""
        logs = [make_log(0), make_log(1)]
        choice = choose_log([candidate(logs[0], 500, tag_bits=8),
                             candidate(logs[1], 50, tag_bits=49)])
        assert choice.log is logs[1]

    def test_fudge_routes_ties_to_least_used(self):
        emptier = make_log(0)
        fuller = make_log(1, used_bits=2000)
        choice = choose_log([candidate(fuller, 100),
                             candidate(emptier, 100)])
        assert choice.log is emptier

    def test_fudge_threshold(self):
        emptier = make_log(0)
        fuller = make_log(1, used_bits=2000)
        # 4% spread: within the default 5% fudge -> least-used wins
        choice = choose_log([candidate(fuller, 96),
                             candidate(emptier, 100)])
        assert choice.log is emptier
        # 20% spread: outside the fudge -> best compression wins
        choice = choose_log([candidate(fuller, 80),
                             candidate(emptier, 100)])
        assert choice.log is fuller

    def test_none_when_nothing_fits(self):
        # A line that fits no active log has no candidates.
        assert choose_log([]) is None

    def test_zero_fudge_always_picks_best(self):
        emptier = make_log(0)
        fuller = make_log(1, used_bits=2000)
        choice = choose_log([candidate(fuller, 99),
                             candidate(emptier, 100)], fudge_factor=0.0)
        assert choice.log is fuller

    def test_all_zero_bits(self):
        logs = [make_log(0), make_log(1)]
        choice = choose_log([candidate(logs[0], 0, tag_bits=0),
                             candidate(logs[1], 0, tag_bits=0)])
        assert choice is not None


class TestPlacementCandidate:
    def test_total_bits(self):
        assert candidate(make_log(0), 100, tag_bits=11).total_bits == 111


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.randrange(1, 256) for _ in range(64))


def fresh_cache(**overrides):
    """8KB MORC with four active logs (16 logs in all)."""
    return MorcCache(8 * 1024, MorcConfig(n_active_logs=4, **overrides))


class TestTrialAll:
    """Which active logs a fill is trialled against, and with what."""

    def active(self, cache):
        return [cache.logs[index] for index in cache._active]

    def test_every_roomy_log_is_a_candidate(self):
        cache = fresh_cache()
        candidates = cache._trial_all(7, random_line(1))
        assert [c.log for c in candidates] == self.active(cache)
        assert cache.stats.get("trial_compressions") == 4

    def test_closed_log_never_a_candidate(self):
        cache = fresh_cache()
        closed = self.active(cache)[1]
        closed.closed = True
        candidates = cache._trial_all(7, random_line(1))
        assert closed not in [c.log for c in candidates]
        assert len(candidates) == 3
        # The trial still counts every active log.
        assert cache.stats.get("trial_compressions") == 4

    def test_non_fitting_log_left_out(self):
        cache = fresh_cache()
        tiny = self.active(cache)[2]
        tiny.append(0, bytes(64), tiny.data_capacity_bits - 20, 0)
        data = random_line(2)  # 16 u32 literals: far over 20 bits
        candidates = cache._trial_all(7, data)
        assert tiny not in [c.log for c in candidates]
        roomy = choose_log(candidates)
        assert roomy is not None and roomy.log is not tiny

    def test_full_tag_region_skips_the_tag_codec(self, monkeypatch):
        cache = fresh_cache()
        full = self.active(cache)[0]
        smallest = cache._tag_compressor.min_token_bits
        full.append(0, bytes(64), 0,
                    full.tag_capacity_bits - smallest + 1)
        measured = []
        real_measure = TagCompressor.measure

        def spy(self, stream, line_address):
            measured.append(id(stream))
            return real_measure(self, stream, line_address)

        monkeypatch.setattr(TagCompressor, "measure", spy)
        candidates = cache._trial_all(7, random_line(3))
        assert id(full.tag_stream) not in measured
        assert len(measured) == 3
        assert full not in [c.log for c in candidates]

    def test_nothing_fits_gives_no_candidates(self):
        cache = fresh_cache()
        for log in self.active(cache):
            log.append(0, bytes(64), log.data_capacity_bits - 10, 0)
        assert cache._trial_all(7, random_line(4)) == []
        assert cache.stats.get("trial_compressions") == 4

    def test_candidates_keep_active_order_and_exact_sizes(self):
        cache = fresh_cache(merged_tags=True)
        logs = self.active(cache)
        logs[1].append(0, bytes(64), logs[1].data_capacity_bits - 60, 0)
        data = random_line(5)
        exact = [min(cache._codec.compressor.measure(data, log.codec_state),
                     512) for log in logs]
        tags = [cache._tag_compressor.measure(log.tag_stream, 7)
                for log in logs]
        candidates = cache._trial_all(7, data)
        assert [(c.log, c.data_bits, c.tag_bits) for c in candidates] == [
            (log, bits, tag) for log, bits, tag in zip(logs, exact, tags)
            if log.fits(bits, tag)]
        assert logs[1] not in [c.log for c in candidates]
