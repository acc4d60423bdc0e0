"""Tests for multi-log placement (paper §3.2.3).

:meth:`MorcCache._trial_all` sizes the line in every active log it fits
in and returns the log to append it to, or None when it fits in none.
"""

import random

from repro.common.config import MorcConfig
from repro.compression.tag_compression import TagCompressor
from repro.morc.cache import MorcCache
from tests.test_placement import literal_choice


def fresh_cache(**overrides):
    """8KB MORC with four active logs (16 logs in all)."""
    overrides.setdefault("n_active_logs", 4)
    return MorcCache(8 * 1024, MorcConfig(**overrides))


def active(cache):
    return [cache.logs[index] for index in cache._active]


class SizedCodec:
    """A data codec whose size in each log the test sets: a log's codec
    state is its position among the active logs."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.asked = []

    def trial(self, state, data, limit):
        self.asked.append((state, limit))
        bits = self.sizes[state]
        return bits if bits <= limit else None


def sized_cache(sizes, used=(), fudge_factor=0.05):
    """A cache whose active logs take a line in ``sizes[i]`` data bits,
    after ``used[i]`` bits of earlier lines; tags never limit a fit."""
    cache = fresh_cache(n_active_logs=len(sizes), fudge_factor=fudge_factor,
                        unlimited_metadata=True)
    for position, log in enumerate(active(cache)):
        log.codec_state = position
        if position < len(used) and used[position]:
            log.append(0, bytes(64), used[position], 0)
    cache._codec = SizedCodec(sizes)
    return cache


def choose(cache):
    return cache._trial_all(7, bytes(64))


class TestChooseLog:
    def test_clear_winner(self):
        cache = sized_cache([500, 50])
        assert choose(cache) is active(cache)[1]

    def test_tag_bits_do_not_drive_choice(self):
        """Tag-stream warm-up must not attract every line to one log."""
        cache = fresh_cache(n_active_logs=2)
        warm, cold = active(cache)
        for address in (5, 6):
            cache._tag_compressor.append(warm.tag_stream, address)
        tags = cache._tag_compressor
        assert tags.measure(warm.tag_stream, 7) < tags.measure(
            cold.tag_stream, 7)
        warm.codec_state, cold.codec_state = 0, 1
        cache._codec = SizedCodec([500, 50])
        assert choose(cache) is cold

    def test_fudge_routes_ties_to_least_used(self):
        cache = sized_cache([100, 100], used=[2000, 0])
        assert choose(cache) is active(cache)[1]

    def test_fudge_threshold(self):
        # 4% spread: within the default 5% fudge -> least-used wins
        cache = sized_cache([96, 100], used=[2000, 0])
        assert choose(cache) is active(cache)[1]
        # 20% spread: outside the fudge -> best compression wins
        cache = sized_cache([80, 100], used=[2000, 0])
        assert choose(cache) is active(cache)[0]

    def test_none_when_nothing_fits(self):
        cache = sized_cache([100, 100], used=[4000, 4000])
        assert choose(cache) is None

    def test_zero_fudge_always_picks_best(self):
        cache = sized_cache([99, 100], used=[2000, 0], fudge_factor=0.0)
        assert choose(cache) is active(cache)[0]

    def test_all_zero_bits(self):
        cache = sized_cache([0, 0], used=[2000, 0])
        assert choose(cache) is active(cache)[0]


def random_line(seed):
    rng = random.Random(seed)
    return bytes(rng.randrange(1, 256) for _ in range(64))


class TestTrialAll:
    """Which active logs a fill is trialled against, and what it picks."""

    def test_every_roomy_log_is_a_candidate(self):
        cache = sized_cache([300, 305, 298, 302])
        assert choose(cache) is active(cache)[0]   # all within 5%: roomiest
        assert [state for state, _ in cache._codec.asked] == [0, 1, 2, 3]
        assert cache.stats.get("trial_compressions") == 4

    def test_closed_log_never_a_candidate(self):
        cache = sized_cache([300, 10, 100, 305])
        closed = active(cache)[1]
        closed.closed = True
        assert choose(cache) is active(cache)[2]
        assert 1 not in [state for state, _ in cache._codec.asked]
        # The trial still counts every active log.
        assert cache.stats.get("trial_compressions") == 4

    def test_non_fitting_log_left_out(self):
        cache = fresh_cache()
        tiny = active(cache)[2]
        tiny.append(0, bytes(64), tiny.data_capacity_bits - 20, 0)
        data = random_line(2)  # 16 u32 literals: far over 20 bits
        choice = cache._trial_all(7, data)
        assert choice is not None and choice is not tiny

    def test_full_tag_region_skips_the_tag_codec(self, monkeypatch):
        cache = fresh_cache()
        full, tight, roomy, _ = active(cache)
        tags = cache._tag_compressor
        full.append(0, bytes(64), 0,
                    full.tag_capacity_bits - tags.min_token_bits + 1)
        tight.append(0, bytes(64), 0,
                     tight.tag_capacity_bits - tags.max_token_bits + 1)
        measured = []
        real_measure = TagCompressor.measure

        def spy(self, stream, line_address):
            measured.append(id(stream))
            return real_measure(self, stream, line_address)

        monkeypatch.setattr(TagCompressor, "measure", spy)
        # A fresh stream takes a new base, the largest token, which the
        # tight region has no room for.
        assert cache._trial_all(7, random_line(3)) is roomy
        # Only the tight region's room depends on the tag.
        assert measured == [id(tight.tag_stream)]

    def test_nothing_fits_gives_no_candidates(self):
        cache = fresh_cache()
        for log in active(cache):
            log.append(0, bytes(64), log.data_capacity_bits - 10, 0)
        assert cache._trial_all(7, random_line(4)) is None
        assert cache.stats.get("trial_compressions") == 4

    def test_candidates_keep_active_order_and_exact_sizes(self):
        """Sizes are trialled in active order; once two differ by more
        than the fudge factor, later trials only ask for a smaller one,
        and the choice is the literal rule's over exact sizes."""
        cache = sized_cache([100, 400, 150, 99, 99], fudge_factor=0.05)
        logs = active(cache)
        assert choose(cache) is logs[3]
        room = logs[0].data_room(0)
        assert cache._codec.asked == [(0, room), (1, room), (2, 99),
                                      (3, 99), (4, 98)]
        cache = fresh_cache(merged_tags=True)
        logs = active(cache)
        logs[1].append(0, bytes(64), logs[1].data_capacity_bits - 60, 0)
        data = random_line(5)
        expected = literal_choice(cache, 7, data)
        assert expected is not None and expected is not logs[1]
        assert cache._trial_all(7, data) is expected
