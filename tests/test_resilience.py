"""Data-plane resilience: injection, recovery policies, verification.

Covers the ``repro.resilience`` subsystem end-to-end: spec parsing,
deterministic injection, per-cache detection/recovery for MORC, the
set-associative baselines and the skewed cache, whole-run behaviour
under a flip rate, resilience events through the observability trace,
and the invariant auditor.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import settings
from repro.cache.set_assoc import AdaptiveCache, SEGMENT_BYTES
from repro.cache.skewed import SkewedCompressedCache
from repro.common.config import CacheGeometry, MorcConfig
from repro.common.errors import (
    ConfigError,
    PoisonedLineError,
    VerificationError,
)
from repro.compression.cpack import CPackCompressor
from repro.compression.lbe import LbeCompressor
from repro.compression.lz import LzStreamCompressor
from repro.morc.cache import MorcCache
from repro.morc.codecs import UNCOMPRESSED_LINE_BITS
from repro.resilience import verify as res_verify
from repro.resilience.faults import SoftErrorInjector, make_injector
from repro.sim.system import run_single_program


@pytest.fixture(autouse=True)
def _reset_resilience():
    """Every test starts and ends with the environment's (inert) config."""
    settings.reset()
    yield
    settings.reset()


def line(byte):
    return bytes([byte]) * 64


def small_morc(**overrides):
    defaults = dict(n_active_logs=2, lmt_overprovision=8, lmt_ways=2)
    defaults.update(overrides)
    return MorcCache(8 * 1024, config=MorcConfig(**defaults))


# -- spec parsing ---------------------------------------------------------


def parse_soft_errors(raw):
    return settings.from_env({"REPRO_SOFT_ERRORS": raw}).soft_errors


class TestSpecParsing:
    def test_off_values(self):
        for raw in ("", "0", "0.0", None):
            rate, index, bit = parse_soft_errors(raw)
            assert rate == 0.0 and index is None and bit is None

    def test_rate(self):
        rate, index, bit = parse_soft_errors("1e-4")
        assert rate == pytest.approx(1e-4)
        assert index is None and bit is None

    def test_index(self):
        rate, index, bit = parse_soft_errors("@7")
        assert rate == 0.0 and index == 7 and bit is None

    def test_index_with_bit(self):
        rate, index, bit = parse_soft_errors("@7:33")
        assert rate == 0.0 and index == 7 and bit == 33

    @pytest.mark.parametrize("raw", ["nope", "@", "@x", "@1:", "@1:y",
                                     "@-2", "-0.5", "1.5"])
    def test_bad_specs_raise(self, raw):
        with pytest.raises(ConfigError):
            parse_soft_errors(raw)

    def test_configure_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            settings.configure(soft_error_policy="shrug")


# -- injector determinism -------------------------------------------------


class TestInjector:
    def test_inert_config_yields_no_injector(self):
        assert make_injector() is None

    def test_rate_mode_is_deterministic(self):
        def flips():
            injector = SoftErrorInjector(rate=1e-2, index=None, bit=None,
                                         seed=5)
            return [injector.flip_for(bits)
                    for bits in (300, 500, 120, 512, 64) * 20]
        first, second = flips(), flips()
        assert first == second
        assert any(flip is not None for flip in first)

    def test_rate_mode_matches_error_diffusion(self):
        injector = SoftErrorInjector(rate=0.5, index=None, bit=None,
                                     seed=0)
        # each 3-bit payload adds 1.5 to the accumulator: always fires
        assert all(injector.flip_for(3) is not None for _ in range(10))
        assert injector.soft_errors_injected == 10

    def test_seed_moves_the_bit_not_the_count(self):
        def run(seed):
            injector = SoftErrorInjector(rate=1e-2, index=None, bit=None,
                                         seed=seed)
            return [injector.flip_for(400) for _ in range(50)]
        a, b = run(1), run(2)
        assert [x is None for x in a] == [y is None for y in b]
        fired = [(x, y) for x, y in zip(a, b) if x is not None]
        assert any(x != y for x, y in fired)

    def test_index_mode_fires_exactly_once(self):
        injector = SoftErrorInjector(rate=0.0, index=3, bit=9, seed=0)
        flips = [injector.flip_for(512) for _ in range(6)]
        assert flips == [None, None, None, 9, None, None]

    def test_bit_wraps_into_payload(self):
        injector = SoftErrorInjector(rate=0.0, index=0, bit=100, seed=0)
        assert injector.flip_for(64) == 100 % 64


# -- MORC detection and recovery ------------------------------------------


class TestMorcRecovery:
    def test_refetch_recovers_and_reports(self):
        settings.configure(soft_errors="@0", soft_error_policy="refetch")
        cache = small_morc()
        cache.fill(0, line(1))
        assert cache.stats["soft_errors_injected"] == 1
        result = cache.read(0)
        assert not result.hit  # detected: treated as a miss to refetch
        assert result.latency_cycles > cache.base_latency_cycles
        assert cache.stats["soft_errors_detected"] == 1
        assert cache.stats["soft_error_recoveries"] == 1
        assert cache.stats["soft_error_data_loss"] == 0
        # the poisoned copy is gone; a refill makes the line clean again
        cache.fill(0, line(1))
        assert cache.read(0).hit

    def test_failstop_raises_naming_the_line(self):
        settings.configure(soft_errors="@0:5", soft_error_policy="failstop")
        cache = small_morc()
        cache.fill(3 * 64, line(2))
        with pytest.raises(PoisonedLineError) as excinfo:
            cache.read(3 * 64)
        message = str(excinfo.value)
        assert "0x3" in message
        assert "failstop" in message
        assert excinfo.value.line_address == 3

    def test_raw_fallback_stores_uncompressed(self):
        settings.configure(soft_errors="@0", soft_error_policy="raw")
        cache = small_morc()
        cache.fill(0, line(3))
        assert not cache.read(0).hit  # detection refetches once
        assert cache.stats["raw_fallbacks"] == 1
        assert 0 in cache._raw_fallback
        cache.fill(0, line(3))  # the refetched copy comes back raw
        assert cache.read(0).hit
        entry = next(e for log in cache.logs for e in log.entries
                     if e.valid and e.line_address == 0)
        assert entry.data_bits == UNCOMPRESSED_LINE_BITS
        assert entry.poison_bit is None  # raw copies are never injected

    def test_dirty_loss_counted(self):
        settings.configure(soft_errors="@0", soft_error_policy="refetch")
        cache = small_morc()
        cache.writeback(0, line(4))
        cache.read(0)
        assert cache.stats["soft_error_data_loss"] == 1

    def test_detection_at_flush_does_not_write_back(self):
        import random
        settings.configure(soft_errors="@0", soft_error_policy="refetch")
        cache = small_morc(n_active_logs=1)
        rng = random.Random(0)
        cache.writeback(0, bytes(rng.getrandbits(8) for _ in range(64)))
        writebacks = []
        # incompressible fills pack the logs fast and force flushes
        for address in range(64, 400 * 64, 64):
            data = bytes(rng.getrandbits(8) for _ in range(64))
            result = cache.fill(address, data)
            writebacks.extend(result.writebacks)
        assert cache.stats["soft_errors_detected"] >= 1
        assert all(address != 0 for address, _ in writebacks)


# -- baseline caches -------------------------------------------------------


class TestSetAssocRecovery:
    def test_refetch_on_read(self):
        settings.configure(soft_errors="@0", soft_error_policy="refetch")
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.fill(0, bytes(64))  # zero line compresses -> injectable
        assert cache.stats["soft_errors_injected"] == 1
        assert not cache.read(0).hit
        assert cache.stats["soft_error_recoveries"] == 1
        cache.fill(0, bytes(64))
        assert cache.read(0).hit

    def test_failstop(self):
        settings.configure(soft_errors="@0", soft_error_policy="failstop")
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.fill(0, bytes(64))
        with pytest.raises(PoisonedLineError):
            cache.read(0)

    def test_raw_fallback_fills_all_segments(self):
        settings.configure(soft_errors="@0", soft_error_policy="raw")
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.fill(0, bytes(64))
        cache.read(0)
        cache.fill(0, bytes(64))
        cache_set = cache._sets[cache.geometry.set_index(0)]
        assert cache_set.lines[0].segments == 64 // SEGMENT_BYTES
        assert cache_set.lines[0].poison_bit is None

    def test_uncompressed_lines_never_injected(self):
        settings.configure(soft_errors="@0", soft_error_policy="refetch")
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        import os
        incompressible = os.urandom(64)
        cache.fill(0, incompressible)
        if cache.stats["soft_errors_injected"]:
            # only fires if the line actually compressed below full size
            cache_set = cache._sets[cache.geometry.set_index(0)]
            assert cache_set.lines[0].segments < 64 // SEGMENT_BYTES


class TestSkewedRecovery:
    def test_refetch_on_read(self):
        settings.configure(soft_errors="@0", soft_error_policy="refetch")
        cache = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        cache.fill(0, bytes(64))
        assert cache.stats["soft_errors_injected"] == 1
        assert not cache.read(0).hit
        assert cache.stats["soft_error_recoveries"] == 1
        cache.fill(0, bytes(64))
        assert cache.read(0).hit

    def test_failstop(self):
        settings.configure(soft_errors="@0", soft_error_policy="failstop")
        cache = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        cache.fill(0, bytes(64))
        with pytest.raises(PoisonedLineError) as excinfo:
            cache.read(0)
        assert "superblock" in str(excinfo.value)

    def test_raw_fallback_uses_full_entry(self):
        settings.configure(soft_errors="@0", soft_error_policy="raw")
        cache = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        cache.fill(0, bytes(64))
        cache.read(0)
        cache.fill(0, bytes(64))
        entry, _ = cache._locate(0)
        assert entry.blocks == 1  # stored raw: one line per 64B entry
        assert 0 not in entry.poisoned


# -- whole runs ------------------------------------------------------------


class TestEndToEnd:
    def test_run_completes_under_injection(self):
        settings.configure(soft_errors="1e-3", soft_error_policy="refetch")
        result = run_single_program("gcc", "MORC", n_instructions=20_000)
        assert result.llc_stats["soft_errors_injected"] > 0
        assert result.llc_stats["soft_errors_detected"] > 0
        assert (result.llc_stats["soft_error_recoveries"]
                == result.llc_stats["soft_errors_detected"])

    def test_injected_runs_are_deterministic(self):
        settings.configure(soft_errors="1e-3", soft_error_policy="refetch")
        a = run_single_program("gcc", "MORC", n_instructions=15_000)
        b = run_single_program("gcc", "MORC", n_instructions=15_000)
        assert a.llc_stats == b.llc_stats
        assert a.ipc == b.ipc

    def test_raw_policy_run_records_fallbacks(self):
        settings.configure(soft_errors="1e-3", soft_error_policy="raw")
        result = run_single_program("gcc", "MORC", n_instructions=20_000)
        assert result.llc_stats["raw_fallbacks"] > 0

    def test_baselines_complete_under_injection(self):
        settings.configure(soft_errors="1e-3", soft_error_policy="refetch")
        for scheme in ("Adaptive", "Skewed"):
            result = run_single_program("gcc", scheme,
                                        n_instructions=15_000)
            assert result.llc_stats["soft_errors_injected"] > 0

    def test_clean_run_bit_identical_to_default(self):
        baseline = run_single_program("gcc", "MORC",
                                      n_instructions=15_000)
        settings.configure(soft_errors="0", soft_error_policy="refetch",
                           verify=False)
        clean = run_single_program("gcc", "MORC", n_instructions=15_000)
        assert clean.compression_ratio == baseline.compression_ratio
        assert clean.ipc == baseline.ipc
        assert clean.llc_stats == baseline.llc_stats

    def test_verified_run_bit_identical(self):
        baseline = run_single_program("gcc", "MORC",
                                      n_instructions=15_000)
        settings.configure(verify=True)
        verified = run_single_program("gcc", "MORC",
                                      n_instructions=15_000)
        assert verified.compression_ratio == baseline.compression_ratio
        assert verified.ipc == baseline.ipc
        assert verified.llc_stats == baseline.llc_stats

    @pytest.mark.parametrize("scheme", ["MORC", "MORC-CPack", "MORC-LZ"])
    def test_verified_codec_run_bit_identical(self, scheme):
        baseline = run_single_program("gcc", scheme, n_instructions=5_000)
        settings.configure(verify="1")
        verified = run_single_program("gcc", scheme, n_instructions=5_000)
        assert verified.llc_stats["compressions"] > 0
        assert verified.compression_ratio == baseline.compression_ratio
        assert verified.metrics == baseline.metrics
        assert verified.llc_stats == baseline.llc_stats

    def test_verified_baselines_pass(self):
        settings.configure(verify=True)
        for scheme in ("Adaptive", "Decoupled", "SC2", "Skewed"):
            run_single_program("gcc", scheme, n_instructions=8_000)


# -- observability ---------------------------------------------------------


class TestObservability:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        settings.configure(obs=True, obs_trace=str(path))
        yield str(path)
        settings.reset()

    def test_events_emitted(self, trace_path):
        from repro.obs.reader import read_all
        settings.configure(soft_errors="1e-3", soft_error_policy="refetch")
        run_single_program("gcc", "MORC", n_instructions=20_000)
        events, malformed = read_all(trace_path)
        assert malformed == 0
        kinds = {e["ev"] for e in events if e["cat"] == "resilience"}
        assert {"soft_error", "recovery"} <= kinds
        soft_error = next(e for e in events if e["ev"] == "soft_error")
        assert {"cache", "line", "bit", "bits"} <= set(soft_error)
        recovery = next(e for e in events if e["ev"] == "recovery")
        assert recovery["policy"] == "refetch"
        assert recovery["during"] in ("read", "flush", "evict")

    def test_obs_summary_renders_resilience_section(self, trace_path):
        from repro.cli import main as cli_main
        settings.configure(soft_errors="1e-3", soft_error_policy="refetch")
        run_single_program("gcc", "MORC", n_instructions=20_000)
        from repro.obs.summary import render, summarize
        text = render(summarize(trace_path))
        assert "Resilience events" in text
        assert "Recoveries by policy" in text
        assert cli_main(["obs", trace_path]) == 0

    def test_clean_run_emits_no_resilience_events(self, trace_path):
        from repro.obs.reader import read_all
        run_single_program("gcc", "MORC", n_instructions=5_000)
        events, _ = read_all(trace_path)
        assert not [e for e in events if e["cat"] == "resilience"]


# -- the invariant auditor -------------------------------------------------


class TestAuditor:
    def test_healthy_caches_pass(self):
        morc = small_morc()
        for index in range(32):
            morc.fill(index * 64, line(index))
        assert res_verify._audit_morc(morc) == []
        adaptive = AdaptiveCache(CacheGeometry(16 * 64, ways=8))
        for index in range(32):
            adaptive.fill(index * 64, line(index % 7))
        assert res_verify._audit_set_assoc(adaptive) == []
        skewed = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        for index in range(32):
            skewed.fill(index * 64, line(index % 7))
        assert res_verify._audit_skewed(skewed) == []

    def test_catches_broken_log_accounting(self):
        cache = small_morc()
        cache.fill(0, line(1))
        cache.logs[0].data_bits_used += 1
        with pytest.raises(VerificationError) as excinfo:
            res_verify.audit(cache)
        assert "data_bits_used" in str(excinfo.value)

    def test_catches_a_miscounted_reusable_log(self):
        cache = small_morc()
        cache.fill(0, line(1))
        cache._dead_closed += 1
        with pytest.raises(VerificationError, match="only dead lines"):
            res_verify.audit(cache)

    def test_catches_broken_segment_accounting(self):
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.fill(0, bytes(64))
        cache._sets[cache.geometry.set_index(0)].used_segments += 1
        with pytest.raises(VerificationError):
            res_verify.audit(cache)

    def test_catches_line_outside_superblock(self):
        cache = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        cache.fill(0, bytes(64))
        entry, _ = cache._locate(0)
        entry.lines[999] = (bytes(64), False)
        with pytest.raises(VerificationError):
            res_verify.audit(cache)

    def test_audit_runs_from_sample_ratio_when_enabled(self):
        settings.configure(verify=True)
        cache = small_morc()
        cache.fill(0, line(1))
        cache.sample_ratio()  # healthy: no raise
        cache.logs[0].data_bits_used += 1
        with pytest.raises(VerificationError):
            cache.sample_ratio()

    def test_roundtrip_verification_catches_bad_codec(self):
        settings.configure(verify=True)

        class LyingCodec:
            name = "liar"

            def compress(self, data):
                from repro.compression.base import CompressedSize
                return CompressedSize(100)

            def roundtrip(self, data):
                return bytes(64)  # wrong whenever data isn't zeros

        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.compressor = LyingCodec()
        with pytest.raises(VerificationError):
            cache.fill(0, line(9))

    @pytest.mark.parametrize("algorithm, codec, decoder, message", [
        ("lbe", LbeCompressor, "_decode_line", "LBE round-trip"),
        ("cpack", CPackCompressor, "decompress_tokens", "cpack round-trip"),
        ("lz", LzStreamCompressor, "decode_line", "LZ round-trip"),
    ], ids=["lbe", "cpack", "lz"])
    def test_commit_verification_catches_bad_decode(
            self, monkeypatch, algorithm, codec, decoder, message):
        """Every MORC codec's commit is decoded back under REPRO_VERIFY."""
        settings.configure(verify="1")
        cache = MorcCache(8 * 1024, config=MorcConfig(n_active_logs=2),
                          algorithm=algorithm)
        cache.fill(0, line(1))  # an honest decoder passes
        decode = getattr(codec, decoder)

        def corrupt_one_byte(self, *args):
            decoded = bytearray(decode(self, *args))
            decoded[7] ^= 0x01
            return bytes(decoded)

        monkeypatch.setattr(codec, decoder, corrupt_one_byte)
        with pytest.raises(VerificationError, match=message):
            cache.fill(64, line(2))


class TestMergedSetAudit:
    """A set cache's ``lines`` dict is its tag array and its LRU order at
    once; the audit checks the segment sum, the tag budget and each
    line's bookkeeping against it."""

    @staticmethod
    def filled():
        cache = AdaptiveCache(CacheGeometry(16 * 64, ways=8))
        for index in range(32):
            cache.fill(index * 64, line(index % 7))
        assert res_verify._audit_set_assoc(cache) == []
        return cache, cache._sets[0]

    def test_catches_a_line_counted_twice(self):
        cache, cache_set = self.filled()
        first = next(iter(cache_set.lines.values()))
        cache_set.used_segments += first.segments
        with pytest.raises(VerificationError, match="lines sum to"):
            res_verify.audit(cache)

    def test_catches_a_line_filed_under_another_tag(self):
        cache, cache_set = self.filled()
        key, stored = cache_set.lines.popitem(last=False)
        cache_set.lines[key + cache._n_sets] = stored
        with pytest.raises(VerificationError, match="holds line"):
            res_verify.audit(cache)

    def test_catches_a_line_in_the_wrong_set(self):
        cache, cache_set = self.filled()
        key, stored = cache_set.lines.popitem(last=False)
        cache._sets[1].lines[key] = stored
        cache_set.used_segments -= stored.segments
        cache._sets[1].used_segments += stored.segments
        with pytest.raises(VerificationError, match="belongs to set 0"):
            res_verify.audit(cache)

    def test_catches_too_many_tags(self):
        cache, cache_set = self.filled()
        while len(cache_set.lines) <= cache.tags_per_set:
            key = max(cache_set.lines) + cache._n_sets
            cache_set.lines[key] = dataclasses.replace(
                next(iter(cache_set.lines.values())), address=key)
        with pytest.raises(VerificationError, match="tags"):
            res_verify.audit(cache)
