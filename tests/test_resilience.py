"""Data-plane self-verification (``REPRO_VERIFY``).

Covers the ``repro.resilience`` subsystem end to end: verified runs stay
bit-identical to unverified ones, a verify failure surfaces as a
``verify_fail`` event that ``repro obs`` renders, and the invariant
auditor and commit round trips catch broken caches and codecs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import settings
from repro.cache.set_assoc import AdaptiveCache
from repro.common.config import CacheGeometry, MorcConfig
from repro.common.errors import VerificationError
from repro.compression.cpack import CPackCompressor
from repro.compression.lbe import LbeCompressor, LbeDictionary
from repro.compression.lz import LzStreamCompressor
from repro.compression.tag_compression import TagStream
from repro.morc.cache import MorcCache
from repro.resilience import verify as res_verify
from repro.sim.system import run_single_program


@pytest.fixture(autouse=True)
def _reset_resilience():
    """Every test starts and ends with the environment's settings."""
    settings.reset()
    yield
    settings.reset()


def line(byte):
    return bytes([byte]) * 64


class LyingCodec:
    """An intra-line codec whose round trip returns the wrong bytes."""

    name = "liar"

    def compress(self, data):
        from repro.compression.base import CompressedSize
        return CompressedSize(100)

    def roundtrip(self, data):
        return bytes(64)  # wrong whenever data isn't zeros


def small_morc(**overrides):
    defaults = dict(n_active_logs=2, lmt_overprovision=8, lmt_ways=2)
    defaults.update(overrides)
    return MorcCache(8 * 1024, config=MorcConfig(**defaults))


# -- whole runs ------------------------------------------------------------


class TestEndToEnd:
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

    def test_verified_figure6_grid_bit_identical(self):
        """Figure 6's quick bench grid, serially, with and without
        REPRO_VERIFY: every cell's ratio and LLC counters match."""
        from repro.experiments import figure6
        grid = dict(benchmarks=["gcc", "hmmer"], n_instructions=15_000,
                    schemes=("Uncompressed", "MORC"))
        settings.configure(jobs=1)
        base = figure6.run(**grid).runs
        settings.configure(verify=True)
        verified = figure6.run(**grid).runs
        assert list(verified) == list(base) == ["Uncompressed", "MORC"]
        for scheme, runs in base.items():
            assert len(runs) == len(verified[scheme]) == 2
            for plain, checked in zip(runs, verified[scheme]):
                assert checked.compression_ratio == plain.compression_ratio
                assert checked.llc_stats == plain.llc_stats

    def test_verified_baselines_pass(self):
        settings.configure(verify=True)
        for scheme in ("Adaptive", "Decoupled", "SC2"):
            run_single_program("gcc", scheme, n_instructions=8_000)


# -- observability ---------------------------------------------------------


class TestObservability:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        settings.configure(obs=True, obs_trace=str(path))
        yield str(path)
        settings.reset()

    def test_verify_failure_is_traced_and_rendered(self, trace_path):
        from repro.cli import main as cli_main
        from repro.obs.reader import read_all
        from repro.obs.summary import render, summarize
        settings.configure(verify=True)
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.compressor = LyingCodec()
        with pytest.raises(VerificationError):
            cache.fill(0, line(9))
        events, malformed = read_all(trace_path)
        assert malformed == 0
        failure = next(e for e in events if e["ev"] == "verify_fail")
        assert failure["cat"] == "resilience"
        assert failure["cache"] == "Adaptive"
        assert failure["kind"] == "roundtrip"
        assert "liar round-trip mismatch" in failure["detail"]
        assert "Verification failures (1)" in render(summarize(trace_path))
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

    @staticmethod
    def invariant_failure(monkeypatch, cache):
        """The violations of the ``invariant`` failure auditing raises."""
        kinds = []
        fail = res_verify._fail

        def recording_fail(subject, violations, kind):
            kinds.append(kind)
            fail(subject, violations, kind)

        monkeypatch.setattr(res_verify, "_fail", recording_fail)
        with pytest.raises(VerificationError) as excinfo:
            res_verify.audit(cache)
        assert kinds == ["invariant"]
        return "; ".join(excinfo.value.violations)

    @pytest.mark.parametrize("field, state", [
        ("codec_state", LbeDictionary), ("tag_stream", TagStream)])
    def test_catches_codec_state_kept_by_a_closed_log(
            self, monkeypatch, field, state):
        cache = small_morc()
        address = 0
        while not cache._closed_fifo:
            cache.fill(address * 64, bytes([address % 251]) * 32
                       + bytes(32))
            address += 1
        assert res_verify._audit_morc(cache) == []
        closed = cache.logs[cache._closed_fifo[0]]
        setattr(closed, field, state())
        assert "closed but still holds" in self.invariant_failure(
            monkeypatch, cache)

    @pytest.mark.parametrize("field", ["codec_state", "tag_stream"])
    def test_catches_an_active_log_without_codec_state(
            self, monkeypatch, field):
        cache = small_morc()
        cache.fill(0, line(1))
        setattr(cache.logs[cache._active[1]], field, None)
        assert "active but lacks" in self.invariant_failure(
            monkeypatch, cache)

    def test_catches_codec_state_on_a_never_used_log(self, monkeypatch):
        cache = small_morc()
        cache.logs[cache._free_pool[0]].codec_state = LbeDictionary()
        assert "never used but holds" in self.invariant_failure(
            monkeypatch, cache)

    def test_catches_broken_segment_accounting(self):
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.fill(0, bytes(64))
        cache._sets[cache.geometry.set_index(0)].used_segments += 1
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
