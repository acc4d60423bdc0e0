"""Golden tests: the optimised hot paths are bit-exact, and the
parallel experiment engine is deterministic.

Every optimised kernel (planned and memoised LBE measure, one-pass LBE
encoder, prefix lookup tables, chunked BitWriter, C-Pack/FPC memos) must
produce results identical to the oracles in
``repro.conformance.oracles`` — same bit counts, same symbol streams,
same committed dictionary state.  The corpora cover all data archetypes
and the dictionaries evolve across lines, so freeze/capacity edge cases
are exercised, not just the easy steady state.
"""

from __future__ import annotations

import pytest

from repro.common.bitio import BitReader, BitWriter
from repro.common.errors import CompressionError, ConfigError
from repro.compression.cpack import CPackCompressor
from repro.compression.fpc import FpcCompressor
from repro.compression.lbe import LbeCompressor, LbeDictionary
from repro.conformance.oracles import (
    ReferenceBitWriter,
    reference_cpack_bits,
    reference_cpack_tokens,
    reference_fpc_bits,
    reference_fpc_tokens,
    reference_lbe_compress,
    reference_lbe_measure,
)
from repro.experiments import figure6, parallel
from repro.experiments.runner import scale_instructions
from repro.perf.corpus import ARCHETYPES, line_corpus, mixed_stream


# -- LBE ----------------------------------------------------------------

@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_lbe_measure_matches_reference(archetype):
    compressor = LbeCompressor()
    live_dict, reference_dict = LbeDictionary(), LbeDictionary()
    for index, line in enumerate(line_corpus(archetype, count=48)):
        assert (compressor.measure(line, live_dict)
                == reference_lbe_measure(line, reference_dict))
        # Evolve both dictionaries identically so later measures see
        # frozen/partial capacity states.
        if index % 3 == 0:
            compressor.compress(line, live_dict, commit=True)
            reference_lbe_compress(line, reference_dict, commit=True)


def test_lbe_measure_memo_matches_recompute():
    compressor = LbeCompressor()
    dictionary = LbeDictionary()
    lines = mixed_stream(count=64)
    first = [compressor.measure(line, dictionary) for line in lines]
    # Second pass hits the memo; values must be identical.
    assert [compressor.measure(line, dictionary)
            for line in lines] == first
    # Committing a line invalidates the memo; measures stay correct.
    compressor.compress(lines[0], dictionary, commit=True)
    for line in lines:
        assert (compressor.measure(line, dictionary)
                == reference_lbe_measure(line, dictionary))


def test_lbe_compress_identical_symbol_streams():
    compressor = LbeCompressor()
    live_dict, reference_dict = LbeDictionary(), LbeDictionary()
    for line in mixed_stream(count=96):
        live = compressor.compress(line, live_dict, commit=True)
        reference = reference_lbe_compress(line, reference_dict,
                                           commit=True)
        assert live.symbols == reference.symbols
        assert live.size_bits == reference.size_bits


def test_lbe_roundtrip_through_bitstream():
    compressor = LbeCompressor()
    write_dict = LbeDictionary()
    lines = mixed_stream(count=48)
    stream = []
    for line in lines:
        compressed = compressor.compress(line, write_dict, commit=True)
        writer = compressor.to_bitstream(compressed)
        assert len(writer) == compressed.size_bits
        parsed = compressor.from_bitstream(BitReader.from_writer(writer))
        assert parsed.symbols == compressed.symbols
        stream.append(parsed)
    # Replaying the whole log reproduces every line byte-for-byte.
    assert compressor.decompress(stream) == lines


# -- C-Pack / FPC -------------------------------------------------------

@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_cpack_matches_reference(archetype):
    compressor = CPackCompressor()
    for line in line_corpus(archetype, count=48):
        tokens = compressor.compress_tokens(line)
        assert tokens == reference_cpack_tokens(line)
        assert compressor.compress(line).size_bits == \
            reference_cpack_bits(line)
        # memo hit must agree with the first computation
        assert compressor.compress(line).size_bits == \
            reference_cpack_bits(line)
        writer = compressor.to_bitstream(tokens)
        assert len(writer) == compressor.compress(line).size_bits
        assert compressor.from_bitstream(
            BitReader.from_writer(writer)) == tokens


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_fpc_matches_reference(archetype):
    compressor = FpcCompressor()
    for line in line_corpus(archetype, count=48):
        tokens = compressor.compress_tokens(line)
        assert tokens == reference_fpc_tokens(line)
        assert compressor.compress(line).size_bits == \
            reference_fpc_bits(line)
        writer = compressor.to_bitstream(tokens)
        assert len(writer) == compressor.compress(line).size_bits
        assert compressor.from_bitstream(
            BitReader.from_writer(writer)) == tokens


# -- bit I/O ------------------------------------------------------------

def test_bitwriter_matches_reference_writer():
    fast, reference = BitWriter(), ReferenceBitWriter()
    fields = [(value % (1 << width), width)
              for value, width in zip(range(3000),
                                      [1, 3, 5, 7, 9, 16, 32] * 500)]
    for value, width in fields:
        fast.write(value, width)
        reference.write(value, width)
    assert fast.getvalue() == reference.getvalue()
    assert fast.to_bytes() == reference.to_bytes()
    assert len(fast) == len(reference)


def test_bitwriter_extend_matches_reference():
    left, right = BitWriter(), BitWriter()
    for index in range(2000):
        (left if index % 2 else right).write(index & 0x3FF, 11)
    reference = ReferenceBitWriter()
    for index in range(2000):
        if index % 2 == 0:
            reference.write(index & 0x3FF, 11)
    merged = BitWriter()
    merged.extend(right)
    assert merged.getvalue() == reference.getvalue()


def test_bitwriter_rejects_bad_fields():
    writer = BitWriter()
    with pytest.raises(CompressionError):
        writer.write(4, 2)
    with pytest.raises(CompressionError):
        writer.write(1, -1)


# -- parallel engine ----------------------------------------------------

def test_parallel_matches_serial(monkeypatch):
    kwargs = dict(benchmarks=["gcc", "hmmer"], n_instructions=8_000,
                  schemes=("Uncompressed", "MORC"))
    monkeypatch.setenv("REPRO_JOBS", "1")
    serial = figure6.run(**kwargs)
    monkeypatch.setenv("REPRO_JOBS", "2")
    pooled = figure6.run(**kwargs)
    for scheme in kwargs["schemes"]:
        for a, b in zip(serial.runs[scheme], pooled.runs[scheme]):
            assert a.compression_ratio == b.compression_ratio
            assert a.ipc == b.ipc
            assert a.bandwidth_gb == b.bandwidth_gb
    timings = parallel.last_timings()
    assert [t.label for t in timings] == [
        f"{benchmark}/{scheme}" for scheme in kwargs["schemes"]
        for benchmark in kwargs["benchmarks"]]
    assert all(t.seconds > 0 for t in timings)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert parallel.worker_count() == 3
    monkeypatch.delenv("REPRO_JOBS")
    assert parallel.worker_count() >= 1
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ConfigError):
        parallel.worker_count()
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ConfigError):
        parallel.worker_count()


def test_scale_instructions_rejects_bad_values(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2")
    assert scale_instructions(10_000) == 20_000
    for bad in ("0", "-1", "nope"):
        monkeypatch.setenv("REPRO_SCALE", bad)
        with pytest.raises(ConfigError):
            scale_instructions(10_000)


def test_run_spec_memory_keys():
    with pytest.raises(ConfigError):
        parallel._make_memory("warp", None)
