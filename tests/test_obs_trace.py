"""Event tracer end-to-end: emission, round-trip, isolation, summary.

The two acceptance properties live here: with ``REPRO_OBS=0`` nothing
is emitted and simulation results are identical to an instrumented run,
and with tracing on the ``repro obs`` summary reconstructs a run's mean
compression ratio from ``ratio_sample`` events to within 1% of the
reported value (in fact exactly, since the events mirror the samples).
"""

from __future__ import annotations

import os

import pytest

from repro import settings
from repro.cli import main as cli_main
from repro.experiments.parallel import (
    RunSpec,
    last_timings,
    last_worker_profiles,
    run_cells,
)
from repro.obs import trace as obs_trace
from repro.obs.reader import read_all, read_events
from repro.obs.summary import summarize
from repro.sim.system import run_single_program


@pytest.fixture
def trace_path(tmp_path):
    """Tracing on, everything restored to env defaults afterwards."""
    path = tmp_path / "trace.jsonl"
    settings.configure(obs=True, obs_trace=str(path))
    yield str(path)
    settings.reset()


def _result_fingerprint(result):
    return (result.compression_ratio, result.ipc, result.bandwidth_gb,
            result.metrics.llc_hits, result.metrics.llc_misses,
            result.llc_stats)


# -- emission and round-trip --------------------------------------------

def test_simulation_emits_all_categories(trace_path):
    run_single_program("gcc", "MORC", n_instructions=5000)
    events, malformed = read_all(trace_path)
    assert malformed == 0
    categories = {event["cat"] for event in events}
    assert {"llc", "compression", "mem", "run"} <= categories
    kinds = {event["ev"] for event in events}
    assert {"run_start", "measure_start", "run_end", "insert",
            "ratio_sample", "compress", "queue_sample"} <= kinds
    # ambient context is attached to hot-path events too
    insert = next(e for e in events if e["ev"] == "insert")
    assert insert["benchmark"] == "gcc"
    assert insert["scheme"] == "MORC"
    assert "run" in insert


def test_jsonl_round_trip(trace_path):
    channel = obs_trace.LLC
    channel.emit("evict", cache="MORC", reason="log_flush", dirty=True,
                 bits=512)
    events = list(read_events(trace_path))
    assert events == [{"cat": "llc", "ev": "evict", "cache": "MORC",
                       "reason": "log_flush", "dirty": True, "bits": 512}]


def test_reader_tolerates_torn_and_blank_lines(trace_path):
    obs_trace.RUN.emit("run_start", n_instructions=1)
    with open(trace_path, "a") as handle:
        handle.write("\n{\"cat\": \"llc\", \"ev\"")  # torn final line
    events, malformed = read_all(trace_path)
    assert len(events) == 1
    assert malformed == 1


def test_run_context_cleared_after_run(trace_path):
    run_single_program("gcc", "MORC", n_instructions=2000)
    obs_trace.RUN.emit("orphan")
    last = list(read_events(trace_path))[-1]
    assert last["ev"] == "orphan"
    assert "run" not in last and "benchmark" not in last


# -- category filtering --------------------------------------------------

def test_category_filter(tmp_path):
    path = tmp_path / "filtered.jsonl"
    settings.configure(obs=True, obs_trace=str(path),
                       obs_categories={"llc"})
    try:
        assert obs_trace.LLC is not None
        assert obs_trace.COMPRESSION is None
        assert obs_trace.MEM is None
        run_single_program("gcc", "MORC", n_instructions=3000)
        categories = {event["cat"] for event in read_events(str(path))}
        assert categories == {"llc"}
    finally:
        settings.reset()


# -- disabled: no events, identical results -----------------------------

def test_disabled_emits_nothing_and_results_identical(tmp_path):
    path = tmp_path / "off.jsonl"
    settings.configure(obs=False, obs_trace=str(path))
    try:
        baseline = run_single_program("gcc", "MORC", n_instructions=4000)
        assert obs_trace.tracing_active() is False
        assert not path.exists()
    finally:
        settings.reset()
    settings.configure(obs=True, obs_trace=str(tmp_path / "on.jsonl"))
    try:
        traced = run_single_program("gcc", "MORC", n_instructions=4000)
    finally:
        settings.reset()
    # the tracer observes, never perturbs: bit-identical results
    assert _result_fingerprint(baseline) == _result_fingerprint(traced)
    assert baseline.metrics.miss_latencies == traced.metrics.miss_latencies


# -- ratio reconstruction ------------------------------------------------

def test_summary_reconstructs_reported_ratio(trace_path):
    result = run_single_program("gcc", "MORC", n_instructions=20_000)
    summary = summarize(trace_path)
    digests = [d for d in summary.runs.values() if d.ratio_samples]
    assert len(digests) == 1
    digest = digests[0]
    assert digest.benchmark == "gcc"
    assert digest.reported_ratio == pytest.approx(
        result.compression_ratio)
    # acceptance bound is 1%; the event stream mirrors the samples, so
    # the reconstruction is exact
    assert digest.reconstructed_ratio == pytest.approx(
        result.compression_ratio, rel=0.01)
    assert digest.reconstructed_ratio == pytest.approx(
        digest.reported_ratio)


# -- engine profiling ----------------------------------------------------

def test_engine_profiles_and_events(trace_path):
    specs = [RunSpec("gcc", "MORC", n_instructions=2000),
             RunSpec("bzip2", "Uncompressed", n_instructions=2000)]
    run_cells(specs, jobs=1)
    timings = last_timings()
    assert [t.label for t in timings] == ["gcc/MORC",
                                          "bzip2/Uncompressed"]
    assert all(t.peak_rss_kb > 0 for t in timings)
    assert all(t.queue_wait_s >= 0.0 for t in timings)
    profiles = last_worker_profiles()
    assert len(profiles) == 1
    assert profiles[0].pid == os.getpid()
    assert profiles[0].cells == 2
    assert 0.0 < profiles[0].utilization <= 1.0
    assert profiles[0].peak_rss_kb > 0
    events = list(read_events(trace_path))
    assert sum(1 for e in events if e["ev"] == "cell") == 2
    assert sum(1 for e in events if e["ev"] == "worker") == 1


# -- CLI ----------------------------------------------------------------

def test_cli_obs_renders_summary(trace_path, capsys):
    run_single_program("gcc", "MORC", n_instructions=5000)
    assert cli_main(["obs", trace_path, "--top", "4"]) == 0
    output = capsys.readouterr().out
    assert "events" in output
    assert "Compression ratio per run" in output
    assert "gcc/MORC" in output
    assert "Compression attempts per codec" in output


def test_cli_obs_missing_file(tmp_path, capsys):
    assert cli_main(["obs", str(tmp_path / "nope.jsonl")]) == 1
    assert "cannot read trace" in capsys.readouterr().err


def test_cli_list_shows_obs_knobs(capsys):
    assert cli_main(["list"]) == 0
    output = capsys.readouterr().out
    for category in ("llc", "compression", "mem", "run", "engine"):
        assert category in output
    for knob in ("REPRO_OBS", "REPRO_OBS_TRACE", "REPRO_OBS_CATEGORIES",
                 "REPRO_OBS_SAMPLE", "REPRO_JOBS", "REPRO_SCALE"):
        assert knob in output
    assert "REPRO_FAST" not in output


def test_entropy_classes():
    from repro.common.words import LINE_SIZE
    assert obs_trace.entropy_class(bytes(LINE_SIZE)) == "zero"
    assert obs_trace.entropy_class(b"\x01\x02" * 32) == "low"
    assert obs_trace.entropy_class(bytes(range(10)) * 6) == "mid"
    assert obs_trace.entropy_class(bytes(range(64))) == "high"
