"""Fault-tolerant engine: error capture, dead workers, resume.

Exercises every fault path of :mod:`repro.experiments.parallel` with the
deterministic ``REPRO_FAULT_INJECT`` hook: an injected crash becomes a
structured :class:`CellError` with the rest of the grid intact, a killed
worker fails the cells its pool had not finished and ``resume``
finishes them, an injected kill in a serial grid raises instead of
ending the process, and a killed or interrupted sweep resumes from its
checkpoint with results bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import pickle
import types

import pytest

from repro import settings
from repro.common.errors import CellError, CellFailedError, ConfigError
from repro.experiments import checkpoint, figure6, parallel
from repro.experiments.checkpoint import GridCheckpoint, spec_key
from repro.experiments.parallel import EngineOptions, parallel_map
from repro.obs.reader import read_all, read_events
from repro.obs.summary import render, summarize


def _double(x):
    return 2 * x


def _interruptible_double(x):
    """2*x, but Ctrl-C on x == 2 while TEST_INTERRUPT is set (forked
    workers inherit the parent's environment)."""
    if x == 2 and os.environ.get("TEST_INTERRUPT"):
        raise KeyboardInterrupt
    return 2 * x


def _logged_double(item):
    """Append this invocation to a shared log (O_APPEND is atomic)."""
    log_path, value = item
    with open(log_path, "a") as handle:
        handle.write(f"{value}\n")
    return 2 * value


@pytest.fixture
def quiet_env():
    """Fault knobs at their defaults; the environment's settings come
    back on teardown."""
    settings.configure(fault_inject="", on_error="raise")
    yield
    settings.reset()


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    settings.configure(obs=True, obs_trace=str(path))
    yield str(path)
    settings.reset()


# -- error capture ------------------------------------------------------

def test_injected_crash_becomes_cell_error_grid_intact(quiet_env):
    settings.configure(fault_inject="crash@2")
    out = parallel_map(_double, [1, 2, 3, 4], jobs=2,
                       engine=EngineOptions(on_error="skip"))
    assert out[0] == 2 and out[1] == 4 and out[3] == 8
    cell = out[2]
    assert isinstance(cell, CellError)
    assert cell.label == "cell[2]"
    assert "injected crash" in cell.exception
    assert "FaultInjected" in cell.traceback


def test_default_raise_mode_wraps_worker_exception(quiet_env):
    settings.configure(fault_inject="crash@1")
    with pytest.raises(CellFailedError) as excinfo:
        parallel_map(_double, [5, 6, 7], jobs=2)
    assert excinfo.value.cell.label == "cell[1]"
    assert "injected crash" in str(excinfo.value)


def test_failed_grid_does_not_leave_stale_engine_state(quiet_env):
    # Regression: last_timings() and the engine wall clock used to keep
    # the PREVIOUS invocation's data after any failure.
    parallel_map(_double, [10, 20, 30], jobs=2, label="first")
    assert [t.label for t in parallel.last_timings()] == [
        "first[0]", "first[1]", "first[2]"]
    settings.configure(fault_inject="crash@0")
    with pytest.raises(CellFailedError):
        parallel_map(_double, [1, 2], jobs=2, label="second")
    labels = [t.label for t in parallel.last_timings()]
    assert all(label.startswith("second[") for label in labels)
    profiles = parallel.last_worker_profiles()
    assert profiles and all(p.utilization > 0.0 for p in profiles)


# -- dead workers --------------------------------------------------------

def test_killed_worker_fails_its_cells_and_resume_finishes_them(
        quiet_env, tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    items = list(range(6))
    clean = [_double(item) for item in items]
    settings.configure(fault_inject="kill@1")
    out = parallel_map(_double, items, jobs=2,
                       engine=EngineOptions(on_error="skip",
                                            checkpoint=ckpt))
    # the killed worker never returns cell 1; which other in-flight
    # cells it takes down with the pool depends on timing
    assert isinstance(out[1], CellError)
    assert "BrokenProcessPool" in out[1].exception
    assert all(slot == want for slot, want in zip(out, clean)
               if not isinstance(slot, CellError))
    settings.configure(fault_inject="")
    resumed = parallel_map(_double, items, jobs=2,
                           engine=EngineOptions(on_error="skip",
                                                checkpoint=ckpt,
                                                resume=True))
    assert resumed == clean
    stats = parallel.last_resume()
    assert stats["loaded"] + stats["executed"] == len(items)
    assert stats["executed"] >= 1


def test_pool_broken_while_cells_are_still_being_submitted(quiet_env):
    # cell 0 kills its worker while most of a large grid is still being
    # submitted, so later submissions meet the broken pool too
    settings.configure(fault_inject="kill@0")
    items = list(range(5000))
    out = parallel_map(abs, items, jobs=2,
                       engine=EngineOptions(on_error="skip"))
    assert len(out) == len(items)
    assert isinstance(out[0], CellError)
    assert all(isinstance(slot, CellError) or slot == item
               for slot, item in zip(out, items))


def test_kill_in_a_serial_grid_raises_instead_of_exiting(quiet_env):
    settings.configure(fault_inject="kill@1")
    out = parallel_map(_double, [1, 2, 3], jobs=1,
                       engine=EngineOptions(on_error="skip"))
    assert isinstance(out[1], CellError)
    assert "injected kill" in out[1].exception
    assert [out[0], out[2]] == [2, 6]
    with pytest.raises(CellFailedError):
        parallel_map(_double, [1, 2, 3], jobs=1)


@pytest.mark.parametrize("directive", ["flaky@1", "hang@0:1"])
def test_removed_fault_modes_are_config_errors(quiet_env, directive):
    with pytest.raises(ConfigError):
        settings.configure(fault_inject=directive)


def test_retry_policy_is_a_config_error(quiet_env):
    with pytest.raises(ConfigError):
        settings.configure(on_error="retry")
    with pytest.raises(ConfigError):
        parallel_map(_double, [1, 2], jobs=1,
                     engine=EngineOptions(on_error="retry"))


# -- checkpoint / resume ------------------------------------------------

def test_resume_reruns_only_missing_cells(quiet_env, tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    log = str(tmp_path / "invocations.log")
    items = [(log, value) for value in range(4)]
    settings.configure(fault_inject="crash@2")
    out = parallel_map(_logged_double, items, jobs=2,
                       engine=EngineOptions(on_error="skip",
                                            checkpoint=ckpt))
    assert isinstance(out[2], CellError)
    settings.configure(fault_inject="")
    resumed = parallel_map(_logged_double, items, jobs=2,
                           engine=EngineOptions(on_error="skip",
                                                checkpoint=ckpt,
                                                resume=True))
    assert resumed == [0, 2, 4, 6]
    assert parallel.last_resume() == {"checkpoint": ckpt, "loaded": 3,
                                      "executed": 1}
    # 3 successes in run one + only the failed cell re-run in run two
    with open(log) as handle:
        invocations = sorted(int(line) for line in handle)
    assert invocations == [0, 1, 2, 3]
    # loaded cells' timings are replayed so the grid view is complete
    assert len(parallel.last_timings()) == 4


def test_interrupt_flushes_checkpoint_and_resumes(quiet_env, tmp_path,
                                                  monkeypatch):
    ckpt = str(tmp_path / "grid.ckpt")
    monkeypatch.setenv("TEST_INTERRUPT", "1")
    with pytest.raises(KeyboardInterrupt):
        parallel_map(_interruptible_double, [0, 1, 2, 3], jobs=2,
                     engine=EngineOptions(on_error="skip",
                                          checkpoint=ckpt))
    journaled = GridCheckpoint(ckpt).load()
    assert any(record["status"] == "ok"
               for record in journaled.values())
    monkeypatch.delenv("TEST_INTERRUPT")
    resumed = parallel_map(_interruptible_double, [0, 1, 2, 3], jobs=2,
                           engine=EngineOptions(on_error="skip",
                                                checkpoint=ckpt,
                                                resume=True))
    assert resumed == [0, 2, 4, 6]
    assert parallel.last_resume()["loaded"] >= 1


def test_checkpoint_not_replayed_across_worker_functions(quiet_env,
                                                         tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    parallel_map(_double, [0, 1], jobs=1,
                 engine=EngineOptions(checkpoint=ckpt))
    parallel_map(_interruptible_double, [0, 1], jobs=1,
                 engine=EngineOptions(checkpoint=ckpt, resume=True))
    # same items, same labels, different worker: nothing may be reused
    assert parallel.last_resume()["loaded"] == 0


def test_checkpoint_tolerates_torn_tail(tmp_path):
    ckpt = GridCheckpoint(str(tmp_path / "grid.ckpt"))
    ckpt.append("key-a", {"status": "ok", "label": "a", "result": 1,
                          "timing": None})
    ckpt.append("key-b", {"status": "ok", "label": "b", "result": 2,
                          "timing": None})
    ckpt.close()
    with open(ckpt.path, "ab") as handle:
        handle.write(pickle.dumps(("key-c", {"status": "ok"}))[:7])
    records = ckpt.load()
    assert set(records) == {"key-a", "key-b"}
    assert records["key-a"]["result"] == 1


def test_spec_key_is_stable_and_position_insensitive():
    spec = parallel.RunSpec("gcc", "MORC", n_instructions=5000)
    same = parallel.RunSpec("gcc", "MORC", n_instructions=5000)
    assert spec_key(spec, "w") == spec_key(same, "w")
    assert spec_key(spec, "w") != spec_key(spec, "v")
    other = parallel.RunSpec("gcc", "MORC", n_instructions=6000)
    assert spec_key(spec, "w") != spec_key(other, "w")


def test_grid_resumed_in_reverse_order_replays_every_cell(quiet_env,
                                                          tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    log = str(tmp_path / "invocations.log")
    items = [(log, value) for value in range(4)]
    parallel_map(_logged_double, items, jobs=2,
                 engine=EngineOptions(checkpoint=ckpt))
    resumed = parallel_map(_logged_double, items[::-1], jobs=2,
                           engine=EngineOptions(checkpoint=ckpt,
                                                resume=True))
    assert resumed == [6, 4, 2, 0]
    assert parallel.last_resume() == {"checkpoint": ckpt, "loaded": 4,
                                      "executed": 0}
    assert [t.label for t in parallel.last_timings()] == [
        "cell[0]", "cell[1]", "cell[2]", "cell[3]"]
    with open(log) as handle:
        assert sorted(int(line) for line in handle) == [0, 1, 2, 3]


def test_figure_grid_resume_bit_identical_to_fault_free_run(
        quiet_env, tmp_path):
    # The acceptance scenario: crash 10% of a figure-6 grid, finish with
    # CellErrors reported, resume, and match a fault-free serial run.
    kwargs = dict(benchmarks=["gcc", "hmmer"], n_instructions=5_000,
                  schemes=("Uncompressed", "MORC"))
    settings.configure(jobs=1)
    clean = figure6.run(**kwargs)
    ckpt = str(tmp_path / "figure6.ckpt")
    settings.configure(jobs=2)
    settings.configure(fault_inject="crash@10%")
    partial = figure6.run(engine=EngineOptions(on_error="skip",
                                               checkpoint=ckpt), **kwargs)
    failed = [cell for runs in partial.runs.values() for cell in runs
              if isinstance(cell, CellError)]
    assert failed, "crash@10% must fail at least cell 0"
    settings.configure(fault_inject="")
    resumed = figure6.run(engine=EngineOptions(on_error="skip",
                                               checkpoint=ckpt,
                                               resume=True), **kwargs)
    stats = parallel.last_resume()
    assert stats["loaded"] == 4 - len(failed)
    assert stats["executed"] == len(failed)
    for scheme in kwargs["schemes"]:
        for a, b in zip(clean.runs[scheme], resumed.runs[scheme]):
            assert a.compression_ratio == b.compression_ratio
            assert a.ipc == b.ipc
            assert a.bandwidth_gb == b.bandwidth_gb


def _fingerprint(run):
    return (run.compression_ratio, run.ipc, run.bandwidth_gb,
            sorted(run.llc_stats.items()))


def test_resume_reruns_a_journal_of_the_previous_schema(
        quiet_env, tmp_path, monkeypatch):
    # A journal from an older SCHEMA_VERSION may hash other fields into
    # its keys, so none of its cells may be replayed.
    kwargs = dict(benchmarks=["gcc"], n_instructions=5_000,
                  schemes=("Uncompressed", "MORC"))
    settings.configure(jobs=1)
    ckpt = str(tmp_path / "figure6.ckpt")
    monkeypatch.setattr(checkpoint, "SCHEMA_VERSION",
                        checkpoint.SCHEMA_VERSION - 1)
    old = figure6.run(engine=EngineOptions(checkpoint=ckpt), **kwargs)
    figure6.run(engine=EngineOptions(checkpoint=ckpt, resume=True),
                **kwargs)
    assert parallel.last_resume()["loaded"] == 2  # same schema replays
    monkeypatch.undo()
    resumed = figure6.run(engine=EngineOptions(checkpoint=ckpt,
                                               resume=True), **kwargs)
    assert parallel.last_resume() == {"checkpoint": ckpt, "loaded": 0,
                                      "executed": 2}
    for scheme in kwargs["schemes"]:
        assert (_fingerprint(resumed.runs[scheme][0])
                == _fingerprint(old.runs[scheme][0]))


# -- configuration ------------------------------------------------------

def test_engine_env_knob_validation(quiet_env):
    with pytest.raises(ConfigError):
        settings.configure(on_error="ignore")
    with pytest.raises(ConfigError):
        settings.configure(fault_inject="crash@soon")
    with pytest.raises(ConfigError):
        parallel_map(_double, [1, 2], jobs=1,
                     engine=EngineOptions(on_error="ignore"))


# -- observability surface ----------------------------------------------

def test_reader_streams_lazily(tmp_path):
    # Satellite bugfix: read_events buffered the whole file before
    # yielding; it must now be a true generator.
    path = tmp_path / "events.jsonl"
    path.write_text('{"cat": "engine", "ev": "cell"}\n'
                    'not json\n'
                    '{"cat": "engine", "ev": "worker"}\n')
    stream = read_events(str(path))
    assert isinstance(stream, types.GeneratorType)
    assert next(stream)["ev"] == "cell"
    assert next(stream)["ev"] == "worker"
    events, malformed = read_all(str(path))
    assert len(events) == 2
    assert malformed == 1


def test_fault_events_surface_in_obs_summary(quiet_env, trace_path,
                                             tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    settings.configure(fault_inject="crash@0")
    parallel_map(_double, [1, 2, 3], jobs=2,
                 engine=EngineOptions(on_error="skip", checkpoint=ckpt))
    settings.configure(fault_inject="")
    parallel_map(_double, [1, 2, 3], jobs=2,
                 engine=EngineOptions(on_error="skip", checkpoint=ckpt,
                                      resume=True))
    summary = summarize(trace_path)
    assert len(summary.engine_errors) == 1
    assert summary.engine_errors[0]["label"] == "cell[0]"
    assert summary.engine_resumes
    assert summary.engine_resumes[0]["loaded"] == 2
    text = render(summary)
    assert "Cell failures" in text
    assert "Resumed from" in text
