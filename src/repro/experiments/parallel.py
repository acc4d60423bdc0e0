"""Process-pool experiment engine with a resumable journal.

Every figure is a grid of independent (benchmark, config) simulation
cells, so the experiment modules describe their grids as
:class:`RunSpec`/:class:`MultiProgramSpec` lists and this module fans
them across ``REPRO_JOBS`` (default ``os.cpu_count()``) worker
processes.  Guarantees:

- **deterministic results** — each cell builds its own trace from seeds
  in its spec and results come back in spec order, so a parallel run is
  byte-identical to a serial one (``REPRO_JOBS=1``, or a single-cell
  grid, runs in-process with no executor);
- **per-cell timing** — wall-clock, worker pid, queue wait and worker
  peak RSS, exposed by :func:`last_timings` and
  :func:`last_worker_profiles` and traced in the ``engine`` category;
- **failure capture** — under ``on_error="skip"`` a failed cell's slot
  holds a :class:`~repro.common.errors.CellError` and the rest of the
  grid completes; under ``"raise"`` (the default) the first failure
  aborts the grid.  A worker that dies hard (OOM kill, segfault) breaks
  the pool, and every cell the pool had not finished fails with
  ``BrokenProcessPool``;
- **resumability** — with :attr:`EngineOptions.checkpoint` set, every
  finished cell is journaled (:mod:`repro.experiments.checkpoint`);
  ``resume=True`` replays completed cells and re-runs missing and
  failed ones.  Ctrl-C kills the workers and flushes the journal.

Cells are deterministic, so running one again gives the same result or
the same exception: the engine never retries.  ``REPRO_FAULT_INJECT``
(``crash@2,kill@3,crash@10%``) injects faults by cell index for the
robustness tests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro import settings
from repro.common.config import SystemConfig
from repro.common.errors import CellError, CellFailedError, ConfigError
from repro.experiments.checkpoint import GridCheckpoint, spec_key
from repro.obs import trace as obs_trace
from repro.obs.profiling import WorkerProfile, peak_rss_kb, worker_profiles
from repro.settings import FaultDirective

#: memory-channel selector carried by :class:`RunSpec` (a key, not an
#: instance, so specs stay small and picklable)
MEMORY_CHANNELS = ("simple", "link", "banked")

#: pid of the process that imported this module (the grid parent under
#: ``fork``); lets injected ``kill`` faults refuse to kill the parent
#: when a grid runs serially
_MAIN_PID = os.getpid()


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock of one simulation cell, as measured in its worker.

    ``queue_wait_s`` is how long the cell sat in the pool's inbox before
    its worker picked it up; ``peak_rss_kb`` is the worker's resident-set
    high-water mark after the cell (see :mod:`repro.obs.profiling`).
    """

    label: str
    seconds: float
    worker_pid: int
    queue_wait_s: float = 0.0
    peak_rss_kb: int = 0


@dataclass(frozen=True)
class RunSpec:
    """One single-program simulation cell."""

    benchmark: str
    scheme: str
    config: Optional[SystemConfig] = None
    n_instructions: int = 120_000
    warmup_fraction: float = 0.4
    inclusive_writes: Optional[bool] = None
    seed_offset: int = 0
    #: one of :data:`MEMORY_CHANNELS`, or ``None`` for the default
    memory: Optional[str] = None
    #: free-form tag for timing reports (defaults to benchmark/scheme)
    label: str = ""

    def timing_label(self) -> str:
        return self.label or f"{self.benchmark}/{self.scheme}"


@dataclass(frozen=True)
class MultiProgramSpec:
    """One multi-program (16-thread mix) simulation cell."""

    mix: str
    scheme: str
    config: Optional[SystemConfig] = None
    n_instructions_each: int = 40_000
    synchronized: bool = False
    label: str = ""

    def timing_label(self) -> str:
        return self.label or f"{self.mix}/{self.scheme}"


@dataclass(frozen=True)
class EngineOptions:
    """Per-invocation failure and journal options, threaded through
    every experiment module's ``run(engine=...)``.

    ``on_error=None`` falls back to ``REPRO_ON_ERROR`` (default
    ``"raise"``).  With a ``checkpoint`` path every finished cell is
    journaled; ``resume=True`` also replays the cells it finished.
    """

    on_error: Optional[str] = None
    checkpoint: Optional[str] = None
    resume: bool = False


class FaultInjected(Exception):
    """Raised by a deterministically injected fault (tests/benches)."""


def worker_count() -> int:
    """Number of worker processes (``REPRO_JOBS`` or the CPU count)."""
    return settings.current().jobs or max(1, os.cpu_count() or 1)


def _make_memory(key: Optional[str], config: SystemConfig):
    if key is None:
        return None
    if key == "simple":
        from repro.mem.controller import MemoryChannel
        return MemoryChannel(config.memory)
    if key == "link":
        from repro.mem.link import LinkCompressedChannel
        return LinkCompressedChannel(config.memory)
    if key == "banked":
        from repro.mem.banked import BankedMemoryChannel
        return BankedMemoryChannel(config.memory)
    raise ConfigError(f"unknown memory channel {key!r}; "
                      f"choose from {MEMORY_CHANNELS}")


def _execute_single(spec: RunSpec) -> Any:
    from repro.sim.system import run_single_program
    config = spec.config or SystemConfig()
    return run_single_program(
        spec.benchmark, spec.scheme, config=config,
        n_instructions=spec.n_instructions,
        warmup_fraction=spec.warmup_fraction,
        inclusive_writes=spec.inclusive_writes,
        memory=_make_memory(spec.memory, config),
        seed_offset=spec.seed_offset)


def _execute_multi(spec: MultiProgramSpec) -> Any:
    from repro.sim.system import run_multi_program
    return run_multi_program(
        spec.mix, spec.scheme, config=spec.config,
        n_instructions_each=spec.n_instructions_each,
        synchronized=spec.synchronized)


def _apply_fault(fault: FaultDirective, index: int) -> None:
    """Fire one injected fault inside the worker, deterministically."""
    if fault.mode == "kill" and os.getpid() != _MAIN_PID:
        os._exit(13)
    # a serial grid runs in the parent, which a kill must not end
    raise FaultInjected(f"injected {fault.mode} in cell {index}")


def _guarded(worker: Callable[[Any], Any],
             payload: Tuple[float, int, str, Optional[FaultDirective],
                            Any]) -> Tuple[Any, CellTiming]:
    """Run one cell in its worker; returns ``(result, timing)``.

    ``payload`` is ``(submitted, index, label, fault, item)``, where
    ``submitted`` is the parent's ``perf_counter`` (CLOCK_MONOTONIC,
    shared with forked workers), so queue wait is a real duration.  A
    worker exception becomes a :class:`CellError` result, so it crosses
    the process boundary as plain data.
    """
    submitted, index, label, fault, item = payload
    started = time.perf_counter()
    try:
        if fault is not None:
            _apply_fault(fault, index)
        result = worker(item)
    except KeyboardInterrupt:
        raise
    except BaseException as error:
        result = CellError(label, repr(error), traceback.format_exc())
    return result, CellTiming(label, time.perf_counter() - started,
                              os.getpid(), max(0.0, started - submitted),
                              peak_rss_kb())


def _emit(event: str, **fields) -> None:
    channel = obs_trace.ENGINE
    if channel is not None:
        channel.emit(event, **fields)


def _worker_identity(worker: Callable) -> str:
    """Stable name of the cell worker for checkpoint keying."""
    module = getattr(worker, "__module__", "?")
    return f"{module}.{getattr(worker, '__qualname__', repr(worker))}"


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down an executor whose workers may still be running.

    ``shutdown(wait=True)`` would block until every running cell ends,
    so cancel everything queued, then SIGKILL and reap the worker
    processes (``_processes`` is executor-internal but stable across
    CPython 3.8–3.13; guarded in case it moves).
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        with contextlib.suppress(Exception):
            process.kill()
    for process in processes:
        with contextlib.suppress(Exception):
            process.join(1.0)


class _Grid:
    """State of one engine invocation: slots, timings, journal."""

    def __init__(self, worker: Callable, items: Sequence[Any],
                 labels: Sequence[str], options: EngineOptions) -> None:
        self.worker = worker
        self.items = list(items)
        self.labels = list(labels)
        self.settings = settings.current()
        self.on_error = options.on_error or self.settings.on_error
        if self.on_error not in settings.ON_ERROR_MODES:
            raise ConfigError(f"on_error must be one of "
                              f"{list(settings.ON_ERROR_MODES)}, "
                              f"got {self.on_error!r}")
        self.options = options
        self.results: Dict[int, Any] = {}
        self.timings: Dict[int, CellTiming] = {}
        self.resume_stats: Optional[Dict[str, Any]] = None
        self.wall_s = 0.0
        self.journal = (GridCheckpoint(options.checkpoint)
                        if options.checkpoint else None)
        identity = _worker_identity(worker) if self.journal else ""
        self.keys = ([spec_key(item, identity) for item in self.items]
                     if self.journal else None)

    def load_checkpoint(self) -> None:
        """Replay completed cells from the journal (resume runs only)."""
        if self.journal is None or not self.options.resume:
            return
        saved = self.journal.load()
        loaded = 0
        for index, key in enumerate(self.keys):
            record = saved.get(key)
            if record is None or record.get("status") != "ok":
                continue  # missing or failed cells re-run
            self.results[index] = record["result"]
            timing = record.get("timing")
            if timing is not None:
                # the journaled cell may have sat elsewhere in its grid
                self.timings[index] = dataclasses.replace(
                    timing, label=self.labels[index])
            loaded += 1
        self.resume_stats = {"checkpoint": self.options.checkpoint,
                             "loaded": loaded,
                             "executed": len(self.items) - loaded}
        _emit("resume", checkpoint=self.options.checkpoint,
              loaded=loaded, remaining=len(self.items) - loaded)

    def unfinished(self) -> List[int]:
        return [index for index in range(len(self.items))
                if index not in self.results]

    def ordered_results(self) -> List[Any]:
        return [self.results[index] for index in range(len(self.items))]

    def ordered_timings(self) -> List[CellTiming]:
        return [self.timings[index] for index in sorted(self.timings)]

    def payload(self, index: int) -> Tuple:
        fault = next((directive for directive in self.settings.fault_inject
                      if directive.matches(index)), None)
        return (time.perf_counter(), index, self.labels[index], fault,
                self.items[index])

    def fold(self, index: int, result: Any,
             timing: Optional[CellTiming]) -> None:
        """Finish one cell: slot, journal, trace; a failure under
        ``on_error="raise"`` raises :class:`CellFailedError`."""
        self.results[index] = result
        if timing is not None:
            self.timings[index] = timing
        failed = isinstance(result, CellError)
        if self.journal is not None:
            self.journal.append(self.keys[index],
                                {"status": "error" if failed else "ok",
                                 "label": self.labels[index],
                                 "result": result, "timing": timing})
        if failed:
            _emit("cell_error", label=result.label, error=result.exception)
            if self.on_error == "raise":
                raise CellFailedError(result)

    def lost(self, index: int, error: BrokenProcessPool) -> None:
        """Fail a cell whose worker died before returning it; no worker
        traceback exists, and all lost futures share one exception."""
        self.fold(index, CellError(self.labels[index], repr(error), ""), None)

    def run_serial(self) -> None:
        for index in self.unfinished():
            self.fold(index, *_guarded(self.worker, self.payload(index)))

    def run_pool(self, jobs: int) -> None:
        """Submit every unfinished cell and fold each as it completes.

        A dead worker breaks the pool and every future it had not
        finished; those cells fail (``--resume`` re-runs them).  Ctrl-C
        and a raise-mode failure kill the pool, so no worker outlives
        the grid.
        """
        todo = self.unfinished()
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)))
        try:
            futures = {}
            for index in todo:
                try:
                    futures[pool.submit(_guarded, self.worker,
                                        self.payload(index))] = index
                except BrokenProcessPool as error:
                    self.lost(index, error)
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool as error:
                    self.lost(futures[future], error)
                else:
                    self.fold(futures[future], *outcome)
        except BaseException:
            _kill_pool(pool)
            raise
        pool.shutdown(wait=True)


#: the most recent engine invocation, read by the ``last_*`` functions
_last: Optional[_Grid] = None


def last_timings() -> List[CellTiming]:
    """Per-cell timings from the most recent parallel_map/run_cells."""
    return _last.ordered_timings() if _last else []


def last_errors() -> List[CellError]:
    """Failed cells of the most recent engine invocation, spec order.

    Under ``on_error="skip"`` callers use this to report which slots
    hold a :class:`CellError` instead of a result; under ``"raise"`` the
    first failure raises :class:`CellFailedError` instead.
    """
    return [cell for _, cell in sorted(_last.results.items())
            if isinstance(cell, CellError)] if _last else []


def last_worker_profiles() -> List[WorkerProfile]:
    """Per-worker utilization of the most recent engine invocation."""
    return worker_profiles(last_timings(), _last.wall_s if _last else 0.0)


def last_resume() -> Optional[Dict[str, Any]]:
    """Checkpoint-resume stats of the most recent invocation.

    ``{"checkpoint": path, "loaded": n, "executed": m}`` when the grid
    resumed from a journal, else ``None``.
    """
    stats = _last.resume_stats if _last else None
    return dict(stats) if stats else None


def _run_grid(worker: Callable[[Any], Any], items: Sequence[Any],
              labels: Sequence[str], jobs: Optional[int],
              engine: Optional[EngineOptions]) -> List[Any]:
    global _last
    jobs = jobs if jobs is not None else worker_count()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    # the ``last_*`` functions describe THIS invocation from here on,
    # even when a cell raises or the user hits Ctrl-C
    _last = grid = _Grid(worker, items, labels, engine or EngineOptions())
    started = time.perf_counter()
    try:
        grid.load_checkpoint()
        if jobs == 1 or len(grid.unfinished()) <= 1:
            # fork (the Linux default) shares the warm interpreter; the
            # serial path keeps pdb/profilers usable.
            grid.run_serial()
        else:
            grid.run_pool(jobs)
        return grid.ordered_results()
    finally:
        if grid.journal is not None:
            grid.journal.close()
        grid.wall_s = time.perf_counter() - started
        _emit_engine_events()


def _emit_engine_events() -> None:
    """Trace the engine invocation just recorded (``engine`` category)."""
    if obs_trace.ENGINE is None:
        return
    for timing in last_timings():
        _emit("cell", label=timing.label, seconds=timing.seconds,
              pid=timing.worker_pid, queue_wait_s=timing.queue_wait_s,
              rss_kb=timing.peak_rss_kb)
    for profile in last_worker_profiles():
        _emit("worker", pid=profile.pid, cells=profile.cells,
              busy_s=profile.busy_s, queue_wait_s=profile.queue_wait_s,
              utilization=profile.utilization, rss_kb=profile.peak_rss_kb)


def parallel_map(fn: Callable[[Any], Any], items: Iterable[Any],
                 jobs: Optional[int] = None,
                 label: str = "cell",
                 engine: Optional[EngineOptions] = None) -> List[Any]:
    """Order-preserving parallel map over independent cells.

    ``fn`` must be a module-level callable (picklable); each item is one
    cell.  Results come back in input order regardless of completion
    order, and per-cell timings are recorded for :func:`last_timings`.
    Under ``engine.on_error="skip"`` a failed item's slot holds a
    :class:`~repro.common.errors.CellError` instead.
    """
    items = list(items)
    labels = [f"{label}[{index}]" for index in range(len(items))]
    return _run_grid(fn, items, labels, jobs, engine)


def run_cells(specs: Sequence[RunSpec],
              jobs: Optional[int] = None,
              engine: Optional[EngineOptions] = None) -> List[Any]:
    """Run single-program cells across the worker pool, in spec order."""
    specs = list(specs)
    return _run_grid(_execute_single, specs,
                     [spec.timing_label() for spec in specs], jobs, engine)


def run_multi_cells(specs: Sequence[MultiProgramSpec],
                    jobs: Optional[int] = None,
                    engine: Optional[EngineOptions] = None) -> List[Any]:
    """Run multi-program cells across the worker pool, in spec order."""
    specs = list(specs)
    return _run_grid(_execute_multi, specs,
                     [spec.timing_label() for spec in specs], jobs, engine)
