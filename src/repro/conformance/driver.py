"""Differential test driver: production vs golden reference, step by step.

Each check replays a shared deterministic stream
(:mod:`repro.conformance.streams`) through a production model and its
reference (:mod:`repro.conformance.reference`) side by side, diffing
hits, misses, evictions, latencies and bit counts at every step, then the
cumulative counters and derived ratios at the end.  The first divergence
in a stream aborts that stream's replay (everything after it would just
echo the same disagreement) and is reported with enough context to rerun:
component, mix, seed and step index.

``run_check`` is what both the ``repro check`` CLI subcommand and the
``tests/test_conformance_*.py`` suite call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.set_assoc import (
    DecoupledCache,
    SetAssociativeCache,
    UncompressedCache,
)
from repro.common.config import CacheGeometry, MemoryConfig, MorcConfig
from repro.compression.cpack import CPackCompressor
from repro.conformance import reference as ref
from repro.conformance.streams import ALL_STREAMS, collect_stream
from repro.mem.banked import BankedMemoryChannel
from repro.mem.controller import MemoryChannel
from repro.morc.cache import MorcCache
from repro.morc.codecs import ALGORITHMS
from repro.obs.reservoir import MissSeries
from repro.sim.metrics import RunMetrics
from repro.sim.throughput import coarse_grain_throughput
from repro.workloads.trace import TraceRecord

#: step interval at which one pending dirty line is written back; delaying
#: write-backs past fills exercises non-resident dirty inserts and
#: in-place expansion, the two paths a read-allocate-only replay misses.
WRITEBACK_INTERVAL = 4

QUICK_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class Divergence:
    """One production/reference disagreement, pinned to a replay step."""

    component: str
    stream: str
    seed: int
    step: int
    field: str
    expected: object  # the reference model's value
    actual: object    # the production model's value
    context: str = ""

    def render(self) -> str:
        where = f"{self.stream}/seed={self.seed}/step={self.step}"
        line = (f"{self.component} [{where}] {self.field}: "
                f"reference={self.expected!r} production={self.actual!r}")
        if self.context:
            line += f"  ({self.context})"
        return line


@dataclass
class ComponentResult:
    """Outcome of one component's sweep over its streams."""

    component: str
    streams: int = 0
    steps: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences


@dataclass
class ConformanceReport:
    """Aggregate of all component results for one ``run_check`` call."""

    deep: bool
    seeds: Tuple[int, ...]
    results: List[ComponentResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def divergences(self) -> List[Divergence]:
        return [d for result in self.results for d in result.divergences]

    def render(self) -> str:
        lines = [f"conformance check ({'deep' if self.deep else 'quick'}, "
                 f"seeds {list(self.seeds)})"]
        for result in self.results:
            status = "ok" if result.passed else "DIVERGED"
            lines.append(f"  {result.component:<18} {status:<9} "
                         f"{result.streams} streams, "
                         f"{result.steps} steps")
            for divergence in result.divergences:
                lines.append(f"    ! {divergence.render()}")
        verdict = ("all models conform" if self.passed
                   else f"{len(self.divergences)} divergence(s)")
        lines.append(verdict)
        return "\n".join(lines)


class _Recorder:
    """Collects divergences for one (component, stream, seed) replay."""

    def __init__(self, result: ComponentResult, stream: str,
                 seed: int) -> None:
        self.result = result
        self.stream = stream
        self.seed = seed
        self.diverged = False

    def expect(self, step: int, field_name: str, expected, actual,
               context: str = "") -> bool:
        """Record a divergence unless values agree; returns agreement."""
        if expected == actual:
            return True
        self.result.divergences.append(Divergence(
            self.result.component, self.stream, self.seed, step,
            field_name, expected, actual, context))
        self.diverged = True
        return False


# -- cache replay --------------------------------------------------------------

SET_CACHE_COUNTERS = ("read_misses", "read_hits", "fills", "writebacks_in",
                      "expansions", "evictions", "dirty_evictions")

MORC_COUNTERS = ("read_misses", "aliased_misses", "read_hits", "fills",
                 "writebacks_in", "superseded_lines",
                 "lmt_conflict_evictions", "trial_compressions",
                 "compressions", "compressed_data_bits",
                 "compressed_tag_bits", "log_closures", "log_reuses",
                 "log_flushes", "flush_writebacks", "decompressed_lines")


def _replay_cache(recorder: _Recorder, prod, gold,
                  records: Sequence[TraceRecord],
                  counters: Sequence[str]) -> int:
    """Drive both caches through one stream; returns steps completed.

    Protocol: every record is a read; a miss fills the line on both
    sides; writes queue the (address, fresh data) pair, and every
    ``WRITEBACK_INTERVAL``-th step retires the oldest pending write as an
    L1 write-back — so dirty lines arrive both for resident lines
    (in-place update/expansion) and evicted ones (dirty re-insert).
    """
    pending: List[Tuple[int, bytes]] = []
    steps = 0
    for step, record in enumerate(records):
        prod_read = prod.read(record.address)
        gold_hit, gold_latency, gold_data = gold.read(record.address)
        recorder.expect(step, "hit", gold_hit, prod_read.hit)
        recorder.expect(step, "latency", gold_latency,
                        prod_read.latency_cycles)
        if gold_hit:
            recorder.expect(step, "data", gold_data, prod_read.data)
        if recorder.diverged:
            return steps
        if not prod_read.hit:
            prod_fill = prod.fill(record.address, record.data)
            gold_wbs = gold.fill(record.address, record.data)
            recorder.expect(step, "fill_writebacks", gold_wbs,
                            prod_fill.writebacks)
        if record.is_write:
            pending.append((record.address, record.data))
        if pending and step % WRITEBACK_INTERVAL == WRITEBACK_INTERVAL - 1:
            address, data = pending.pop(0)
            prod_wb = prod.writeback(address, data)
            gold_wbs = gold.writeback(address, data)
            recorder.expect(step, "wb_writebacks", gold_wbs,
                            prod_wb.writebacks)
        steps += 1
        if recorder.diverged:
            return steps
    for key in counters:
        recorder.expect(len(records), f"counter:{key}",
                        gold.counters.get(key, 0.0), prod.stats.get(key))
    recorder.expect(len(records), "compression_ratio",
                    gold.compression_ratio(), prod.compression_ratio())
    return steps


def _set_cache_pairs() -> List[Tuple[str, Callable, Callable]]:
    geometry = CacheGeometry(size_bytes=8 * 1024, ways=4)

    def make_uncompressed():
        return (UncompressedCache(geometry),
                ref.RefSetCache(geometry.n_sets, geometry.ways,
                                tag_factor=1))

    def make_cpack2x():
        return (SetAssociativeCache(geometry, tag_factor=2,
                                    compressor=CPackCompressor(),
                                    decompression_cycles=4,
                                    name="CPack2x"),
                ref.RefSetCache(geometry.n_sets, geometry.ways,
                                tag_factor=2,
                                segments_for=ref.cpack_segments(),
                                compressed=True, decompression_cycles=4))

    def make_decoupled():
        return (DecoupledCache(geometry),
                ref.RefSetCache(geometry.n_sets, geometry.ways,
                                tag_factor=4,
                                segments_for=ref.cpack_segments(),
                                compressed=True, decompression_cycles=4))

    return [("uncompressed", make_uncompressed, None),
            ("cpack-2x", make_cpack2x, None),
            ("decoupled-4x", make_decoupled, None)]


def _check_set_caches(result: ComponentResult, seeds: Sequence[int],
                      mixes: Sequence[str], n_ops: int) -> None:
    for name, factory, _ in _set_cache_pairs():
        for mix in mixes:
            for seed in seeds:
                recorder = _Recorder(result, f"{name}/{mix}", seed)
                prod, gold = factory()
                records = collect_stream(mix, n_ops, seed=seed,
                                         working_set_lines=320)
                result.streams += 1
                result.steps += _replay_cache(recorder, prod, gold,
                                              records, SET_CACHE_COUNTERS)


def _morc_variants() -> List[Tuple[str, Callable]]:
    capacity = 8 * 1024

    def make(algorithm: str, config: MorcConfig = MorcConfig()):
        return lambda: (
            MorcCache(capacity, config, algorithm=algorithm),
            ref.RefMorcCache(capacity, config, algorithm=algorithm))

    variants = [(f"morc-{algo}", make(algo)) for algo in ALGORITHMS]
    # Every layout of the fit rule (Log.data_room): tags merged into the
    # data region, one tag base, no tag or LMT limit, and Figure 13a's
    # 64B logs, where a line may not fit an empty log.
    variants += [
        ("morc-merged", make("lbe", MorcConfig(merged_tags=True))),
        ("morc-1base", make("lbe", MorcConfig(tag_bases=1))),
        ("morc-unlimited", make("lbe",
                                MorcConfig(unlimited_metadata=True))),
        ("morc-64B", make("lbe", MorcConfig(log_size_bytes=64))),
    ]
    return variants


def _check_morc(result: ComponentResult, seeds: Sequence[int],
                mixes: Sequence[str], n_ops: int) -> None:
    for name, factory in _morc_variants():
        for mix in mixes:
            for seed in seeds:
                recorder = _Recorder(result, f"{name}/{mix}", seed)
                prod, gold = factory()
                records = collect_stream(mix, n_ops, seed=seed,
                                         working_set_lines=320)
                result.streams += 1
                result.steps += _replay_cache(recorder, prod, gold,
                                              records, MORC_COUNTERS)
                if recorder.diverged:
                    continue
                recorder.expect(n_ops, "invalid_fraction",
                                gold.invalid_fraction(),
                                prod.invalid_fraction())
                recorder.expect(
                    n_ops, "ref_compression_ratio",
                    ref.ref_compression_ratio(
                        sum(log.valid_count() for log in gold.logs),
                        prod.capacity_bytes
                        // prod.config.log_size_bytes
                        * (prod.config.log_size_bytes // 64)),
                    prod.compression_ratio())


# -- memory channels -----------------------------------------------------------


def _replay_channel(recorder: _Recorder, prod, gold,
                    records: Sequence[TraceRecord],
                    step_cycles: float) -> int:
    """Drive both channels through one arrival sequence.

    Arrival times advance by the record gaps so the schedule mixes idle
    periods with bursts (both the ``max(now, free)`` arms get exercised).
    """
    now = 0.0
    steps = 0
    for step, record in enumerate(records):
        now += (record.gap + 1) * step_cycles
        if record.is_write:
            prod.write(now, record.address, record.data)
            gold.write(now, record.address, record.data)
        else:
            prod_latency = prod.read(now, record.address)
            gold_latency = gold.read(now, record.address)
            recorder.expect(step, "read_latency", gold_latency,
                            prod_latency, f"now={now}")
        steps += 1
        if recorder.diverged:
            return steps
    for key in ("reads", "writes", "queue_wait_cycles"):
        recorder.expect(len(records), f"counter:{key}",
                        gold.counters.get(key, 0.0), prod.stats.get(key))
    return steps


def _check_channels(result: ComponentResult, seeds: Sequence[int],
                    mixes: Sequence[str], n_ops: int) -> None:
    config = MemoryConfig(bandwidth_bytes_per_sec=1600e6)

    def make_simple():
        return MemoryChannel(config), ref.RefFcfsChannel(config)

    def make_banked():
        return (BankedMemoryChannel(config),
                ref.RefBankedChannel(config))

    for name, factory, step_cycles in (("fcfs", make_simple, 37.0),
                                       ("banked", make_banked, 53.0)):
        for mix in mixes:
            for seed in seeds:
                recorder = _Recorder(result, f"{name}/{mix}", seed)
                prod, gold = factory()
                records = collect_stream(mix, n_ops, seed=seed)
                result.streams += 1
                result.steps += _replay_channel(recorder, prod, gold,
                                                records, step_cycles)
                if recorder.diverged or name != "banked":
                    continue
                for bank in range(gold.n_banks):
                    key = f"bank{bank}_accesses"
                    recorder.expect(n_ops, f"counter:{key}",
                                    gold.counters.get(key, 0.0),
                                    prod.stats.get(key))


# -- metrics -------------------------------------------------------------------


def _check_metrics(result: ComponentResult, seeds: Sequence[int],
                   n_cases: int) -> None:
    for seed in seeds:
        recorder = _Recorder(result, "cgmt", seed)
        rng = random.Random(0xBEEF ^ seed)
        result.streams += 1
        for case in range(n_cases):
            n_misses = rng.choice((0, 1, 3, 40))
            latencies = [float(rng.randrange(20, 2000))
                         for _ in range(n_misses)]
            instructions = rng.randrange(1, 100_000)
            compute = float(rng.randrange(0, 50_000))
            cycles = compute + sum(latencies)
            if cycles <= 0:
                cycles = 1.0
            metrics = RunMetrics(instructions=instructions, cycles=cycles,
                                 miss_latencies=MissSeries(latencies))
            for threads in (1, 2, 4):
                recorder.expect(
                    case, f"throughput(t={threads})",
                    ref.ref_coarse_grain_throughput(
                        instructions, cycles, latencies, threads),
                    coarse_grain_throughput(metrics, threads),
                    f"misses={n_misses} compute={compute}")
            result.steps += 1
            if recorder.diverged:
                break


# -- entry point ---------------------------------------------------------------


def run_check(deep: bool = False,
              seeds: Optional[Sequence[int]] = None,
              components: Optional[Sequence[str]] = None
              ) -> ConformanceReport:
    """Run the conformance sweep; returns a report of all divergences.

    Quick (default): 2 stream mixes x 3 seeds per scheme, a few hundred
    operations each — seconds, suitable for CI and ``repro check``.
    Deep: all 4 mixes and longer streams.
    """
    seeds = tuple(seeds) if seeds else QUICK_SEEDS
    mixes = ALL_STREAMS if deep else ALL_STREAMS[:2]
    cache_ops = 700 if deep else 350
    morc_ops = 500 if deep else 260
    channel_ops = 600 if deep else 300
    metric_cases = 120 if deep else 40

    report = ConformanceReport(deep=deep, seeds=seeds)
    checks: Dict[str, Callable[[ComponentResult], None]] = {
        "set-caches": lambda r: _check_set_caches(r, seeds, mixes,
                                                  cache_ops),
        "morc": lambda r: _check_morc(r, seeds, mixes, morc_ops),
        "channels": lambda r: _check_channels(r, seeds, mixes,
                                              channel_ops),
        "metrics": lambda r: _check_metrics(r, seeds, metric_cases),
    }
    for name, check in checks.items():
        if components and name not in components:
            continue
        component_result = ComponentResult(component=name)
        check(component_result)
        report.results.append(component_result)
    return report


ALL_COMPONENTS = ("set-caches", "morc", "channels", "metrics")
