"""The shared access path: replaying a trace's columns is replaying its
records.

``CoreSimulator.run`` and ``MultiCoreSystem.run`` read a
``SyntheticTrace`` as columns: the stored entry's, or the generator's
fields while it records.  Any other iterable of records goes through the
record adapter.  Both must drive the caches identically, access for
access, so every output is compared exactly: the metrics, both miss
series sample for sample, and the LLC's counters in key order.
"""

import dataclasses

import pytest

from repro.cache.set_assoc import UncompressedCache
from repro.common.config import CacheGeometry, MemoryConfig, SystemConfig
from repro.mem.controller import MemoryChannel
from repro.sim.core import CoreSimulator
from repro.sim.multicore import MultiCoreSystem
from repro.sim.system import ALL_SCHEMES, make_llc
from repro.workloads import trace as trace_module
from repro.workloads.spec import make_trace
from repro.workloads.trace import TraceStore, accesses

pytestmark = pytest.mark.conformance

TOTAL, WARMUP = 12_000, 5_000


@pytest.fixture
def store(monkeypatch):
    """A fresh store in place of the process's."""
    fresh = TraceStore(trace_module.TRACE_STORE_BYTES)
    monkeypatch.setattr(trace_module, "STORE", fresh)
    return fresh


def outputs(metrics, llc):
    """Everything a run leaves, in comparable form."""
    fields = {f.name: getattr(metrics, f.name)
              for f in dataclasses.fields(metrics)}
    fields["miss_latencies"] = list(metrics.miss_latencies)
    fields["miss_gaps"] = list(metrics.miss_gaps)
    return fields, list(llc.stats.as_dict().items())


def single_run(scheme, trace, warmup):
    config = SystemConfig()
    llc = make_llc(scheme, config)
    core = CoreSimulator(llc, MemoryChannel(config.memory), config)
    return outputs(core.run(trace, warmup_instructions=warmup), llc)


@pytest.mark.parametrize("warmup", (0, WARMUP))
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_single_run_columns_equal_records(store, scheme, warmup):
    trace = make_trace("gcc", TOTAL)
    records = single_run(scheme, list(trace.generate()), warmup)
    recording = single_run(scheme, trace, warmup)
    assert trace.key in store
    replaying = single_run(scheme, trace, warmup)
    assert store.hits == 1
    assert records[0]["l1_misses"] > 0
    assert recording == records
    assert replaying == records


def multi_run(traces, warmup):
    config = SystemConfig()
    llc = UncompressedCache(CacheGeometry(16 * 1024, ways=8))
    system = MultiCoreSystem(
        llc, MemoryChannel(MemoryConfig(bandwidth_bytes_per_sec=400e6)),
        config, n_threads=2)
    result = system.run(traces, warmup_instructions=warmup)
    return ([outputs(m, llc)[0] for m in result.per_thread],
            list(result.llc_stats.items()), result.compression_ratio)


@pytest.mark.parametrize("warmup", (0, WARMUP))
def test_multicore_columns_equal_records(store, warmup):
    # different lengths, so one thread runs on alone at the end
    traces = [make_trace("gcc", TOTAL, seed_offset=1),
              make_trace("mcf", TOTAL // 2, seed_offset=2)]
    records = multi_run([list(t.generate()) for t in traces], warmup)
    recording = multi_run(traces, warmup)
    replaying = multi_run(traces, warmup)
    assert len(store) == 2
    assert recording == records
    assert replaying == records


def test_columns_are_the_records_fields(store):
    trace = make_trace("soplex", 4_000)
    fields = [(r.address, r.is_write, r.gap, r.data)
              for r in trace.generate()]
    assert list(accesses(trace)) == fields       # recording
    assert list(accesses(trace)) == fields       # replaying
    assert list(accesses(list(trace))) == fields  # the record adapter
    assert all(type(is_write) is bool for _, is_write, _, _ in
               accesses(trace))
