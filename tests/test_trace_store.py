"""The process-wide trace store: replay is generation, record for record.

A :class:`SyntheticTrace` records its stream on the first complete
iteration and replays it afterwards.  The oracle throughout is
``SyntheticTrace.generate()``, which runs the generators and never
touches the store.
"""

from array import array
from dataclasses import replace
from itertools import islice, zip_longest

import pytest

from repro.experiments.runner import instructions_for
from repro.workloads import trace as trace_module
from repro.workloads.mixes import mix_programs
from repro.workloads.spec import make_trace
from repro.workloads.trace import StoredTrace, SyntheticTrace, TraceStore

#: the programs of the perfbench grids: Figure 6 cells and the
#: data-integrity replays
GRID_PROGRAMS = ("gcc", "mcf", "h264ref", "soplex", "gcc_5")
#: a program whose data profile has phases (every 40k instructions)
PHASED = "cactusADM"


@pytest.fixture
def store(monkeypatch):
    """A fresh, roomy store in place of the process's."""
    fresh = TraceStore(trace_module.TRACE_STORE_BYTES)
    monkeypatch.setattr(trace_module, "STORE", fresh)
    return fresh


def assert_replays(trace: SyntheticTrace, store: TraceStore) -> None:
    oracle = list(trace.generate())
    assert list(trace) == oracle          # generated and recorded
    assert trace.key in store
    hits = store.hits
    replayed = list(trace)
    assert store.hits == hits + 1
    assert replayed == oracle
    # equal is not enough: 1 == True, but the flag must stay a bool
    assert [tuple(map(type, vars(r).values())) for r in replayed] == [
        tuple(map(type, vars(r).values())) for r in oracle]


@pytest.mark.parametrize("name", GRID_PROGRAMS)
def test_replay_equals_generation(store, name):
    # a perfbench cell's whole trace: 40% warm-up, then 20k measured
    n = int(instructions_for(name, 20_000) / 0.6)
    assert_replays(make_trace(name, n, seed_offset=7919), store)


def test_phased_trace_crosses_phases(store):
    trace = make_trace(PHASED, 100_000)
    assert 0 < trace.data_profile.phase_instructions < trace.n_instructions
    assert_replays(trace, store)


def test_mix_traces_replay_equal_generation(store):
    traces = mix_programs("M3", 6_000)
    assert len({t.base_line for t in traces}) == 16
    assert len({t.name for t in traces}) < 16     # repeated programs
    for trace in traces:
        assert_replays(trace, store)
    assert len(store) == 16


def test_partial_iteration_stores_nothing(store):
    trace = make_trace("gcc", 5_000)
    first = next(iter(trace))
    assert list(islice(trace, 100))[0] == first
    assert len(store) == 0 and store.nbytes == 0
    records = list(trace)
    assert trace.key in store
    assert list(trace) == records


def test_failed_generation_stores_nothing(store, monkeypatch):
    trace = make_trace("gcc", 5_000)

    def broken(self):
        yield from islice(SyntheticTrace.generate(self), 10)
        raise RuntimeError("generator failed")
    monkeypatch.setattr(SyntheticTrace, "generate", broken)
    with pytest.raises(RuntimeError):
        list(trace)
    assert len(store) == 0


def interleave(*iterators):
    """Take one record from each iterator in turn until all run out."""
    streams = [[] for _ in iterators]
    for step in zip_longest(*iterators):
        for stream, record in zip(streams, step):
            if record is not None:
                stream.append(record)
    return streams


def test_interleaved_iterations_each_yield_the_whole_stream(store):
    trace = make_trace("mcf", 8_000)
    oracle = list(trace.generate())
    # both recording
    assert interleave(iter(trace), iter(trace)) == [oracle, oracle]
    assert len(store) == 1
    # one replaying, one abandoned part way, one replaying late
    replaying = iter(trace)
    abandoned = islice(iter(trace), 50)
    first, part = interleave(replaying, abandoned)
    assert first == oracle and part == oracle[:50]
    assert list(trace) == oracle


def test_interleaved_recording_and_replay(store):
    trace = make_trace("soplex", 6_000)
    recording = iter(trace)
    head = list(islice(recording, 20))
    list(SyntheticTrace(trace.name, trace.data_profile, trace.access_profile,
                        trace.n_instructions, seed=trace.seed,
                        base_line=trace.base_line,
                        data_seed=trace.data_seed))
    replaying = iter(trace)
    rest, replay = interleave(recording, replaying)
    assert head + rest == replay == list(trace.generate())


def one_field_variants(base: SyntheticTrace):
    """Traces that differ from ``base`` in exactly one key field."""
    def variant(**changes):
        fields = dict(name=base.name, data_profile=base.data_profile,
                      access_profile=base.access_profile,
                      n_instructions=base.n_instructions, seed=base.seed,
                      base_line=base.base_line, data_seed=base.data_seed)
        fields.update(changes)
        return SyntheticTrace(**fields)
    data, access = base.data_profile, base.access_profile
    return {
        "data_profile": variant(data_profile=replace(
            data, p_zero_word=data.p_zero_word + 0.01)),
        "access_profile": variant(access_profile=replace(
            access, hot_set_lines=access.hot_set_lines + 1)),
        "n_instructions": variant(n_instructions=base.n_instructions + 1),
        "seed": variant(seed=base.seed + 1),
        "base_line": variant(base_line=base.base_line + 1),
        "data_seed": variant(data_seed=base.data_seed + 1),
    }


def test_one_key_field_apart_never_share_an_entry(store):
    base = make_trace("gcc", 3_000)
    variants = one_field_variants(base)
    assert len({base.key} | {t.key for t in variants.values()}) == 7
    list(base)
    for field, trace in variants.items():
        assert list(trace) == list(trace.generate()), field
    assert len(store) == 7
    assert store.hits == 0


def test_name_is_not_a_key_field(store):
    trace = make_trace("gcc", 3_000)
    renamed = SyntheticTrace("another", trace.data_profile,
                             trace.access_profile, trace.n_instructions,
                             seed=trace.seed, data_seed=trace.data_seed)
    assert renamed.key == trace.key
    list(trace)
    assert list(renamed) == list(trace.generate())
    assert store.hits == 1 and len(store) == 1


def entry(n_records: int) -> StoredTrace:
    """The first ``n_records`` records of gcc, stored by hand."""
    records = list(islice(make_trace("gcc", 10**6).generate(), n_records))
    index = {data: i for i, data in
             enumerate(dict.fromkeys(r.data for r in records))}
    made = StoredTrace(array("q", (r.address for r in records)),
                       array("q", (r.gap for r in records)),
                       bytes(r.is_write for r in records),
                       b"".join(index),
                       array("I", (index[r.data] for r in records)))
    assert list(made.records()) == records
    return made


def test_stored_trace_columns():
    made = entry(40)
    assert len(made.addresses) == len(made.line_index) == 40
    assert len(made.lines) % 64 == 0
    assert made.nbytes == (40 * (8 + 8 + 1 + 4) + len(made.lines))


def test_budget_evicts_least_recently_used():
    a, b, c = entry(30), entry(30), entry(30)
    store = TraceStore(a.nbytes + b.nbytes)
    store.put("a", a)
    store.put("b", b)
    assert store.get("a") is a            # "b" is now least recent
    store.put("c", c)
    assert "a" in store and "c" in store and "b" not in store
    assert store.nbytes == a.nbytes + c.nbytes <= store.budget_bytes
    assert store.get("b") is None
    assert (store.hits, store.misses) == (1, 1)


def test_budget_is_never_exceeded():
    entries = [entry(n) for n in (5, 40, 12, 60, 25, 33, 8, 50)]
    store = TraceStore(2 * max(e.nbytes for e in entries))
    for step in range(40):
        key = step % 11
        store.put(key, entries[(step * 7) % len(entries)])
        store.get((step * 3) % 11)
        assert store.nbytes <= store.budget_bytes
        assert store.nbytes == sum(
            e.nbytes for e in store._entries.values())
        assert store.peak_bytes <= store.budget_bytes


def test_replacing_a_key_counts_its_bytes_once():
    small, large = entry(10), entry(50)
    store = TraceStore(10**6)
    store.put("k", small)
    store.put("k", large)
    assert len(store) == 1 and store.nbytes == large.nbytes


def test_entry_larger_than_budget_is_not_stored():
    small, large = entry(10), entry(60)
    store = TraceStore(large.nbytes - 1)
    store.put("small", small)
    store.put("large", large)
    assert "large" not in store
    assert "small" in store             # and nothing was evicted for it
    assert store.nbytes == small.nbytes


def test_small_budget_end_to_end(monkeypatch):
    traces = [make_trace(name, 4_000) for name in ("gcc", "mcf", "soplex")]
    sizes = {}
    roomy = TraceStore(10**9)
    monkeypatch.setattr(trace_module, "STORE", roomy)
    for trace in traces:
        list(trace)
        sizes[trace.name] = roomy.get(trace.key).nbytes
    budget = sizes["gcc"] + sizes["mcf"]
    tight = TraceStore(budget)
    monkeypatch.setattr(trace_module, "STORE", tight)
    for _ in range(2):
        for trace in traces:
            assert list(trace) == list(trace.generate())
            assert tight.nbytes <= budget
    assert tight.peak_bytes <= budget
    # scheme-major order over three traces thrashes a two-trace budget
    assert tight.hits == 0 and tight.misses == 6


def test_clear_resets_entries_and_counters(store):
    list(make_trace("gcc", 2_000))
    store.get(make_trace("gcc", 2_000).key)
    store.clear()
    assert len(store) == 0
    assert (store.nbytes, store.peak_bytes, store.hits,
            store.misses) == (0, 0, 0, 0)
