"""Trace records and the synthetic trace generator.

A trace is a finite iterable of :class:`TraceRecord`.  Records carry the
full 64-byte line contents so the cache hierarchy compresses real values:
for writes, ``data`` is the post-write contents; for reads it is the
line's current contents (tracked by per-line write versions, so replays
are consistent).

A process generates each synthetic trace once.  The first complete
iteration of a :class:`SyntheticTrace` records the stream into
:data:`STORE`, keyed by every generator input; later iterations of a
trace with the same inputs replay the stored columns instead of running
the generators again.  The store lives in memory and is per process.

The simulator reads every trace through :func:`accesses`, as plain
:data:`Access` fields: a :class:`SyntheticTrace` hands over its stored
columns (:meth:`SyntheticTrace.columns`), so replay builds no record
per access, and any other iterable of records is read field by field.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter
from typing import Dict, Hashable, Iterable, Iterator, Optional, Tuple

from repro.common.words import LINE_SIZE
from repro.workloads.datamodel import (
    AccessProfile,
    AddressModel,
    DataProfile,
    LineDataModel,
)


@dataclass(frozen=True)
class TraceRecord:
    """One memory access.

    ``gap`` is the number of non-memory instructions executed since the
    previous access (CPI=1 each under Table 5's core model).
    """

    address: int
    is_write: bool
    gap: int
    data: bytes

    @property
    def line_address(self) -> int:
        return self.address // LINE_SIZE


Access = Tuple[int, bool, int, bytes]
"""One access as plain fields: (address, is_write, gap, data)."""

_FIELDS = attrgetter("address", "is_write", "gap", "data")


class SyntheticTrace:
    """A reproducible single-program memory trace.

    Iterating yields :class:`TraceRecord` until approximately
    ``n_instructions`` (memory accesses + gaps) have been produced.  The
    trace is restartable: each ``iter()`` yields the same stream, from
    :data:`STORE` once one iteration has run to the end.
    """

    def __init__(self, name: str, data_profile: DataProfile,
                 access_profile: AccessProfile, n_instructions: int,
                 seed: int = 0, base_line: int = 0,
                 data_seed: Optional[int] = None) -> None:
        if n_instructions <= 0:
            raise ValueError("trace needs a positive instruction budget")
        self.name = name
        self.data_profile = data_profile
        self.access_profile = access_profile
        self.n_instructions = n_instructions
        self.seed = seed
        self.base_line = base_line
        # Two copies of the same program share data values (same binary,
        # same input) even when their access streams drift in phase; the
        # data seed is therefore separable from the access seed.
        self.data_seed = seed if data_seed is None else data_seed

    @property
    def key(self) -> tuple:
        """Every input of the generators, and nothing else: equal keys
        mean equal streams."""
        return (self.data_profile, self.access_profile, self.n_instructions,
                self.seed, self.base_line, self.data_seed)

    def __iter__(self) -> Iterator[TraceRecord]:
        key = self.key
        stored = STORE.get(key)
        if stored is not None:
            return stored.records()
        return self._recording(key)

    def columns(self) -> Iterator[Access]:
        """The stream as :data:`Access` tuples, with no record per access.

        A stored entry is replayed column by column.  Otherwise the
        generator's fields are yielded while the entry is recorded, and
        it is stored once the iteration completes, as in ``iter()``.
        """
        key = self.key
        stored = STORE.get(key)
        if stored is not None:
            return stored.columns()
        return map(_FIELDS, self._recording(key))

    def _recording(self, key: tuple) -> Iterator[TraceRecord]:
        """Yield the generated stream; store it once it has all been
        yielded (an abandoned iteration stores nothing)."""
        addresses, gaps, line_index = array("q"), array("q"), array("I")
        writes = bytearray()
        distinct: Dict[bytes, int] = {}
        for record in self.generate():
            addresses.append(record.address)
            gaps.append(record.gap)
            writes.append(record.is_write)
            line_index.append(distinct.setdefault(record.data,
                                                  len(distinct)))
            yield record
        # ``distinct`` keeps insertion order: its keys are the lines in
        # index order.
        STORE.put(key, StoredTrace(addresses, gaps, bytes(writes),
                                   b"".join(distinct), line_index))

    def generate(self) -> Iterator[TraceRecord]:
        """Run the generators, bypassing the store."""
        data_model = LineDataModel(self.data_profile, seed=self.data_seed)
        address_model = AddressModel(self.access_profile, seed=self.seed,
                                     base_line=self.base_line)
        versions: Dict[int, int] = {}
        line_phase: Dict[int, int] = {}
        phase_span = self.data_profile.phase_instructions
        produced = 0
        while produced < self.n_instructions:
            line, is_write, gap = address_model.next_access()
            current_phase = (produced // phase_span) if phase_span else 0
            if is_write:
                versions[line] = versions.get(line, 0) + 1
                # A write binds the line's content to the current phase's
                # value pools; unwritten lines keep their birth phase.
                line_phase[line] = current_phase
            elif line not in line_phase:
                line_phase[line] = current_phase
            data = data_model.line_data(line, versions.get(line, 0),
                                        phase=line_phase[line])
            produced += 1 + gap
            yield TraceRecord(address=line * LINE_SIZE, is_write=is_write,
                              gap=gap, data=data)


_FLAGS = (False, True)


class StoredTrace:
    """One materialised trace, stored column by column.

    ``addresses`` and ``gaps`` hold one integer per record and ``writes``
    one flag byte.  ``lines`` is the trace's distinct line contents, 64
    bytes each, end to end; ``line_index`` names each record's line there.
    """

    __slots__ = ("addresses", "gaps", "writes", "lines", "line_index")

    def __init__(self, addresses: array, gaps: array, writes: bytes,
                 lines: bytes, line_index: array) -> None:
        self.addresses = addresses
        self.gaps = gaps
        self.writes = writes
        self.lines = lines
        self.line_index = line_index

    @property
    def nbytes(self) -> int:
        return (len(self.writes) + len(self.lines)
                + sum(len(column) * column.itemsize for column in
                      (self.addresses, self.gaps, self.line_index)))

    def columns(self) -> Iterator[Access]:
        """The stored stream, one :data:`Access` tuple per record."""
        lines = self.lines
        contents = [lines[start:start + LINE_SIZE]
                    for start in range(0, len(lines), LINE_SIZE)]
        return zip(self.addresses, map(_FLAGS.__getitem__, self.writes),
                   self.gaps, map(contents.__getitem__, self.line_index))

    def records(self) -> Iterator[TraceRecord]:
        """The stored stream, as the records it was recorded from."""
        return starmap(TraceRecord, self.columns())


def accesses(trace: Iterable[TraceRecord]) -> Iterator[Access]:
    """Every access of ``trace`` as an :data:`Access` tuple: a
    :class:`SyntheticTrace`'s columns, or any other records' fields."""
    if isinstance(trace, SyntheticTrace):
        return trace.columns()
    return map(_FIELDS, trace)


class TraceStore:
    """Stored traces by key, within a byte budget.

    Adding an entry evicts the least recently used ones until the total
    fits ``budget_bytes``; an entry larger than the whole budget is not
    stored.  ``hits``, ``misses`` and ``peak_bytes`` count lookups and
    the largest total held.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[Hashable, StoredTrace]" = OrderedDict()
        self.nbytes = 0
        self.peak_bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[StoredTrace]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, entry: StoredTrace) -> None:
        size = entry.nbytes
        if size > self.budget_bytes:
            return
        replaced = self._entries.pop(key, None)
        if replaced is not None:
            self.nbytes -= replaced.nbytes
        while self.nbytes + size > self.budget_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.nbytes -= evicted.nbytes
        self._entries[key] = entry
        self.nbytes += size
        self.peak_bytes = max(self.peak_bytes, self.nbytes)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.nbytes = self.peak_bytes = self.hits = self.misses = 0


#: bytes of stored traces a process keeps.  Grids run scheme-major, so
#: a budget below one pass over a grid's traces evicts every entry before
#: its reuse.  At the default budgets, one pass of Figure 6 over
#: ``DEFAULT_BENCHMARKS`` stores 33.5 MB and one of Figure 8's default
#: mixes 17.7 MB; this holds both.
TRACE_STORE_BYTES = 64 << 20

#: the process's trace store
STORE = TraceStore(TRACE_STORE_BYTES)
