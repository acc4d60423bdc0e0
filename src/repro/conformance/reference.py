"""Golden reference models: brute-force executables of the definitions.

Every class here re-implements one production model with the dumbest
faithful data structures available — flat lists, dictionaries, linear
scans, occupancy recomputed by summation on every query — so that reading
a reference against the paper's prose is a one-to-one check.  The
differential driver (:mod:`repro.conformance.driver`) then proves the
optimised production implementations agree with these step for step.

References deliberately share the *codecs* (C-Pack, LBE, tag compression)
with production: codec round-trips are proven separately by the fuzz and
perf-equivalence suites, and what conformance must pin down is the cache,
log, table and channel *bookkeeping* built on top of the codec sizes.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.config import MemoryConfig, MorcConfig
from repro.common.words import LINE_SIZE
from repro.compression.cpack import CPackCompressor
from repro.compression.lbe import LbeCompressor, LbeDictionary
from repro.compression.tag_compression import (
    FULL_TAG_BITS,
    TagCompressor,
    TagStream,
    VALID_BITS,
)
from repro.mem.dram import DEFAULT_DDR3, Ddr3Timing

SEGMENT_BYTES = 8
UNCOMPRESSED_LINE_BITS = LINE_SIZE * 8
UNCOMPRESSED_TAG_BITS = FULL_TAG_BITS + VALID_BITS


# -- replacement policies ------------------------------------------------------


class RefLruPolicy:
    """Perfect LRU over a plain list: front = victim, back = most recent."""

    def __init__(self) -> None:
        self._keys: List = []

    def insert(self, key) -> None:
        if key in self._keys:
            self._keys.remove(key)
        self._keys.append(key)

    def touch(self, key) -> None:
        if key not in self._keys:
            raise LookupError(f"reference LRU: {key!r} not resident")
        self._keys.remove(key)
        self._keys.append(key)

    def remove(self, key) -> None:
        if key in self._keys:
            self._keys.remove(key)

    def victim(self):
        if not self._keys:
            raise LookupError("no candidate to evict")
        return self._keys[0]

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._keys


class RefFifoPolicy:
    """First-in-first-out over a plain list; uses never reorder."""

    def __init__(self) -> None:
        self._keys: List = []

    def insert(self, key) -> None:
        if key not in self._keys:
            self._keys.append(key)

    def touch(self, key) -> None:
        if key not in self._keys:
            raise LookupError(f"reference FIFO: {key!r} not resident")

    def remove(self, key) -> None:
        if key in self._keys:
            self._keys.remove(key)

    def victim(self):
        if not self._keys:
            raise LookupError("no candidate to evict")
        return self._keys[0]

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._keys


# -- set-associative cache -----------------------------------------------------


class _RefLine:
    """One resident line, fully tracked."""

    def __init__(self, line_address: int, data: bytes, dirty: bool,
                 segments: int, stamp: int) -> None:
        self.line_address = line_address
        self.data = data
        self.dirty = dirty
        self.segments = segments
        self.stamp = stamp  # monotonically increasing use time


class RefSetCache:
    """Dict-based fully-tracked LRU set cache (paper §6 skeleton).

    Mirrors :class:`repro.cache.set_assoc.SetAssociativeCache`: a
    conventional set layout whose data store is ``ways * line_size / 8``
    8-byte segments per set, with ``ways * tag_factor`` tags.  All
    occupancy is recomputed by summation; the LRU victim is found by a
    linear scan for the minimum use stamp.
    """

    def __init__(self, n_sets: int, ways: int, line_size: int = LINE_SIZE,
                 tag_factor: int = 1,
                 segments_for: Optional[Callable[[bytes], int]] = None,
                 compressed: bool = False,
                 base_latency_cycles: int = 14,
                 decompression_cycles: int = 0) -> None:
        self.n_sets = n_sets
        self.ways = ways
        self.line_size = line_size
        self.tags_per_set = ways * tag_factor
        self.segments_per_set = ways * line_size // SEGMENT_BYTES
        self.full_segments = line_size // SEGMENT_BYTES
        self.segments_for = segments_for or (lambda data: self.full_segments)
        self.compressed = compressed
        self.base_latency_cycles = base_latency_cycles
        self.decompression_cycles = decompression_cycles
        self._sets: List[List[_RefLine]] = [[] for _ in range(n_sets)]
        self._clock = 0
        self.counters: Dict[str, float] = {}

    # -- bookkeeping, recomputed from scratch every time ----------------------

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _set_for(self, address: int) -> List[_RefLine]:
        return self._sets[(address // self.line_size) % self.n_sets]

    @staticmethod
    def _find(lines: List[_RefLine], line_address: int) -> Optional[_RefLine]:
        for line in lines:
            if line.line_address == line_address:
                return line
        return None

    @staticmethod
    def _used_segments(lines: List[_RefLine]) -> int:
        return sum(line.segments for line in lines)

    # -- operations ------------------------------------------------------------

    def read(self, address: int) -> Tuple[bool, float, Optional[bytes]]:
        lines = self._set_for(address)
        line = self._find(lines, address // self.line_size)
        if line is None:
            self._count("read_misses")
            return False, float(self.base_latency_cycles), None
        line.stamp = self._tick()
        self._count("read_hits")
        latency = float(self.base_latency_cycles)
        if self.compressed:
            latency += self.decompression_cycles
        return True, latency, line.data

    def fill(self, address: int,
             data: bytes) -> List[Tuple[int, bytes]]:
        self._count("fills")
        return self._insert(address, data, dirty=False)

    def writeback(self, address: int,
                  data: bytes) -> List[Tuple[int, bytes]]:
        self._count("writebacks_in")
        lines = self._set_for(address)
        line_address = address // self.line_size
        line = self._find(lines, line_address)
        if line is None:
            return self._insert(address, data, dirty=True)
        # In-place update; expansion may force evictions of *other* lines.
        new_segments = self.segments_for(data)
        writebacks: List[Tuple[int, bytes]] = []
        if new_segments > line.segments:
            self._count("expansions")
            growth = new_segments - line.segments
            self._make_room(lines, growth, 0, writebacks,
                            protect=line_address)
        line.segments = new_segments
        line.data = data
        line.dirty = True
        line.stamp = self._tick()
        return writebacks

    def contains(self, address: int) -> bool:
        return self._find(self._set_for(address),
                          address // self.line_size) is not None

    def compression_ratio(self) -> float:
        resident = sum(len(lines) for lines in self._sets)
        return resident / (self.n_sets * self.ways)

    # -- internals -------------------------------------------------------------

    def _insert(self, address: int, data: bytes,
                dirty: bool) -> List[Tuple[int, bytes]]:
        lines = self._set_for(address)
        line_address = address // self.line_size
        existing = self._find(lines, line_address)
        if existing is not None:
            lines.remove(existing)
            dirty = dirty or existing.dirty
        segments = self.segments_for(data)
        writebacks: List[Tuple[int, bytes]] = []
        need_tags = 0 if len(lines) < self.tags_per_set else 1
        self._make_room(lines, segments, need_tags, writebacks)
        lines.append(_RefLine(line_address, data, dirty, segments,
                              self._tick()))
        return writebacks

    def _make_room(self, lines: List[_RefLine], segments_needed: int,
                   tags_needed: int, writebacks: List[Tuple[int, bytes]],
                   protect: Optional[int] = None) -> None:
        while (self._used_segments(lines) + segments_needed
               > self.segments_per_set
               or len(lines) + tags_needed > self.tags_per_set):
            victim = self._pick_victim(lines, protect)
            if victim is None:
                break
            lines.remove(victim)
            self._count("evictions")
            if victim.dirty:
                self._count("dirty_evictions")
                writebacks.append((victim.line_address * self.line_size,
                                   victim.data))
            if tags_needed:
                tags_needed = (0 if len(lines) < self.tags_per_set else 1)

    @staticmethod
    def _pick_victim(lines: List[_RefLine],
                     protect: Optional[int]) -> Optional[_RefLine]:
        candidates = [line for line in lines if line.line_address != protect]
        if not candidates:
            return None
        return min(candidates, key=lambda line: line.stamp)


def cpack_segments(line_size: int = LINE_SIZE) -> Callable[[bytes], int]:
    """Production-faithful C-Pack sizer for a reference cache."""
    compressor = CPackCompressor()
    full = line_size // SEGMENT_BYTES

    def segments_for(data: bytes) -> int:
        return min(compressor.compress(data).segments(SEGMENT_BYTES), full)

    return segments_for


# -- FCFS memory channels ------------------------------------------------------


class RefFcfsChannel:
    """Naive event-list FCFS channel with a bandwidth-capped server.

    Keeps the *entire* transfer history and recomputes the server's free
    time as the maximum completion over all past events on every request
    (O(n) per access) — the direct reading of "single FCFS server".
    """

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.events: List[Tuple[float, float, str]] = []  # (start, end, kind)
        self.counters: Dict[str, float] = {}

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @property
    def transfer_cycles(self) -> float:
        return self.config.cycles_per_line_transfer

    def _server_free_at(self) -> float:
        free = 0.0
        for _, end, _ in self.events:
            if end > free:
                free = end
        return free

    def read(self, now: float, address: int = 0,
             data: Optional[bytes] = None) -> float:
        occupancy = self.transfer_cycles
        start = max(now, self._server_free_at())
        self.events.append((start, start + occupancy, "read"))
        self._count("reads")
        queue_wait = start - now
        self._count("queue_wait_cycles", queue_wait)
        return queue_wait + self.config.dram_latency_cycles + occupancy

    def write(self, now: float, address: int = 0,
              data: Optional[bytes] = None) -> None:
        occupancy = self.transfer_cycles
        start = max(now, self._server_free_at())
        self.events.append((start, start + occupancy, "write"))
        self._count("writes")

class RefBankedChannel:
    """Naive event-list model of the closed-page multi-bank DDR3 channel.

    One event list per bank plus one for the shared data bus; every
    horizon is recomputed by scanning the full history.
    """

    def __init__(self, config: MemoryConfig,
                 timing: Ddr3Timing = DEFAULT_DDR3,
                 n_banks: int = 8) -> None:
        self.config = config
        self.timing = timing
        self.n_banks = n_banks
        core_hz = config.clock_hz
        self.access_cycles = timing.access_latency_core_cycles(core_hz)
        self.restore_cycles = timing.restore_latency_core_cycles(core_hz)
        self.burst_cycles = (timing.data_cycles / timing.frequency_hz
                             * core_hz)
        self.bank_events: List[List[float]] = [[] for _ in range(n_banks)]
        self.bus_events: List[float] = []  # completion times only
        self.counters: Dict[str, float] = {}

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @property
    def transfer_cycles(self) -> float:
        return self.config.cycles_per_line_transfer

    @staticmethod
    def _horizon(ends: List[float]) -> float:
        free = 0.0
        for end in ends:
            if end > free:
                free = end
        return free

    def _serve(self, now: float, address: int) -> float:
        bank = (address // 64) % self.n_banks
        start = max(now, self._horizon(self.bank_events[bank]))
        data_at = start + self.access_cycles
        bus_start = max(data_at - self.burst_cycles,
                        self._horizon(self.bus_events))
        bus_done = bus_start + self.transfer_cycles
        self.bus_events.append(bus_done)
        self.bank_events[bank].append(bus_done + self.restore_cycles)
        self._count(f"bank{bank}_accesses")
        return bus_done

    def read(self, now: float, address: int = 0,
             data: Optional[bytes] = None) -> float:
        bus_done = self._serve(now, address)
        self._count("reads")
        latency = bus_done - now
        queue_wait = max(0.0, latency - self.access_cycles
                         - self.transfer_cycles)
        self._count("queue_wait_cycles", queue_wait)
        return latency

    def write(self, now: float, address: int = 0,
              data: Optional[bytes] = None) -> None:
        self._serve(now, address)
        self._count("writes")

# -- MORC log / LMT occupancy model --------------------------------------------


class _RefLogEntry:
    """One appended line: address, payload, exact bit footprint, liveness."""

    def __init__(self, line_address: int, data: bytes, data_bits: int,
                 tag_bits: int) -> None:
        self.line_address = line_address
        self.data = data
        self.data_bits = data_bits
        self.tag_bits = tag_bits
        self.valid = True


class _RefLog:
    """A fixed-size append-only region; occupancy recomputed by summation."""

    def __init__(self, index: int, data_capacity_bits: int,
                 tag_capacity_bits: Optional[int], merged: bool,
                 tag_bases: int) -> None:
        self.index = index
        self.data_capacity_bits = data_capacity_bits
        self.tag_capacity_bits = tag_capacity_bits
        self.merged = merged
        self.tag_bases = tag_bases
        self.entries: List[_RefLogEntry] = []
        self.closed = False
        self.last_use = 0
        self.dictionary = LbeDictionary()
        self.tag_stream = TagStream(n_bases=tag_bases)

    # O(n) recomputations — the "literal" occupancy model.

    def data_bits_used(self) -> int:
        return sum(entry.data_bits for entry in self.entries)

    def tag_bits_used(self) -> int:
        return sum(entry.tag_bits for entry in self.entries)

    def valid_count(self) -> int:
        return sum(1 for entry in self.entries if entry.valid)

    def free_data_bits(self) -> int:
        if self.merged:
            return (self.data_capacity_bits - self.data_bits_used()
                    - self.tag_bits_used())
        return self.data_capacity_bits - self.data_bits_used()

    def fits(self, data_bits: int, tag_bits: int) -> bool:
        if self.closed:
            return False
        if self.merged:
            return (self.data_bits_used() + self.tag_bits_used()
                    + data_bits + tag_bits) <= self.data_capacity_bits
        if (self.tag_capacity_bits is not None
                and self.tag_bits_used() + tag_bits
                > self.tag_capacity_bits):
            return False
        return (self.data_bits_used() + data_bits
                <= self.data_capacity_bits)

    def all_invalid(self) -> bool:
        return self.valid_count() == 0 and bool(self.entries)

    def position_of(self, entry: _RefLogEntry) -> int:
        return self.entries.index(entry)

    def reset(self) -> None:
        self.entries = []
        self.closed = False
        self.dictionary = LbeDictionary()
        self.tag_stream = TagStream(n_bases=self.tag_bases)


class _RefLmtEntry:
    """One LMT way: state bits, log pointer, shadow line address."""

    INVALID, VALID, MODIFIED = 0, 1, 2

    def __init__(self) -> None:
        self.state = self.INVALID
        self.log_index = -1
        self.line_address = -1
        self.entry: Optional[_RefLogEntry] = None
        self.last_use = 0

    @property
    def is_valid(self) -> bool:
        return self.state != self.INVALID

    @property
    def is_modified(self) -> bool:
        return self.state == self.MODIFIED

    def clear(self) -> None:
        self.state = self.INVALID
        self.log_index = -1
        self.line_address = -1
        self.entry = None


class RefMorcCache:
    """O(n²) literal MORC log/LMT occupancy model (paper §3).

    Re-derives the whole MORC bookkeeping from the paper's operation
    descriptions with brute-force structures: list-scanned LMT sets,
    summation-recomputed log occupancy, linear-scan victim and
    reuse-candidate selection.  Shares the LBE/C-Pack/tag codecs with
    production (their round-trips are proven elsewhere); ``algorithm``
    may be ``"lbe"``, ``"cpack"`` or ``None`` (compression disabled).
    """

    def __init__(self, capacity_bytes: int, config: MorcConfig,
                 base_latency_cycles: int = 14,
                 decompress_bytes_per_cycle: int = 16,
                 tag_decode_tags_per_cycle: int = 8,
                 algorithm: Optional[str] = "lbe") -> None:
        self.config = config
        self.capacity_bytes = capacity_bytes
        self.base_latency_cycles = base_latency_cycles
        self.decompress_bytes_per_cycle = decompress_bytes_per_cycle
        self.tag_decode_tags_per_cycle = tag_decode_tags_per_cycle
        self.algorithm = algorithm

        n_logs = capacity_bytes // config.log_size_bytes
        lines_per_log = config.log_size_bytes // LINE_SIZE
        if config.merged_tags or config.unlimited_metadata:
            tag_capacity = None
        else:
            tag_capacity = int(config.tag_store_factor * lines_per_log
                               * FULL_TAG_BITS)
        self.logs = [_RefLog(i, config.log_size_bytes * 8, tag_capacity,
                             config.merged_tags, config.tag_bases)
                     for i in range(n_logs)]
        n_sets = (capacity_bytes // LINE_SIZE
                  * config.lmt_overprovision) // config.lmt_ways
        self.lmt_sets: List[List[_RefLmtEntry]] = [
            [_RefLmtEntry() for _ in range(config.lmt_ways)]
            for _ in range(n_sets)]
        self.free_pool: List[int] = list(range(n_logs))
        self.closed_fifo: List[int] = []
        self.active: List[int] = [self.free_pool.pop(0)
                                  for _ in range(config.n_active_logs)]
        self._clock = 0       # cache clock (log recency)
        self._lmt_clock = 0   # LMT clock (way recency)
        self._lbe = LbeCompressor()
        self._cpack = CPackCompressor() if algorithm == "cpack" else None
        self._tags = TagCompressor(n_bases=config.tag_bases)
        self.counters: Dict[str, float] = {}

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- LMT, by linear scan ---------------------------------------------------

    def _lmt_set(self, line_address: int) -> List[_RefLmtEntry]:
        return self.lmt_sets[line_address % len(self.lmt_sets)]

    def _lmt_tick(self) -> int:
        self._lmt_clock += 1
        return self._lmt_clock

    def _lmt_lookup(self, line_address: int
                    ) -> Tuple[Optional[_RefLmtEntry], bool]:
        aliased = False
        for way in self._lmt_set(line_address):
            if not way.is_valid:
                continue
            if way.line_address == line_address:
                way.last_use = self._lmt_tick()
                return way, False
            aliased = True
        return None, aliased

    def _lmt_allocate(self, line_address: int
                      ) -> Tuple[_RefLmtEntry, Optional[_RefLmtEntry]]:
        ways = self._lmt_set(line_address)
        free: Optional[_RefLmtEntry] = None
        for way in ways:
            if way.is_valid and way.line_address == line_address:
                way.last_use = self._lmt_tick()
                return way, None
            if free is None and not way.is_valid:
                free = way
        if free is not None:
            free.line_address = line_address
            free.last_use = self._lmt_tick()
            return free, None
        victim = min(ways, key=lambda way: way.last_use)
        evicted = _RefLmtEntry()
        evicted.state = victim.state
        evicted.log_index = victim.log_index
        evicted.line_address = victim.line_address
        evicted.entry = victim.entry
        victim.clear()
        victim.line_address = line_address
        victim.last_use = self._lmt_tick()
        return victim, evicted

    def _lmt_release(self, entry: _RefLmtEntry) -> None:
        entry.clear()

    # -- reads -----------------------------------------------------------------

    def _hit_latency(self, log: _RefLog, entry: _RefLogEntry) -> float:
        position = log.position_of(entry)
        output_bytes = (position + 1) * LINE_SIZE
        tag_cycles = math.ceil((position + 1)
                               / self.tag_decode_tags_per_cycle)
        data_cycles = math.ceil(output_bytes
                                / self.decompress_bytes_per_cycle)
        if self.config.parallel_tag_access:
            return self.base_latency_cycles + max(tag_cycles, data_cycles)
        return self.base_latency_cycles + tag_cycles + data_cycles

    def read(self, address: int) -> Tuple[bool, float, Optional[bytes]]:
        line_address = address // LINE_SIZE
        lmt_entry, aliased = self._lmt_lookup(line_address)
        if lmt_entry is None:
            self._count("read_misses")
            latency = float(self.base_latency_cycles)
            if aliased:
                self._count("aliased_misses")
                latency += 4
            return False, latency, None
        log = self.logs[lmt_entry.log_index]
        entry = lmt_entry.entry
        self._clock += 1
        log.last_use = self._clock
        self._count("read_hits")
        self._count("decompressed_lines", log.position_of(entry) + 1)
        return True, self._hit_latency(log, entry), entry.data

    # -- fills and write-backs -------------------------------------------------

    def fill(self, address: int, data: bytes) -> List[Tuple[int, bytes]]:
        self._count("fills")
        return self._insert(address, data, modified=False)

    def writeback(self, address: int,
                  data: bytes) -> List[Tuple[int, bytes]]:
        self._count("writebacks_in")
        return self._insert(address, data, modified=True)

    def contains(self, address: int) -> bool:
        entry, _ = self._lmt_lookup(address // LINE_SIZE)
        return entry is not None

    def compression_ratio(self) -> float:
        valid = sum(log.valid_count() for log in self.logs)
        return valid / (self.capacity_bytes // LINE_SIZE)

    def invalid_fraction(self) -> float:
        total = sum(len(log.entries) for log in self.logs)
        if total == 0:
            return 0.0
        valid = sum(log.valid_count() for log in self.logs)
        return (total - valid) / total

    def _insert(self, address: int, data: bytes,
                modified: bool) -> List[Tuple[int, bytes]]:
        writebacks: List[Tuple[int, bytes]] = []
        line_address = address // LINE_SIZE
        lmt_entry, conflict = self._lmt_allocate(line_address)
        if conflict is not None:
            self._evict_conflict(conflict, writebacks)
        if lmt_entry.is_valid and lmt_entry.entry is not None:
            # Write-back/refill of a resident line kills the old copy in
            # place; appends never modify a log.
            self._invalidate(lmt_entry.entry)
            self._count("superseded_lines")
        log, entry = self._append_line(line_address, data, writebacks)
        lmt_entry.state = (_RefLmtEntry.MODIFIED if modified
                           else _RefLmtEntry.VALID)
        lmt_entry.log_index = log.index
        lmt_entry.entry = entry
        return writebacks

    def _invalidate(self, entry: _RefLogEntry) -> None:
        entry.valid = False

    def _evict_conflict(self, conflict: _RefLmtEntry,
                        writebacks: List[Tuple[int, bytes]]) -> None:
        log = self.logs[conflict.log_index]
        victim = conflict.entry
        self._invalidate(victim)
        self._count("lmt_conflict_evictions")
        if conflict.is_modified:
            self._count("decompressed_lines", log.position_of(victim) + 1)
            writebacks.append((victim.line_address * LINE_SIZE,
                               victim.data))

    # -- placement -------------------------------------------------------------

    def _trial_data_bits(self, log: _RefLog, data: bytes) -> int:
        if self.algorithm is None:
            return UNCOMPRESSED_LINE_BITS
        if self._cpack is not None:
            return min(self._cpack.compress(data).size_bits,
                       UNCOMPRESSED_LINE_BITS)
        return min(self._lbe.measure(data, log.dictionary),
                   UNCOMPRESSED_LINE_BITS)

    def _trial_tag_bits(self, log: _RefLog, line_address: int) -> int:
        if self.algorithm is None:
            return UNCOMPRESSED_TAG_BITS
        return self._tags.measure(log.tag_stream, line_address)

    def _choose_log(self, candidates: List[Tuple[_RefLog, int, int]]
                    ) -> Optional[Tuple[_RefLog, int, int]]:
        """Literal fudge-factor placement (paper §3.2.3)."""
        fitting = [candidate for candidate in candidates
                   if candidate[0].fits(candidate[1], candidate[2])]
        if not fitting:
            return None
        best = min(fitting, key=lambda c: c[1])
        worst = max(fitting, key=lambda c: c[1])
        if worst[1] == 0:
            return best
        spread = (worst[1] - best[1]) / worst[1]
        if spread <= self.config.fudge_factor:
            return max(fitting, key=lambda c: c[0].free_data_bits())
        return best

    def _append_line(self, line_address: int, data: bytes,
                     writebacks: List[Tuple[int, bytes]]
                     ) -> Tuple[_RefLog, _RefLogEntry]:
        candidates = []
        for index in self.active:
            log = self.logs[index]
            candidates.append((log, self._trial_data_bits(log, data),
                               self._trial_tag_bits(log, line_address)))
            self._count("trial_compressions")
        choice = self._choose_log(candidates)
        if choice is None:
            fresh = self._retire_and_refresh(writebacks)
            return fresh, self._commit_append(fresh, line_address, data)
        return choice[0], self._commit_append(choice[0], line_address, data)

    def _commit_append(self, log: _RefLog, line_address: int,
                       data: bytes) -> _RefLogEntry:
        if self.algorithm is None:
            data_bits = UNCOMPRESSED_LINE_BITS
            tag_bits = UNCOMPRESSED_TAG_BITS
        elif self._cpack is not None:
            data_bits = min(self._cpack.compress(data).size_bits,
                            UNCOMPRESSED_LINE_BITS)
            tag_bits = self._tags.append(log.tag_stream,
                                         line_address).size_bits
        else:
            compressed = self._lbe.compress(data, log.dictionary,
                                            commit=True)
            data_bits = min(compressed.size_bits, UNCOMPRESSED_LINE_BITS)
            tag_bits = self._tags.append(log.tag_stream,
                                         line_address).size_bits
        if not log.fits(data_bits, tag_bits) and not log.entries:
            data_bits = max(0, log.free_data_bits() - tag_bits)
        self._count("compressions")
        self._count("compressed_data_bits", data_bits)
        self._count("compressed_tag_bits", tag_bits)
        entry = _RefLogEntry(line_address, data, data_bits, tag_bits)
        log.entries.append(entry)
        return entry

    # -- log lifecycle ---------------------------------------------------------

    def _retire_and_refresh(self, writebacks: List[Tuple[int, bytes]]
                            ) -> _RefLog:
        slot = min(range(len(self.active)),
                   key=lambda i: self.logs[self.active[i]].free_data_bits())
        retiring = self.logs[self.active[slot]]
        retiring.closed = True
        self._clock += 1
        retiring.last_use = self._clock
        self.closed_fifo.append(retiring.index)
        self._count("log_closures")
        fresh = self._acquire_fresh_log(writebacks)
        self.active[slot] = fresh.index
        return fresh

    def _acquire_fresh_log(self, writebacks: List[Tuple[int, bytes]]
                           ) -> _RefLog:
        for index in list(self.closed_fifo):
            log = self.logs[index]
            if log.all_invalid():
                self.closed_fifo.remove(index)
                log.reset()
                self._count("log_reuses")
                return log
        if self.free_pool:
            return self.logs[self.free_pool.pop(0)]
        if self.config.log_replacement == "lru":
            victim_index = min(self.closed_fifo,
                               key=lambda i: self.logs[i].last_use)
            self.closed_fifo.remove(victim_index)
            victim = self.logs[victim_index]
        else:
            victim = self.logs[self.closed_fifo.pop(0)]
        self._flush_log(victim, writebacks)
        victim.reset()
        return victim

    def _flush_log(self, log: _RefLog,
                   writebacks: List[Tuple[int, bytes]]) -> None:
        self._count("log_flushes")
        self._count("decompressed_lines", len(log.entries))
        for entry in log.entries:
            if not entry.valid:
                continue
            lmt_entry = self._owner_of(entry)
            if lmt_entry.is_modified:
                writebacks.append((entry.line_address * LINE_SIZE,
                                   entry.data))
                self._count("flush_writebacks")
            self._lmt_release(lmt_entry)
            self._invalidate(entry)

    def _owner_of(self, entry: _RefLogEntry) -> _RefLmtEntry:
        """Brute-force inverse of the LMT pointer (no back-pointers)."""
        for ways in self.lmt_sets:
            for way in ways:
                if way.is_valid and way.entry is entry:
                    return way
        raise AssertionError(
            f"reference LMT lost line 0x{entry.line_address:x}")


# -- direct-definition metrics -------------------------------------------------


def ref_coarse_grain_throughput(instructions: int, cycles: float,
                                miss_latencies: List[float],
                                threads: int = 4) -> float:
    """The paper's CGMT throughput estimate, straight from §4's prose.

    Average inter-miss compute gap ``g = compute / n_misses``; each miss
    round costs ``max(threads*g, g + L)`` cycles; throughput is total
    committed instructions over those cycles, across ``threads`` contexts.
    """
    if threads < 1:
        raise ValueError("need at least one thread")
    if cycles <= 0:
        return 0.0
    compute = cycles - sum(miss_latencies)
    if not miss_latencies:
        if compute > 0:
            return instructions / compute
        return instructions / cycles
    gap = compute / len(miss_latencies)
    total_cycles = 0.0
    for latency in miss_latencies:
        round_cycles = threads * gap
        if gap + latency > round_cycles:
            round_cycles = gap + latency
        total_cycles += round_cycles
    if total_cycles <= 0:
        return 0.0
    return threads * instructions / total_cycles


def ref_compression_ratio(resident_valid_lines: int,
                          capacity_lines: int) -> float:
    """Paper §4: valid resident lines over uncompressed line capacity."""
    return resident_valid_lines / capacity_lines
