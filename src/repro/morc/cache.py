"""The MORC cache: a log-based, inter-line compressed LLC (paper §3).

Operations (paper §3.1):

- **Read**: check the LMT; an invalid entry is a guaranteed miss.  A valid
  entry requires decompressing the pointed log's tags (8 tags/cycle) and
  data (16 output bytes/cycle) up to the requested line, which is where
  MORC trades latency for compression ratio.
- **Fill**: allocate an LMT entry (possibly an LMT-conflict eviction),
  trial-compress into every active log with room, append to the winner
  (5% fudge diversification), or retire a full active log and bring in a
  fresh one.
- **Write-back**: appended like a fill — the old copy, if any, is
  invalidated in place; the LMT entry is flipped to Modified and repointed.
- **Eviction**: LMT-conflict evictions invalidate a single line (writing
  it back if modified); whole-log evictions flush a FIFO-chosen closed log,
  decompressing it start-to-end.  Closed logs whose lines are all dead are
  reused without any flush (priority over the FIFO victim).

The data algorithm is one codec (:mod:`repro.morc.codecs`).  As in the
evaluated design, logs are replaced FIFO, a hit reads tags then data,
and the tag store holds twice an uncompressed log's tags.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Deque, List, Optional

from repro.common.config import MorcConfig
from repro.common.errors import CacheError
from repro.common.stats import StatGroup
from repro.common.words import LINE_SIZE, check_line
from repro.cache.base import FillResult, LLCInterface, ReadResult
from repro.compression.tag_compression import FULL_TAG_BITS
from repro.morc.codecs import make_codecs
from repro.morc.lmt import LineMapTable, LmtEntry, LmtState
from repro.morc.log import Log, LogEntry
from repro.obs import trace as obs_trace
from repro.resilience import verify as res_verify


class MorcCache(LLCInterface):
    """Log-based inter-line compressed last-level cache."""

    def __init__(self, capacity_bytes: int,
                 config: Optional[MorcConfig] = None,
                 base_latency_cycles: int = 14,
                 decompress_bytes_per_cycle: int = 16,
                 tag_decode_tags_per_cycle: int = 8,
                 algorithm: str = "lbe",
                 name: Optional[str] = None) -> None:
        """``algorithm`` selects the data codec: ``"lbe"`` (default),
        ``"cpack"``, ``"lz"`` or ``"raw"`` (see :mod:`repro.morc.codecs`);
        ``name`` is what events report (default MORC or MORCMerged)."""
        self.config = config or MorcConfig()
        cfg = self.config
        if capacity_bytes % cfg.log_size_bytes:
            raise CacheError("capacity must divide into whole logs")
        self.capacity_bytes = capacity_bytes
        self.base_latency_cycles = base_latency_cycles
        self.decompress_bytes_per_cycle = decompress_bytes_per_cycle
        self.tag_decode_tags_per_cycle = tag_decode_tags_per_cycle
        # A miss carries no data, so every miss shares one result; an
        # aliased one pays the tag decode that disproved the alias.
        self._miss = ReadResult(False, float(base_latency_cycles))
        self._aliased_miss = ReadResult(False, base_latency_cycles + 4.0,
                                        aliased_miss=True)
        self.name = name or ("MORCMerged" if cfg.merged_tags else "MORC")

        n_logs = capacity_bytes // cfg.log_size_bytes
        if n_logs < cfg.n_active_logs:
            raise CacheError(
                f"{n_logs} logs cannot sustain {cfg.n_active_logs} active")
        self._verify = res_verify.verification_enabled()
        self.algorithm = algorithm
        self._codec, self._tag_compressor = make_codecs(
            algorithm, cfg.tag_bases, self._verify)
        lines_per_log = cfg.log_size_bytes // LINE_SIZE
        if cfg.merged_tags or cfg.unlimited_metadata:
            tag_capacity = None
        else:
            # §4: the tag store holds twice an uncompressed log's tags.
            tag_capacity = 2 * lines_per_log * FULL_TAG_BITS
        self.logs: List[Log] = [
            Log(index=i, data_capacity_bits=cfg.log_size_bytes * 8,
                tag_capacity_bits=tag_capacity, merged=cfg.merged_tags)
            for i in range(n_logs)
        ]
        capacity_lines = capacity_bytes // LINE_SIZE
        self.lmt = LineMapTable(
            n_entries=capacity_lines * cfg.lmt_overprovision,
            ways=cfg.lmt_ways, unlimited=cfg.unlimited_metadata)

        self._free_pool: Deque[int] = deque(range(n_logs))
        self._closed_fifo: Deque[int] = deque()
        #: how many logs in ``_closed_fifo`` have only dead lines, so are
        #: reusable without a flush
        self._dead_closed = 0
        self._active: List[int] = [self._take_free_log().index
                                   for _ in range(cfg.n_active_logs)]
        self.stats = StatGroup(self.name)
        #: distribution of decompressed output bytes per hit (Figure 14)
        self.latency_bytes_histogram: Counter = Counter()
        #: LBE symbol usage weighted by represented bytes (Figure 7):
        #: kind -> bytes, and the portion of those bytes that were zeros
        self.symbol_usage: Counter = Counter()
        self.symbol_zero_usage: Counter = Counter()

    # -- latency helpers ------------------------------------------------------

    def _hit_latency(self, entry: LogEntry) -> float:
        output_bytes = entry.output_bytes_through
        tag_cycles = math.ceil((entry.position + 1)
                               / self.tag_decode_tags_per_cycle)
        data_cycles = math.ceil(output_bytes / self.decompress_bytes_per_cycle)
        # §3.2.4: the evaluated design reads tags, then data.
        return self.base_latency_cycles + tag_cycles + data_cycles

    # -- LLCInterface -----------------------------------------------------------

    def read(self, address: int) -> ReadResult:
        line_address = address // LINE_SIZE
        lmt_entry, aliased = self.lmt.lookup(line_address)
        if lmt_entry is None:
            self.stats.add("read_misses")
            if aliased:
                self.stats.add("aliased_misses")
                return self._aliased_miss
            return self._miss
        log_entry: LogEntry = lmt_entry.entry_ref
        self.stats.add("read_hits")
        self.stats.add("decompressed_lines", log_entry.position + 1)
        self.latency_bytes_histogram[log_entry.output_bytes_through] += 1
        return ReadResult(True, self._hit_latency(log_entry),
                          data=log_entry.data)

    def _invalidate(self, log: Log, entry: LogEntry) -> None:
        """Kill one resident line; a closed log whose last line dies
        becomes reusable without a flush."""
        if log.invalidate(entry) and log.closed:
            self._dead_closed += 1

    def fill(self, address: int, data: bytes) -> FillResult:
        self.stats.add("fills")
        return self._insert(address, check_line(data), modified=False)

    def writeback(self, address: int, data: bytes) -> FillResult:
        self.stats.add("writebacks_in")
        return self._insert(address, check_line(data), modified=True)

    def contains(self, address: int) -> bool:
        return self.lmt.peek(address // LINE_SIZE) is not None

    def compression_ratio(self) -> float:
        valid_lines = sum(log.valid_count for log in self.logs)
        return valid_lines / (self.capacity_bytes // LINE_SIZE)

    def invalid_fraction(self) -> float:
        """Share of appended lines that are dead (Figure 12's metric)."""
        total = sum(log.n_entries for log in self.logs)
        if total == 0:
            return 0.0
        valid = sum(log.valid_count for log in self.logs)
        return (total - valid) / total

    def sample_ratio(self) -> None:
        super().sample_ratio()
        self.stats.add("invalid_fraction_sum", self.invalid_fraction())
        self.stats.add("invalid_fraction_samples")

    def mean_invalid_fraction(self) -> float:
        """Average of the sampled invalid-line fractions."""
        samples = self.stats.get("invalid_fraction_samples")
        if samples == 0:
            return self.invalid_fraction()
        return self.stats.get("invalid_fraction_sum") / samples

    # -- fills and write-backs --------------------------------------------------

    def _insert(self, address: int, data: bytes, modified: bool) -> FillResult:
        result = FillResult()
        line_address = address // LINE_SIZE
        lmt_entry, conflict = self.lmt.allocate(line_address)
        if conflict is not None:
            self._evict_conflict(conflict, result)
        if lmt_entry.is_valid and lmt_entry.entry_ref is not None:
            # Updating a resident line: the old copy becomes dead in place
            # (appends never modify a log; paper §3.1 write-backs).
            self._invalidate(self.logs[lmt_entry.log_index],
                             lmt_entry.entry_ref)
            self.stats.add("superseded_lines")
            channel = obs_trace.LLC
            if channel is not None:
                channel.emit("evict", cache=self.name, reason="superseded",
                             dirty=False, log=lmt_entry.log_index)
        log_entry = self._append_line(line_address, data, result)
        lmt_entry.state = LmtState.MODIFIED if modified else LmtState.VALID
        lmt_entry.log_index = log_entry.log_index
        lmt_entry.entry_ref = log_entry
        log_entry.lmt_ref = lmt_entry
        return result

    def _evict_conflict(self, conflict: LmtEntry, result: FillResult) -> None:
        """LMT-conflict eviction: kill one resident line (paper §3.1)."""
        log = self.logs[conflict.log_index]
        victim: LogEntry = conflict.entry_ref
        self._invalidate(log, victim)
        self.stats.add("lmt_conflict_evictions")
        channel = obs_trace.LLC
        if channel is not None:
            channel.emit("evict", cache=self.name, reason="lmt_conflict",
                         dirty=conflict.is_modified, log=conflict.log_index)
        if conflict.is_modified:
            # The line must be decompressed and written back to memory.
            self.stats.add("decompressed_lines", victim.position + 1)
            result.writebacks.append(
                (victim.line_address * LINE_SIZE, victim.data))

    def _append_line(self, line_address: int, data: bytes,
                     result: FillResult) -> LogEntry:
        """Compress-and-append into the best active log."""
        log = self._trial_all(line_address, data)
        if log is None:
            log = self._retire_and_refresh(result)
        return self._commit_append(log, line_address, data)

    def _trial_all(self, line_address: int, data: bytes) -> Optional[Log]:
        """The active log to append the line to, or None when it fits in
        none (paper §3.2.3).

        One pass over the active logs sizes the line in each it fits in
        and keeps the running smallest, largest and roomiest fit.  The
        choice scores the compressed *data* size only (the tag is an
        addressing artefact: scored, the warmest tag stream would
        attract every line and defeat content segregation).  When every
        fitting size is within ``fudge_factor`` of the largest, the log
        with the most free space wins, seeding distinct data across
        logs; otherwise the smallest size wins.  Ties go to the earliest
        active log.

        Each log makes one room decision (:meth:`Log.data_room`, the one
        fit rule).  The tag is sized only where the room depends on it:
        a separate tag region with room for the tag codec's largest
        token leaves the same data room for any tag, so only merged logs
        and fuller regions measure it, and a region without room for the
        smallest token is refused without sizing it.  The data codec is
        asked only whether the line fits the room.  The spread of the
        sizes only grows as logs are added, so once two sizes differ by
        more than the fudge factor only a strictly smaller size can
        change the choice, and every later trial is bounded by one bit
        under the smallest.  Every active log still counts as a trial.
        """
        trial = self._codec.trial
        tags = self._tag_compressor
        measure_tag = tags.measure
        smallest_tag, largest_tag = tags.min_token_bits, tags.max_token_bits
        fudge_factor = self.config.fudge_factor
        logs = self.logs
        best = roomiest = None
        low = high = most_free = 0
        settled = False
        for index in self._active:
            log = logs[index]
            # Any tag leaves a separate region with room for the largest
            # the same data room; only a merged log's or a fuller
            # region's room needs this line's tag sized.
            tag_bits = largest_tag
            if log.merged:
                tag_bits = measure_tag(log.tag_stream, line_address)
            elif log.tag_capacity_bits is not None:
                tag_left = log.tag_capacity_bits - log.tag_bits_used
                if tag_left < largest_tag:
                    tag_bits = (smallest_tag if tag_left < smallest_tag
                                else measure_tag(log.tag_stream,
                                                 line_address))
            room = log.data_room(tag_bits)
            if room is None:
                continue
            if settled:
                if room >= low:
                    room = low - 1
                bits = trial(log.codec_state, data, room)
                if bits is not None:
                    best, low = log, bits
                continue
            bits = trial(log.codec_state, data, room)
            if bits is None:
                continue
            if best is None:
                best = roomiest = log
                low = high = bits
                most_free = log.free_data_bits
                continue
            if bits < low:
                best, low = log, bits
            elif bits > high:
                high = bits
            free = log.free_data_bits
            if free > most_free:
                roomiest, most_free = log, free
            settled = high > 0 and (high - low) / high > fudge_factor
        self.stats.add("trial_compressions", len(self._active))
        return best if settled or not high else roomiest

    def _commit_append(self, log: Log, line_address: int,
                       data: bytes) -> LogEntry:
        data_bits, usage = self._codec.commit(log.codec_state, data,
                                              self.name)
        tag_bits = self._tag_compressor.append(log.tag_stream, line_address)
        if usage is not None:
            self._account_usage(usage)
        if not log.entries and not log.fits(data_bits, tag_bits):
            # A tiny log (Figure 13a's 64B point) cannot even hold one raw
            # line plus its tag; clamp so the entry consumes the whole log.
            data_bits = max(0, log.free_data_bits - tag_bits)
        self.stats.add("compressions")
        self.stats.add("compressed_data_bits", data_bits)
        self.stats.add("compressed_tag_bits", tag_bits)
        channel = obs_trace.LLC
        if channel is not None:
            channel.emit("insert", cache=self.name, log=log.index,
                         bits=data_bits, tag_bits=tag_bits)
        return log.append(line_address, data, data_bits, tag_bits)

    def _account_usage(self, usage) -> None:
        """Add one line's bytes per symbol kind to Figure 7's usage; the
        line's keys are in stream order, so the counters keep the order
        in which kinds first appeared.

        Only z* symbols stand for zeros: literals are non-zero words, and
        dictionary entries are literals or blocks that failed to match,
        neither of which is ever all-zero.
        """
        total, zero_usage = self.symbol_usage, self.symbol_zero_usage
        for kind, size in usage.items():
            total[kind] += size
            if kind[0] == "z":
                zero_usage[kind] += size

    # -- log lifecycle ------------------------------------------------------------

    def _retire_and_refresh(self, result: FillResult) -> Log:
        """Close the fullest active log and replace it with a fresh one;
        the closed log drops its codec state and tag stream."""
        slot = min(range(len(self._active)),
                   key=lambda i: self.logs[self._active[i]].free_data_bits)
        retiring = self.logs[self._active[slot]]
        retiring.close()
        self._closed_fifo.append(retiring.index)
        if retiring.all_invalid:
            self._dead_closed += 1
        self.stats.add("log_closures")
        channel = obs_trace.LLC
        if channel is not None:
            channel.emit("log_close", cache=self.name, log=retiring.index,
                         entries=retiring.n_entries,
                         free_bits=retiring.free_data_bits)
        fresh = self._acquire_fresh_log(result)
        self._active[slot] = fresh.index
        return fresh

    def _acquire_fresh_log(self, result: FillResult) -> Log:
        """Get an appendable empty log, flushing a FIFO victim if needed."""
        # Priority 1: the oldest closed log whose lines are all dead — no
        # flush.
        if self._dead_closed:
            fifo = self._closed_fifo
            position = next(position for position, index in enumerate(fifo)
                            if self.logs[index].all_invalid)
            log = self.logs[fifo[position]]
            del fifo[position]
            self._dead_closed -= 1
            self._reset_log(log)
            self.stats.add("log_reuses")
            return log
        # Priority 2: a never-used log.
        if self._free_pool:
            return self._take_free_log()
        # Priority 3: the oldest closed log, flushed (FIFO, §3.2.1).
        if not self._closed_fifo:
            raise CacheError("no closed log available to evict")
        victim = self.logs[self._closed_fifo.popleft()]
        self._flush_log(victim, result)
        self._reset_log(victim)
        return victim

    def _take_free_log(self) -> Log:
        """A never-used log, given codec state as it goes active."""
        log = self.logs[self._free_pool.popleft()]
        log.codec_state = self._codec.new_state()
        log.tag_stream = self._tag_compressor.new_stream()
        return log

    def _reset_log(self, log: Log) -> None:
        log.reset(codec_state=self._codec.new_state(),
                  tag_stream=self._tag_compressor.new_stream())

    def _flush_log(self, log: Log, result: FillResult) -> None:
        """Whole-log eviction: decompress everything, write back dirty lines."""
        self.stats.add("log_flushes")
        self.stats.add("decompressed_lines", log.n_entries)
        channel = obs_trace.LLC
        for entry in log.entries:
            if not entry.valid:
                continue
            lmt_entry: Optional[LmtEntry] = entry.lmt_ref
            if lmt_entry is None or lmt_entry.entry_ref is not entry:
                raise CacheError("log entry lost its LMT back-pointer")
            if channel is not None:
                channel.emit("evict", cache=self.name, reason="log_flush",
                             dirty=lmt_entry.is_modified, log=log.index)
            if lmt_entry.is_modified:
                result.writebacks.append(
                    (entry.line_address * LINE_SIZE, entry.data))
                self.stats.add("flush_writebacks")
            self.lmt.release(lmt_entry)
            log.invalidate(entry)
