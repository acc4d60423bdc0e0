"""The MORC cache: a log-based, inter-line compressed LLC (paper §3).

Operations (paper §3.1):

- **Read**: check the LMT; an invalid entry is a guaranteed miss.  A valid
  entry requires decompressing the pointed log's tags (8 tags/cycle) and
  data (16 output bytes/cycle) up to the requested line, which is where
  MORC trades latency for compression ratio.
- **Fill**: allocate an LMT entry (possibly an LMT-conflict eviction),
  trial-compress into every active log, append to the winner (5% fudge
  diversification), or retire a full active log and bring in a fresh one.
- **Write-back**: appended like a fill — the old copy, if any, is
  invalidated in place; the LMT entry is flipped to Modified and repointed.
- **Eviction**: LMT-conflict evictions invalidate a single line (writing
  it back if modified); whole-log evictions flush a FIFO-chosen closed log,
  decompressing it start-to-end.  Closed logs whose lines are all dead are
  reused without any flush (priority over the FIFO victim).

``compression_enabled=False`` stores lines and tags raw — used by the
paper's Figure 12 study of write-back-induced invalidation.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Deque, List, Optional

from repro.common.config import MorcConfig
from repro.common.errors import CacheError, PoisonedLineError
from repro.common.stats import StatGroup
from repro.common.words import LINE_SIZE, check_line
from repro.cache.base import FillResult, LLCInterface, ReadResult
from repro.compression.cpack import CPackCompressor
from repro.compression.lbe import LbeCompressor
from repro.compression.lz import LzHistory, LzStreamCompressor
from repro.compression.tag_compression import (
    FULL_TAG_BITS,
    TagCompressor,
    VALID_BITS,
)
from repro.morc.lmt import LineMapTable, LmtEntry, LmtState
from repro.morc.log import Log, LogEntry
from repro.morc.policies import PlacementCandidate, choose_log
from repro.obs import trace as obs_trace
from repro.resilience import config as res_config
from repro.resilience import verify as res_verify
from repro.resilience.faults import make_injector

UNCOMPRESSED_LINE_BITS = LINE_SIZE * 8
UNCOMPRESSED_TAG_BITS = FULL_TAG_BITS + VALID_BITS


class MorcCache(LLCInterface):
    """Log-based inter-line compressed last-level cache."""

    def __init__(self, capacity_bytes: int,
                 config: Optional[MorcConfig] = None,
                 base_latency_cycles: int = 14,
                 decompress_bytes_per_cycle: int = 16,
                 tag_decode_tags_per_cycle: int = 8,
                 compression_enabled: bool = True,
                 algorithm: str = "lbe") -> None:
        """``algorithm`` selects the data compressor: ``"lbe"`` (default,
        the paper's inter-line stream codec), ``"cpack"`` (per-line
        C-Pack inside the same log organisation — the ablation the paper
        motivates LBE against in §3.2.5), or ``"lz"`` (greedy LZ77 over
        the log stream — the software reference the paper's §6 reports
        compresses similarly to LBE)."""
        self.config = config or MorcConfig()
        cfg = self.config
        if capacity_bytes % cfg.log_size_bytes:
            raise CacheError("capacity must divide into whole logs")
        self.capacity_bytes = capacity_bytes
        self.base_latency_cycles = base_latency_cycles
        self.decompress_bytes_per_cycle = decompress_bytes_per_cycle
        self.tag_decode_tags_per_cycle = tag_decode_tags_per_cycle
        self.compression_enabled = compression_enabled
        self.name = "MORCMerged" if cfg.merged_tags else "MORC"

        n_logs = capacity_bytes // cfg.log_size_bytes
        if n_logs < cfg.n_active_logs:
            raise CacheError(
                f"{n_logs} logs cannot sustain {cfg.n_active_logs} active")
        lines_per_log = cfg.log_size_bytes // LINE_SIZE
        if cfg.merged_tags or cfg.unlimited_metadata:
            tag_capacity = None
        else:
            tag_capacity = int(cfg.tag_store_factor * lines_per_log
                               * FULL_TAG_BITS)
        self.logs: List[Log] = [
            Log(index=i, data_capacity_bits=cfg.log_size_bytes * 8,
                tag_capacity_bits=tag_capacity, merged=cfg.merged_tags)
            for i in range(n_logs)
        ]
        capacity_lines = capacity_bytes // LINE_SIZE
        self.lmt = LineMapTable(
            n_entries=capacity_lines * cfg.lmt_overprovision,
            ways=cfg.lmt_ways, unlimited=cfg.unlimited_metadata)

        if algorithm not in ("lbe", "cpack", "lz"):
            raise CacheError(f"unknown MORC data algorithm {algorithm!r}")
        self.algorithm = algorithm
        self._compressor = LbeCompressor()
        self._cpack = CPackCompressor() if algorithm == "cpack" else None
        self._lz = LzStreamCompressor() if algorithm == "lz" else None
        self._tag_compressor = TagCompressor(n_bases=cfg.tag_bases)
        for log in self.logs:
            log.tag_stream = self._tag_compressor.new_stream()

        self._free_pool: Deque[int] = deque(range(n_logs))
        self._closed_fifo: Deque[int] = deque()
        self._clock = 0
        self._active: List[int] = [self._free_pool.popleft()
                                   for _ in range(cfg.n_active_logs)]
        self.stats = StatGroup(self.name)
        # Resilience hooks (repro/resilience): injector is None and
        # _verify False on a clean run, so every hook is one attribute
        # load plus a branch.
        self._injector = make_injector()
        self._raw_fallback: set = set()
        self._verify = res_verify.verification_enabled()
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
        if self.config.parallel_tag_access:
            # §3.2.4: tags and data may be accessed in parallel (more
            # energy); the evaluated design reads them serially.
            return self.base_latency_cycles + max(tag_cycles, data_cycles)
        return self.base_latency_cycles + tag_cycles + data_cycles

    # -- LLCInterface -----------------------------------------------------------

    def read(self, address: int) -> ReadResult:
        line_address = address // LINE_SIZE
        lmt_entry, aliased = self.lmt.lookup(line_address)
        if lmt_entry is None:
            self.stats.add("read_misses")
            latency = float(self.base_latency_cycles)
            if aliased:
                # The tag check that disproved the alias costs a decode.
                self.stats.add("aliased_misses")
                latency += 4
            return ReadResult(False, latency, aliased_miss=aliased)
        log_entry: LogEntry = lmt_entry.entry_ref
        if log_entry.poison_bit is not None:
            return self._recover(lmt_entry, log_entry, during="read")
        self._clock += 1
        self.logs[log_entry.log_index].last_use = self._clock
        self.stats.add("read_hits")
        self.stats.add("decompressed_lines", log_entry.position + 1)
        self.latency_bytes_histogram[log_entry.output_bytes_through] += 1
        return ReadResult(True, self._hit_latency(log_entry),
                          data=log_entry.data)

    # -- soft-error detection and recovery -----------------------------------

    def _recover(self, lmt_entry: LmtEntry, log_entry: LogEntry,
                 during: str) -> ReadResult:
        """A poisoned entry was touched: detect, recover per policy.

        The decoder runs (and fails) over the log prefix, so the
        detection pays the full hit decompression latency and work; the
        recovery then reports a miss, which routes the refetch through
        the memory controller's ordinary latency/energy accounting.
        """
        policy = res_config.current().policy
        latency = self._hit_latency(log_entry)
        self.stats.add("soft_errors_detected")
        self.stats.add("decompressed_lines", log_entry.position + 1)
        dirty = lmt_entry.is_modified
        if policy == "failstop":
            raise PoisonedLineError(
                self.name, log_entry.line_address,
                f"log {log_entry.log_index} entry {log_entry.position}",
                bit=log_entry.poison_bit)
        if policy == "raw":
            self._raw_fallback.add(log_entry.line_address)
            self.stats.add("raw_fallbacks")
        self.logs[log_entry.log_index].invalidate(log_entry)
        self.lmt.release(lmt_entry)
        self.stats.add("soft_error_recoveries")
        if dirty:
            # The only copy was dirty: the modelled refetch restores the
            # stale memory image, i.e. the write is lost.
            self.stats.add("soft_error_data_loss")
        channel = obs_trace.RESILIENCE
        if channel is not None:
            channel.emit("recovery", cache=self.name,
                         line=log_entry.line_address, policy=policy,
                         during=during, dirty=dirty,
                         bit=log_entry.poison_bit)
        return ReadResult(False, latency)

    def fill(self, address: int, data: bytes) -> FillResult:
        self.stats.add("fills")
        return self._insert(address, check_line(data), modified=False)

    def writeback(self, address: int, data: bytes) -> FillResult:
        self.stats.add("writebacks_in")
        return self._insert(address, check_line(data), modified=True)

    def contains(self, address: int) -> bool:
        entry, _ = self.lmt.lookup(address // LINE_SIZE)
        return entry is not None

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
            self.logs[lmt_entry.log_index].invalidate(lmt_entry.entry_ref)
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
        log.invalidate(victim)
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
        candidates = self._trial_all(line_address, data)
        choice = choose_log(candidates, self.config.fudge_factor)
        if choice is None:
            fresh = self._retire_and_refresh(result)
            return self._commit_append(fresh, line_address, data)
        return self._commit_append(choice.log, line_address, data)

    def _trial_all(self, line_address: int,
                   data: bytes) -> List[PlacementCandidate]:
        raw = bool(self._raw_fallback) and line_address in self._raw_fallback
        candidates: List[PlacementCandidate] = []
        for index in self._active:
            log = self.logs[index]
            data_bits = (UNCOMPRESSED_LINE_BITS if raw
                         else self._trial_data_bits(log, data))
            tag_bits = self._trial_tag_bits(log, line_address)
            candidates.append(PlacementCandidate(log, data_bits, tag_bits))
        self.stats.add("trial_compressions", len(candidates))
        return candidates

    def _trial_data_bits(self, log: Log, data: bytes) -> int:
        if not self.compression_enabled:
            return UNCOMPRESSED_LINE_BITS
        if self._cpack is not None:
            # Intra-line codec: size is log-independent.
            return min(self._cpack.compress(data).size_bits,
                       UNCOMPRESSED_LINE_BITS)
        if self._lz is not None:
            compressed = self._lz.compress(data, self._lz_history(log),
                                           commit=False)
            return min(compressed.size_bits, UNCOMPRESSED_LINE_BITS)
        # A real design stores the raw line when compression expands it.
        return min(self._compressor.measure(data, log.dictionary),
                   UNCOMPRESSED_LINE_BITS)

    @staticmethod
    def _lz_history(log: Log) -> LzHistory:
        if log.lz_history is None:
            log.lz_history = LzHistory()
        return log.lz_history

    def _trial_tag_bits(self, log: Log, line_address: int) -> int:
        if not self.compression_enabled:
            return UNCOMPRESSED_TAG_BITS
        return self._tag_compressor.measure(log.tag_stream, line_address)

    def _commit_append(self, log: Log, line_address: int,
                       data: bytes) -> LogEntry:
        raw = bool(self._raw_fallback) and line_address in self._raw_fallback
        if raw and self.compression_enabled:
            # raw recovery policy: this line's data is stored
            # uncompressed (and is assumed ECC-protected, so it is not
            # an injection target); its tag still joins the compressed
            # tag stream, which the decoder does not need to recover
            # the data payload.
            compressed = None
            data_bits = UNCOMPRESSED_LINE_BITS
            token = self._tag_compressor.append(log.tag_stream, line_address)
            tag_bits = token.size_bits
        elif self.compression_enabled and self._cpack is not None:
            compressed = None
            data_bits = min(self._cpack.compress(data).size_bits,
                            UNCOMPRESSED_LINE_BITS)
            token = self._tag_compressor.append(log.tag_stream, line_address)
            tag_bits = token.size_bits
            if self._verify:
                res_verify.verify_intraline_roundtrip(self._cpack, data,
                                                      self.name)
        elif self.compression_enabled and self._lz is not None:
            compressed = None
            lz_compressed = self._lz.compress(data, self._lz_history(log),
                                              commit=True)
            data_bits = min(lz_compressed.size_bits, UNCOMPRESSED_LINE_BITS)
            token = self._tag_compressor.append(log.tag_stream, line_address)
            tag_bits = token.size_bits
        elif self.compression_enabled:
            snapshot = log.dictionary.copy() if self._verify else None
            compressed = self._compressor.compress(data, log.dictionary,
                                                   commit=True)
            data_bits = min(compressed.size_bits, UNCOMPRESSED_LINE_BITS)
            token = self._tag_compressor.append(log.tag_stream, line_address)
            tag_bits = token.size_bits
            self._account_symbols(compressed)
            if snapshot is not None:
                res_verify.verify_lbe_roundtrip(
                    self._compressor, data, snapshot, compressed,
                    self.name)
        else:
            compressed = None
            data_bits = UNCOMPRESSED_LINE_BITS
            tag_bits = UNCOMPRESSED_TAG_BITS
        if not log.fits(data_bits, tag_bits) and not log.entries:
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
        entry = log.append(line_address, data, data_bits, tag_bits,
                           compressed=compressed)
        if (self._injector is not None and self.compression_enabled
                and not raw):
            flip = self._injector.flip_for(data_bits)
            if flip is not None:
                entry.poison_bit = flip
                self.stats.add("soft_errors_injected")
                channel = obs_trace.RESILIENCE
                if channel is not None:
                    channel.emit("soft_error", cache=self.name,
                                 line=line_address, log=log.index,
                                 bit=flip, bits=data_bits)
        return entry

    def _account_symbols(self, compressed) -> None:
        """Track Figure 7's per-symbol usage (bytes represented + zeros).

        Only z* symbols stand for zeros: literals are non-zero words, and
        dictionary entries are literals or blocks that failed to match,
        neither of which is ever all-zero.
        """
        usage, zero_usage = self.symbol_usage, self.symbol_zero_usage
        for symbol in compressed.symbols:
            kind = symbol.kind
            size = symbol.data_bytes
            usage[kind] += size
            if kind[0] == "z":
                zero_usage[kind] += size

    # -- log lifecycle ------------------------------------------------------------

    def _retire_and_refresh(self, result: FillResult) -> Log:
        """Close the fullest active log and replace it with a fresh one."""
        slot = min(range(len(self._active)),
                   key=lambda i: self.logs[self._active[i]].free_data_bits)
        retiring = self.logs[self._active[slot]]
        retiring.closed = True
        self._clock += 1
        retiring.last_use = self._clock  # closure counts as a use
        self._closed_fifo.append(retiring.index)
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
        # Priority 1: a closed log whose lines are all dead — no flush.
        for index in list(self._closed_fifo):
            log = self.logs[index]
            if log.all_invalid:
                self._closed_fifo.remove(index)
                log.reset()
                self.stats.add("log_reuses")
                return log
        # Priority 2: a never-used log.
        if self._free_pool:
            return self.logs[self._free_pool.popleft()]
        # Priority 3: a victim among closed logs, flushed.  The paper
        # studies FIFO; LRU is the configurable alternative (§3.2.1).
        if not self._closed_fifo:
            raise CacheError("no closed log available to evict")
        if self.config.log_replacement == "lru":
            victim_index = min(self._closed_fifo,
                               key=lambda i: self.logs[i].last_use)
            self._closed_fifo.remove(victim_index)
            victim = self.logs[victim_index]
        else:
            victim = self.logs[self._closed_fifo.popleft()]
        self._flush_log(victim, result)
        victim.reset()
        return victim

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
            if entry.poison_bit is not None:
                self._recover_at_flush(lmt_entry, entry)
                continue
            if channel is not None:
                channel.emit("evict", cache=self.name, reason="log_flush",
                             dirty=lmt_entry.is_modified, log=log.index)
            if lmt_entry.is_modified:
                result.writebacks.append(
                    (entry.line_address * LINE_SIZE, entry.data))
                self.stats.add("flush_writebacks")
            self.lmt.release(lmt_entry)
            log.invalidate(entry)

    def _recover_at_flush(self, lmt_entry: LmtEntry,
                          entry: LogEntry) -> None:
        """Flush hit a poisoned entry: the decode fails mid-log.

        A dirty poisoned line cannot be written back — the write is
        lost; a clean one is simply dropped (memory still holds it).
        """
        policy = res_config.current().policy
        self.stats.add("soft_errors_detected")
        if policy == "failstop":
            raise PoisonedLineError(
                self.name, entry.line_address,
                f"log {entry.log_index} entry {entry.position} "
                f"(during flush)", bit=entry.poison_bit)
        if policy == "raw":
            self._raw_fallback.add(entry.line_address)
            self.stats.add("raw_fallbacks")
        dirty = lmt_entry.is_modified
        self.stats.add("soft_error_recoveries")
        if dirty:
            self.stats.add("soft_error_data_loss")
        channel = obs_trace.RESILIENCE
        if channel is not None:
            channel.emit("recovery", cache=self.name,
                         line=entry.line_address, policy=policy,
                         during="flush", dirty=dirty,
                         bit=entry.poison_bit)
        self.lmt.release(lmt_entry)
        self.logs[entry.log_index].invalidate(entry)
