"""The Line-Map Table (paper §3.2.2).

The LMT is the indirection layer between addresses and logs.  An entry
holds only *state bits* and a *log index*; it does not store the tag —
hits are confirmed by decompressing the pointed-to log's tag stream.  The
table is over-provisioned (8x in the evaluated design) so that all lines
of a maximally-compressed cache can be tracked.

The evaluated LMT is column-associative, behaving like 2-way
set-associative: a line may live in either of two entries of its set, and
a fill that finds both occupied forces an *LMT-conflict eviction*.  This
model stores the owning line address alongside each entry as shadow state
— hardware derives the same answer from the tag check — and reports
whether a miss was an "aliased miss" (valid entry, wrong line), which
costs a tag decompression before the miss is known.

``unlimited=True`` removes capacity and conflicts entirely (used by the
paper's Figure 13 limit study).

Because the table is sized for the best-case compression, most of it is
idle in a run; a set's entries are built on its first :meth:`allocate`,
and a set never allocated into answers every lookup with a miss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import CacheError
from repro.common.stats import StatGroup


class LmtState(enum.Enum):
    """Per-entry state bits."""

    INVALID = 0
    VALID = 1
    MODIFIED = 2


@dataclass(slots=True)
class LmtEntry:
    """One LMT entry: state + log index (+ shadow line address)."""

    state: LmtState = LmtState.INVALID
    log_index: int = -1
    line_address: int = -1
    entry_ref: Optional[object] = None  # the LogEntry it tracks
    last_use: int = 0

    @property
    def is_valid(self) -> bool:
        return self.state is not LmtState.INVALID

    @property
    def is_modified(self) -> bool:
        return self.state is LmtState.MODIFIED

    def clear(self) -> None:
        self.state = LmtState.INVALID
        self.log_index = -1
        self.line_address = -1
        self.entry_ref = None


class LineMapTable:
    """Set-associative (or unlimited) line-map table."""

    def __init__(self, n_entries: int, ways: int = 2,
                 unlimited: bool = False) -> None:
        if not unlimited:
            if n_entries <= 0 or ways <= 0:
                raise CacheError("LMT needs positive entries and ways")
            if n_entries % ways:
                raise CacheError("LMT entries must divide into ways")
        self.unlimited = unlimited
        self.ways = ways
        self.n_entries = n_entries
        self.n_sets = (n_entries // ways) if not unlimited else 0
        #: set index -> its ways, for the sets allocated into so far
        self._sets: Dict[int, List[LmtEntry]] = {}
        self._unlimited_map: Dict[int, LmtEntry] = {}
        self._clock = 0
        self.stats = StatGroup("LMT")

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def lookup(self, line_address: int) -> Tuple[Optional[LmtEntry], bool]:
        """Find the entry tracking ``line_address``.

        Returns ``(entry, aliased)``: ``entry`` is None on a miss;
        ``aliased`` is True when the miss required a tag check because a
        valid entry pointed somewhere (the paper's "LMT aliased-miss").
        """
        self.stats.add("lookups")
        if self.unlimited:
            entry = self._unlimited_map.get(line_address)
            if entry is not None:
                entry.last_use = self._tick()
                return entry, False
            return None, False
        aliased = False
        for entry in self._sets.get(line_address % self.n_sets, ()):
            if not entry.is_valid:
                continue
            if entry.line_address == line_address:
                entry.last_use = self._tick()
                return entry, False
            aliased = True
        if aliased:
            self.stats.add("aliased_misses")
        return None, aliased

    def peek(self, line_address: int) -> Optional[LmtEntry]:
        """The entry tracking ``line_address``, or None, as :meth:`lookup`
        finds it but changing nothing: no recency tick, no stats."""
        if self.unlimited:
            return self._unlimited_map.get(line_address)
        for entry in self._sets.get(line_address % self.n_sets, ()):
            if entry.is_valid and entry.line_address == line_address:
                return entry
        return None

    def allocate(self, line_address: int) -> Tuple[LmtEntry, Optional[LmtEntry]]:
        """Claim an entry for ``line_address``.

        Returns ``(entry, conflict_victim)``.  ``conflict_victim`` is a
        *copy* of the evicted entry's prior contents when an LMT-conflict
        eviction was necessary (the caller must invalidate that line in
        its log and write it back if modified); the returned ``entry`` is
        ready to be filled in.
        """
        if self.unlimited:
            entry = self._unlimited_map.get(line_address)
            if entry is None:
                entry = LmtEntry()
                self._unlimited_map[line_address] = entry
            entry.line_address = line_address
            entry.last_use = self._tick()
            return entry, None
        set_index = line_address % self.n_sets
        candidates = self._sets.get(set_index)
        if candidates is None:
            candidates = [LmtEntry() for _ in range(self.ways)]
            self._sets[set_index] = candidates
        free: Optional[LmtEntry] = None
        for entry in candidates:
            if entry.is_valid and entry.line_address == line_address:
                entry.last_use = self._tick()
                return entry, None
            if free is None and not entry.is_valid:
                free = entry
        if free is not None:
            free.line_address = line_address
            free.last_use = self._tick()
            return free, None
        # LMT conflict: evict the least-recently-used way.
        victim = min(candidates, key=lambda e: e.last_use)
        self.stats.add("conflict_evictions")
        evicted = LmtEntry(state=victim.state, log_index=victim.log_index,
                           line_address=victim.line_address,
                           entry_ref=victim.entry_ref)
        victim.clear()
        victim.line_address = line_address
        victim.last_use = self._tick()
        return victim, evicted

    def release(self, entry: LmtEntry) -> None:
        """Invalidate an entry (log flush or external eviction)."""
        if self.unlimited and entry.line_address in self._unlimited_map:
            del self._unlimited_map[entry.line_address]
        entry.clear()

    def valid_count(self) -> int:
        """Number of valid entries (test/debug hook)."""
        if self.unlimited:
            return sum(1 for e in self._unlimited_map.values() if e.is_valid)
        return sum(1 for s in self._sets.values() for e in s if e.is_valid)

    def audit(self) -> List[str]:
        """Check the table's structural invariants; returns violations.

        Used by the ``REPRO_VERIFY`` auditor
        (:func:`repro.resilience.verify.audit`).
        """
        violations: List[str] = []
        if self.unlimited:
            for line_address, entry in self._unlimited_map.items():
                if entry.is_valid and entry.line_address != line_address:
                    violations.append(
                        f"LMT: entry keyed 0x{line_address:x} records "
                        f"line 0x{entry.line_address:x}")
            return violations
        for set_index, entries in sorted(self._sets.items()):
            seen: Dict[int, bool] = {}
            for entry in entries:
                if not entry.is_valid:
                    continue
                if entry.entry_ref is None:
                    violations.append(
                        f"LMT set {set_index}: valid entry for line "
                        f"0x{entry.line_address:x} has no log entry")
                if entry.line_address % self.n_sets != set_index:
                    violations.append(
                        f"LMT set {set_index}: line "
                        f"0x{entry.line_address:x} maps to set "
                        f"{entry.line_address % self.n_sets}")
                if entry.line_address in seen:
                    violations.append(
                        f"LMT set {set_index}: line "
                        f"0x{entry.line_address:x} tracked twice")
                seen[entry.line_address] = True
        return violations
