"""MORC's append-only log structure (paper §2.1, §3.2.1).

A log is a fixed-size region (512 bytes by default) into which cache lines
are compressed and appended; in-place modification is never allowed.  Each
log also holds its compressed tag stream — either in a separate fixed tag
region (default, sized by the 2x tag-store factor) or sharing the data
region and growing from the right (MORCMerged, §3.2.6).

Because decompression must replay a log from its start, an active log
carries its own data codec state (:mod:`repro.morc.codecs`) and
tag-compression stream, which later lines are coded against.  The cache
supplies fresh ones when the log goes active (:meth:`Log.reset`, or as
it leaves the free pool) and :meth:`Log.close` drops them: a closed log
is read-only and a decompressor replays it from its own stream, so only
the active logs hold codec state (§3.2.1, §3.2.5).  An entry keeps its
line's size, not its encoding: reads, flushes and the LMT need only
sizes and data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.errors import CacheError
from repro.common.words import LINE_SIZE
from repro.compression.tag_compression import TagStream


@dataclass(slots=True)
class LogEntry:
    """One appended cache line inside a log."""

    line_address: int
    data: bytes
    position: int
    data_bits: int
    tag_bits: int
    valid: bool = True
    lmt_ref: Optional[object] = None  # back-pointer to the tracking LmtEntry
    log_index: int = -1  # which log holds this entry

    @property
    def output_bytes_through(self) -> int:
        """Uncompressed bytes a decompressor emits to reach this entry."""
        return (self.position + 1) * LINE_SIZE


@dataclass(slots=True)
class Log:
    """A fixed-size, append-only compressed region."""

    index: int
    data_capacity_bits: int
    tag_capacity_bits: Optional[int]
    merged: bool = False
    entries: List[LogEntry] = field(default_factory=list)
    data_bits_used: int = 0
    tag_bits_used: int = 0
    valid_count: int = 0
    closed: bool = False
    generation: int = 0
    #: the data codec's per-log state (LBE dictionary, LZ history, None)
    #: while the log is active; None before it first goes active and
    #: once it closes
    codec_state: object = None
    #: the tag codec's per-log stream while the log is active (None for
    #: uncompressed tags, before the log first goes active and once it
    #: closes)
    tag_stream: Optional[TagStream] = None

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    @property
    def free_data_bits(self) -> int:
        """Remaining appendable bits under this log's layout."""
        if self.merged:
            return (self.data_capacity_bits - self.data_bits_used
                    - self.tag_bits_used)
        return self.data_capacity_bits - self.data_bits_used

    def data_room(self, tag_bits: int) -> Optional[int]:
        """Most data bits this log can take beside a ``tag_bits`` tag, or
        None when the log is closed or the tag does not fit.

        This is the one fit rule: a line fits iff its data bits are at
        most the room.  A merged log's tag shares the data region, a
        separate one must fit the tag region, and an unlimited one
        (``tag_capacity_bits`` None) takes any tag.
        """
        if self.closed:
            return None
        if self.merged:
            room = (self.data_capacity_bits - self.data_bits_used
                    - self.tag_bits_used - tag_bits)
            return room if room >= 0 else None
        if (self.tag_capacity_bits is not None
                and self.tag_bits_used + tag_bits > self.tag_capacity_bits):
            return None
        return self.data_capacity_bits - self.data_bits_used

    def fits(self, data_bits: int, tag_bits: int) -> bool:
        """Can a line of this encoded size be appended?"""
        room = self.data_room(tag_bits)
        return room is not None and data_bits <= room

    def append(self, line_address: int, data: bytes, data_bits: int,
               tag_bits: int) -> LogEntry:
        """Append a compressed line; one that does not fit
        (:meth:`data_room`) is an overflow."""
        if self.closed:
            raise CacheError(f"append to closed log {self.index}")
        room = self.data_room(tag_bits)
        if room is None or data_bits > room:
            raise CacheError(f"log {self.index} overflow")
        entry = LogEntry(line_address=line_address, data=data,
                         position=len(self.entries), data_bits=data_bits,
                         tag_bits=tag_bits, log_index=self.index)
        self.entries.append(entry)
        self.data_bits_used += data_bits
        self.tag_bits_used += tag_bits
        self.valid_count += 1
        return entry

    def invalidate(self, entry: LogEntry) -> bool:
        """Mark an entry dead (its storage is reclaimed only at log reuse).

        Returns True when this killed the log's last valid line.
        """
        if not entry.valid:
            return False
        entry.valid = False
        self.valid_count -= 1
        if self.valid_count < 0:
            raise CacheError(f"log {self.index} valid_count underflow")
        return self.valid_count == 0

    @property
    def all_invalid(self) -> bool:
        """True when every contained line is dead (log reusable sans flush)."""
        return self.valid_count == 0 and bool(self.entries)

    def close(self) -> None:
        """Retire the log: it takes no more appends, and drops the codec
        state and tag stream that only appends use (the mirror of
        :meth:`reset`)."""
        self.closed = True
        self.codec_state = None
        self.tag_stream = None

    def reset(self, codec_state: object,
              tag_stream: Optional[TagStream]) -> None:
        """Reclaim the log for reuse as a fresh active log, starting the
        given fresh codec state and tag stream."""
        self.entries.clear()
        self.data_bits_used = 0
        self.tag_bits_used = 0
        self.valid_count = 0
        self.closed = False
        self.generation += 1
        self.codec_state = codec_state
        self.tag_stream = tag_stream

    @property
    def utilization(self) -> float:
        """Fraction of the data region holding (valid or dead) bits."""
        used = self.data_bits_used + (self.tag_bits_used if self.merged else 0)
        return used / self.data_capacity_bits if self.data_capacity_bits else 0.0

    def audit(self) -> List[str]:
        """Check this log's accounting invariants; returns violations.

        Used by the ``REPRO_VERIFY`` auditor
        (:func:`repro.resilience.verify.audit`); an empty list means the
        log is consistent.
        """
        violations: List[str] = []
        data_bits = sum(entry.data_bits for entry in self.entries)
        tag_bits = sum(entry.tag_bits for entry in self.entries)
        valid = sum(1 for entry in self.entries if entry.valid)
        if data_bits != self.data_bits_used:
            violations.append(
                f"log {self.index}: data_bits_used={self.data_bits_used} "
                f"but entries sum to {data_bits}")
        if tag_bits != self.tag_bits_used:
            violations.append(
                f"log {self.index}: tag_bits_used={self.tag_bits_used} "
                f"but entries sum to {tag_bits}")
        if valid != self.valid_count:
            violations.append(
                f"log {self.index}: valid_count={self.valid_count} but "
                f"{valid} entries are valid")
        occupancy = data_bits + (tag_bits if self.merged else 0)
        if occupancy > self.data_capacity_bits:
            violations.append(
                f"log {self.index}: {occupancy} bits exceed the "
                f"{self.data_capacity_bits}-bit data region")
        if (not self.merged and self.tag_capacity_bits is not None
                and tag_bits > self.tag_capacity_bits):
            violations.append(
                f"log {self.index}: {tag_bits} tag bits exceed the "
                f"{self.tag_capacity_bits}-bit tag region")
        if self.closed and (self.codec_state is not None
                            or self.tag_stream is not None):
            violations.append(
                f"log {self.index}: closed but still holds codec state "
                f"or a tag stream")
        for position, entry in enumerate(self.entries):
            if entry.position != position:
                violations.append(
                    f"log {self.index}: entry {position} records "
                    f"position {entry.position}")
            if entry.log_index != self.index:
                violations.append(
                    f"log {self.index}: entry {position} records log "
                    f"{entry.log_index}")
        return violations
