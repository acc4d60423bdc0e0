"""Structured event tracer: JSONL records behind per-category flags.

Hot-path contract: each instrumented site holds its category channel as
a module attribute (``trace.LLC``, ``trace.COMPRESSION``, ...) that is
``None`` whenever the category is disabled, so the cost of an untraced
event is one attribute load plus one branch — no call, no allocation.

Records are one JSON object per line::

    {"cat": "llc", "ev": "evict", "cache": "MORC",
     "reason": "log_flush", ... , "benchmark": "gcc", "run": "1234.1"}

Ambient fields (the current run's benchmark/scheme/run id) are attached
by :func:`set_context`; every event emitted while a context is active
carries them, which is how the ``repro obs`` summariser groups an
interleaved multi-process trace back into per-run streams.  Writes go
through a single ``O_APPEND`` descriptor — POSIX appends are atomic per
``write()``, so forked experiment workers can share one trace file
without interleaving partial lines.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro import settings

_context: Dict[str, object] = {}
_fd: Optional[int] = None
_fd_path: Optional[str] = None


def _writer_fd(path: str) -> int:
    global _fd, _fd_path
    if _fd is None or _fd_path != path:
        if _fd is not None:
            os.close(_fd)
        _fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        _fd_path = path
    return _fd


class Channel:
    """One enabled category's emit endpoint."""

    __slots__ = ("category", "path")

    def __init__(self, category: str, path: str) -> None:
        self.category = category
        self.path = path

    def emit(self, event: str, **fields) -> None:
        """Append one JSONL record (context fields included)."""
        record = {"cat": self.category, "ev": event}
        if _context:
            record.update(_context)
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"),
                          default=str) + "\n"
        os.write(_writer_fd(self.path), line.encode("utf-8"))


#: per-category channels; ``None`` = disabled (the hot-path check)
LLC: Optional[Channel] = None
COMPRESSION: Optional[Channel] = None
MEM: Optional[Channel] = None
RUN: Optional[Channel] = None
ENGINE: Optional[Channel] = None
RESILIENCE: Optional[Channel] = None


def channel(category: str) -> Optional[Channel]:
    """The live channel for ``category``, or ``None`` when untraced."""
    return globals().get(category.upper())


def tracing_active() -> bool:
    """True when at least one category channel is live."""
    return any((LLC, COMPRESSION, MEM, RUN, ENGINE, RESILIENCE))


_run_seq = 0


def next_run_id() -> str:
    """Process-unique run id for grouping an interleaved trace."""
    global _run_seq
    _run_seq += 1
    return f"{os.getpid()}.{_run_seq}"


def refresh() -> None:
    """Rebind the category channels from the current settings."""
    global LLC, COMPRESSION, MEM, RUN, ENGINE, RESILIENCE, _fd, _fd_path
    cfg = settings.current()
    if _fd is not None:
        os.close(_fd)
        _fd = None
        _fd_path = None
    for category in settings.ALL_CATEGORIES:
        live = (Channel(category, cfg.obs_trace)
                if cfg.category_enabled(category) else None)
        globals()[category.upper()] = live


def set_context(**fields) -> None:
    """Attach ambient fields to every subsequently emitted event."""
    _context.update(fields)


def clear_context(*keys: str) -> None:
    """Drop ambient fields (all of them when no keys are given)."""
    if not keys:
        _context.clear()
        return
    for key in keys:
        _context.pop(key, None)


def mem_sample_interval() -> int:
    """Sampling stride for memory-channel occupancy events."""
    return settings.current().obs_sample


def compression_event(algo: str, line: bytes, bits: int) -> None:
    """Record one computed compression attempt (codec hot-path hook).

    Codecs call this only where they actually compute an encoding (memo
    hits are elided), so the disabled cost is one attribute load and a
    branch on an already-expensive path.
    """
    channel = COMPRESSION
    if channel is not None:
        channel.emit("compress", algo=algo, bits=bits,
                     entropy=entropy_class(line))


def entropy_class(line: bytes) -> str:
    """Cheap entropy bucket for a cache line (traced, never simulated).

    Byte-diversity is a good-enough proxy for how compressible LBE and
    C-Pack, the codecs that emit ``compress`` events, find a line; it
    keeps the tracer's own cost bounded.
    """
    if not any(line):
        return "zero"
    distinct = len(set(line))
    if distinct <= 4:
        return "low"
    if distinct <= 16:
        return "mid"
    return "high"


refresh()
