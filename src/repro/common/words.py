"""Utilities for viewing a 64-byte cache line at multiple word granularities.

The compression algorithms reproduced here (LBE in particular) operate on a
cache line as a sequence of 32-, 64-, 128-, or 256-bit chunks aligned to
their own size (paper §3.2.5).  A line is canonically represented as
``bytes`` of length :data:`LINE_SIZE`; these helpers slice it into integer
words without copying more than necessary.
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence

LINE_SIZE = 64
"""Cache line size in bytes (Table 5: 64B block size)."""

WORD_BYTES = 4
"""The base compression word: 32 bits."""

GRANULARITIES = (4, 8, 16, 32)
"""Chunk sizes in bytes for LBE's 32/64/128/256-bit dictionaries."""

ZERO_LINE = bytes(LINE_SIZE)
"""A cache line of all zero bytes."""

_LINE_WORDS = struct.Struct(f">{LINE_SIZE // WORD_BYTES}I")
"""A full line as sixteen big-endian 32-bit words, unpacked in one call."""


def check_line(data: bytes) -> bytes:
    """Validate that ``data`` is a full cache line and return it."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"cache line must be bytes, got {type(data).__name__}")
    if len(data) != LINE_SIZE:
        raise ValueError(f"cache line must be {LINE_SIZE} bytes, got {len(data)}")
    return bytes(data)


def chunks(data: bytes, size: int) -> Iterator[bytes]:
    """Yield consecutive aligned ``size``-byte chunks of ``data``."""
    for offset in range(0, len(data), size):
        yield data[offset:offset + size]


def words32(data: bytes) -> list[int]:
    """Return ``data`` as big-endian 32-bit unsigned integers.

    A full line is sixteen words, unpacked by one precompiled ``struct``
    call; any other length is sliced word by word (a trailing partial
    word is read as a shorter big-endian integer).
    """
    if len(data) == LINE_SIZE:
        return list(_LINE_WORDS.unpack(data))
    return [int.from_bytes(data[i:i + 4], "big") for i in range(0, len(data), 4)]


def from_words32(values: Sequence[int]) -> bytes:
    """Rebuild raw bytes from 32-bit big-endian words."""
    return b"".join(value.to_bytes(4, "big") for value in values)
