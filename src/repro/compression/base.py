"""Common interfaces for the line compressors.

Two families exist:

- *Intra-line* compressors (C-Pack, the SC2 Huffman coder) compress a
  single 64B line independently; the cache stores the compressed size and
  the original data.
- *Stream* compressors (LBE, LZ) carry dictionary state across lines
  appended to the same log; they live in :mod:`repro.compression.lbe`
  and :mod:`repro.compression.lz`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.common.words import LINE_SIZE, check_line


@dataclass(frozen=True)
class CompressedSize:
    """Result of compressing one cache line.

    ``size_bits`` is the exact bit-accurate encoded size.  ``segments``
    rounds up to a segment granularity when the caller supplies one.
    """

    size_bits: int

    @property
    def size_bytes(self) -> int:
        """Encoded size rounded up to whole bytes."""
        return (self.size_bits + 7) // 8

    def segments(self, segment_bytes: int) -> int:
        """Number of fixed-size segments needed (internal fragmentation)."""
        return max(1, -(-self.size_bytes // segment_bytes))

    @property
    def ratio(self) -> float:
        """Compression ratio of this single line (uncompressed / encoded)."""
        if self.size_bits == 0:
            return float("inf")
        return (LINE_SIZE * 8) / self.size_bits


class IntraLineCompressor(abc.ABC):
    """A compressor that handles each 64B line independently."""

    #: Human-readable scheme name used in reports.
    name: str = "abstract"

    @abc.abstractmethod
    def compress(self, line: bytes) -> CompressedSize:
        """Measure the encoded size of ``line``."""

    @abc.abstractmethod
    def compress_tokens(self, line: bytes):
        """Return an implementation-defined token stream for round-trips."""

    @abc.abstractmethod
    def decompress_tokens(self, tokens) -> bytes:
        """Rebuild the original 64 bytes from :meth:`compress_tokens` output."""

    def roundtrip(self, line: bytes) -> bytes:
        """Compress then decompress ``line`` (test helper)."""
        line = check_line(line)
        return self.decompress_tokens(self.compress_tokens(line))
